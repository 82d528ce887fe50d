//! Figure 12: cumulative score and seed-finding time vs the time
//! horizon `t`.

use crate::{harness_engine, secs, ExpConfig, Result, Table};
use vom_core::engine::{SeedSelector, SelectionMode};
use vom_core::{MethodId, Problem};
use vom_datasets::{yelp_like, ReplicaParams};
use vom_voting::ScoringFunction;

/// Sweeps `t = 0..=30` for DM/RW/RS on Yelp — the paper's finding: the
/// score plateaus near `t = 20` (hence the default horizon), and DM's
/// time grows linearly in `t` while RW/RS barely move.
pub fn run(cfg: &ExpConfig) -> Result<()> {
    let params = ReplicaParams {
        scale: (cfg.scale * 0.4).max(0.0005),
        seed: cfg.seed,
        mu: 10.0,
    };
    let ds = yelp_like(&params);
    let k = (cfg.default_k() / 2)
        .clamp(5, ds.instance.num_nodes() / 10)
        .max(1);
    let horizons: Vec<usize> = if cfg.quick {
        vec![0, 5, 10, 20]
    } else {
        vec![0, 2, 5, 10, 15, 20, 25, 30]
    };
    let mut table = Table::new(
        "fig12",
        "cumulative score and seed-finding time vs horizon t (paper Figure 12)",
        &["t", "method", "score", "time_s"],
    );
    for &t in &horizons {
        let problem = Problem::new(
            &ds.instance,
            ds.default_target,
            k,
            t,
            ScoringFunction::Cumulative,
        )?;
        // The artifacts depend on the horizon, so each t needs its own
        // build; the one-shot evaluation is the honest cost here.
        for m in [MethodId::Dm, MethodId::Rw, MethodId::Rs] {
            let out = harness_engine(m, cfg.seed).select_once(&problem, SelectionMode::Auto)?;
            table.row(vec![
                t.to_string(),
                m.name().to_string(),
                format!("{:.2}", out.exact_score),
                secs(out.elapsed),
            ]);
        }
    }
    table.emit(&cfg.out_dir);
    Ok(())
}
