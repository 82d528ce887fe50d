//! Figure 17: scalability — seed-finding time and estimator memory vs
//! graph size.

use crate::{harness_engine, secs, ExpConfig, Result, Table};
use vom_core::engine::{SeedSelector, SelectionMode};
use vom_core::{MethodId, Problem};
use vom_datasets::{twitter_distancing_like, ReplicaParams};
use vom_voting::ScoringFunction;

/// Grows the Twitter-Social-Distancing replica through six sizes and
/// reports seed-finding time and memory for the cumulative score — the
/// paper's finding: RW/RS scale near-linearly, DM polynomially; DM holds
/// the least memory, RW far more than RS.
pub fn run(cfg: &ExpConfig) -> Result<()> {
    let fractions: &[f64] = if cfg.quick {
        &[0.25, 0.5, 1.0]
    } else {
        &[0.15, 0.3, 0.45, 0.6, 0.8, 1.0]
    };
    let mut table = Table::new(
        "fig17",
        "seed-finding time and memory vs graph size, cumulative score (paper Figure 17)",
        &["nodes", "edges", "method", "time_s", "memory_mb"],
    );
    for &f in fractions {
        let params = ReplicaParams {
            scale: cfg.scale * f,
            seed: cfg.seed,
            mu: 10.0,
        };
        let ds = twitter_distancing_like(&params);
        let n = ds.instance.num_nodes();
        let k = (cfg.default_k() / 2).clamp(5, n / 10);
        let problem = Problem::new(
            &ds.instance,
            ds.default_target,
            k,
            cfg.default_t(),
            ScoringFunction::Cumulative,
        )?;
        let mut methods = vec![MethodId::Rw, MethodId::Rs];
        if n <= 10_000 {
            methods.insert(0, MethodId::Dm);
        }
        // Each fraction is a different replica, so the build cost is part
        // of the scalability story — one-shot evaluation per cell.
        for m in methods {
            let out = harness_engine(m, cfg.seed).select_once(&problem, SelectionMode::Auto)?;
            table.row(vec![
                n.to_string(),
                ds.instance.graph_of(0).num_edges().to_string(),
                m.name().to_string(),
                secs(out.elapsed),
                format!("{:.1}", out.estimator_heap_bytes as f64 / 1e6),
            ]);
        }
    }
    table.emit(&cfg.out_dir);
    Ok(())
}
