//! Figure 2: empirical sandwich approximation factor `F(S_U)/UB(S_U)`.
//!
//! Build-once lifecycle: the RS engine builds its sketch artifacts **once
//! per dataset** and every budget `k` queries the same prepared engine —
//! the one-shot path would rebuild them per trial (O(|ks|) builds
//! instead of 1; `tests/build_counter.rs` pins the count).

use crate::{ExpConfig, Result, Table};
use std::sync::Arc;
use vom_core::engine::{QuerySession, SeedSelector};
use vom_core::rs::RsConfig;
use vom_core::{Engine, Problem};
use vom_datasets::{twitter_distancing_like, yelp_like, ReplicaParams};
use vom_voting::ScoringFunction;

/// Trials varying `k` (the paper: 100..1000 step 100, here scaled) on
/// Twitter-Social-Distancing (plurality) and Yelp (Copeland); reports the
/// ratio per trial and the paper's summary statistics.
pub fn run(cfg: &ExpConfig) -> Result<()> {
    let params = ReplicaParams {
        scale: cfg.scale,
        seed: cfg.seed,
        mu: 10.0,
    };
    let cases = vec![
        (twitter_distancing_like(&params), ScoringFunction::Plurality),
        (yelp_like(&params), ScoringFunction::Copeland),
    ];
    let ks: Vec<usize> = if cfg.quick {
        vec![10, 20, 40]
    } else {
        (1..=10).map(|i| i * 10).collect()
    };
    let k_max = *ks.last().expect("non-empty sweep");
    let mut table = Table::new(
        "fig2",
        "sandwich approximation ratio F(S_U)/UB(S_U) (paper Figure 2)",
        &["dataset", "score", "k", "ratio"],
    );
    let mut ratios = Vec::new();
    for (ds, score) in cases {
        let spec = Problem::new(
            &ds.instance,
            ds.default_target,
            k_max,
            cfg.default_t(),
            score.clone(),
        )?;
        let engine = Engine::Rs(RsConfig {
            seed: cfg.seed,
            ..RsConfig::default()
        });
        let mut session = QuerySession::new(Arc::new(engine.prepare_index(&spec)?));
        for &k in &ks {
            let res = session.select_k(k)?;
            let ratio = res.sandwich.expect("non-submodular score").ratio;
            ratios.push(ratio);
            table.row(vec![
                ds.name.to_string(),
                score.to_string(),
                k.to_string(),
                format!("{ratio:.3}"),
            ]);
        }
    }
    let above_07 = ratios.iter().filter(|&&r| r >= 0.7).count();
    let above_08 = ratios.iter().filter(|&&r| r >= 0.8).count();
    table.row(vec![
        "summary".into(),
        format!("{} trials", ratios.len()),
        format!(
            "{:.0}% >= 0.7",
            100.0 * above_07 as f64 / ratios.len() as f64
        ),
        format!(
            "{:.0}% >= 0.8",
            100.0 * above_08 as f64 / ratios.len() as f64
        ),
    ]);
    table.emit(&cfg.out_dir);
    Ok(())
}
