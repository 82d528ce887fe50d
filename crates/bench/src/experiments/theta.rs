//! Figures 13–14: score vs the sketch count θ, varying `k` and `t` —
//! the §VI-E heuristic calibration.
//!
//! Build-once lifecycle: one sketch set is built per (horizon, θ) and every
//! budget variant queries it — the artifact depends on `t` and θ but not
//! on `k`, so the k-variants ride along for free (the one-shot path paid
//! one build per table cell).

use crate::{ExpConfig, Result, Table};
use std::sync::Arc;
use vom_core::engine::{QuerySession, SeedSelector};
use vom_core::rs::RsConfig;
use vom_core::{Engine, Problem, Query};
use vom_datasets::{twitter_mask_like, yelp_like, Dataset, ReplicaParams};
use vom_voting::ScoringFunction;

/// The θ values swept for an `n`-node replica (exported so the
/// build-counter test can predict the exact number of sketch builds).
pub fn theta_sweep(n: usize, quick: bool) -> Vec<usize> {
    let mut thetas = Vec::new();
    let mut theta = 256usize;
    let cap = if quick { n } else { 4 * n };
    while theta <= cap {
        thetas.push(theta);
        theta *= 4;
    }
    thetas.push(cap.max(256));
    thetas.dedup();
    thetas
}

/// The distinct horizons among the variants, in first-seen order (order
/// preserved so the t = 20 rows keep leading the table). Exported for
/// the build-counter test so its expected count uses the same grouping.
pub fn distinct_horizons(variants: &[(String, usize, usize)]) -> Vec<usize> {
    let mut horizons: Vec<usize> = Vec::new();
    for (_, _, t) in variants {
        if !horizons.contains(t) {
            horizons.push(*t);
        }
    }
    horizons
}

/// The (label, k, t) variants for a base budget (exported for the
/// build-counter test). Two budgets share `t = 20`; the third variant
/// lowers the horizon.
pub fn variants(base_k: usize) -> [(String, usize, usize); 3] {
    [
        (format!("k={base_k},t=20"), base_k, 20),
        (format!("k={},t=20", base_k / 2), base_k / 2, 20),
        (format!("k={base_k},t=10"), base_k, 10),
    ]
}

fn run_theta(cfg: &ExpConfig, id: &str, ds: Dataset, score: ScoringFunction) -> Result<()> {
    let n = ds.instance.num_nodes();
    let mut table = Table::new(
        id,
        &format!("{score} score vs sketch count θ (paper Figures 13-14)"),
        &["variant", "theta", "score"],
    );
    let base_k = cfg.default_k().min(n / 10).max(1);
    let variants = variants(base_k);
    // Group the variants by horizon: the sketch artifacts depend on t
    // (and θ) but not on k, so each (t, θ) pair builds exactly once.
    let horizons = distinct_horizons(&variants);
    for t in horizons {
        let group: Vec<&(String, usize, usize)> =
            variants.iter().filter(|(_, _, vt)| *vt == t).collect();
        let k_max = group.iter().map(|(_, k, _)| *k).max().unwrap_or(1).max(1);
        let spec = Problem::new(&ds.instance, ds.default_target, k_max, t, score.clone())?;
        for &theta in &theta_sweep(n, cfg.quick) {
            let engine = Engine::Rs(RsConfig {
                theta_override: Some(theta),
                seed: cfg.seed,
                ..RsConfig::default()
            });
            let mut session = QuerySession::new(Arc::new(engine.prepare_index(&spec)?));
            for (label, k, _) in group.iter().copied() {
                let query = Query::plain((*k).max(1), score.clone(), ds.default_target);
                let res = session.select(&query)?;
                table.row(vec![
                    label.clone(),
                    theta.to_string(),
                    format!("{:.2}", res.exact_score),
                ]);
            }
        }
    }
    table.emit(&cfg.out_dir);
    Ok(())
}

/// Figure 13: plurality score vs θ on Twitter-Mask.
pub fn run_plurality(cfg: &ExpConfig) -> Result<()> {
    let params = ReplicaParams {
        scale: cfg.scale,
        seed: cfg.seed,
        mu: 10.0,
    };
    run_theta(
        cfg,
        "fig13",
        twitter_mask_like(&params),
        ScoringFunction::Plurality,
    )
}

/// Figure 14: Copeland score vs θ on Yelp.
pub fn run_copeland(cfg: &ExpConfig) -> Result<()> {
    let params = ReplicaParams {
        scale: cfg.scale,
        seed: cfg.seed,
        mu: 10.0,
    };
    run_theta(cfg, "fig14", yelp_like(&params), ScoringFunction::Copeland)
}
