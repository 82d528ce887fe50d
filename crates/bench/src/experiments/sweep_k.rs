//! Figures 6–8: voting score and seed-finding time vs seed budget `k`,
//! for all nine methods on three dataset replicas.
//!
//! Build-once lifecycle: each method builds its artifacts **once per
//! dataset** (at the largest swept budget) and every `k` queries the same
//! prepared engine, so the sweep pays O(methods) builds instead of
//! O(methods × |ks|). `build_s` reports the one-time build, `select_s`
//! the per-query greedy.

use crate::{secs, ExpConfig, PreparedMethod, Result, Table};
use vom_core::{MethodId, Problem};
use vom_datasets::{twitter_election_like, twitter_mask_like, yelp_like, Dataset, ReplicaParams};
use vom_voting::ScoringFunction;

pub(crate) fn datasets(cfg: &ExpConfig) -> Vec<Dataset> {
    let params = ReplicaParams {
        scale: cfg.scale,
        seed: cfg.seed,
        mu: 10.0,
    };
    vec![
        yelp_like(&params),
        twitter_election_like(&params),
        twitter_mask_like(&params),
    ]
}

/// Methods for the sweep: exact DM joins only when the graph is small
/// enough for its `O(k·t·m·n)` rank-score greedy (the paper ran DM on a
/// 512 GB server for days; the shape comparison survives without it on
/// the larger replicas).
pub(crate) fn sweep_methods(n: usize, score: &ScoringFunction) -> Vec<MethodId> {
    let dm_ok = match score {
        ScoringFunction::Cumulative => n <= 5_000,
        _ => n <= 1_500,
    };
    if dm_ok {
        MethodId::all().to_vec()
    } else {
        MethodId::without_exact().to_vec()
    }
}

fn run_sweep(cfg: &ExpConfig, id: &str, score: ScoringFunction) -> Result<()> {
    let t = cfg.default_t();
    let mut table = Table::new(
        id,
        &format!("{score} score and seed-finding time vs k (paper Figures 6-8)"),
        &[
            "dataset",
            "k",
            "method",
            "score",
            "select_s",
            "build_s",
            "memory_mb",
        ],
    );
    for ds in datasets(cfg) {
        let n = ds.instance.num_nodes();
        let methods = sweep_methods(n, &score);
        let ks: Vec<usize> = cfg
            .k_sweep()
            .iter()
            .map(|&k| k.min(n / 2))
            .filter(|&k| k > 0)
            .collect();
        let Some(&k_max) = ks.iter().max() else {
            continue;
        };
        let Ok(spec) = Problem::new(&ds.instance, ds.default_target, k_max, t, score.clone())
        else {
            continue;
        };
        for &m in &methods {
            let mut prepared = PreparedMethod::new(&spec, m, cfg.seed)?;
            let build = prepared.build_time();
            for &k in &ks {
                let out = prepared.evaluate(k)?;
                table.row(vec![
                    ds.name.to_string(),
                    k.to_string(),
                    m.name().to_string(),
                    format!("{:.2}", out.score),
                    secs(out.elapsed),
                    secs(build),
                    format!("{:.1}", out.memory as f64 / 1e6),
                ]);
            }
        }
    }
    table.emit(&cfg.out_dir);
    Ok(())
}

/// Figure 6: plurality score vs k.
pub fn run_plurality(cfg: &ExpConfig) -> Result<()> {
    run_sweep(cfg, "fig6", ScoringFunction::Plurality)
}

/// Figure 7: Copeland score vs k.
pub fn run_copeland(cfg: &ExpConfig) -> Result<()> {
    run_sweep(cfg, "fig7", ScoringFunction::Copeland)
}

/// Figure 8: cumulative score vs k.
pub fn run_cumulative(cfg: &ExpConfig) -> Result<()> {
    run_sweep(cfg, "fig8", ScoringFunction::Cumulative)
}
