//! Figure 19 (Appendix D): sensitivity of the scores to the edge-weight
//! parameter µ.

use crate::{ExpConfig, Result, Table};
use vom_core::rs::RsConfig;
use vom_core::{Engine, Problem, SeedSelector, SelectionMode};
use vom_datasets::{twitter_election_like, yelp_like, Dataset, ReplicaParams};
use vom_voting::ScoringFunction;

fn series(
    cfg: &ExpConfig,
    make: impl Fn(&ReplicaParams) -> Dataset,
    score: ScoringFunction,
    table: &mut Table,
) -> Result<()> {
    for mu in [1.0, 5.0, 10.0, 15.0, 25.0] {
        let params = ReplicaParams {
            scale: cfg.scale,
            seed: cfg.seed,
            mu,
        };
        let ds = make(&params);
        let k = cfg.default_k().min(ds.instance.num_nodes() / 10).max(1);
        let problem = Problem::new(
            &ds.instance,
            ds.default_target,
            k,
            cfg.default_t(),
            score.clone(),
        )?;
        let res = Engine::Rs(RsConfig {
            seed: cfg.seed,
            ..RsConfig::default()
        })
        .select_once(&problem, SelectionMode::Plain)?;
        table.row(vec![
            ds.name.to_string(),
            score.to_string(),
            format!("{mu}"),
            format!("{:.2}", res.exact_score),
        ]);
    }
    Ok(())
}

/// The paper's justification of µ = 10: the column normalization damps
/// µ's influence, and the µ = 10 / µ = 15 curves nearly coincide.
pub fn run(cfg: &ExpConfig) -> Result<()> {
    let mut table = Table::new(
        "fig19",
        "score vs edge-weight parameter µ (paper Figure 19)",
        &["dataset", "score", "mu", "score value"],
    );
    series(cfg, yelp_like, ScoringFunction::Plurality, &mut table)?;
    series(
        cfg,
        twitter_election_like,
        ScoringFunction::Cumulative,
        &mut table,
    )?;
    table.emit(&cfg.out_dir);
    Ok(())
}
