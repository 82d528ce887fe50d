//! Table VI: minimum seed-set sizes for the target to win the plurality
//! vote, per method.
//!
//! Build-once lifecycle: the budget search probes many `k` values; each
//! engine prepares its artifacts once (for the whole search) and every
//! probe is a cheap query against them.

use crate::error::Result;
use crate::{ExpConfig, Table};
use std::sync::Arc;
use vom_core::engine::{QuerySession, SeedSelector};
use vom_core::rs::RsConfig;
use vom_core::rw::RwConfig;
use vom_core::win::try_min_seeds_to_win;
use vom_core::{CoreError, Engine, Problem, Query};
use vom_datasets::{twitter_distancing_like, twitter_mask_like, ReplicaParams};
use vom_voting::ScoringFunction;

/// Binary-searches the minimum winning budget with each of DM/RW/RS (the
/// paper's finding: the more approximate the method, the more seeds it
/// needs). DM is skipped on replicas too large for its exact greedy.
pub fn run(cfg: &ExpConfig) -> Result<()> {
    let params = ReplicaParams {
        scale: (cfg.scale * 0.4).max(0.0005),
        seed: cfg.seed,
        mu: 10.0,
    };
    let mut table = Table::new(
        "table6",
        "minimum seeds for the target to win the plurality vote (paper Table VI)",
        &["dataset", "method", "k*"],
    );
    for ds in [twitter_mask_like(&params), twitter_distancing_like(&params)] {
        let n = ds.instance.num_nodes();
        let base = Problem::new(
            &ds.instance,
            ds.default_target,
            1,
            cfg.default_t(),
            ScoringFunction::Plurality,
        )?;
        let mut methods = vec![
            Engine::Rw(RwConfig {
                seed: cfg.seed,
                ..RwConfig::default()
            }),
            Engine::Rs(RsConfig {
                seed: cfg.seed,
                ..RsConfig::default()
            }),
        ];
        if n <= 3_000 {
            methods.insert(0, Engine::Dm);
        }
        for engine in methods {
            // Prepare at the search's maximum probe budget (n); probes
            // query the shared index through one session.
            let mut session =
                QuerySession::new(Arc::new(engine.prepare_index(&base.with_budget(n))?));
            let result: std::result::Result<_, CoreError> =
                try_min_seeds_to_win(&base, |p: &Problem<'_>| {
                    let query = Query::plain(p.k, p.score.clone(), p.target);
                    session.select(&query).map(|r| r.seeds)
                });
            let k_star = result?
                .map(|w| w.k.to_string())
                .unwrap_or_else(|| "unwinnable".to_string());
            table.row(vec![ds.name.to_string(), engine.name().to_string(), k_star]);
        }
    }
    table.emit(&cfg.out_dir);
    Ok(())
}
