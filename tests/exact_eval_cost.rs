//! The cost of exact evaluation, pinned in solver counts. A hot query
//! solves only the target campaign, once for each seed set it scores,
//! and reads the competitors' rows from the prepared index (§V computes
//! those `r − 1` rows once; the cumulative rule needs none, §II-C
//! Remark 1).
//!
//! `SolverCounters` are process-wide, so this file holds exactly one
//! `#[test]`: it runs in its own binary, and no other test solves while
//! it counts.

use std::sync::Arc;
use vom::core::rs::RsConfig;
use vom::core::{Engine, Problem, Query, QuerySession, SeedSelector};
use vom::datasets::{yelp_like, ReplicaParams};
use vom::diffusion::SolverCounters;
use vom::voting::ScoringFunction;

const HORIZON: usize = 20;

/// Solver activity of one query.
fn cost(session: &mut QuerySession, query: &Query) -> SolverCounters {
    let before = SolverCounters::snapshot();
    session.select(query).expect("valid query");
    SolverCounters::snapshot().since(before)
}

#[test]
fn hot_queries_solve_one_target_campaign_per_scored_seed_set() {
    let ds = yelp_like(&ReplicaParams::at_scale(0.0004, 2023));
    let inst = &ds.instance;
    let target = ds.default_target;
    assert_eq!(inst.num_candidates(), 10);

    // Exact DM, cumulative. The warm-up query caches the CELF order, so
    // a hot query is a prefix of it plus its exact score.
    let cumulative = ScoringFunction::Cumulative;
    let problem = Problem::new(inst, target, 8, HORIZON, cumulative.clone()).unwrap();
    let mut dm = QuerySession::new(Arc::new(Engine::Dm.prepare_index(&problem).unwrap()));
    cost(&mut dm, &Query::new(8, cumulative.clone(), target));
    let hot = cost(&mut dm, &Query::new(6, cumulative, target));
    assert_eq!((hot.cold_solves, hot.warm_solves), (1, 0), "DM cumulative");

    // RS plurality. The warm-up auto query fills every lazy cache: the
    // competitor rows and their rank index, the seedless matrix and the
    // sandwich upper-bound order.
    let plurality = ScoringFunction::Plurality;
    let problem = Problem::new(inst, target, 8, HORIZON, plurality.clone()).unwrap();
    let rs = Engine::Rs(RsConfig {
        seed: 2023,
        ..RsConfig::default()
    });
    let mut rs = QuerySession::new(Arc::new(rs.prepare_index(&problem).unwrap()));
    cost(&mut rs, &Query::new(8, plurality.clone(), target));
    // Plain: the selected set's exact score.
    let plain = cost(&mut rs, &Query::plain(5, plurality.clone(), target));
    assert_eq!(plain.cold_solves, 1, "RS plain plurality");
    // Auto (sandwich): S_rank and S_cum to pick S_F, then S_U and S_L.
    // The chosen set's score comes from the arbitration.
    let auto = cost(&mut rs, &Query::new(5, plurality, target));
    assert_eq!(auto.cold_solves, 4, "RS auto plurality");
}
