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
use vom::core::win::min_seeds_to_win;
use vom::core::{Engine, Problem, Query, QuerySession, SeedSelector};
use vom::datasets::{yelp_like, ReplicaParams};
use vom::diffusion::SolverCounters;
use vom::graph::Node;
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

    // Exact DM, cumulative. The warm-up query runs the CELF order once:
    // one solve for the committed set, one lane per candidate in the
    // heap fill, one solve per re-evaluation and per commit, and one for
    // the exact score. No solve is warm-started.
    let cumulative = ScoringFunction::Cumulative;
    let problem = Problem::new(inst, target, 8, HORIZON, cumulative.clone()).unwrap();
    let mut dm = QuerySession::new(Arc::new(Engine::Dm.prepare_index(&problem).unwrap()));
    let warm_up = cost(&mut dm, &Query::new(8, cumulative.clone(), target));
    assert_eq!(
        (
            warm_up.cold_solves,
            warm_up.warm_solves,
            warm_up.warm_frontier_nodes
        ),
        (422, 0, 0),
        "DM cumulative warm-up"
    );
    // A hot query is a prefix of the cached order plus its exact score.
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
    let auto = cost(&mut rs, &Query::new(5, plurality.clone(), target));
    assert_eq!(auto.cold_solves, 4, "RS auto plurality");

    // FJ-Vote-Win. The search solves the r − 1 competitor rows once, and
    // each probe solves only the target campaign. The selector ranks by
    // out-degree and solves nothing, so every solve is the search's own.
    let problem = Problem::new(inst, target, 1, HORIZON, plurality).unwrap();
    let g = inst.graph_of(target);
    let mut by_degree: Vec<Node> = (0..inst.num_nodes() as Node).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.out_neighbors(v).len()), v));
    let mut selections = 0u64;
    let before = SolverCounters::snapshot();
    let won = min_seeds_to_win(&problem, |p| {
        selections += 1;
        by_degree[..p.k].to_vec()
    });
    let search = SolverCounters::snapshot().since(before);
    // k* = 2 after the seedless probe and two selections: 9 competitor
    // rows and 3 probes, where solving every campaign per probe took 30.
    assert_eq!(
        (won.map(|w| w.k), selections, search.cold_solves),
        (Some(2), 2, 9 + 3),
        "FJ-Vote-Win search"
    );
}
