//! Property tests for the unified diffusion solver: cold solves must be
//! bit-identical to the naive [`FjEngine`] iteration, and warm-start
//! solves must be bit-identical to cold solves across random graphs,
//! inputs, and incremental seed sequences — the invariant that lets the
//! DM greedy take the warm path while keeping selection digests
//! byte-identical.

use proptest::prelude::*;
use std::sync::Arc;
use vom_diffusion::{DiffusionSystem, FjEngine, SolveOptions, Solver};
use vom_graph::builder::graph_from_edges;
use vom_graph::{Node, SocialGraph};

/// Strategy: a random small weighted digraph + opinions + stubbornness.
fn arb_system() -> impl Strategy<Value = (SocialGraph, Vec<f64>, Vec<f64>)> {
    (3usize..12).prop_flat_map(|n| {
        let edges =
            proptest::collection::vec((0..n as Node, 0..n as Node, 0.1f64..5.0), 1..(3 * n));
        let opinions = proptest::collection::vec(0.0f64..=1.0, n);
        let stubbornness = proptest::collection::vec(0.0f64..=1.0, n);
        (edges, opinions, stubbornness).prop_map(move |(edges, b0, d)| {
            let g = graph_from_edges(n, &edges).expect("valid random edges");
            (g, b0, d)
        })
    })
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cold_solve_is_bit_identical_to_fj_engine(
        (g, b0, d) in arb_system(),
        t in 0usize..15,
        raw_seeds in proptest::collection::vec(0u32..12, 0..4),
    ) {
        let n = g.num_nodes() as Node;
        let seeds: Vec<Node> = raw_seeds.iter().map(|s| s % n).collect();
        let engine = FjEngine::new(&g, &b0, &d).unwrap();
        let system = Arc::new(DiffusionSystem::new(&g, &b0, &d).unwrap());
        let mut solver = Solver::new(system);
        solver.solve(&seeds, &SolveOptions::exact(t), None);
        let reference = engine.trajectory(t, &seeds).pop().expect("t + 1 rows");
        prop_assert_eq!(bits(solver.opinions()), bits(&reference));
    }

    #[test]
    fn warm_solve_is_bit_identical_to_cold_solve(
        (g, b0, d) in arb_system(),
        t in 1usize..15,
        committed in proptest::collection::vec(0u32..12, 0..3),
        trials in proptest::collection::vec(0u32..12, 1..5),
    ) {
        // The DM greedy shape: record a baseline for the committed set,
        // then evaluate committed ∪ {trial} for a sequence of trial nodes
        // against the same baseline.
        let n = g.num_nodes() as Node;
        let committed: Vec<Node> = committed.iter().map(|s| s % n).collect();
        let system = Arc::new(DiffusionSystem::new(&g, &b0, &d).unwrap());
        let mut warm = Solver::new(Arc::clone(&system));
        let mut cold = Solver::new(Arc::clone(&system));
        warm.solve(&committed, &SolveOptions::exact(t).recording(), None);
        for trial in trials {
            let mut seeds = committed.clone();
            seeds.push(trial % n);
            let report = warm.solve(&seeds, &SolveOptions::exact(t).warm(), None);
            prop_assert!(report.warm, "matching baseline must take the warm path");
            cold.solve(&seeds, &SolveOptions::exact(t), None);
            prop_assert_eq!(bits(warm.opinions()), bits(cold.opinions()));
        }
    }

    #[test]
    fn warm_equivalence_survives_growing_the_committed_set(
        (g, b0, d) in arb_system(),
        t in 1usize..12,
        picks in proptest::collection::vec(0u32..12, 1..5),
    ) {
        // Re-record after each commit, exactly like the greedy loop does,
        // and check the next warm evaluation still matches cold.
        let n = g.num_nodes() as Node;
        let system = Arc::new(DiffusionSystem::new(&g, &b0, &d).unwrap());
        let mut warm = Solver::new(Arc::clone(&system));
        let mut cold = Solver::new(Arc::clone(&system));
        let mut committed: Vec<Node> = Vec::new();
        for pick in picks {
            warm.solve(&committed, &SolveOptions::exact(t).recording(), None);
            committed.push(pick % n);
            let report = warm.solve(&committed, &SolveOptions::exact(t).warm(), None);
            prop_assert!(report.warm);
            cold.solve(&committed, &SolveOptions::exact(t), None);
            prop_assert_eq!(bits(warm.opinions()), bits(cold.opinions()));
        }
    }

    #[test]
    fn convergence_tolerance_bounds_the_residual(
        (g, b0, d) in arb_system(),
        eps in 1e-9f64..1e-3,
    ) {
        let system = Arc::new(DiffusionSystem::new(&g, &b0, &d).unwrap());
        let mut solver = Solver::new(system);
        let report = solver.solve(&[], &SolveOptions::exact(2000).with_tolerance(eps), None);
        if report.converged {
            prop_assert!(report.residual < eps);
        } else {
            prop_assert_eq!(report.steps, 2000);
        }
    }
}
