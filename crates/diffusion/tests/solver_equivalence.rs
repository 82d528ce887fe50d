//! Property tests for the diffusion solver: single solves must be
//! bit-identical to the naive [`FjEngine`] iteration, and every lane of
//! a batched solve must be bit-identical to the single solve of its seed
//! set across random graphs, inputs and seed sets — the invariant that
//! lets the DM greedy scan candidates in lanes while keeping selection
//! digests byte-identical. Hub-heavy graphs with their hubs at the
//! highest ids check that the solver's degree order maps seeds in and
//! rows out without changing a bit.

use proptest::prelude::*;
use std::sync::Arc;
use vom_diffusion::{DiffusionSystem, FjEngine, SolveOptions, Solver, LANES};
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

/// Strategy: hub-heavy digraphs whose hubs sit at the highest ids, so
/// the solver's degree order moves them to the front. Every other node
/// is isolated, in-less (it only points at a hub) or linked both ways
/// with a random hub; the hubs form a cycle among themselves.
fn arb_hub_system() -> impl Strategy<Value = (SocialGraph, Vec<f64>, Vec<f64>)> {
    (6usize..40).prop_flat_map(|n| {
        let hubs = 2 + n / 10;
        let rest = n - hubs;
        let links = proptest::collection::vec(
            (0u8..3, 0..hubs as Node, 0..hubs as Node, 0.1f64..5.0),
            rest,
        );
        let opinions = proptest::collection::vec(0.0f64..=1.0, n);
        let stubbornness = proptest::collection::vec(0.0f64..=1.0, n);
        (links, opinions, stubbornness).prop_map(move |(links, b0, d)| {
            let first_hub = rest as Node;
            let mut edges: Vec<(Node, Node, f64)> = (0..hubs as Node)
                .map(|h| (first_hub + h, first_hub + (h + 1) % hubs as Node, 1.0))
                .collect();
            for (v, &(kind, to, from, w)) in links.iter().enumerate() {
                let v = v as Node;
                // kind 0: isolated; 1: in-less; 2: both ways.
                if kind >= 1 {
                    edges.push((v, first_hub + to, w));
                }
                if kind == 2 {
                    edges.push((first_hub + from, v, w));
                }
            }
            let g = graph_from_edges(n, &edges).expect("valid hub edges");
            (g, b0, d)
        })
    })
}

/// Both graph families, half the cases each: small random digraphs and
/// hub-heavy ones.
fn arb_any_system() -> impl Strategy<Value = (SocialGraph, Vec<f64>, Vec<f64>)> {
    (0u8..2, arb_system(), arb_hub_system())
        .prop_map(|(pick, random, hubs)| if pick == 0 { random } else { hubs })
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cold_solve_is_bit_identical_to_fj_engine(
        (g, b0, d) in arb_any_system(),
        t in 0usize..15,
        raw_seeds in proptest::collection::vec(0u32..40, 0..4),
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
    fn every_lane_is_bit_identical_to_a_single_solve(
        (g, b0, d) in arb_any_system(),
        t in 0usize..15,
        base in proptest::collection::vec(0u32..40, 0..4),
        extras in proptest::collection::vec(0u32..40, 1..=LANES),
    ) {
        // The greedy scan shape: many trial sets base ∪ {extra} from one
        // committed base. Raw ids wrap mod n, so small graphs get
        // duplicate extras and extras that are already base seeds; t
        // spans fixed points reached early, late and never.
        let n = g.num_nodes() as Node;
        let base: Vec<Node> = base.iter().map(|s| s % n).collect();
        let extras: Vec<Node> = extras.iter().map(|s| s % n).collect();
        let system = Arc::new(DiffusionSystem::new(&g, &b0, &d).unwrap());
        let mut batched = Solver::new(Arc::clone(&system));
        let mut single = Solver::new(Arc::clone(&system));
        batched.solve_lanes(&base, &extras, t, None);
        let mut row = Vec::new();
        for (l, &extra) in extras.iter().enumerate() {
            let mut seeds = base.clone();
            seeds.push(extra);
            single.solve(&seeds, &SolveOptions::exact(t), None);
            batched.copy_lane(l, &mut row);
            prop_assert_eq!(bits(&row), bits(single.opinions()), "lane {}", l);
            let lane_sum: f64 = batched.lane(l).sum();
            let row_sum: f64 = single.opinions().iter().sum();
            prop_assert_eq!(lane_sum.to_bits(), row_sum.to_bits());
        }
    }

    #[test]
    fn convergence_tolerance_bounds_the_residual(
        (g, b0, d) in arb_any_system(),
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
