//! Property-based tests (proptest) for the core invariants:
//! column-stochasticity, opinion range/monotonicity, cumulative
//! submodularity (Theorem 3), estimator unbiasedness, bound
//! domination, and bit-identity of the target-only exact evaluation.

use proptest::prelude::*;
use std::sync::Arc;
use vom::diffusion::{DiffusionSystem, Instance, OpinionMatrix, SolveOptions, Solver, SolverPool};
use vom::graph::builder::graph_from_edges;
use vom::graph::{Node, SocialGraph};

/// An exact solver over one candidate's inputs.
fn solver(g: &SocialGraph, b0: &[f64], d: &[f64]) -> Solver {
    Solver::new(Arc::new(DiffusionSystem::new(g, b0, d).unwrap()))
}

/// `B^(t)[S]` for seed set `seeds`.
fn opinions_after(solver: &mut Solver, t: usize, seeds: &[Node]) -> Vec<f64> {
    solver.solve(seeds, &SolveOptions::exact(t), None);
    solver.opinions().to_vec()
}

/// Strategy: a random small weighted digraph + opinions + stubbornness.
fn arb_instance() -> impl Strategy<Value = (SocialGraph, Vec<f64>, Vec<f64>)> {
    (3usize..10).prop_flat_map(|n| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_always_column_stochastic((g, _, _) in arb_instance()) {
        g.validate_column_stochastic(1e-9).unwrap();
    }

    #[test]
    fn opinions_stay_in_unit_interval(
        (g, b0, d) in arb_instance(),
        t in 0usize..12,
        seed in 0u32..8,
    ) {
        let mut fj = solver(&g, &b0, &d);
        let seeds = [seed % g.num_nodes() as Node];
        for &b in &opinions_after(&mut fj, t, &seeds) {
            prop_assert!((0.0..=1.0).contains(&b), "opinion {b} out of range");
        }
    }

    #[test]
    fn opinions_monotone_in_seed_sets(
        (g, b0, d) in arb_instance(),
        t in 0usize..10,
        extra in 0u32..8,
    ) {
        // Adding a seed can only raise each user's opinion (§III-B).
        let n = g.num_nodes() as Node;
        let mut fj = solver(&g, &b0, &d);
        let small = [0 % n];
        let large = [0 % n, extra % n];
        let b_small = opinions_after(&mut fj, t, &small);
        let b_large = opinions_after(&mut fj, t, &large);
        for (s, l) in b_small.iter().zip(&b_large) {
            prop_assert!(l + 1e-12 >= *s, "monotonicity violated: {s} > {l}");
        }
    }

    #[test]
    fn per_user_opinion_is_submodular_theorem3(
        (g, b0, d) in arb_instance(),
        t in 0usize..8,
    ) {
        // b_qi[X ∪ {s}] − b_qi[X] >= b_qi[Y ∪ {s}] − b_qi[Y] for X ⊆ Y.
        let n = g.num_nodes() as Node;
        if n < 4 { return Ok(()); }
        let mut fj = solver(&g, &b0, &d);
        let x = [0];
        let y = [0, 1];
        let s = 2;
        let bx = opinions_after(&mut fj, t, &x);
        let bxs = opinions_after(&mut fj, t, &[0, s]);
        let by = opinions_after(&mut fj, t, &y);
        let bys = opinions_after(&mut fj, t, &[0, 1, s]);
        for v in 0..n as usize {
            let gain_x = bxs[v] - bx[v];
            let gain_y = bys[v] - by[v];
            prop_assert!(
                gain_x + 1e-9 >= gain_y,
                "node {v}: gain {gain_x} under X < gain {gain_y} under Y"
            );
        }
    }

    #[test]
    fn cumulative_greedy_matches_brute_force_for_k1(
        (g, b0, d) in arb_instance(),
        t in 1usize..6,
    ) {
        let n = g.num_nodes();
        let initial = OpinionMatrix::from_rows(vec![b0.clone()]).unwrap();
        let inst = Instance::shared(Arc::new(g), initial, d).unwrap();
        let p = vom::core::Problem::new(
            &inst, 0, 1, t, vom::voting::ScoringFunction::Cumulative,
        ).unwrap();
        let greedy = p.exact_score(&vom::core::dm::dm_greedy(&p, None, &SolverPool::new(), None));
        let best = (0..n as Node)
            .map(|v| p.exact_score(&[v]))
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((greedy - best).abs() < 1e-9, "greedy {greedy} vs best {best}");
    }

    #[test]
    fn upper_bound_dominates_score_on_random_instances(
        (g, b0, d) in arb_instance(),
        t in 1usize..6,
        k in 1usize..3,
    ) {
        let n = g.num_nodes();
        // Two candidates: target row b0, competitor row reversed.
        let competitor: Vec<f64> = b0.iter().map(|b| 1.0 - b).collect();
        let initial = OpinionMatrix::from_rows(vec![b0.clone(), competitor]).unwrap();
        let inst = Instance::shared(Arc::new(g), initial, d).unwrap();
        for score in [
            vom::voting::ScoringFunction::Plurality,
            vom::voting::ScoringFunction::Copeland,
        ] {
            let p = vom::core::Problem::new(&inst, 0, k.min(n), t, score).unwrap();
            let seedless = p.opinions(&[]);
            let (mult, base) = vom::core::bounds::upper_bound_parts(&p, &seedless);
            // Check UB(S) >= F(S) on a few seed sets.
            for seeds in [vec![], vec![0], vec![1, 2]] {
                let ub = vom::core::bounds::evaluate_upper_bound(&p, &base, mult, &seeds);
                let f = p.exact_score(&seeds);
                prop_assert!(ub + 1e-9 >= f, "UB {ub} < F {f}");
            }
        }
    }

    #[test]
    fn exact_score_against_competitor_rows_is_bit_identical(
        (g, b0, d) in arb_instance(),
        t in 0usize..6,
        target in 0usize..3,
        fixed in 0u32..10,
        raw_seeds in proptest::collection::vec(0u32..10, 0..4),
    ) {
        use vom::voting::ScoringFunction;
        // Three candidates; the target and one competitor carry fixed
        // seeds on a shared node, so seeded users tie at 1.0.
        let n = g.num_nodes() as Node;
        let rows = vec![
            b0.clone(),
            b0.iter().map(|b| 1.0 - b).collect(),
            b0.iter().map(|b| 0.25 + 0.5 * b).collect(),
        ];
        let initial = OpinionMatrix::from_rows(rows).unwrap();
        let mut inst = Instance::shared(Arc::new(g), initial, d).unwrap();
        let competitor = (target + 1) % 3;
        inst.candidate_mut(target).fixed_seeds = vec![fixed % n];
        inst.candidate_mut(competitor).fixed_seeds = vec![fixed % n, (fixed + 1) % n];
        let seeds: Vec<Node> = raw_seeds.iter().map(|s| s % n).collect();
        for score in [
            ScoringFunction::Cumulative,
            ScoringFunction::Plurality,
            ScoringFunction::PApproval { p: 2 },
            ScoringFunction::PositionalPApproval { p: 3, weights: vec![1.0, 0.6, 0.15] },
            ScoringFunction::Copeland,
        ] {
            let p = vom::core::Problem::new(&inst, target, 1, t, score.clone()).unwrap();
            // The full-matrix reference: every campaign solved.
            let reference = score.score(&inst.opinions_at(t, target, &seeds), target);
            prop_assert_eq!(
                p.exact_score(&seeds).to_bits(),
                reference.to_bits(),
                "{}: exact_score",
                score
            );
            prop_assert_eq!(
                p.exact_score_against(&seeds, &p.non_target_opinions()).to_bits(),
                reference.to_bits(),
                "{}: exact_score_against",
                score
            );
        }
    }

    #[test]
    fn walk_estimates_agree_with_exact_opinions(
        (g, b0, d) in arb_instance(),
        t in 0usize..5,
    ) {
        use vom::walks::{Lambda, OpinionEstimator, WalkGenerator};
        let mut fj = solver(&g, &b0, &d);
        let exact = opinions_after(&mut fj, t, &[0]);
        let gen = WalkGenerator::new(&g, &d, t);
        let arena = gen.generate_per_node(&Lambda::Uniform(4000), 11);
        let mut est = OpinionEstimator::new(&arena, &b0);
        est.add_seed(0);
        for v in 0..g.num_nodes() as Node {
            let e = est.estimate(v);
            prop_assert!(
                (e - exact[v as usize]).abs() < 0.06,
                "node {v}: estimate {e} vs exact {}",
                exact[v as usize]
            );
        }
    }
}
