//! Property-based tests (proptest) for the core invariants:
//! column-stochasticity, opinion range/monotonicity, cumulative
//! submodularity (Theorem 3), estimator unbiasedness, bound
//! domination, bit-identity of the target-only exact evaluation, and
//! the sandwich bounds: lane-parallel coverage marginals, the lazy
//! coverage greedy against a plain one, and brute-force brackets of the
//! upper and lower bounds.

use proptest::prelude::*;
use std::sync::Arc;
use vom::core::bounds::{
    evaluate_upper_bound, favorable_users, greedy_upper_bound, upper_bound_parts,
};
use vom::core::dm::dm_greedy_masked_cumulative;
use vom::core::Problem;
use vom::diffusion::{DiffusionSystem, Instance, OpinionMatrix, SolveOptions, Solver, SolverPool};
use vom::graph::bfs::{bounded_out_bfs, HopCoverage};
use vom::graph::builder::graph_from_edges;
use vom::graph::{Node, SocialGraph};
use vom::voting::ScoringFunction;

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

/// Strategy: a sparse random digraph on `1..=max_n` nodes with fewer
/// than `2n` edges, so `n` is rarely a multiple of 64 and many graphs
/// have isolated nodes.
fn arb_sparse_graph(max_n: usize) -> impl Strategy<Value = SocialGraph> {
    (1usize..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as Node, 0..n as Node, 0.1f64..5.0), 0..2 * n)
            .prop_map(move |edges| graph_from_edges(n, &edges).expect("valid random edges"))
    })
}

/// Strategy: an instance on a sparse random digraph with three
/// campaigns, so Copeland's weakly favorable base differs from the
/// plurality base.
fn arb_three_campaigns(max_n: usize) -> impl Strategy<Value = Instance> {
    arb_sparse_graph(max_n).prop_flat_map(|g| {
        let n = g.num_nodes();
        let rows = proptest::collection::vec(proptest::collection::vec(0.0f64..=1.0, n), 3);
        let stubbornness = proptest::collection::vec(0.0f64..=1.0, n);
        (Just(g), rows, stubbornness).prop_map(|(g, rows, d)| {
            let initial = OpinionMatrix::from_rows(rows).unwrap();
            Instance::shared(Arc::new(g), initial, d).unwrap()
        })
    })
}

/// Three campaigns on a tiny instance: the target row, its mirror, and
/// a compressed copy.
fn three_campaigns((g, b0, d): (SocialGraph, Vec<f64>, Vec<f64>)) -> Instance {
    let rows = vec![
        b0.clone(),
        b0.iter().map(|b| 1.0 - b).collect(),
        b0.iter().map(|b| 0.25 + 0.5 * b).collect(),
    ];
    Instance::shared(Arc::new(g), OpinionMatrix::from_rows(rows).unwrap(), d).unwrap()
}

/// `|N_{s}^{(t)} \ covered|`, one plain BFS.
fn reach_gain(g: &SocialGraph, s: Node, t: usize, covered: &[bool]) -> usize {
    bounded_out_bfs(g, &[s], t)
        .iter()
        .filter(|&&v| !covered[v as usize])
        .count()
}

/// The plain, non-lazy coverage greedy: every round recomputes every
/// marginal with a bounded BFS, takes the argmax by `(gain, −node)` and
/// stops at gain 0.
fn plain_coverage_greedy(g: &SocialGraph, base: &[Node], t: usize, k: usize) -> Vec<Node> {
    let mut covered = vec![false; g.num_nodes()];
    for &v in base {
        covered[v as usize] = true;
    }
    let mut selected = Vec::new();
    while selected.len() < k {
        let best = g
            .nodes()
            .filter(|v| !selected.contains(v))
            .map(|v| (reach_gain(g, v, t, &covered), std::cmp::Reverse(v)))
            .max();
        let Some((gain, std::cmp::Reverse(v))) = best else {
            break;
        };
        if gain == 0 {
            break;
        }
        for w in bounded_out_bfs(g, &[v], t) {
            covered[w as usize] = true;
        }
        selected.push(v);
    }
    selected
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
        instance in arb_instance(),
        t in 0usize..6,
        target in 0usize..3,
        fixed in 0u32..10,
        raw_seeds in proptest::collection::vec(0u32..10, 0..4),
    ) {
        // Three candidates; the target and one competitor carry fixed
        // seeds on a shared node, so seeded users tie at 1.0.
        let mut inst = three_campaigns(instance);
        let n = inst.num_nodes() as Node;
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

    #[test]
    fn lane_marginals_match_per_source_bfs(
        (g, sources, base, commits, late) in arb_sparse_graph(200).prop_flat_map(|g| {
            let n = g.num_nodes();
            let node = 0..n as Node;
            (
                Just(g),
                // Up to 150 sources cross the 64 and 128 chunk edges,
                // with duplicates and sources inside the base.
                proptest::collection::vec(node.clone(), 0..=150),
                proptest::collection::vec(node.clone(), 0..n),
                proptest::collection::vec(node.clone(), 0..=3),
                node,
            )
        }),
        t in 0usize..=6,
    ) {
        let n = g.num_nodes();
        let mut cov = HopCoverage::new(n, t, &base);
        let mut covered = vec![false; n];
        for &v in &base {
            covered[v as usize] = true;
        }
        // Two calls on one scratch: 0–3 commits before the first, one
        // more before the second, which must not see anything the first
        // left behind.
        for (call, batch) in [&commits[..], &[late]].into_iter().enumerate() {
            for &s in batch {
                cov.commit(&g, s);
                for v in bounded_out_bfs(&g, &[s], t) {
                    covered[v as usize] = true;
                }
            }
            prop_assert_eq!(cov.covered_count(), covered.iter().filter(|&&c| c).count());
            let mut gains = vec![usize::MAX; sources.len()];
            cov.marginals(&g, &sources, &mut gains);
            for (slot, (&s, &gain)) in sources.iter().zip(&gains).enumerate() {
                let expected = reach_gain(&g, s, t, &covered);
                prop_assert_eq!(gain, expected, "call {}, slot {}: source {}", call, slot, s);
            }
        }
    }

    #[test]
    fn greedy_upper_bound_equals_the_plain_greedy(
        inst in arb_three_campaigns(150),
        t in 0usize..6,
        k_draw in 0usize..1000,
    ) {
        let n = inst.num_nodes();
        let k = 1 + k_draw % n;
        for score in [ScoringFunction::Plurality, ScoringFunction::Copeland] {
            let p = Problem::new(&inst, 0, k, t, score.clone()).unwrap();
            let (_, base) = upper_bound_parts(&p, &p.opinions(&[]));
            let expected = plain_coverage_greedy(inst.graph_of(0), &base, t, k);
            prop_assert_eq!(greedy_upper_bound(&p, &base), expected, "{} k = {}", score, k);
        }
    }

    #[test]
    fn sandwich_upper_bound_brackets_the_brute_force_optimum(
        instance in arb_instance(),
        t in 0usize..6,
        k_draw in 1usize..=3,
    ) {
        // On instances small enough to enumerate every seed set with
        // |S| <= k: UB(S) >= F(S) (Theorem 6(4)), and the greedy S_U
        // reaches (1 − 1/e) of the best UB over |S| = k.
        let inst = three_campaigns(instance);
        let n = inst.num_nodes();
        let k = k_draw.min(n);
        let sets: Vec<Vec<Node>> = (0u32..1 << n)
            .filter(|mask| mask.count_ones() as usize <= k)
            .map(|mask| (0..n as Node).filter(|&v| mask >> v & 1 == 1).collect())
            .collect();
        for score in [ScoringFunction::Plurality, ScoringFunction::Copeland] {
            let p = Problem::new(&inst, 0, k, t, score.clone()).unwrap();
            let (mult, base) = upper_bound_parts(&p, &p.opinions(&[]));
            let mut best_ub = f64::NEG_INFINITY;
            for seeds in &sets {
                let ub = evaluate_upper_bound(&p, &base, mult, seeds);
                let f = p.exact_score(seeds);
                prop_assert!(ub + 1e-9 >= f, "{score}: UB {ub} < F {f} for {seeds:?}");
                if seeds.len() == k {
                    best_ub = best_ub.max(ub);
                }
            }
            let s_u = greedy_upper_bound(&p, &base);
            let ub_su = evaluate_upper_bound(&p, &base, mult, &s_u);
            let floor = (1.0 - (-1.0f64).exp()) * best_ub;
            prop_assert!(
                ub_su + 1e-9 >= floor,
                "{score}: UB(S_U) {ub_su} < (1 − 1/e)·{best_ub} for S_U {s_u:?}"
            );
        }
    }

    #[test]
    fn sandwich_lower_bound_brackets_the_brute_force_score(
        instance in arb_instance(),
        t in 0usize..6,
        k_draw in 1usize..=3,
    ) {
        // The lower side, on the same instances: LB(S) = ω[p]·Σ_{v∈V_q}
        // b_qv[S] <= F(S) for every |S| <= k (Definition 3), and the exact
        // masked-cumulative greedy S_L reaches (1 − 1/e) of the best LB
        // over |S| = k (LB is monotone submodular by Theorem 3).
        let inst = three_campaigns(instance);
        let n = inst.num_nodes();
        let k = k_draw.min(n);
        let sets: Vec<Vec<Node>> = (0u32..1 << n)
            .filter(|mask| mask.count_ones() as usize <= k)
            .map(|mask| (0..n as Node).filter(|&v| mask >> v & 1 == 1).collect())
            .collect();
        for score in [ScoringFunction::Plurality, ScoringFunction::PApproval { p: 2 }] {
            let p = Problem::new(&inst, 0, k, t, score.clone()).unwrap();
            let depth = score.approval_depth().unwrap();
            let mut favorable = vec![false; n];
            for v in favorable_users(&p.opinions(&[]), 0, depth) {
                favorable[v as usize] = true;
            }
            let lb = |seeds: &[Node]| {
                let row = inst.opinions_of(0, t, seeds);
                let sum: f64 = (0..n).filter(|&v| favorable[v]).map(|v| row[v]).sum();
                score.position_weight(depth) * sum
            };
            let mut best_lb = f64::NEG_INFINITY;
            for seeds in &sets {
                let (lb_s, f) = (lb(seeds), p.exact_score(seeds));
                prop_assert!(lb_s <= f + 1e-9, "{score}: LB {lb_s} > F {f} for {seeds:?}");
                if seeds.len() == k {
                    best_lb = best_lb.max(lb_s);
                }
            }
            let s_l = dm_greedy_masked_cumulative(&p, Some(&favorable), &SolverPool::new(), None);
            let lb_sl = lb(&s_l);
            let floor = (1.0 - (-1.0f64).exp()) * best_lb;
            prop_assert!(
                lb_sl + 1e-9 >= floor,
                "{score}: LB(S_L) {lb_sl} < (1 − 1/e)·{best_lb} for S_L {s_l:?}"
            );
        }
    }
}
