//! The sandwich bound ingredients: favorable users sets (Definitions 1
//! and 5) and the submodular upper-bound coverage greedy (Definitions 4
//! and 6).

use crate::celf::{celf_greedy, per_node};
use crate::problem::Problem;
use vom_diffusion::OpinionMatrix;
use vom_graph::bfs::{bounded_out_bfs, HopCoverage};
use vom_graph::Node;
use vom_voting::rank::beta;
use vom_voting::ScoringFunction;

/// The favorable users set `V_q^{(t)}` (Definition 1): users ranking the
/// target within the top `p` at the horizon *without any target seeds*.
/// `b` must be the exact seedless opinion matrix at the horizon.
pub fn favorable_users(b: &OpinionMatrix, q: usize, p: usize) -> Vec<Node> {
    (0..b.num_users() as Node)
        .filter(|&v| beta(b, q, v) <= p)
        .collect()
}

/// The weakly favorable users set `U_q^{(t)}` (Definition 5): users
/// preferring the target to at least one other candidate, seedless.
pub fn weakly_favorable_users(b: &OpinionMatrix, q: usize) -> Vec<Node> {
    let r = b.num_candidates();
    (0..b.num_users() as Node)
        .filter(|&v| {
            let bq = b.get(q, v);
            (0..r).any(|x| x != q && bq > b.get(x, v))
        })
        .collect()
}

/// The multiplier and base set of the upper-bound function for a
/// non-submodular score:
///
/// * plurality variants — `UB(S) = ω[1]·|N_S^{(t)} ∪ V_q^{(t)}|` (Def. 4);
/// * Copeland — `UB(S) = (r−1)/(⌊n/2⌋+1)·|N_S^{(t)} ∪ U_q^{(t)}|` (Def. 6).
pub fn upper_bound_parts(problem: &Problem<'_>, seedless: &OpinionMatrix) -> (f64, Vec<Node>) {
    match &problem.score {
        ScoringFunction::Plurality
        | ScoringFunction::PApproval { .. }
        | ScoringFunction::PositionalPApproval { .. } => {
            let p = problem.score.approval_depth().expect("plurality variant");
            let base = favorable_users(seedless, problem.target, p);
            (problem.score.position_weight(1), base)
        }
        ScoringFunction::Copeland => {
            let n = problem.num_nodes();
            let r = problem.instance.num_candidates();
            let base = weakly_favorable_users(seedless, problem.target);
            ((r - 1) as f64 / (n / 2 + 1) as f64, base)
        }
        ScoringFunction::Cumulative => {
            unreachable!("cumulative is submodular; no upper bound needed")
        }
    }
}

/// Greedily maximizes the coverage upper bound `|N_S^{(t)} ∪ base|` with
/// CELF (the bound is submodular by Theorems 6–7), returning `S_U` of
/// size `k`.
pub fn greedy_upper_bound(problem: &Problem<'_>, base: &[Node]) -> Vec<Node> {
    let g = problem.instance.graph_of(problem.target);
    let n = problem.num_nodes();
    let cov = std::cell::RefCell::new(HopCoverage::new(n, problem.horizon, base));
    celf_greedy(
        n,
        problem.k,
        None,
        per_node(|v| cov.borrow_mut().marginal(g, v) as f64),
        |v| {
            cov.borrow_mut().commit(g, v);
        },
    )
}

/// Evaluates `UB(S)` exactly: `multiplier · |N_S^{(t)} ∪ base|`.
pub fn evaluate_upper_bound(
    problem: &Problem<'_>,
    base: &[Node],
    multiplier: f64,
    seeds: &[Node],
) -> f64 {
    let g = problem.instance.graph_of(problem.target);
    let reach = bounded_out_bfs(g, seeds, problem.horizon);
    let mut in_union = vec![false; problem.num_nodes()];
    let mut count = 0usize;
    for &v in base.iter().chain(reach.iter()) {
        if !in_union[v as usize] {
            in_union[v as usize] = true;
            count += 1;
        }
    }
    multiplier * count as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vom_diffusion::Instance;
    use vom_graph::builder::graph_from_edges;

    fn matrix() -> OpinionMatrix {
        // t=1 running-example snapshot (paper's published values).
        OpinionMatrix::from_rows(vec![
            vec![0.40, 0.80, 0.60, 0.75],
            vec![0.35, 0.75, 0.78, 0.90],
        ])
        .unwrap()
    }

    #[test]
    fn favorable_users_matches_plurality_winners() {
        let b = matrix();
        assert_eq!(favorable_users(&b, 0, 1), vec![0, 1]);
        assert_eq!(favorable_users(&b, 0, 2), vec![0, 1, 2, 3]);
        assert_eq!(favorable_users(&b, 1, 1), vec![2, 3]);
    }

    #[test]
    fn weakly_favorable_is_superset_of_favorable() {
        let b = matrix();
        let weak = weakly_favorable_users(&b, 0);
        assert_eq!(weak, vec![0, 1], "with r=2 weak == strict preference");
    }

    fn problem_instance() -> Instance {
        let g = Arc::new(graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap());
        let b = OpinionMatrix::from_rows(vec![
            vec![0.40, 0.80, 0.60, 0.90],
            vec![0.35, 0.75, 1.00, 0.80],
        ])
        .unwrap();
        Instance::shared(g, b, vec![0.0, 0.0, 0.5, 0.5]).unwrap()
    }

    #[test]
    fn upper_bound_dominates_exact_score_plurality() {
        let inst = problem_instance();
        let p = Problem::new(&inst, 0, 2, 1, ScoringFunction::Plurality).unwrap();
        let seedless = p.opinions(&[]);
        let (mult, base) = upper_bound_parts(&p, &seedless);
        assert_eq!(mult, 1.0);
        // Theorem 6(4): UB(S) >= F(S) for every seed set.
        for seeds in [vec![], vec![0], vec![2], vec![0, 1], vec![2, 3]] {
            let ub = evaluate_upper_bound(&p, &base, mult, &seeds);
            let f = p.exact_score(&seeds);
            assert!(ub + 1e-12 >= f, "UB {ub} < F {f} for {seeds:?}");
        }
    }

    #[test]
    fn upper_bound_dominates_exact_score_copeland() {
        let inst = problem_instance();
        let p = Problem::new(&inst, 0, 2, 1, ScoringFunction::Copeland).unwrap();
        let seedless = p.opinions(&[]);
        let (mult, base) = upper_bound_parts(&p, &seedless);
        for seeds in [vec![], vec![2], vec![2, 3]] {
            let ub = evaluate_upper_bound(&p, &base, mult, &seeds);
            let f = p.exact_score(&seeds);
            assert!(ub + 1e-12 >= f, "UB {ub} < F {f} for {seeds:?}");
        }
    }

    #[test]
    fn greedy_upper_bound_selects_k_high_coverage_seeds() {
        let inst = problem_instance();
        let p = Problem::new(&inst, 0, 2, 1, ScoringFunction::Plurality).unwrap();
        let su = greedy_upper_bound(&p, &[]);
        assert_eq!(su.len(), 2);
        // Within 1 hop, nodes 0 and 2 each cover 2 nodes (ties break to
        // the smaller id), and after {0} the best marginals are all 1.
        assert_eq!(su, vec![0, 1]);
    }
}
