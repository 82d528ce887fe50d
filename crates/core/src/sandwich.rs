//! Sandwich approximation (Algorithm 3, §IV).

use crate::bounds::{evaluate_upper_bound, greedy_upper_bound, upper_bound_parts};
use crate::problem::Problem;
use vom_diffusion::OpinionMatrix;
use vom_graph::Node;

/// Diagnostics of a sandwich run. The approximation factor realized is at
/// least `ratio · (1 − 1/e)` (Theorem 4 with `η = 1 − 1/e`), which is what
/// Figure 2 reports empirically.
#[derive(Debug, Clone)]
pub struct SandwichInfo {
    /// The feasible (plain greedy) solution `S_F` and its exact score.
    pub s_f: Vec<Node>,
    /// Exact `F(S_F)`.
    pub f_sf: f64,
    /// The upper-bound greedy solution `S_U` and its exact score.
    pub s_u: Vec<Node>,
    /// Exact `F(S_U)`.
    pub f_su: f64,
    /// The lower-bound greedy solution `S_L` (plurality variants only —
    /// the paper leaves a useful Copeland lower bound open).
    pub s_l: Option<Vec<Node>>,
    /// Exact `F(S_L)`.
    pub f_sl: Option<f64>,
    /// `UB(S_U)`, the upper-bound function's value at `S_U`.
    pub ub_su: f64,
    /// The sandwich quality ratio `F(S_U) / UB(S_U)` (§IV-D).
    pub ratio: f64,
}

/// Algorithm 3: given the method's feasible solution `S_F` (and `S_L`
/// for the plurality variants), computes `S_U` by coverage greedy,
/// evaluates all candidates **exactly**, and returns the best of them
/// plus diagnostics.
///
/// `seedless` must be the exact horizon-`t` opinion matrix without target
/// seeds (used to build the favorable base sets; its non-target rows are
/// the competitor rows every exact evaluation scores against).
pub fn sandwich_select(
    problem: &Problem<'_>,
    seedless: &OpinionMatrix,
    s_f: Vec<Node>,
    s_l: Option<Vec<Node>>,
) -> (Vec<Node>, SandwichInfo) {
    let (_, base) = upper_bound_parts(problem, seedless);
    let s_u = greedy_upper_bound(problem, &base);
    let f_sf = problem.exact_score_against(&s_f, seedless);
    let (chosen, _, info) = sandwich_select_with_su(problem, seedless, s_f, f_sf, s_l, s_u);
    (chosen, info)
}

/// [`sandwich_select`] with the upper-bound greedy solution `S_U` and the
/// exact score `f_sf` of `S_F` supplied by the caller. The coverage
/// greedy depends only on the graph, horizon, favorable base set, and
/// budget — and its CELF selection is prefix-consistent in `k` — so
/// prepared engines compute the order once at the prepared budget and
/// every query hands in a prefix instead of re-running `n` bounded-BFS
/// evaluations; and the prepared query path already scored `S_F` when it
/// picked it.
///
/// Evaluates `S_U` and `S_L` exactly (one target solve each, scored
/// against `seedless`'s competitor rows) and returns the chosen set, its
/// exact score, and the diagnostics.
pub fn sandwich_select_with_su(
    problem: &Problem<'_>,
    seedless: &OpinionMatrix,
    s_f: Vec<Node>,
    f_sf: f64,
    s_l: Option<Vec<Node>>,
    s_u: Vec<Node>,
) -> (Vec<Node>, f64, SandwichInfo) {
    let (multiplier, base) = upper_bound_parts(problem, seedless);
    let f_su = problem.exact_score_against(&s_u, seedless);
    let f_sl = s_l
        .as_ref()
        .map(|s| problem.exact_score_against(s, seedless));
    let ub_su = evaluate_upper_bound(problem, &base, multiplier, &s_u);
    let ratio = if ub_su > 0.0 { f_su / ub_su } else { 1.0 };

    let mut chosen = s_f.clone();
    let mut best = f_sf;
    if f_su > best {
        chosen = s_u.clone();
        best = f_su;
    }
    if let (Some(s), Some(f)) = (&s_l, f_sl) {
        if f > best {
            chosen = s.clone();
            best = f;
        }
    }
    let info = SandwichInfo {
        s_f,
        f_sf,
        s_u,
        f_su,
        s_l,
        f_sl,
        ub_su,
        ratio,
    };
    (chosen, best, info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vom_diffusion::Instance;
    use vom_graph::builder::graph_from_edges;
    use vom_voting::ScoringFunction;

    fn instance() -> Instance {
        let g = Arc::new(graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap());
        let b = OpinionMatrix::from_rows(vec![
            vec![0.40, 0.80, 0.60, 0.90],
            vec![0.35, 0.75, 1.00, 0.80],
        ])
        .unwrap();
        Instance::shared(g, b, vec![0.0, 0.0, 0.5, 0.5]).unwrap()
    }

    #[test]
    fn sandwich_keeps_the_best_of_three() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Plurality).unwrap();
        let seedless = p.opinions(&[]);
        // Hand it a deliberately poor feasible solution; the UB greedy
        // should rescue the outcome (node 2 has the best coverage AND the
        // best plurality score).
        let (chosen, info) = sandwich_select(&p, &seedless, vec![0], None);
        assert_eq!(info.f_sf, 2.0);
        assert_eq!(info.f_su, 4.0);
        assert_eq!(chosen, info.s_u);
        assert!(info.ratio > 0.0 && info.ratio <= 1.0);
        assert!(info.ub_su >= info.f_su, "UB must dominate F");
    }

    #[test]
    fn lower_bound_solution_can_win() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Plurality).unwrap();
        let seedless = p.opinions(&[]);
        let (chosen, info) = sandwich_select(&p, &seedless, vec![0], Some(vec![2]));
        assert_eq!(info.f_sl, Some(4.0));
        // S_L ties with S_U (both score 4); S_U wins the earlier check.
        assert_eq!(p.exact_score(&chosen), 4.0);
    }

    #[test]
    fn copeland_sandwich_has_no_lower_bound() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Copeland).unwrap();
        let seedless = p.opinions(&[]);
        let (chosen, info) = sandwich_select(&p, &seedless, vec![2], None);
        assert!(info.s_l.is_none());
        assert_eq!(p.exact_score(&chosen), 1.0);
    }
}
