//! FJ-Vote-Win (Problem 2) generalized to arbitrary voting rules via the
//! [`OpinionScore`] trait — the extended-rule counterpart of [`crate::win`].

use crate::dm_ext::generic_greedy;
use crate::win::{budget_search, WinResult};
use crate::{CoreError, Result};
use vom_diffusion::{Instance, OpinionMatrix};
use vom_graph::Candidate;
use vom_voting::OpinionScore;

/// Whether `seeds` for `target` make it the **strict** winner under
/// `rule` at the horizon (strictly greater score than every other
/// candidate). `others` holds the competitors' horizon-`t` rows, as
/// [`Instance::non_target_opinions`] returns them (its target row is
/// ignored), so a probe solves only the target campaign; the result is
/// bit-identical to evaluating the full matrix `B^{(t)}[S]`.
pub fn wins_rule<S: OpinionScore + ?Sized>(
    instance: &Instance,
    target: Candidate,
    horizon: usize,
    others: &OpinionMatrix,
    seeds: &[vom_graph::Node],
    rule: &S,
) -> bool {
    let mut b = others.clone();
    b.set_row(target, &instance.opinions_of(target, horizon, seeds));
    let mine = rule.evaluate(&b, target);
    (0..instance.num_candidates())
        .filter(|&x| x != target)
        .all(|x| rule.evaluate(&b, x) < mine)
}

/// Algorithm 2 with the exact generic greedy as the inner selector:
/// the minimum budget `k*` (up to greedy approximation — §III-C Remark 2)
/// for `target` to strictly win under `rule` at the horizon, by the
/// budget search [`crate::win::min_seeds_to_win`] runs.
/// Returns `Ok(None)` if the target cannot win even with all `n` nodes
/// seeded. The competitors' rows are solved once per search; each probe
/// solves only the target campaign.
pub fn min_seeds_to_win_rule<S: OpinionScore + ?Sized>(
    instance: &Instance,
    target: Candidate,
    horizon: usize,
    rule: &S,
) -> Result<Option<WinResult>> {
    let r = instance.num_candidates();
    if target >= r {
        return Err(CoreError::BadTarget { target, r });
    }
    let others = instance.non_target_opinions(horizon, target);
    budget_search(
        instance.num_nodes(),
        |seeds| wins_rule(instance, target, horizon, &others, seeds, rule),
        |k| generic_greedy(instance, target, k, horizon, rule),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vom_diffusion::OpinionMatrix;
    use vom_graph::builder::graph_from_edges;
    use vom_graph::Node;
    use vom_voting::{ExtendedRule, ScoringFunction};

    /// [`wins_rule`] with freshly solved competitor rows.
    fn wins(inst: &Instance, target: Candidate, seeds: &[Node], rule: &impl OpinionScore) -> bool {
        let others = inst.non_target_opinions(1, target);
        wins_rule(inst, target, 1, &others, seeds, rule)
    }

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
    fn paper_scores_agree_with_the_specialized_search() {
        // The generic path must find the same k* = 1 as win.rs does for
        // plurality on the running example.
        let inst = instance();
        let res = min_seeds_to_win_rule(&inst, 0, 1, &ScoringFunction::Plurality)
            .unwrap()
            .unwrap();
        assert_eq!(res.k, 1);
        assert!(wins(&inst, 0, &res.seeds, &ScoringFunction::Plurality));
    }

    #[test]
    fn borda_win_needs_at_most_two_seeds_on_the_running_example() {
        let inst = instance();
        let rule = ExtendedRule::Borda;
        let res = min_seeds_to_win_rule(&inst, 0, 1, &rule).unwrap().unwrap();
        assert!(res.k <= 2, "k* = {}", res.k);
        assert!(wins(&inst, 0, &res.seeds, &rule));
        // Minimality: the found budget is the smallest whose greedy set
        // wins (linear-scan cross-check).
        for k in 0..res.k {
            let seeds = generic_greedy(&inst, 0, k, 1, &rule).unwrap();
            assert!(!wins(&inst, 0, &seeds, &rule), "k = {k} already wins");
        }
    }

    #[test]
    fn already_winning_needs_zero_seeds() {
        let inst = instance();
        // Candidate 1 (competitor) already wins the cumulative score
        // seedlessly (2.775 > 2.55) — through the generic path.
        let res_c1 = min_seeds_to_win_rule(&inst, 1, 1, &ScoringFunction::Cumulative)
            .unwrap()
            .unwrap();
        assert_eq!(res_c1.k, 0);
    }

    #[test]
    fn maximin_tie_is_not_a_win_and_one_seed_breaks_it() {
        // Seedless maximin at t = 1 is 2–2 (each candidate leads for two
        // users): a tie is not a strict win, so k* = 1 for either side.
        let inst = instance();
        let rule = ExtendedRule::Maximin;
        assert!(!wins(&inst, 0, &[], &rule));
        assert!(!wins(&inst, 1, &[], &rule));
        let res = min_seeds_to_win_rule(&inst, 1, 1, &rule).unwrap().unwrap();
        assert_eq!(res.k, 1);
    }

    #[test]
    fn out_of_range_target_is_an_error() {
        let inst = instance();
        assert!(matches!(
            min_seeds_to_win_rule(&inst, 2, 1, &ExtendedRule::Borda),
            Err(CoreError::BadTarget { target: 2, r: 2 })
        ));
    }

    #[test]
    fn unwinnable_rule_returns_none() {
        // One fully stubborn node; the competitor sits at 1.0, so even a
        // seeded target only ties under Borda (β ties count against both)
        // and never strictly wins.
        let g = Arc::new(graph_from_edges(1, &[]).unwrap());
        let b = OpinionMatrix::from_rows(vec![vec![0.2], vec![1.0]]).unwrap();
        let inst = Instance::shared(g, b, vec![1.0]).unwrap();
        let res = min_seeds_to_win_rule(&inst, 0, 1, &ExtendedRule::Borda).unwrap();
        assert!(res.is_none());
    }
}
