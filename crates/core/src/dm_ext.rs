//! Exact greedy seed selection for *any* voting rule through the
//! [`OpinionScore`] trait — the extension path that drives the Borda /
//! veto / maximin / Bucklin / Copeland⁰·⁵ rules of `vom_voting::ext`
//! (and, for parity, the paper's five scores).
//!
//! The estimators (RW/RS) carry per-score accuracy guarantees the paper
//! derives only for its five scores, so extension rules run on the exact
//! DM evaluation path: per candidate seed one `O(t·m)` FJ solve and one
//! full-rule evaluation. This mirrors `dm::dm_greedy`'s plain-greedy
//! arm, with the same cumulative-gain tie-break and the same lane
//! batching: each iteration's trial solves run eight to a sweep, and
//! every lane is bit-identical to the single solve of its seed set.

use crate::{CoreError, Result};
use rayon::prelude::*;
use std::sync::Arc;
use vom_diffusion::{Instance, OpinionMatrix, SolverPool, LANES};
use vom_graph::{Candidate, Node};
use vom_voting::OpinionScore;

/// Exact objective value of a seed set under any rule: runs the FJ model
/// to the horizon with `seeds` for `target` (on top of the target's fixed
/// seeds) and evaluates the rule on the full opinion snapshot.
pub fn evaluate_rule<S: OpinionScore + ?Sized>(
    instance: &Instance,
    target: Candidate,
    horizon: usize,
    seeds: &[Node],
    rule: &S,
) -> f64 {
    let b = instance.opinions_at(horizon, target, seeds);
    rule.evaluate(&b, target)
}

/// Greedy seed selection (Algorithm 1) for an arbitrary [`OpinionScore`].
///
/// Every iteration evaluates all non-seed candidates exactly — one FJ
/// solve plus one rule evaluation each — and commits the node with the
/// largest marginal gain (ties: larger cumulative target opinion, then
/// smaller node id). The trials run in lanes, as in `dm::dm_greedy`:
/// fixed 8-node chunks of the candidate list, each chunk one
/// [`vom_diffusion::Solver::solve_lanes`] from the committed set, spread
/// over the pool (per-worker `map_init` scratch: pooled solver, row
/// buffer and a private snapshot copy; each is fully rewritten per lane,
/// so results are schedule-independent). Returns `min(k, n − |fixed|)`
/// seeds in selection order.
///
/// For non-decreasing rules (all of `vom_voting::ext`) this is the same
/// heuristic the paper analyses; quality guarantees depend on the rule's
/// submodularity structure and are not claimed here.
///
/// ```
/// use std::sync::Arc;
/// use vom_core::{evaluate_rule, generic_greedy};
/// use vom_diffusion::{Instance, OpinionMatrix};
/// use vom_graph::builder::graph_from_edges;
/// use vom_voting::ExtendedRule;
///
/// // The paper's Figure-1 running example, scored under Borda.
/// let graph = Arc::new(graph_from_edges(
///     4,
///     &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
/// )?);
/// let initial = OpinionMatrix::from_rows(vec![
///     vec![0.40, 0.80, 0.60, 0.90],
///     vec![0.35, 0.75, 1.00, 0.80],
/// ])?;
/// let instance = Instance::shared(graph, initial, vec![0.0, 0.0, 0.5, 0.5])?;
///
/// let rule = ExtendedRule::Borda;
/// let seeds = generic_greedy(&instance, 0, 1, 1, &rule)?;
/// assert_eq!(seeds.len(), 1);
/// let before = evaluate_rule(&instance, 0, 1, &[], &rule);
/// let after = evaluate_rule(&instance, 0, 1, &seeds, &rule);
/// assert!(after > before);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn generic_greedy<S: OpinionScore + ?Sized>(
    instance: &Instance,
    target: Candidate,
    k: usize,
    horizon: usize,
    rule: &S,
) -> Result<Vec<Node>> {
    let r = instance.num_candidates();
    if target >= r {
        return Err(CoreError::BadTarget { target, r });
    }
    let n = instance.num_nodes();
    if k > n {
        return Err(CoreError::BudgetTooLarge { k, n });
    }

    let cand = instance.candidate(target);
    let system = Arc::clone(cand.system());
    let others = instance.non_target_opinions(horizon, target);
    let pool = SolverPool::new();

    let mut seeds = cand.fixed_seeds.clone();
    let mut is_seed = vec![false; n];
    for &s in &seeds {
        is_seed[s as usize] = true;
    }

    let mut picked = Vec::with_capacity(k);
    let mut trials: Vec<Node> = Vec::with_capacity(n);
    let mut evals: Vec<(Node, f64, f64)> = Vec::with_capacity(n);
    for _ in 0..k {
        trials.clear();
        trials.extend((0..n as Node).filter(|&v| !is_seed[v as usize]));
        evals.clear();
        trials
            .par_chunks(LANES)
            .map_init(
                || {
                    (
                        pool.checkout(&system),
                        Vec::with_capacity(n),
                        others.clone(),
                    )
                },
                |(solver, row, snapshot), chunk| {
                    solver.solve_lanes(&seeds, chunk, horizon, None);
                    let mut scored = [(0, 0.0, 0.0); LANES];
                    for (lane, (&v, out)) in chunk.iter().zip(&mut scored).enumerate() {
                        solver.copy_lane(lane, row);
                        let cum: f64 = row.iter().sum();
                        snapshot.set_row(target, row);
                        *out = (v, rule.evaluate(snapshot, target), cum);
                    }
                    (scored, chunk.len())
                },
            )
            .for_each(|(scored, len)| evals.extend_from_slice(&scored[..len]));
        let Some(&(best, _, _)) = evals.iter().max_by(|a, b| {
            // `total_cmp` keeps the argmax total (a NaN score orders
            // deterministically instead of panicking); identical to the
            // tuple `partial_cmp` on every finite trajectory.
            a.1.total_cmp(&b.1)
                .then_with(|| a.2.total_cmp(&b.2))
                .then_with(|| b.0.cmp(&a.0))
        }) else {
            break;
        };
        is_seed[best as usize] = true;
        seeds.push(best);
        picked.push(best);
    }
    Ok(picked)
}

/// Exhaustive argmax over all size-`k` seed sets — exponential, test-only
/// ground truth for small instances.
pub fn brute_force_best<S: OpinionScore + ?Sized>(
    instance: &Instance,
    target: Candidate,
    k: usize,
    horizon: usize,
    rule: &S,
) -> (Vec<Node>, f64) {
    let n = instance.num_nodes() as Node;
    let mut best: (Vec<Node>, f64) = (Vec::new(), f64::NEG_INFINITY);
    let mut subset: Vec<Node> = Vec::with_capacity(k);
    #[allow(clippy::too_many_arguments)] // test-only exhaustive search
    fn recurse<S: OpinionScore + ?Sized>(
        instance: &Instance,
        target: Candidate,
        horizon: usize,
        rule: &S,
        start: Node,
        n: Node,
        k: usize,
        subset: &mut Vec<Node>,
        best: &mut (Vec<Node>, f64),
    ) {
        if subset.len() == k {
            let s = evaluate_rule(instance, target, horizon, subset, rule);
            if s > best.1 {
                *best = (subset.clone(), s);
            }
            return;
        }
        for v in start..n {
            subset.push(v);
            recurse(instance, target, horizon, rule, v + 1, n, k, subset, best);
            subset.pop();
        }
    }
    recurse(
        instance,
        target,
        horizon,
        rule,
        0,
        n,
        k,
        &mut subset,
        &mut best,
    );
    best
}

/// Reference snapshot of an instance without extra target seeds, for
/// reporting before/after comparisons under any rule.
pub fn baseline_snapshot(instance: &Instance, target: Candidate, horizon: usize) -> OpinionMatrix {
    instance.opinions_at(horizon, target, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dm::dm_greedy_unprepared as dm_greedy;
    use crate::problem::Problem;
    use std::sync::Arc;
    use vom_diffusion::CandidateData;
    use vom_graph::builder::graph_from_edges;
    use vom_voting::{ExtendedRule, ScoringFunction};

    /// The paper's running example (Figure 1) with the calibrated `c₂`
    /// initial opinions from DESIGN.md §4b.
    fn running_example() -> Instance {
        let g = Arc::new(graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap());
        let d = vec![0.0, 0.0, 0.5, 0.5];
        let c1 = CandidateData::new(g.clone(), vec![0.40, 0.80, 0.60, 0.90], d.clone()).unwrap();
        let c2 = CandidateData::new(g, vec![0.35, 0.75, 1.00, 0.80], d).unwrap();
        Instance::from_candidates(vec![c1, c2]).unwrap()
    }

    #[test]
    fn generic_greedy_matches_dm_on_paper_scores() {
        let instance = running_example();
        for score in [
            ScoringFunction::Cumulative,
            ScoringFunction::Plurality,
            ScoringFunction::Copeland,
        ] {
            let problem = Problem::new(&instance, 0, 1, 1, score.clone()).unwrap();
            let dm = dm_greedy(&problem);
            let gen = generic_greedy(&instance, 0, 1, 1, &score).unwrap();
            // Both paths use exact evaluation with the cumulative
            // tie-break, so the *objective values* must agree (seed
            // identity can differ only on exact ties).
            assert_eq!(
                evaluate_rule(&instance, 0, 1, &dm, &score),
                evaluate_rule(&instance, 0, 1, &gen, &score),
                "{score}"
            );
        }
    }

    #[test]
    fn generic_greedy_borda_matches_brute_force_at_k1() {
        let instance = running_example();
        let rule = ExtendedRule::Borda;
        let greedy = generic_greedy(&instance, 0, 1, 1, &rule).unwrap();
        let (_, best) = brute_force_best(&instance, 0, 1, 1, &rule);
        assert_eq!(evaluate_rule(&instance, 0, 1, &greedy, &rule), best);
    }

    #[test]
    fn every_extension_rule_is_non_decreasing_under_greedy_growth() {
        let instance = running_example();
        for rule in ExtendedRule::ALL {
            let seeds = generic_greedy(&instance, 0, 3, 1, &rule).unwrap();
            let mut prev = evaluate_rule(&instance, 0, 1, &[], &rule);
            for i in 1..=seeds.len() {
                let cur = evaluate_rule(&instance, 0, 1, &seeds[..i], &rule);
                assert!(cur >= prev, "{rule}: {cur} < {prev} at {i}");
                prev = cur;
            }
        }
    }

    #[test]
    fn generic_greedy_validates_inputs() {
        let instance = running_example();
        assert!(matches!(
            generic_greedy(&instance, 5, 1, 1, &ExtendedRule::Borda),
            Err(CoreError::BadTarget { .. })
        ));
        assert!(matches!(
            generic_greedy(&instance, 0, 99, 1, &ExtendedRule::Borda),
            Err(CoreError::BudgetTooLarge { .. })
        ));
    }

    #[test]
    fn budget_never_exceeds_free_nodes() {
        let instance = running_example();
        let seeds = generic_greedy(&instance, 0, 4, 1, &ExtendedRule::Maximin).unwrap();
        assert_eq!(seeds.len(), 4);
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "seeds must be distinct");
    }
}
