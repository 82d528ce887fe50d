//! The FJ-Vote problem specification (Problem 1).

use crate::greedy::score_with_target_row;
use crate::phases::{self, Phase};
use crate::{CoreError, Result};
use std::sync::Arc;
use vom_diffusion::{Instance, OpinionMatrix};
use vom_graph::{Candidate, Node};
use vom_voting::ScoringFunction;

/// One FJ-Vote instance: pick `k` seeds for `target` so that `score` of
/// `target` at horizon `t` is maximized (Eq. 8).
#[derive(Debug, Clone)]
pub struct Problem<'a> {
    /// The multi-candidate diffusion instance.
    pub instance: &'a Instance,
    /// The target candidate `c_q`.
    pub target: Candidate,
    /// Seed budget `k`.
    pub k: usize,
    /// Time horizon `t`.
    pub horizon: usize,
    /// The voting-based objective.
    pub score: ScoringFunction,
}

impl<'a> Problem<'a> {
    /// Builds and validates a problem.
    pub fn new(
        instance: &'a Instance,
        target: Candidate,
        k: usize,
        horizon: usize,
        score: ScoringFunction,
    ) -> Result<Self> {
        if target >= instance.num_candidates() {
            return Err(CoreError::BadTarget {
                target,
                r: instance.num_candidates(),
            });
        }
        if k > instance.num_nodes() {
            return Err(CoreError::BudgetTooLarge {
                k,
                n: instance.num_nodes(),
            });
        }
        score.validate(instance.num_candidates())?;
        Ok(Problem {
            instance,
            target,
            k,
            horizon,
            score,
        })
    }

    /// Number of users.
    pub fn num_nodes(&self) -> usize {
        self.instance.num_nodes()
    }

    /// Exact objective value `F(B^{(t)}[S], c_q)` of a seed set —
    /// the ground truth every method is evaluated on in §VIII.
    ///
    /// Solves the target campaign only; the competitive rules read the
    /// competitors' rows from [`Problem::non_target_opinions`], which
    /// this call recomputes. Callers that evaluate several seed sets
    /// should compute those rows once and use
    /// [`Problem::exact_score_against`].
    pub fn exact_score(&self, seeds: &[Node]) -> f64 {
        // The cumulative rule reads no competitor rows: an empty matrix
        // stands in for them.
        let others = if self.is_competitive() {
            self.non_target_opinions()
        } else {
            OpinionMatrix::zeros(0, 0)
        };
        self.exact_score_against(seeds, &others)
    }

    /// [`Problem::exact_score`] with the competitors' horizon-`t` rows
    /// supplied: `others` holds them for every candidate but the target
    /// (its target row is ignored), as [`Problem::non_target_opinions`]
    /// returns them. The cumulative rule ignores `others` entirely
    /// (§II-C Remark 1).
    ///
    /// One cold solve of the target campaign, with its fixed seeds. The
    /// result is bit-identical to scoring the full matrix
    /// `B^{(t)}[S]`: the competitor rows are the same seed-independent
    /// solves, and [`score_with_target_row`] visits users and candidates
    /// in the order [`ScoringFunction::score`] does.
    pub fn exact_score_against(&self, seeds: &[Node], others: &OpinionMatrix) -> f64 {
        let row = phases::timed(Phase::Diffusion, || {
            self.instance.opinions_of(self.target, self.horizon, seeds)
        });
        phases::timed(Phase::Scoring, || {
            score_with_target_row(&self.score, others, self.target, &row)
        })
    }

    /// Exact opinion matrix under a seed set.
    pub fn opinions(&self, seeds: &[Node]) -> OpinionMatrix {
        phases::timed(Phase::Diffusion, || {
            self.instance.opinions_at(self.horizon, self.target, seeds)
        })
    }

    /// Whether the objective needs the competitors' opinions (everything
    /// except the cumulative score, §II-C Remark 1).
    pub fn is_competitive(&self) -> bool {
        !matches!(self.score, ScoringFunction::Cumulative)
    }

    /// Exact horizon-`t` opinions of the non-target candidates (computed
    /// once per selection; the target row is left zero and unused).
    pub fn non_target_opinions(&self) -> OpinionMatrix {
        phases::timed(Phase::Diffusion, || {
            self.instance.non_target_opinions(self.horizon, self.target)
        })
    }

    /// A smaller copy of this problem with a different budget (used by
    /// the FJ-Vote-Win binary search).
    pub fn with_budget(&self, k: usize) -> Problem<'a> {
        Problem { k, ..self.clone() }
    }
}

/// An owned problem specification: the same five fields as [`Problem`],
/// but holding the instance behind an [`Arc`] instead of borrowing it.
///
/// This is what a [`crate::engine::PreparedIndex`] stores — an index is a
/// long-lived, `Send + Sync` artifact that outlives the stack frame it
/// was built in, so it cannot borrow the instance the way the
/// query-side [`Problem`] view does. Convert freely in both directions:
/// [`ProblemSpec::from_problem`] clones the instance once into the `Arc`
/// (the graphs inside an [`Instance`] are already `Arc`-shared, so the
/// copy is `O(r·n)` opinion/stubbornness values, not the graph), and
/// [`ProblemSpec::problem`] reborrows a [`Problem`] view for the
/// algorithm layer.
#[derive(Debug, Clone)]
pub struct ProblemSpec {
    /// The multi-candidate diffusion instance, shared.
    pub instance: Arc<Instance>,
    /// The target candidate `c_q`.
    pub target: Candidate,
    /// Seed budget `k`.
    pub k: usize,
    /// Time horizon `t`.
    pub horizon: usize,
    /// The voting-based objective.
    pub score: ScoringFunction,
}

impl ProblemSpec {
    /// Builds and validates an owned problem specification.
    pub fn new(
        instance: Arc<Instance>,
        target: Candidate,
        k: usize,
        horizon: usize,
        score: ScoringFunction,
    ) -> Result<Self> {
        Problem::new(&instance, target, k, horizon, score.clone())?;
        Ok(ProblemSpec {
            instance,
            target,
            k,
            horizon,
            score,
        })
    }

    /// An owned copy of a borrowed problem (clones the instance into the
    /// `Arc`; the underlying graphs stay shared).
    pub fn from_problem(problem: &Problem<'_>) -> ProblemSpec {
        ProblemSpec {
            instance: Arc::new(problem.instance.clone()),
            target: problem.target,
            k: problem.k,
            horizon: problem.horizon,
            score: problem.score.clone(),
        }
    }

    /// A borrowed [`Problem`] view of this specification.
    pub fn problem(&self) -> Problem<'_> {
        Problem {
            instance: &self.instance,
            target: self.target,
            k: self.k,
            horizon: self.horizon,
            score: self.score.clone(),
        }
    }

    /// A borrowed view with a different budget and rule — the per-query
    /// problem the prepared artifacts answer.
    pub fn query_problem(&self, k: usize, score: ScoringFunction) -> Problem<'_> {
        Problem {
            instance: &self.instance,
            target: self.target,
            k,
            horizon: self.horizon,
            score,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vom_graph::builder::graph_from_edges;

    fn instance() -> Instance {
        let g = Arc::new(graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap());
        let b = OpinionMatrix::from_rows(vec![
            vec![0.40, 0.80, 0.60, 0.90],
            vec![0.35, 0.75, 0.90, 0.90],
        ])
        .unwrap();
        Instance::shared(g, b, vec![0.0, 0.0, 0.5, 0.5]).unwrap()
    }

    #[test]
    fn validates_inputs() {
        let inst = instance();
        assert!(Problem::new(&inst, 0, 2, 1, ScoringFunction::Plurality).is_ok());
        assert!(matches!(
            Problem::new(&inst, 5, 2, 1, ScoringFunction::Plurality),
            Err(CoreError::BadTarget { .. })
        ));
        assert!(matches!(
            Problem::new(&inst, 0, 99, 1, ScoringFunction::Plurality),
            Err(CoreError::BudgetTooLarge { .. })
        ));
        assert!(Problem::new(&inst, 0, 2, 1, ScoringFunction::PApproval { p: 7 }).is_err());
    }

    #[test]
    fn exact_score_matches_table1() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Cumulative).unwrap();
        assert!((p.exact_score(&[]) - 2.55).abs() < 1e-12);
        assert!((p.exact_score(&[0]) - 3.30).abs() < 1e-12);
        assert!((p.exact_score(&[2]) - 3.15).abs() < 1e-12);
    }

    #[test]
    fn spec_round_trips_through_problem_views() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 2, 3, ScoringFunction::Plurality).unwrap();
        let spec = ProblemSpec::from_problem(&p);
        let view = spec.problem();
        assert_eq!(view.target, 0);
        assert_eq!(view.k, 2);
        assert_eq!(view.horizon, 3);
        assert_eq!(view.num_nodes(), 4);
        // The graphs inside the instance stay shared, not deep-copied.
        assert!(Arc::ptr_eq(
            p.instance.graph_of(0),
            spec.instance.graph_of(0)
        ));
        let q = spec.query_problem(1, ScoringFunction::Cumulative);
        assert_eq!(q.k, 1);
        assert!(!q.is_competitive());
        // Validation mirrors Problem::new.
        assert!(matches!(
            ProblemSpec::new(
                Arc::clone(&spec.instance),
                9,
                1,
                1,
                ScoringFunction::Plurality
            ),
            Err(CoreError::BadTarget { .. })
        ));
    }

    #[test]
    fn with_budget_changes_only_k() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 5, ScoringFunction::Copeland).unwrap();
        let p2 = p.with_budget(3);
        assert_eq!(p2.k, 3);
        assert_eq!(p2.horizon, 5);
        assert!(p.is_competitive());
    }
}
