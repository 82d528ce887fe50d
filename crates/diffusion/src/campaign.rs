//! Multi-candidate problem instances.

use crate::error::{validate_unit_range, DiffusionError};
use crate::fj::FjEngine;
use crate::opinion::OpinionMatrix;
use crate::shared::SharedValues;
use crate::solver::{DiffusionSystem, SolveOptions, Solver};
use crate::Result;
use std::sync::{Arc, OnceLock};
use vom_graph::{Candidate, Node, SocialGraph};

/// Everything that defines one candidate's campaign: her influence matrix
/// `W_q` (candidates may share the `Arc`), initial opinions `B_q^(0)`,
/// stubbornness diagonal `D_q`, and seeds already committed at time 0.
///
/// `fixed_seeds` implements the paper's general setting (§II-C Remark 2):
/// non-target candidates may have seed sets placed at time 0; the target's
/// seeds are chosen *relative to* those placements. They default to empty,
/// matching the paper's w.l.o.g. exposition.
#[derive(Debug, Clone)]
pub struct CandidateData {
    /// Influence matrix `W_q` (wrapped in the graph).
    pub graph: Arc<SocialGraph>,
    /// Initial opinions `B_q^(0)` of every user about this candidate —
    /// a window into the instance's shared opinion buffer when built via
    /// [`Instance::shared`] (structure-of-arrays storage).
    pub initial: SharedValues,
    /// Stubbornness diagonal `D_q` — one buffer shared by all candidates
    /// when built via [`Instance::shared`].
    pub stubbornness: SharedValues,
    /// Seeds committed for this candidate at time 0.
    pub fixed_seeds: Vec<Node>,
    /// Lazily built solver system (CSR copy of `graph` + `initial`/
    /// `stubbornness`), shared by every [`Solver`] over this candidate.
    system: OnceLock<Arc<DiffusionSystem>>,
}

impl CandidateData {
    /// Builds and validates one candidate's data (no fixed seeds).
    /// Accepts plain `Vec<f64>`s or [`SharedValues`] windows into buffers
    /// shared with other candidates.
    pub fn new(
        graph: Arc<SocialGraph>,
        initial: impl Into<SharedValues>,
        stubbornness: impl Into<SharedValues>,
    ) -> Result<Self> {
        let data = CandidateData {
            graph,
            initial: initial.into(),
            stubbornness: stubbornness.into(),
            fixed_seeds: Vec::new(),
            system: OnceLock::new(),
        };
        data.validate()?;
        Ok(data)
    }

    /// Adds pre-committed seeds.
    pub fn with_fixed_seeds(mut self, seeds: Vec<Node>) -> Self {
        self.fixed_seeds = seeds;
        self
    }

    fn validate(&self) -> Result<()> {
        let n = self.graph.num_nodes();
        if self.initial.len() != n {
            return Err(DiffusionError::LengthMismatch {
                what: "initial opinions",
                got: self.initial.len(),
                expected: n,
            });
        }
        if self.stubbornness.len() != n {
            return Err(DiffusionError::LengthMismatch {
                what: "stubbornness",
                got: self.stubbornness.len(),
                expected: n,
            });
        }
        validate_unit_range("initial opinion", &self.initial)?;
        validate_unit_range("stubbornness", &self.stubbornness)?;
        Ok(())
    }

    /// An exact FJ engine over this candidate's inputs.
    pub fn engine(&self) -> FjEngine<'_> {
        FjEngine::new(&self.graph, &self.initial, &self.stubbornness)
            .expect("validated at construction")
    }

    /// The candidate's [`DiffusionSystem`], built on first use and cached:
    /// the solver-owned CSR layout every single and batched solve iterates.
    /// Cloning shares the cache; [`Instance::candidate_mut`] invalidates it.
    pub fn system(&self) -> &Arc<DiffusionSystem> {
        self.system.get_or_init(|| {
            Arc::new(
                DiffusionSystem::new(&self.graph, &self.initial, &self.stubbornness)
                    .expect("validated at construction"),
            )
        })
    }

    /// Installs a prebuilt system into the lazy cache — the snapshot-load
    /// path hands the deserialized [`DiffusionSystem`] here so every
    /// solver over this candidate shares one `Arc` (the DM backend
    /// asserts that identity). Returns the cached system: the existing
    /// one wins if the cache was already populated.
    pub fn install_system(&self, system: Arc<DiffusionSystem>) -> &Arc<DiffusionSystem> {
        self.system.get_or_init(|| system)
    }
}

/// A full FJ-Vote problem instance: `r` concurrent, independent campaigns
/// over the same user base (§II). Seed selection (in `vom-core`) chooses
/// seeds for one *target* candidate; this type computes the opinion matrix
/// `B^(t)[S]` those selections are scored on.
#[derive(Debug, Clone)]
pub struct Instance {
    candidates: Vec<CandidateData>,
    n: usize,
}

impl Instance {
    /// Builds an instance from per-candidate data; all candidates must
    /// cover the same user base.
    pub fn from_candidates(candidates: Vec<CandidateData>) -> Result<Self> {
        if candidates.is_empty() {
            return Err(DiffusionError::NoCandidates);
        }
        let n = candidates[0].graph.num_nodes();
        for c in &candidates {
            c.validate()?;
            if c.graph.num_nodes() != n {
                return Err(DiffusionError::LengthMismatch {
                    what: "candidate graph nodes",
                    got: c.graph.num_nodes(),
                    expected: n,
                });
            }
        }
        Ok(Instance { candidates, n })
    }

    /// Common case: every candidate shares the same influence matrix and
    /// stubbornness (as in the paper's running example and experiments);
    /// only the initial opinions differ.
    ///
    /// Storage is structure-of-arrays: all `r` candidates alias **one**
    /// stubbornness buffer and hold per-row windows into **one** flat
    /// `r × n` opinion buffer, instead of `r` private copies — at large
    /// `n` this is the dominant per-candidate memory term.
    pub fn shared(
        graph: Arc<SocialGraph>,
        initial: OpinionMatrix,
        stubbornness: Vec<f64>,
    ) -> Result<Self> {
        let r = initial.num_candidates();
        // The matrix's own row width (length mismatches against the graph
        // are still reported by `CandidateData::new`, not a window panic).
        let n = initial.flat_data().len() / r.max(1);
        let flat: Arc<[f64]> = initial.flat_data().into();
        let stubbornness = SharedValues::from(stubbornness);
        let mut candidates = Vec::with_capacity(r);
        for q in 0..r {
            candidates.push(CandidateData::new(
                Arc::clone(&graph),
                SharedValues::window(Arc::clone(&flat), q * n, n),
                stubbornness.clone(),
            )?);
        }
        Instance::from_candidates(candidates)
    }

    /// Number of users `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of candidates `r`.
    #[inline]
    pub fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Candidate `q`'s data.
    pub fn candidate(&self, q: Candidate) -> &CandidateData {
        &self.candidates[q]
    }

    /// Mutable candidate data (e.g. to commit fixed seeds). Drops the
    /// candidate's cached [`DiffusionSystem`] since the caller may change
    /// the inputs it was built from; it is rebuilt lazily on next use.
    pub fn candidate_mut(&mut self, q: Candidate) -> &mut CandidateData {
        self.candidates[q].system = OnceLock::new();
        &mut self.candidates[q]
    }

    /// The target candidate's graph (used by walk generation / BFS).
    pub fn graph_of(&self, q: Candidate) -> &Arc<SocialGraph> {
        &self.candidates[q].graph
    }

    /// Checks `q < r`.
    pub fn check_candidate(&self, q: Candidate) -> Result<()> {
        if q >= self.candidates.len() {
            return Err(DiffusionError::CandidateOutOfBounds {
                candidate: q,
                r: self.candidates.len(),
            });
        }
        Ok(())
    }

    /// Opinions of candidate `q` at horizon `t`, with `extra_seeds` added
    /// on top of the candidate's fixed seeds.
    pub fn opinions_of(&self, q: Candidate, t: usize, extra_seeds: &[Node]) -> Vec<f64> {
        let c = &self.candidates[q];
        let mut solver = Solver::new(Arc::clone(c.system()));
        if c.fixed_seeds.is_empty() {
            solver.solve(extra_seeds, &SolveOptions::exact(t), None);
        } else {
            let mut seeds = c.fixed_seeds.clone();
            seeds.extend_from_slice(extra_seeds);
            solver.solve(&seeds, &SolveOptions::exact(t), None);
        }
        solver.opinions().to_vec()
    }

    /// The full opinion matrix `B^(t)[S]`: seeds `S` applied to the
    /// `target` candidate, every candidate's fixed seeds applied, all
    /// campaigns diffusing concurrently and independently (§II-B).
    pub fn opinions_at(&self, t: usize, target: Candidate, seeds: &[Node]) -> OpinionMatrix {
        let mut m = OpinionMatrix::zeros(self.num_candidates(), self.n);
        for q in 0..self.num_candidates() {
            let row = if q == target {
                self.opinions_of(q, t, seeds)
            } else {
                self.opinions_of(q, t, &[])
            };
            m.set_row(q, &row);
        }
        m
    }

    /// Opinions of every *non-target* candidate at horizon `t` (their seed
    /// sets are fixed, so this can be computed once and cached by the seed
    /// selectors — the `O((r−1)·t·m)` term of §V's complexity analysis).
    pub fn non_target_opinions(&self, t: usize, target: Candidate) -> OpinionMatrix {
        let mut m = OpinionMatrix::zeros(self.num_candidates(), self.n);
        for q in 0..self.num_candidates() {
            if q != target {
                m.set_row(q, &self.opinions_of(q, t, &[]));
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vom_graph::builder::graph_from_edges;

    fn running_instance() -> Instance {
        let g = Arc::new(graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap());
        let initial = OpinionMatrix::from_rows(vec![
            vec![0.40, 0.80, 0.60, 0.90],
            vec![0.35, 0.75, 0.90, 0.90],
        ])
        .unwrap();
        Instance::shared(g, initial, vec![0.0, 0.0, 0.5, 0.5]).unwrap()
    }

    #[test]
    fn shared_instance_builds() {
        let inst = running_instance();
        assert_eq!(inst.num_nodes(), 4);
        assert_eq!(inst.num_candidates(), 2);
        inst.check_candidate(1).unwrap();
        assert!(inst.check_candidate(2).is_err());
    }

    #[test]
    fn opinions_at_applies_seeds_to_target_only() {
        let inst = running_instance();
        let b = inst.opinions_at(1, 0, &[2]);
        // Target row matches Table I seed {3} (1-indexed).
        assert_eq!(b.row(0), &[0.40, 0.80, 1.00, 0.95]);
        // Competitor row is seedless.
        let c2 = inst.opinions_of(1, 1, &[]);
        assert_eq!(b.row(1), c2.as_slice());
    }

    #[test]
    fn fixed_seeds_participate_for_non_targets() {
        let mut inst = running_instance();
        inst.candidate_mut(1).fixed_seeds = vec![0];
        let b = inst.opinions_at(1, 0, &[]);
        assert_eq!(b.get(1, 0), 1.0, "competitor's fixed seed is applied");
    }

    #[test]
    fn fixed_seeds_combine_with_extra_seeds_for_target() {
        let mut inst = running_instance();
        inst.candidate_mut(0).fixed_seeds = vec![0];
        let row = inst.opinions_of(0, 1, &[1]);
        assert_eq!(row[0], 1.0);
        assert_eq!(row[1], 1.0);
    }

    #[test]
    fn non_target_opinions_skips_target_row() {
        let inst = running_instance();
        let m = inst.non_target_opinions(1, 0);
        assert!(m.row(0).iter().all(|&b| b == 0.0));
        assert!(m.row(1).iter().any(|&b| b > 0.0));
    }

    #[test]
    fn mismatched_candidate_sizes_rejected() {
        let g1 = Arc::new(graph_from_edges(2, &[(0, 1, 1.0)]).unwrap());
        let g2 = Arc::new(graph_from_edges(3, &[(0, 1, 1.0)]).unwrap());
        let c1 = CandidateData::new(g1, vec![0.5, 0.5], vec![0.0, 0.0]).unwrap();
        let c2 = CandidateData::new(g2, vec![0.5; 3], vec![0.0; 3]).unwrap();
        assert!(Instance::from_candidates(vec![c1, c2]).is_err());
    }

    #[test]
    fn per_candidate_graphs_are_allowed() {
        // Different W per candidate (topic-aware IM setting, §II-A).
        let ga = Arc::new(graph_from_edges(2, &[(0, 1, 1.0)]).unwrap());
        let gb = Arc::new(graph_from_edges(2, &[(1, 0, 1.0)]).unwrap());
        let ca = CandidateData::new(ga, vec![0.9, 0.0], vec![0.0, 0.0]).unwrap();
        let cb = CandidateData::new(gb, vec![0.0, 0.9], vec![0.0, 0.0]).unwrap();
        let inst = Instance::from_candidates(vec![ca, cb]).unwrap();
        let b = inst.opinions_at(1, 0, &[]);
        assert_eq!(b.row(0), &[0.9, 0.9]);
        assert_eq!(b.row(1), &[0.9, 0.9]);
    }
}
