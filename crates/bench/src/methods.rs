//! The nine compared methods of §VIII-A, driven through the registry and
//! the prepared-engine lifecycle.
//!
//! Methods are the core registry's [`MethodId`] — legend names,
//! ours/baseline flags, and ordering all come from
//! [`vom_core::registry`]; this module only adds the harness-wide engine
//! configurations (§VIII-B parameter settings) and the
//! [`MethodOutcome`] row format the experiments emit.

use crate::error::Result;
use std::sync::Arc;
use std::time::Duration;
use vom_baselines::{AnyEngine, BaselineEngine, ImmConfig};
use vom_core::engine::{Engine, PreparedIndex, QuerySession, SeedSelector};
use vom_core::rs::RsConfig;
use vom_core::rw::RwConfig;
use vom_core::{MethodId, Problem};
use vom_graph::Node;

/// The engine for a method under the harness-wide parameter settings
/// (§VIII-B): RW caps per-node walk counts and floors γ for the wide
/// sweeps; IMM gets a bounded RR-set arena.
pub fn harness_engine(method: MethodId, seed: u64) -> AnyEngine {
    let imm_cfg = ImmConfig {
        seed,
        max_rr_sets: 400_000,
        ..ImmConfig::default()
    };
    match method {
        MethodId::Dm => AnyEngine::Core(Engine::Dm),
        // Harness-wide RW setting: cap per-node walk counts and floor γ a
        // bit higher than the library default — the sweeps run many
        // (dataset, k, method) cells and the replicas' opinion gaps are
        // wide enough for λ = 150.
        MethodId::Rw => AnyEngine::Core(Engine::Rw(RwConfig {
            seed,
            max_lambda: 150,
            gamma_floor: 0.1,
            ..RwConfig::default()
        })),
        MethodId::Rs => AnyEngine::Core(Engine::Rs(RsConfig {
            seed,
            ..RsConfig::default()
        })),
        MethodId::Ic => AnyEngine::Baseline(BaselineEngine::Ic(imm_cfg)),
        MethodId::Lt => AnyEngine::Baseline(BaselineEngine::Lt(imm_cfg)),
        MethodId::Gedt => AnyEngine::Baseline(BaselineEngine::Gedt),
        MethodId::Pr => AnyEngine::Baseline(BaselineEngine::PageRank),
        MethodId::Rwr => AnyEngine::Baseline(BaselineEngine::Rwr),
        MethodId::Dc => AnyEngine::Baseline(BaselineEngine::Degree),
    }
}

/// Outcome of one (method, problem) evaluation.
#[derive(Debug, Clone)]
pub struct MethodOutcome {
    /// Selected seeds.
    pub seeds: Vec<Node>,
    /// Exact voting score of the seed set (the accuracy metric).
    pub score: f64,
    /// Seed-finding wall time (for prepared queries: the query alone —
    /// the one-time build is reported separately).
    pub elapsed: Duration,
    /// Estimator memory (0 where not applicable).
    pub memory: usize,
}

/// A method prepared once for a `(dataset, target, horizon, budget)` —
/// the unit the sweep experiments iterate: build the immutable
/// [`PreparedIndex`] here, then [`PreparedMethod::evaluate`] per `k`
/// through the bundled [`QuerySession`]. The index is `Arc`-shared:
/// [`PreparedMethod::index`] hands it to further sessions or threads.
pub struct PreparedMethod {
    method: MethodId,
    session: QuerySession,
}

impl PreparedMethod {
    /// Prepares `method` for `problem` (whose `k` becomes the budget and
    /// whose score is the rule queries default to).
    pub fn new(problem: &Problem<'_>, method: MethodId, seed: u64) -> Result<PreparedMethod> {
        let index = harness_engine(method, seed).prepare_index(problem)?;
        Ok(PreparedMethod::from_index(method, Arc::new(index)))
    }

    /// Wraps an already-available index — e.g. one loaded from a
    /// `vom-persist` snapshot — in the prepared-method harness shape.
    /// Loaded and freshly built indexes are interchangeable here.
    pub fn from_index(method: MethodId, index: Arc<PreparedIndex>) -> PreparedMethod {
        PreparedMethod {
            method,
            session: QuerySession::new(index),
        }
    }

    /// The method's registry id.
    pub fn method(&self) -> MethodId {
        self.method
    }

    /// One-time artifact build wall time.
    pub fn build_time(&self) -> Duration {
        self.index().build_stats().build_time
    }

    /// Selects `k` seeds under the prepared rule and evaluates them
    /// exactly — "all baselines differ only in the seed selection
    /// methods; once the seeds are selected, all of them are evaluated in
    /// the same multi-campaign setting" (§VIII-A).
    pub fn evaluate(&mut self, k: usize) -> Result<MethodOutcome> {
        let res = self.session.select_k(k)?;
        Ok(MethodOutcome {
            seeds: res.seeds,
            score: res.exact_score,
            elapsed: res.elapsed,
            memory: res.estimator_heap_bytes,
        })
    }

    /// The shared prepared index (for opening sessions on other threads
    /// or reading build stats).
    pub fn index(&self) -> &Arc<PreparedIndex> {
        self.session.index()
    }

    /// The bundled query session, for queries beyond the default rule
    /// (e.g. the rule-comparison experiments).
    pub fn session(&mut self) -> &mut QuerySession {
        &mut self.session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vom_core::engine::SelectionMode;
    use vom_diffusion::{Instance, OpinionMatrix};
    use vom_graph::builder::graph_from_edges;
    use vom_voting::ScoringFunction;

    #[test]
    fn every_method_returns_k_seeds_and_a_score() {
        let g = Arc::new(graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap());
        let b = OpinionMatrix::from_rows(vec![
            vec![0.40, 0.80, 0.60, 0.90],
            vec![0.35, 0.75, 1.00, 0.80],
        ])
        .unwrap();
        let inst = Instance::shared(g, b, vec![0.0, 0.0, 0.5, 0.5]).unwrap();
        let p = Problem::new(&inst, 0, 2, 1, ScoringFunction::Cumulative).unwrap();
        for m in MethodId::all() {
            let out = harness_engine(m, 5)
                .select_once(&p, SelectionMode::Auto)
                .unwrap();
            assert_eq!(out.seeds.len(), 2, "{}", m.name());
            assert!(
                out.exact_score >= 2.55,
                "{} cannot lose to the empty set",
                m.name()
            );
        }
    }

    #[test]
    fn names_are_unique() {
        // Derived from the registry — the single source of legend names.
        let mut names: Vec<&str> = MethodId::all().iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn prepared_method_amortizes_the_build() {
        let g = Arc::new(graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap());
        let b = OpinionMatrix::from_rows(vec![
            vec![0.40, 0.80, 0.60, 0.90],
            vec![0.35, 0.75, 1.00, 0.80],
        ])
        .unwrap();
        let inst = Instance::shared(g, b, vec![0.0, 0.0, 0.5, 0.5]).unwrap();
        let p = Problem::new(&inst, 0, 2, 1, ScoringFunction::Cumulative).unwrap();
        let mut prepared = PreparedMethod::new(&p, MethodId::Rs, 5).unwrap();
        // Use the backend-local build count (the process-global counters
        // race with sibling tests on parallel test threads).
        let builds_before = prepared.index().build_stats().artifact_builds;
        for k in 1..=2 {
            assert_eq!(prepared.evaluate(k).unwrap().seeds.len(), k);
        }
        let builds_after = prepared.index().build_stats().artifact_builds;
        assert_eq!(
            builds_after, builds_before,
            "queries must not rebuild sketches"
        );
    }
}
