//! The §VIII baselines behind the [`SeedSelector`] trait — the same
//! build-once/query-many lifecycle as the core DM/RW/RS engines, so one
//! harness loop drives all nine registered methods.
//!
//! Preparation computes each baseline's ranking once at the prepared
//! budget; queries take prefixes. Every ranking here is produced by a
//! deterministic greedy or a full sort, so the prefix for `k` seeds
//! equals what a fresh run at budget `k` would pick (for IMM the RR-set
//! count is sized for the *prepared* budget, which only makes smaller
//! queries better-estimated).

use crate::cascade::CascadeModel;
use crate::degree::degree_centrality_seeds;
use crate::gedt::gedt_seeds;
use crate::imm::{imm_seeds, ImmConfig};
use crate::pagerank::pagerank_seeds;
use crate::rwr::rwr_seeds;
use std::time::Instant;
use vom_core::engine::{Engine, IndexBackend, PreparedIndex, SeedSelector, SessionScratch};
use vom_core::greedy::Competitors;
use vom_core::registry::MethodId;
use vom_core::{CostMeter, Problem, ProblemSpec, Result};
use vom_graph::Node;

/// One of the six compared baselines (§VIII-A), ready to prepare.
#[derive(Debug, Clone)]
pub enum BaselineEngine {
    /// IMM under the Independent Cascade model.
    Ic(ImmConfig),
    /// IMM under the Linear Threshold model.
    Lt(ImmConfig),
    /// Gionis et al. greedy at a finite horizon.
    Gedt,
    /// PageRank centrality.
    PageRank,
    /// Random walk with restart.
    Rwr,
    /// Degree centrality.
    Degree,
}

impl BaselineEngine {
    /// The baseline for a registry id, with default configs; `None` for
    /// the core methods (DM/RW/RS) — use [`AnyEngine::with_defaults`]
    /// to cover all nine.
    pub fn with_defaults(id: MethodId) -> Option<BaselineEngine> {
        match id {
            MethodId::Ic => Some(BaselineEngine::Ic(ImmConfig::default())),
            MethodId::Lt => Some(BaselineEngine::Lt(ImmConfig::default())),
            MethodId::Gedt => Some(BaselineEngine::Gedt),
            MethodId::Pr => Some(BaselineEngine::PageRank),
            MethodId::Rwr => Some(BaselineEngine::Rwr),
            MethodId::Dc => Some(BaselineEngine::Degree),
            MethodId::Dm | MethodId::Rw | MethodId::Rs => None,
        }
    }

    /// The registry identity of this baseline.
    pub fn id(&self) -> MethodId {
        match self {
            BaselineEngine::Ic(_) => MethodId::Ic,
            BaselineEngine::Lt(_) => MethodId::Lt,
            BaselineEngine::Gedt => MethodId::Gedt,
            BaselineEngine::PageRank => MethodId::Pr,
            BaselineEngine::Rwr => MethodId::Rwr,
            BaselineEngine::Degree => MethodId::Dc,
        }
    }

    /// Display name from the registry.
    pub fn name(&self) -> &'static str {
        self.id().name()
    }
}

impl SeedSelector for BaselineEngine {
    fn id(&self) -> MethodId {
        BaselineEngine::id(self)
    }

    fn prepare_spec(&self, spec: ProblemSpec) -> Result<PreparedIndex> {
        // audit:allow(d-wall-clock, "phase timer: elapsed feeds reported timings, never selection order")
        let start = Instant::now();
        let order = {
            let problem = spec.problem();
            let g = problem.instance.graph_of(problem.target);
            match self {
                BaselineEngine::Ic(cfg) => {
                    imm_seeds(g, CascadeModel::IndependentCascade, problem.k, cfg)
                }
                BaselineEngine::Lt(cfg) => {
                    imm_seeds(g, CascadeModel::LinearThreshold, problem.k, cfg)
                }
                BaselineEngine::Gedt => gedt_seeds(&problem),
                BaselineEngine::PageRank => pagerank_seeds(g, problem.k),
                BaselineEngine::Rwr => rwr_seeds(g, problem.k),
                BaselineEngine::Degree => degree_centrality_seeds(g, problem.k),
            }
        };
        Ok(PreparedIndex::new(
            spec,
            self.id(),
            Box::new(RankedListIndex { order }),
            start.elapsed(),
        ))
    }
}

/// The prepared state of every baseline: the immutable selection order
/// computed at the prepared budget; a query takes the first `k`. The
/// ranking is prefix-consistent (deterministic greedy or full sort), so
/// concurrent sessions need no per-query state at all.
struct RankedListIndex {
    order: Vec<Node>,
}

impl IndexBackend for RankedListIndex {
    fn heap_bytes(&self) -> usize {
        0
    }

    fn greedy(
        &self,
        problem: &Problem<'_>,
        _comp: Option<Competitors<'_>>,
        _scratch: &mut SessionScratch,
        _meter: Option<&CostMeter>,
    ) -> Result<Vec<Node>> {
        Ok(self.order.iter().take(problem.k).copied().collect())
    }

    fn needs_exact_competitors(&self) -> bool {
        false
    }
}

/// Any of the nine registered methods, behind one [`SeedSelector`] type —
/// the registry's factory output.
#[derive(Debug, Clone)]
pub enum AnyEngine {
    /// One of the paper's proposed engines (DM/RW/RS).
    Core(Engine),
    /// One of the six baselines.
    Baseline(BaselineEngine),
}

impl AnyEngine {
    /// The engine for a registry id with default configs.
    pub fn with_defaults(id: MethodId) -> AnyEngine {
        match id {
            MethodId::Dm => AnyEngine::Core(Engine::Dm),
            MethodId::Rw => AnyEngine::Core(Engine::rw_default()),
            MethodId::Rs => AnyEngine::Core(Engine::rs_default()),
            baseline => AnyEngine::Baseline(
                BaselineEngine::with_defaults(baseline).expect("non-core id is a baseline"),
            ),
        }
    }

    /// Display name from the registry.
    pub fn name(&self) -> &'static str {
        self.id().name()
    }
}

impl SeedSelector for AnyEngine {
    fn id(&self) -> MethodId {
        match self {
            AnyEngine::Core(e) => e.id(),
            AnyEngine::Baseline(b) => b.id(),
        }
    }

    fn prepare_spec(&self, spec: ProblemSpec) -> Result<PreparedIndex> {
        match self {
            AnyEngine::Core(e) => e.prepare_spec(spec),
            AnyEngine::Baseline(b) => b.prepare_spec(spec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vom_core::engine::{QuerySession, SelectionMode};
    use vom_diffusion::{Instance, OpinionMatrix};
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
    fn every_registered_method_prepares_and_selects() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 2, 1, ScoringFunction::Cumulative).unwrap();
        for id in MethodId::all() {
            let engine = AnyEngine::with_defaults(id);
            assert_eq!(engine.id(), id);
            let res = engine.select_once(&p, SelectionMode::Auto).unwrap();
            assert_eq!(res.seeds.len(), 2, "{}", id.name());
            assert!(
                res.exact_score >= 2.55,
                "{} cannot lose to the empty set",
                id.name()
            );
        }
    }

    #[test]
    fn baseline_prefixes_match_fresh_runs() {
        // The prepared ranking at budget k_max answers any smaller k with
        // exactly what a fresh budget-k run would pick (sort/greedy
        // rankings are nested).
        let inst = instance();
        let p3 = Problem::new(&inst, 0, 3, 1, ScoringFunction::Cumulative).unwrap();
        for id in [MethodId::Gedt, MethodId::Pr, MethodId::Rwr, MethodId::Dc] {
            let engine = AnyEngine::with_defaults(id);
            let mut session = QuerySession::new(Arc::new(engine.prepare_index(&p3).unwrap()));
            for k in 1..=3usize {
                let via_prefix = session.select_k(k).unwrap().seeds;
                let pk = Problem::new(&inst, 0, k, 1, ScoringFunction::Cumulative).unwrap();
                let fresh = engine.select_once(&pk, SelectionMode::Auto).unwrap().seeds;
                assert_eq!(via_prefix, fresh, "{} k={k}", id.name());
            }
        }
    }

    #[test]
    fn baselines_skip_sandwich_and_competitor_matrices() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Plurality).unwrap();
        let res = AnyEngine::with_defaults(MethodId::Dc)
            .select_once(&p, SelectionMode::Auto)
            .unwrap();
        assert!(res.sandwich.is_none(), "baselines are evaluated as-is");
        assert_eq!(res.estimator_heap_bytes, 0);
    }
}
