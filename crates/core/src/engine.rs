//! The prepared-engine selection API: build artifacts once, query many —
//! from any number of threads at once.
//!
//! The paper's practical pitch for RW/RS is that one expensive
//! precomputation (the walk arena of Algorithm 4, the sketch set of
//! Algorithm 5) amortizes over many cheap greedy queries. This module
//! makes that split explicit, and splits the query side once more so a
//! single prepared artifact can serve concurrent callers:
//!
//! 1. [`SeedSelector::prepare_index`] builds an immutable, owned,
//!    `Send + Sync` [`PreparedIndex`] for one `(instance, target,
//!    horizon)` and a seed budget, recording build time and heap bytes;
//! 2. each caller opens a cheap [`QuerySession`] on the (`Arc`-shared)
//!    index — the session owns all mutable per-query scratch;
//! 3. [`QuerySession::select`] answers a [`Query`] — any `k` up to the
//!    prepared budget, any scoring rule, plain or sandwich greedy —
//!    against the shared artifacts. Results are bit-identical no matter
//!    how many sessions query the index concurrently.
//!
//! Artifacts are cached per [`RuleClass`]: the walk arena differs between
//! the cumulative score (uniform λ, Theorem 10) and the competitive
//! scores (γ*-based per-node λ, Theorems 11–12), so an index prepared on
//! one class lazily builds the other's artifacts on first use — still
//! exactly once each, even when the first users are concurrent sessions
//! (the caches are `OnceLock`/lock-guarded).
//!
//! [`SeedSelector::select_once`] runs the whole lifecycle for a single
//! query, and the `vom-service` crate serves whole query batches over
//! registered graphs on top of this API.
//!
//! External crates plug their own methods in by implementing
//! [`SeedSelector`] + [`IndexBackend`] (the §VIII baselines in
//! `vom-baselines` do exactly that) and registering a [`MethodId`] in
//! the registry.
//!
//! # Example
//!
//! One index, two concurrent sessions:
//!
//! ```
//! use std::sync::Arc;
//! use vom_core::engine::{Engine, QuerySession, SeedSelector};
//! use vom_core::Problem;
//! use vom_diffusion::{Instance, OpinionMatrix};
//! use vom_graph::builder::graph_from_edges;
//! use vom_voting::ScoringFunction;
//!
//! let g = Arc::new(graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)])?);
//! let b = OpinionMatrix::from_rows(vec![
//!     vec![0.40, 0.80, 0.60, 0.90],
//!     vec![0.35, 0.75, 1.00, 0.80],
//! ])?;
//! let inst = Instance::shared(g, b, vec![0.0, 0.0, 0.5, 0.5])?;
//!
//! let spec = Problem::new(&inst, 0, 2, 1, ScoringFunction::Cumulative)?;
//! let index = Arc::new(Engine::rs_default().prepare_index(&spec)?);
//!
//! let results = std::thread::scope(|s| {
//!     let handles: Vec<_> = (0..2)
//!         .map(|_| {
//!             let index = Arc::clone(&index);
//!             s.spawn(move || {
//!                 let mut session = QuerySession::new(index);
//!                 session.select_k(1).map(|r| r.seeds)
//!             })
//!         })
//!         .collect();
//!     handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
//! });
//! for r in results {
//!     assert_eq!(r?, vec![0]); // every session sees the same artifacts
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::bounds::{favorable_users, greedy_upper_bound, upper_bound_parts};
use crate::dm::{dm_greedy, dm_greedy_masked_cumulative};
use crate::greedy::Competitors;
use crate::phases::{self, CostMeter, Phase};
use crate::problem::{Problem, ProblemSpec};
use crate::registry::MethodId;
use crate::rs::{sketch_theta, RsConfig};
use crate::rw::{competitive_arena, competitive_gammas, uniform_arena, RwConfig};
use crate::sandwich::{sandwich_select_with_su, SandwichInfo};
use crate::{CoreError, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use vom_diffusion::{DiffusionSystem, OpinionMatrix, SolverCounters, SolverPool};
use vom_graph::{Candidate, Node};
use vom_sketch::SketchSet;
use vom_voting::{RankIndex, ScoringFunction};
use vom_walks::{OccurrenceIndex, OpinionEstimator, Truncation, WalkArena};

/// The three proposed selection engines behind the prepared lifecycle
/// (§VIII compares them as DM, RW, RS).
#[derive(Debug, Clone)]
pub enum Engine {
    /// Exact direct matrix–vector greedy.
    Dm,
    /// Random-walk estimation (Algorithm 4).
    Rw(RwConfig),
    /// Reverse sketching (Algorithm 5) — the recommended method.
    Rs(RsConfig),
}

impl Engine {
    /// Display name matching the paper's legends (from the registry).
    pub fn name(&self) -> &'static str {
        self.id().name()
    }

    /// The registry identity of this engine.
    pub fn id(&self) -> MethodId {
        match self {
            Engine::Dm => MethodId::Dm,
            Engine::Rw(_) => MethodId::Rw,
            Engine::Rs(_) => MethodId::Rs,
        }
    }

    /// RW with paper-default parameters.
    pub fn rw_default() -> Self {
        Engine::Rw(RwConfig::default())
    }

    /// RS with paper-default parameters.
    pub fn rs_default() -> Self {
        Engine::Rs(RsConfig::default())
    }
}

/// Coarse partition of the scoring rules by the estimator artifacts they
/// need: the walk arena / sketch count is chosen per class, not per rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleClass {
    /// The submodular cumulative score (Theorem 3).
    Cumulative = 0,
    /// Plurality and the p-approval variants (Definition 3's bounds).
    Rank = 1,
    /// Copeland (pairwise duels; needs the widest estimates).
    Copeland = 2,
}

impl RuleClass {
    /// The class a scoring rule belongs to.
    pub fn of(score: &ScoringFunction) -> RuleClass {
        match score {
            ScoringFunction::Cumulative => RuleClass::Cumulative,
            ScoringFunction::Copeland => RuleClass::Copeland,
            _ => RuleClass::Rank,
        }
    }
}

/// How a query runs the greedy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionMode {
    /// Paper behavior: plain greedy for the submodular cumulative score,
    /// sandwich approximation (Algorithm 3) for the rank-based scores.
    #[default]
    Auto,
    /// Plain greedy only (Algorithm 1/4/5 without the sandwich wrapper).
    Plain,
}

/// One selection request against a prepared engine.
#[derive(Debug, Clone)]
pub struct Query {
    /// Seed budget; must be at least 1 and not exceed the prepared
    /// budget.
    pub k: usize,
    /// The voting-based objective to optimize.
    pub rule: ScoringFunction,
    /// Target candidate; must match the candidate the engine was
    /// prepared for (the artifacts are target-specific).
    pub target: Candidate,
    /// Plain or auto (sandwich where the paper prescribes it).
    pub mode: SelectionMode,
}

impl Query {
    /// An auto-mode query.
    pub fn new(k: usize, rule: ScoringFunction, target: Candidate) -> Query {
        Query {
            k,
            rule,
            target,
            mode: SelectionMode::Auto,
        }
    }

    /// A plain-greedy query.
    pub fn plain(k: usize, rule: ScoringFunction, target: Candidate) -> Query {
        Query {
            k,
            rule,
            target,
            mode: SelectionMode::Plain,
        }
    }
}

/// Build-side diagnostics of a prepared index.
#[derive(Debug, Clone, Copy)]
pub struct BuildStats {
    /// Wall-clock time spent in [`SeedSelector::prepare_index`] (eager
    /// builds only; lazily added rule classes are not included). The
    /// build runs on the parallel pool, so this is wall time over
    /// [`BuildStats::threads`] workers, not CPU time.
    pub build_time: Duration,
    /// Worker threads the pool offered while `prepare` ran
    /// (`rayon::current_num_threads()` at prepare time — the `VOM_THREADS`
    /// setting or available parallelism).
    pub threads: usize,
    /// Heap bytes currently held by the artifacts (walk arenas / sketch
    /// sets); 0 for DM. The Figure 17(b) series.
    pub heap_bytes: usize,
    /// Number of estimator artifacts built so far (eager + lazy).
    pub artifact_builds: usize,
    /// Exact-diffusion solver activity during the build (solve counts
    /// and steps) — the competitor/seedless matrices and any pilot
    /// evaluations run through the shared solver.
    pub solver: SolverCounters,
}

/// Outcome of a seed selection run.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// The selected seeds (size `min(k, n)`), in selection order.
    pub seeds: Vec<Node>,
    /// Exact objective value `F(B^{(t)}[S], c_q)` of the returned set.
    pub exact_score: f64,
    /// Wall-clock selection time (excludes the final exact evaluation;
    /// [`SeedSelector::select_once`] folds artifact build time in, a
    /// session [`QuerySession::select`] does not — see
    /// [`BuildStats::build_time`]).
    pub elapsed: Duration,
    /// Heap bytes held by the estimator (walk arena / sketch set); 0 for
    /// DM. The Figure 17(b) series.
    pub estimator_heap_bytes: usize,
    /// Sandwich diagnostics, present for the non-submodular scores.
    pub sandwich: Option<SandwichInfo>,
}

/// Result of a budgeted selection ([`QuerySession::select_with_meter`]):
/// either the full selection, or — when the meter's
/// [`CostBudget`](crate::CostBudget) ran out at a sequential checkpoint
/// — a *valid prefix* of it. CELF and the
/// per-iteration greedy loops commit seeds one at a time against
/// deterministic state, so the first `p` seeds of the full-budget run
/// and a run cancelled after `p` commits are bit-identical; degraded
/// answers are usable as-is, just shorter.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The budget sufficed; the full selection, with its exact score.
    Complete(SelectionResult),
    /// The budget ran out; a bit-identical prefix of the full selection.
    /// The exact score is *not* computed (scoring a prefix would spend
    /// the very work the budget was protecting).
    Degraded {
        /// The seeds committed before the budget ran out, in selection
        /// order — a prefix of the full-budget selection.
        seeds_prefix: Vec<Node>,
        /// Work units charged when the query stopped (≥ the limit).
        budget_spent: u64,
        /// The budget's tick limit.
        budget_limit: u64,
    },
}

impl Outcome {
    /// Whether the budget ran out before the selection completed.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Outcome::Degraded { .. })
    }

    /// The selected seeds: the full selection, or the degraded prefix.
    pub fn seeds(&self) -> &[Node] {
        match self {
            Outcome::Complete(res) => &res.seeds,
            Outcome::Degraded { seeds_prefix, .. } => seeds_prefix,
        }
    }
}

/// A selection method with the build-once/query-many lifecycle.
///
/// Implementors: the three core [`Engine`]s here, the six §VIII baselines
/// in `vom-baselines`. [`SeedSelector::prepare_spec`] does the expensive,
/// reusable work; everything per-query lives behind a [`QuerySession`].
pub trait SeedSelector {
    /// The registry identity of this method.
    fn id(&self) -> MethodId;

    /// Builds the method's immutable index for `spec`'s instance, target,
    /// horizon, and budget (`spec.k`); `spec.score` hints which rule
    /// class to build eagerly. This is the implementor hook; most callers
    /// use [`SeedSelector::prepare_index`].
    fn prepare_spec(&self, spec: ProblemSpec) -> Result<PreparedIndex>;

    /// Builds the immutable index from a borrowed problem (clones the
    /// instance into the index's `Arc`; graphs stay shared).
    fn prepare_index(&self, problem: &Problem<'_>) -> Result<PreparedIndex> {
        self.prepare_spec(ProblemSpec::from_problem(problem))
    }

    /// One-shot selection: prepare for exactly this problem, run one
    /// query for `problem.k` seeds under `problem.score` in `mode`, and
    /// fold the build time into [`SelectionResult::elapsed`]. Callers
    /// that select more than once per `(instance, target, horizon)` —
    /// sweeping `k`, comparing rules, binary-searching a winning budget
    /// — should prepare once and query a [`QuerySession`] instead.
    fn select_once(&self, problem: &Problem<'_>, mode: SelectionMode) -> Result<SelectionResult> {
        let mut session = QuerySession::new(Arc::new(self.prepare_index(problem)?));
        let query = Query {
            k: problem.k,
            rule: problem.score.clone(),
            target: problem.target,
            mode,
        };
        let mut res = session.select(&query)?;
        res.elapsed += session.index().build_stats().build_time;
        Ok(res)
    }
}

/// The per-engine greedy primitives a [`PreparedIndex`] drives.
/// Implementors own the reusable artifacts and take `&self`: any lazily
/// added artifact must live behind interior mutability
/// (`OnceLock`/`Mutex`) so concurrent sessions build it exactly once.
/// All per-query mutable state goes through the caller's
/// [`SessionScratch`]. The generic sandwich orchestration (mask
/// construction, feasible-solution arbitration, Algorithm 3) lives in
/// the index and is shared by every engine.
pub trait IndexBackend: Send + Sync {
    /// Heap bytes currently held by the artifacts.
    fn heap_bytes(&self) -> usize;

    /// Number of estimator artifacts built so far.
    fn artifact_builds(&self) -> usize {
        0
    }

    /// Plain greedy for `problem.k` seeds under `problem.score`
    /// (Algorithm 1/4/5 without the sandwich wrapper). `comp` carries
    /// the exact competitor opinions *and their rank index* whenever the
    /// score is competitive and
    /// [`IndexBackend::needs_exact_competitors`] is true — both are
    /// shared prepared artifacts, computed once per index. A budgeted
    /// query passes its `meter`: the greedy charges it and stops at a
    /// sequential seed-commit boundary once it is exhausted, returning
    /// a prefix of the unmetered selection.
    fn greedy(
        &self,
        problem: &Problem<'_>,
        comp: Option<Competitors<'_>>,
        scratch: &mut SessionScratch,
        meter: Option<&CostMeter>,
    ) -> Result<Vec<Node>>;

    /// Greedy maximization of the masked cumulative estimate — the
    /// engine half of the sandwich bounds (Definition 3). Only called
    /// when [`IndexBackend::supports_sandwich`] is true.
    fn greedy_masked_cumulative(
        &self,
        problem: &Problem<'_>,
        mask: &[bool],
        comp: Option<Competitors<'_>>,
        scratch: &mut SessionScratch,
    ) -> Result<Vec<Node>> {
        let _ = mask;
        self.greedy(problem, comp, scratch, None)
    }

    /// Whether auto-mode queries on rank-based scores should run the
    /// sandwich approximation (the core engines) or take the engine's
    /// plain selection as-is (the baselines, per §VIII-A).
    fn supports_sandwich(&self) -> bool {
        false
    }

    /// Whether the engine's greedy needs the exact competitor opinions
    /// for competitive scores. Baselines that rank by pure structure
    /// (degree, PageRank, …) return false and skip that computation.
    fn needs_exact_competitors(&self) -> bool {
        true
    }

    /// Snapshot hook: the concrete backend, for downcasting by the
    /// [`crate::persist`] module. Backends without snapshot support
    /// (the §VIII baselines) keep the default `None`, and saving an
    /// index over them reports a typed unsupported-method error.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Reusable per-session buffers the query paths fill on every select:
/// sandwich masks, the RS working sketch and the RW truncation. Contents
/// are pure scratch — they never influence results, only allocation
/// traffic — so a fresh default scratch and a warm one answer queries
/// identically.
///
/// The spare RW truncation holds an `Arc` of the occurrence index it
/// reads, so it is reused exactly when a query asks for that same index
/// (`Arc::ptr_eq`); the index lives next to its arena in the prepared
/// RW index, so the pointer names one arena for as long as the scratch
/// keeps it.
#[derive(Debug, Default)]
pub struct SessionScratch {
    /// Favorable-user mask for the sandwich lower bound.
    mask_lower: Vec<bool>,
    /// All-users mask for the cumulative feasible solution.
    mask_all: Vec<bool>,
    /// RS working sketch from the previous query, keyed by its θ.
    rs_sketch: Option<(usize, SketchSet)>,
    /// The last RW estimator's truncation. At most one per session.
    rw_trunc: Option<Truncation>,
    /// Pooled exact-diffusion solvers (single and lane iteration
    /// buffers), reused across DM's `(k, trial)` loop and across queries
    /// on the same session.
    dm_pool: SolverPool,
}

impl SessionScratch {
    /// A working copy of `pristine` (a sketch with θ sketches and no
    /// query seeds), reusing the previous query's buffers when the θ
    /// matches. Pair with [`SessionScratch::return_sketch`].
    pub fn checkout_sketch(&mut self, theta: usize, pristine: &SketchSet) -> SketchSet {
        match self.rs_sketch.take() {
            Some((t, mut sketch)) if t == theta => {
                sketch.clone_from(pristine);
                sketch
            }
            _ => pristine.clone(),
        }
    }

    /// Stores a used working sketch for the next checkout.
    pub fn return_sketch(&mut self, theta: usize, sketch: SketchSet) {
        self.rs_sketch = Some((theta, sketch));
    }

    /// A pristine truncation of `arena` over its shared `index`: the
    /// previous estimator's, reset in `O(walks + seeds)`, when it reads
    /// the same index, else fresh `O(walks + n)` state over it. Pair with
    /// [`SessionScratch::return_truncation`].
    pub fn checkout_truncation(
        &mut self,
        arena: &WalkArena,
        index: &Arc<OccurrenceIndex>,
    ) -> Truncation {
        match self.rw_trunc.take() {
            Some(mut trunc) if Arc::ptr_eq(trunc.index(), index) => {
                trunc.reset(arena);
                trunc
            }
            _ => Truncation::new(arena, Arc::clone(index)),
        }
    }

    /// Keeps a used truncation for the next checkout.
    pub fn return_truncation(&mut self, trunc: Truncation) {
        self.rw_trunc = Some(trunc);
    }
}

/// An immutable prepared index: the shared artifacts of one method for
/// one `(instance, target, horizon)` and budget, plus lazily cached
/// exact matrices. `Send + Sync` — wrap it in an [`Arc`] and any number
/// of [`QuerySession`]s can answer queries against it concurrently with
/// bit-identical results (rule classes not prepared eagerly are still
/// built exactly once, behind locks).
pub struct PreparedIndex {
    spec: ProblemSpec,
    id: MethodId,
    backend: Box<dyn IndexBackend>,
    build_time: Duration,
    /// Thread count in effect when the index was prepared (captured at
    /// construction; the pool setting may change between prepare and a
    /// later `build_stats()` call).
    build_threads: usize,
    /// Exact non-target opinions at the horizon (computed at most once;
    /// depends only on the prepared instance/target/horizon).
    others: OnceLock<OpinionMatrix>,
    /// Per-user sorted competitor opinions over `others` — the scoring
    /// index every competitive query ranks against (built at most once).
    ranks: OnceLock<RankIndex>,
    /// Exact seedless opinions at the horizon (computed at most once).
    seedless: OnceLock<OpinionMatrix>,
    /// Solver activity attributed to the build (see
    /// [`BuildStats::solver`]); zero unless the builder recorded it via
    /// [`PreparedIndex::with_build_solver`].
    build_solver: SolverCounters,
    /// Sandwich upper-bound (coverage) greedy orders at the prepared
    /// budget, keyed by the favorable-base kind (approval depth `p`, or
    /// `usize::MAX` for Copeland's weakly-favorable base). CELF is
    /// prefix-consistent in `k`, so one order serves every query budget.
    /// The map lock is held only for cell lookup/insert; the build runs
    /// inside the cell's `OnceLock`, so sessions needing an
    /// already-cached key never wait on another key's build.
    upper_orders: Mutex<Vec<(usize, UpperOrderCell)>>,
}

impl PreparedIndex {
    /// Wraps a backend into an index. `spec.k` becomes the prepared
    /// budget; `spec.score` records the eagerly built class.
    pub fn new(
        spec: ProblemSpec,
        id: MethodId,
        backend: Box<dyn IndexBackend>,
        build_time: Duration,
    ) -> PreparedIndex {
        PreparedIndex {
            spec,
            id,
            backend,
            build_time,
            build_threads: rayon::current_num_threads(),
            others: OnceLock::new(),
            ranks: OnceLock::new(),
            seedless: OnceLock::new(),
            build_solver: SolverCounters::default(),
            upper_orders: Mutex::new(Vec::new()),
        }
    }

    /// Records the solver-counter delta observed while the backend was
    /// built, surfaced through [`BuildStats::solver`].
    pub fn with_build_solver(mut self, solver: SolverCounters) -> PreparedIndex {
        self.build_solver = solver;
        self
    }

    /// Like [`PreparedIndex::new`], seeding the competitor-opinion cache
    /// with a matrix the engine already computed during its build.
    pub fn with_cached_others(
        spec: ProblemSpec,
        id: MethodId,
        backend: Box<dyn IndexBackend>,
        build_time: Duration,
        others: Option<OpinionMatrix>,
    ) -> PreparedIndex {
        let index = PreparedIndex::new(spec, id, backend, build_time);
        if let Some(m) = others {
            let _ = index.others.set(m);
        }
        index
    }

    /// Reassembles an index from snapshot-loaded parts (the
    /// [`crate::persist`] load path). The exact-matrix caches and the
    /// sandwich upper-bound orders are pre-seeded with whatever the
    /// snapshot carried; anything absent, the rank index included, is
    /// lazily built on first use exactly as on a freshly prepared index.
    /// `build_time` is the load wall time, so [`BuildStats::build_time`]
    /// uniformly means "time to readiness" for built and loaded indexes
    /// alike.
    pub(crate) fn from_loaded(
        spec: ProblemSpec,
        id: MethodId,
        backend: Box<dyn IndexBackend>,
        build_time: Duration,
        others: Option<OpinionMatrix>,
        seedless: Option<OpinionMatrix>,
        upper: Vec<(usize, Vec<Node>)>,
    ) -> PreparedIndex {
        let index = PreparedIndex::new(spec, id, backend, build_time);
        if let Some(m) = others {
            let _ = index.others.set(m);
        }
        if let Some(m) = seedless {
            let _ = index.seedless.set(m);
        }
        {
            let mut orders = index.upper_orders.lock().expect("upper-order cache lock");
            for (key, order) in upper {
                let cell: UpperOrderCell = Arc::new(OnceLock::new());
                let _ = cell.set(Arc::new(order));
                orders.push((key, cell));
            }
        }
        index
    }

    /// The backend, for snapshot downcasting.
    pub(crate) fn backend(&self) -> &dyn IndexBackend {
        self.backend.as_ref()
    }

    /// The cached exact competitor-opinion matrix, if computed.
    pub(crate) fn cached_others(&self) -> Option<&OpinionMatrix> {
        self.others.get()
    }

    /// The cached exact seedless opinions, if computed.
    pub(crate) fn cached_seedless(&self) -> Option<&OpinionMatrix> {
        self.seedless.get()
    }

    /// The materialized sandwich upper-bound orders (key, order) pairs.
    pub(crate) fn cached_upper_orders(&self) -> Vec<(usize, Vec<Node>)> {
        self.upper_orders
            .lock()
            .expect("upper-order cache lock")
            .iter()
            .filter_map(|(k, cell)| cell.get().map(|o| (*k, o.as_ref().clone())))
            .collect()
    }

    /// The registry identity of the prepared method.
    pub fn method_id(&self) -> MethodId {
        self.id
    }

    /// The maximum budget queries may request.
    pub fn budget(&self) -> usize {
        self.spec.k
    }

    /// The prepared target candidate.
    pub fn target(&self) -> Candidate {
        self.spec.target
    }

    /// The prepared horizon.
    pub fn horizon(&self) -> usize {
        self.spec.horizon
    }

    /// The scoring rule the index was prepared with (queries may use any
    /// other rule; its artifacts are then built on first use).
    pub fn rule(&self) -> &ScoringFunction {
        &self.spec.score
    }

    /// The owned problem specification the index was prepared for.
    pub fn spec(&self) -> &ProblemSpec {
        &self.spec
    }

    /// Build-side diagnostics.
    pub fn build_stats(&self) -> BuildStats {
        BuildStats {
            build_time: self.build_time,
            threads: self.build_threads,
            heap_bytes: self.backend.heap_bytes(),
            artifact_builds: self.backend.artifact_builds(),
            solver: self.build_solver,
        }
    }

    /// An auto-mode query for `k` seeds under the prepared rule.
    pub fn query(&self, k: usize) -> Query {
        Query::new(k, self.spec.score.clone(), self.spec.target)
    }

    /// Validates a query against the prepared artifacts: the target must
    /// be in range and match the prepared target, the budget must be
    /// `1..=budget()`, and the rule must fit the instance. Every
    /// violation is a readable [`CoreError`], never a panic.
    pub fn validate_query(&self, query: &Query) -> Result<()> {
        let r = self.spec.instance.num_candidates();
        if query.target >= r {
            return Err(CoreError::BadTarget {
                target: query.target,
                r,
            });
        }
        if query.target != self.spec.target {
            return Err(CoreError::PreparedTargetMismatch {
                requested: query.target,
                prepared: self.spec.target,
            });
        }
        if query.k == 0 {
            return Err(CoreError::EmptyQuery);
        }
        if query.k > self.spec.k {
            return Err(CoreError::BudgetExceedsPrepared {
                k: query.k,
                budget: self.spec.k,
            });
        }
        query.rule.validate(r)?;
        Ok(())
    }

    /// The memoized sandwich upper-bound greedy order for this query's
    /// favorable-base kind, computed once at the **prepared** budget —
    /// the CELF coverage greedy is prefix-consistent in `k`, so a query
    /// takes the first `k` entries instead of re-running `n` bounded-BFS
    /// coverage evaluations (the single hottest part of a sandwich
    /// query before this cache existed).
    fn upper_bound_order(&self, problem: &Problem<'_>, seedless: &OpinionMatrix) -> Arc<Vec<Node>> {
        let key = problem.score.approval_depth().unwrap_or(usize::MAX);
        // Short-held map lock for cell lookup/insert; the build runs in
        // the cell, so a session whose key is already cached never waits
        // on another key's coverage build.
        let cell = {
            let mut orders = self.upper_orders.lock().expect("upper-order cache lock");
            match orders.iter().find(|(k, _)| *k == key) {
                Some((_, cell)) => Arc::clone(cell),
                None => {
                    let cell = Arc::new(OnceLock::new());
                    orders.push((key, Arc::clone(&cell)));
                    cell
                }
            }
        };
        Arc::clone(cell.get_or_init(|| {
            let budget_problem = problem.with_budget(self.spec.k);
            phases::timed(Phase::Scoring, || {
                let (_, base) = upper_bound_parts(&budget_problem, seedless);
                Arc::new(greedy_upper_bound(&budget_problem, &base))
            })
        }))
    }

    /// Answers one query against the shared artifacts using the caller's
    /// scratch: plain greedy, or the sandwich approximation (Algorithm 3)
    /// where auto mode prescribes it. Bit-identical to the one-shot path
    /// for the same budget and seeds (the equivalence suite in
    /// `tests/prepared_equivalence.rs` asserts this), and independent of
    /// which or how many sessions share the index.
    ///
    /// With a `meter` the greedy charges it (one tick per solver step of
    /// each seed set / scored candidate) and checks exhaustion only
    /// at sequential seed-commit boundaries. If the budget runs out the
    /// query returns [`Outcome::Degraded`] carrying a bit-identical
    /// **prefix** of the full-budget selection. Metered queries always
    /// run **plain** greedy: the sandwich arbitration (Algorithm 3) picks
    /// the best of three full candidate sets under the exact objective,
    /// which is not prefix-consistent — a truncated arbitration could
    /// return seeds that are a prefix of nothing. Degraded results also
    /// skip the exact-score evaluation (it would spend the very work the
    /// budget was protecting). The charge schedule counts work units that
    /// are identical at every thread width, so the degradation point —
    /// and therefore the returned prefix — is bit-identical at widths
    /// 1/2/8.
    fn select_with(
        &self,
        query: &Query,
        scratch: &mut SessionScratch,
        meter: Option<&CostMeter>,
    ) -> Result<Outcome> {
        self.validate_query(query)?;
        let problem = self.spec.query_problem(query.k, query.rule.clone());

        // Fill the exact-matrix caches the query needs before the timed
        // section (computed at most once per index, whichever session
        // gets there first). The rank index over the competitor matrix
        // is an artifact like the matrices: built once, shared by every
        // session. They build unmetered: they are amortized over every
        // future query on this index, and metering them would make the
        // first budgeted query's degradation point depend on cache state.
        // Every competitive query needs the competitor rows, if only for
        // its exact score; the cumulative rule reads none (§II-C Remark 1).
        let others = problem
            .is_competitive()
            .then(|| self.others.get_or_init(|| problem.non_target_opinions()));
        let comp = match others {
            Some(matrix) if self.backend.needs_exact_competitors() => {
                let ranks = self.ranks.get_or_init(|| {
                    phases::timed(Phase::Scoring, || RankIndex::build(matrix, problem.target))
                });
                Some(Competitors { matrix, ranks })
            }
            _ => None,
        };
        // One target solve per evaluated seed set: the competitor rows
        // come from the index, bit-identical to a full-matrix evaluation.
        let exact = |seeds: &[Node]| match others {
            Some(others) => problem.exact_score_against(seeds, others),
            None => problem.exact_score(seeds),
        };
        let sandwich = meter.is_none()
            && matches!(query.mode, SelectionMode::Auto)
            && problem.is_competitive()
            && self.backend.supports_sandwich();
        let seedless = match others {
            // The seedless matrix is the competitor rows plus the
            // target's own seedless row: one solve, not r.
            Some(others) if sandwich => Some(self.seedless.get_or_init(|| {
                let mut seedless = others.clone();
                let row = phases::timed(Phase::Diffusion, || {
                    problem
                        .instance
                        .opinions_of(problem.target, problem.horizon, &[])
                });
                seedless.set_row(problem.target, &row);
                seedless
            })),
            _ => None,
        };

        // audit:allow(d-wall-clock, "phase timer: elapsed feeds reported timings, never selection order")
        let start = Instant::now();
        let (seeds, score, info) = if let Some(seedless) = seedless {
            let n = problem.num_nodes();
            let mask = problem.score.approval_depth().map(|p| {
                let favorable = favorable_users(seedless, problem.target, p);
                let mut mask = std::mem::take(&mut scratch.mask_lower);
                mask.clear();
                mask.resize(n, false);
                for v in favorable {
                    mask[v as usize] = true;
                }
                mask
            });
            let mut all_mask = std::mem::take(&mut scratch.mask_all);
            all_mask.clear();
            all_mask.resize(n, true);
            let s_rank = self.backend.greedy(&problem, comp, scratch, None)?;
            let s_cum = self
                .backend
                .greedy_masked_cumulative(&problem, &all_mask, comp, scratch)?;
            scratch.mask_all = all_mask;
            let (s_f, f_sf) = better_feasible(exact, s_rank, s_cum);
            let s_l = match &mask {
                Some(m) => Some(
                    self.backend
                        .greedy_masked_cumulative(&problem, m, comp, scratch)?,
                ),
                None => None,
            };
            if let Some(m) = mask {
                scratch.mask_lower = m;
            }
            let s_u: Vec<Node> = self
                .upper_bound_order(&problem, seedless)
                .iter()
                .take(problem.k)
                .copied()
                .collect();
            let (seeds, score, info) =
                sandwich_select_with_su(&problem, seedless, s_f, f_sf, s_l, s_u);
            (seeds, Some(score), Some(info))
        } else {
            (
                self.backend.greedy(&problem, comp, scratch, meter)?,
                None,
                None,
            )
        };
        let elapsed = start.elapsed();
        if let Some(m) = meter.filter(|m| m.exhausted() && seeds.len() < query.k) {
            return Ok(Outcome::Degraded {
                seeds_prefix: seeds,
                budget_spent: m.spent(),
                budget_limit: m.limit(),
            });
        }
        // The sandwich arbitration already scored the set it chose.
        let exact_score = score.unwrap_or_else(|| exact(&seeds));
        Ok(Outcome::Complete(SelectionResult {
            seeds,
            exact_score,
            elapsed,
            estimator_heap_bytes: self.backend.heap_bytes(),
            sandwich: info,
        }))
    }
}

/// One memo cell of the sandwich upper-bound order cache: same-key
/// callers share the cell and only the first runs the coverage greedy.
type UpperOrderCell = Arc<OnceLock<Arc<Vec<Node>>>>;

/// A lightweight per-caller handle on a shared [`PreparedIndex`]: it
/// owns the mutable per-query scratch (sandwich masks, the RS working
/// sketch) and a clone of the index `Arc`, so creating one is cheap and
/// every thread serving queries gets its own. Sessions never communicate
/// — results depend only on the index and the query.
pub struct QuerySession {
    index: Arc<PreparedIndex>,
    scratch: SessionScratch,
    queries: usize,
}

impl QuerySession {
    /// Opens a session on a shared index.
    pub fn new(index: Arc<PreparedIndex>) -> QuerySession {
        QuerySession {
            index,
            scratch: SessionScratch::default(),
            queries: 0,
        }
    }

    /// The shared index this session queries.
    pub fn index(&self) -> &Arc<PreparedIndex> {
        &self.index
    }

    /// Number of queries answered by this session (including failed
    /// ones).
    pub fn queries_served(&self) -> usize {
        self.queries
    }

    /// An auto-mode query for `k` seeds under the prepared rule.
    pub fn query(&self, k: usize) -> Query {
        self.index.query(k)
    }

    /// Answers one query against the shared index. See
    /// [`PreparedIndex`] for the sharing/determinism contract.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use vom_core::engine::{Engine, Query, QuerySession, SeedSelector};
    /// use vom_core::{CoreError, Problem};
    /// # use vom_diffusion::{Instance, OpinionMatrix};
    /// # use vom_graph::builder::graph_from_edges;
    /// use vom_voting::ScoringFunction;
    ///
    /// # let g = Arc::new(graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)])?);
    /// # let b = OpinionMatrix::from_rows(vec![
    /// #     vec![0.40, 0.80, 0.60, 0.90],
    /// #     vec![0.35, 0.75, 1.00, 0.80],
    /// # ])?;
    /// # let inst = Instance::shared(g, b, vec![0.0, 0.0, 0.5, 0.5])?;
    /// let spec = Problem::new(&inst, 0, 2, 1, ScoringFunction::Cumulative)?;
    /// let mut session = QuerySession::new(Arc::new(Engine::Dm.prepare_index(&spec)?));
    /// // Any rule within the prepared budget; artifacts are shared.
    /// let plurality = session.select(&Query::new(1, ScoringFunction::Plurality, 0))?;
    /// assert_eq!(plurality.exact_score, 4.0);
    /// // Invalid queries are readable errors, never panics.
    /// let err = session.select(&Query::new(0, ScoringFunction::Plurality, 0));
    /// assert!(matches!(err, Err(CoreError::EmptyQuery)));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn select(&mut self, query: &Query) -> Result<SelectionResult> {
        self.queries += 1;
        match self.index.select_with(query, &mut self.scratch, None)? {
            Outcome::Complete(res) => Ok(res),
            Outcome::Degraded { .. } => unreachable!("an unmetered query runs to completion"),
        }
    }

    /// Convenience: auto-mode selection of `k` seeds under the prepared
    /// rule.
    pub fn select_k(&mut self, k: usize) -> Result<SelectionResult> {
        let query = self.query(k);
        self.select(&query)
    }

    /// Answers one query under the deterministic tick budget of a
    /// caller-owned meter (inspect [`CostMeter::spent`] afterwards, or
    /// inflate charges with [`CostMeter::with_scale`] as the
    /// fault-injection harness does). A spent budget yields
    /// [`Outcome::Degraded`] with a valid prefix; metered queries always
    /// run plain greedy (see [`PreparedIndex`]'s query path).
    pub fn select_with_meter(&mut self, query: &Query, meter: &Arc<CostMeter>) -> Result<Outcome> {
        self.queries += 1;
        self.index
            .select_with(query, &mut self.scratch, Some(meter.as_ref()))
    }
}

/// Picks the better of two feasible seed sets by exact score, returning
/// it with its score. Algorithm 3 admits *any* feasible solution for
/// `S_F`; alongside the rank-objective greedy we always evaluate the
/// cumulative-objective greedy over the same estimator artifacts — on
/// noisy estimates the myopic rank greedy can trail the broad
/// opinion-lifting strategy, and this keeps the sandwich outcome no
/// worse than a GED-T-style selection.
fn better_feasible(exact: impl Fn(&[Node]) -> f64, a: Vec<Node>, b: Vec<Node>) -> (Vec<Node>, f64) {
    let (fa, fb) = (exact(&a), exact(&b));
    if fa >= fb {
        (a, fa)
    } else {
        (b, fb)
    }
}

impl SeedSelector for Engine {
    fn id(&self) -> MethodId {
        Engine::id(self)
    }

    fn prepare_spec(&self, spec: ProblemSpec) -> Result<PreparedIndex> {
        // audit:allow(d-wall-clock, "phase timer: elapsed feeds reported timings, never selection order")
        let start = Instant::now();
        let solver_before = SolverCounters::snapshot();
        // The competitive artifacts (γ* pilot, rank/Copeland estimates)
        // need the exact competitor opinions; compute them once here and
        // hand the matrix to the index cache so queries reuse it.
        let (backend, others): (Box<dyn IndexBackend>, Option<OpinionMatrix>) = {
            let problem = spec.problem();
            let others = (problem.is_competitive() && !matches!(self, Engine::Dm))
                .then(|| problem.non_target_opinions());
            let backend: Box<dyn IndexBackend> = match self {
                Engine::Dm => Box::new(DmIndex::prepare(&problem)),
                Engine::Rw(cfg) => {
                    Box::new(RwIndex::prepare(cfg.clone(), &problem, others.as_ref()))
                }
                Engine::Rs(cfg) => Box::new(RsIndex::prepare(cfg.clone(), &problem)),
            };
            (backend, others)
        };
        let build_time = start.elapsed();
        Ok(
            PreparedIndex::with_cached_others(spec, self.id(), backend, build_time, others)
                .with_build_solver(SolverCounters::snapshot().since(solver_before)),
        )
    }
}

// ---------------------------------------------------------------------
// Build counters (observability for the build-once guarantees)
// ---------------------------------------------------------------------

static RW_ARENA_BUILDS: AtomicUsize = AtomicUsize::new(0);
static RS_SKETCH_BUILDS: AtomicUsize = AtomicUsize::new(0);

/// Process-wide counters of estimator artifact builds, for asserting the
/// build-once/query-many property (see `tests/build_counter.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildCounters {
    /// Walk arenas generated by the RW engine (per rule class).
    pub rw_arenas: usize,
    /// Sketch sets generated by the RS engine (per distinct θ).
    pub rs_sketches: usize,
}

impl BuildCounters {
    /// Current counter values.
    pub fn snapshot() -> BuildCounters {
        BuildCounters {
            rw_arenas: RW_ARENA_BUILDS.load(Ordering::Relaxed),
            rs_sketches: RS_SKETCH_BUILDS.load(Ordering::Relaxed),
        }
    }

    /// Builds since an earlier snapshot.
    pub fn since(self, earlier: BuildCounters) -> BuildCounters {
        BuildCounters {
            rw_arenas: self.rw_arenas - earlier.rw_arenas,
            rs_sketches: self.rs_sketches - earlier.rs_sketches,
        }
    }
}

pub(crate) fn count_rw_arena_build() {
    RW_ARENA_BUILDS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_rs_sketch_build() {
    RS_SKETCH_BUILDS.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// DM backend
// ---------------------------------------------------------------------

/// DM holds no estimator artifacts; its reusable state is the exact
/// competitor matrix (carried by the [`PreparedIndex`] cache), the
/// target candidate's [`DiffusionSystem`] (built eagerly at prepare time
/// and shared with the instance's own cache, so its memory is problem
/// data rather than estimator heap), and the memoized cumulative CELF
/// order: CELF is prefix-consistent in `k`, so the greedy runs **once**
/// at the prepared budget and every cumulative query takes a prefix.
pub(crate) struct DmIndex {
    pub(crate) system: Arc<DiffusionSystem>,
    pub(crate) budget: usize,
    pub(crate) cum_order: OnceLock<Arc<Vec<Node>>>,
}

impl DmIndex {
    fn prepare(problem: &Problem<'_>) -> DmIndex {
        DmIndex {
            system: Arc::clone(problem.instance.candidate(problem.target).system()),
            budget: problem.k,
            cum_order: OnceLock::new(),
        }
    }
}

impl IndexBackend for DmIndex {
    fn heap_bytes(&self) -> usize {
        // The diffusion system is shared problem data (the instance's
        // candidate cache holds the same Arc), not an estimator artifact
        // — DM keeps its Figure 17(b) "no estimator memory" semantics.
        0
    }

    fn greedy(
        &self,
        problem: &Problem<'_>,
        comp: Option<Competitors<'_>>,
        scratch: &mut SessionScratch,
        meter: Option<&CostMeter>,
    ) -> Result<Vec<Node>> {
        // Queries must hit the exact system the index pinned at prepare
        // time — if this fails, something invalidated the instance's
        // candidate cache after prepare.
        debug_assert!(Arc::ptr_eq(
            &self.system,
            problem.instance.candidate(problem.target).system()
        ));
        if matches!(problem.score, ScoringFunction::Cumulative) {
            if meter.is_some() {
                // A metered run may stop early, so it must neither read
                // nor seed the shared cum_order cache: reading would skip
                // the charges the budget is supposed to see, and writing
                // would poison every later query with a truncated order.
                // The fresh run uses the prepared budget so its charge
                // trajectory prefixes the cached run's exactly.
                let budget_problem = problem.with_budget(self.budget);
                let order = dm_greedy(&budget_problem, comp, &scratch.dm_pool, meter);
                return Ok(order.iter().take(problem.k).copied().collect());
            }
            // One cumulative CELF run at the prepared budget serves every
            // query budget (prefix-consistency; asserted against the
            // one-shot path by tests/prepared_equivalence.rs).
            let order = self.cum_order.get_or_init(|| {
                let budget_problem = problem.with_budget(self.budget);
                Arc::new(dm_greedy(&budget_problem, comp, &scratch.dm_pool, None))
            });
            return Ok(order.iter().take(problem.k).copied().collect());
        }
        Ok(dm_greedy(problem, comp, &scratch.dm_pool, meter))
    }

    fn greedy_masked_cumulative(
        &self,
        problem: &Problem<'_>,
        mask: &[bool],
        _comp: Option<Competitors<'_>>,
        scratch: &mut SessionScratch,
    ) -> Result<Vec<Node>> {
        Ok(dm_greedy_masked_cumulative(
            problem,
            Some(mask),
            &scratch.dm_pool,
            None,
        ))
    }

    fn supports_sandwich(&self) -> bool {
        true
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

// ---------------------------------------------------------------------
// RW backend
// ---------------------------------------------------------------------

/// Cached walk arenas, one per rule class (the λ schedule differs), each
/// with its occurrence index, plus the γ* pilot shared by the two
/// competitive classes. Lazy per-class builds go through `OnceLock`, so
/// concurrent sessions racing to add a class still build it exactly once
/// (losers block until the winner's arena and index are ready).
pub(crate) struct RwIndex {
    pub(crate) cfg: RwConfig,
    /// The prepared budget: the γ* pilot depth derives from it (pin
    /// `RwConfig::gamma_pilot` to decouple artifacts from the budget).
    pub(crate) budget: usize,
    pub(crate) gammas: OnceLock<Vec<f64>>,
    pub(crate) arenas: [OnceLock<RwArena>; 3],
    pub(crate) builds: AtomicUsize,
}

/// One rule class's walk arena and the occurrence index every session's
/// truncation shares. The index is derived from the arena, on a build
/// and on a snapshot load alike.
pub(crate) struct RwArena {
    walks: WalkArena,
    index: Arc<OccurrenceIndex>,
}

impl RwArena {
    /// Indexes a grouped arena (one start group per node).
    pub(crate) fn new(walks: WalkArena) -> RwArena {
        let n = walks.num_groups().expect("RW arenas are grouped by start");
        let index = Arc::new(OccurrenceIndex::new(&walks, n));
        RwArena { walks, index }
    }

    /// The walks.
    pub(crate) fn walks(&self) -> &WalkArena {
        &self.walks
    }

    fn heap_bytes(&self) -> usize {
        self.walks.heap_bytes() + self.index.heap_bytes()
    }
}

impl RwIndex {
    fn prepare(cfg: RwConfig, problem: &Problem<'_>, others: Option<&OpinionMatrix>) -> RwIndex {
        let backend = RwIndex {
            cfg,
            budget: problem.k,
            gammas: OnceLock::new(),
            arenas: [OnceLock::new(), OnceLock::new(), OnceLock::new()],
            builds: AtomicUsize::new(0),
        };
        backend.ensure_arena(problem, others);
        backend
    }

    fn ensure_arena(&self, problem: &Problem<'_>, others: Option<&OpinionMatrix>) -> &RwArena {
        let class = RuleClass::of(&problem.score);
        self.arenas[class as usize].get_or_init(|| {
            let arena = match class {
                RuleClass::Cumulative => uniform_arena(problem, &self.cfg),
                RuleClass::Rank | RuleClass::Copeland => {
                    let others = others.expect("competitive arena needs exact competitor opinions");
                    let gammas = self.gammas.get_or_init(|| {
                        competitive_gammas(problem, &self.cfg, self.budget, others)
                    });
                    competitive_arena(
                        problem,
                        &self.cfg,
                        gammas,
                        matches!(class, RuleClass::Copeland),
                    )
                }
            };
            self.builds.fetch_add(1, Ordering::Relaxed);
            RwArena::new(arena)
        })
    }

    /// An estimator over `arena` with the target's fixed seeds, on the
    /// session's truncation (hand it back with
    /// [`SessionScratch::return_truncation`]).
    fn estimator<'s>(
        &self,
        arena: &'s RwArena,
        problem: &Problem<'s>,
        scratch: &mut SessionScratch,
    ) -> OpinionEstimator<'s> {
        let cand = problem.instance.candidate(problem.target);
        let trunc = scratch.checkout_truncation(&arena.walks, &arena.index);
        let mut est = OpinionEstimator::with_truncation(&arena.walks, &cand.initial, trunc);
        for &s in &cand.fixed_seeds {
            est.add_seed(s);
        }
        est
    }
}

impl IndexBackend for RwIndex {
    fn heap_bytes(&self) -> usize {
        self.arenas
            .iter()
            .filter_map(OnceLock::get)
            .map(RwArena::heap_bytes)
            .sum::<usize>()
            + self
                .gammas
                .get()
                .map_or(0, |g| g.capacity() * std::mem::size_of::<f64>())
    }

    fn artifact_builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    fn greedy(
        &self,
        problem: &Problem<'_>,
        comp: Option<Competitors<'_>>,
        scratch: &mut SessionScratch,
        meter: Option<&CostMeter>,
    ) -> Result<Vec<Node>> {
        let arena = self.ensure_arena(problem, comp.map(|c| c.matrix));
        let mut est = self.estimator(arena, problem, scratch);
        let seeds =
            crate::greedy::greedy_on_estimate(&mut est, problem.k, &problem.score, comp, meter);
        scratch.return_truncation(est.into_truncation());
        Ok(seeds)
    }

    fn greedy_masked_cumulative(
        &self,
        problem: &Problem<'_>,
        mask: &[bool],
        comp: Option<Competitors<'_>>,
        scratch: &mut SessionScratch,
    ) -> Result<Vec<Node>> {
        // The masked cumulative greedy shares the *query rule's* arena
        // (§IV-D builds the artifacts once per selection).
        let arena = self.ensure_arena(problem, comp.map(|c| c.matrix));
        let mut est = self.estimator(arena, problem, scratch);
        let seeds = crate::greedy::greedy_masked_cumulative(&mut est, problem.k, mask);
        scratch.return_truncation(est.into_truncation());
        Ok(seeds)
    }

    fn supports_sandwich(&self) -> bool {
        true
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

// ---------------------------------------------------------------------
// RS backend
// ---------------------------------------------------------------------

/// Cached sketch sets, keyed by the sketch count θ (rule classes whose θ
/// coincide — always the case under `theta_override` — share one
/// sketch). θ memoization is per class behind `OnceLock`; the sketch
/// list sits behind a `Mutex` so a lazily added θ is built exactly once
/// even under concurrent sessions (the build runs under the lock — rare,
/// and racing sessions need the same sketch anyway).
pub(crate) struct RsIndex {
    pub(crate) cfg: RsConfig,
    pub(crate) budget: usize,
    /// θ per rule class, memoized (the Theorem 13 bound for cumulative
    /// runs a sampling-based OPT lower bound; worth caching by itself).
    pub(crate) thetas: [OnceLock<usize>; 3],
    pub(crate) sketches: Mutex<Vec<(usize, Arc<SketchSet>)>>,
    pub(crate) builds: AtomicUsize,
}

impl RsIndex {
    fn prepare(cfg: RsConfig, problem: &Problem<'_>) -> RsIndex {
        let backend = RsIndex {
            cfg,
            budget: problem.k,
            thetas: [OnceLock::new(), OnceLock::new(), OnceLock::new()],
            sketches: Mutex::new(Vec::new()),
            builds: AtomicUsize::new(0),
        };
        backend.ensure_sketch(problem);
        backend
    }

    fn theta_for(&self, problem: &Problem<'_>) -> usize {
        let class = RuleClass::of(&problem.score);
        *self.thetas[class as usize]
            .get_or_init(|| crate::rs::choose_theta(&problem.with_budget(self.budget), &self.cfg))
    }

    fn ensure_sketch(&self, problem: &Problem<'_>) -> (usize, Arc<SketchSet>) {
        let theta = self.theta_for(problem);
        let mut sketches = self.sketches.lock().expect("sketch cache lock");
        if let Some((_, sketch)) = sketches.iter().find(|(t, _)| *t == theta) {
            return (theta, Arc::clone(sketch));
        }
        let sketch = Arc::new(sketch_theta(problem, &self.cfg, theta));
        self.builds.fetch_add(1, Ordering::Relaxed);
        sketches.push((theta, Arc::clone(&sketch)));
        (theta, sketch)
    }
}

impl IndexBackend for RsIndex {
    fn heap_bytes(&self) -> usize {
        self.sketches
            .lock()
            .expect("sketch cache lock")
            .iter()
            .map(|(_, s)| s.heap_bytes())
            .sum()
    }

    fn artifact_builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    fn greedy(
        &self,
        problem: &Problem<'_>,
        comp: Option<Competitors<'_>>,
        scratch: &mut SessionScratch,
        meter: Option<&CostMeter>,
    ) -> Result<Vec<Node>> {
        let (theta, pristine) = self.ensure_sketch(problem);
        let cand = problem.instance.candidate(problem.target);
        let mut sketch = scratch.checkout_sketch(theta, &pristine);
        for &s in &cand.fixed_seeds {
            sketch.add_seed(s);
        }
        let seeds =
            crate::greedy::greedy_on_estimate(&mut sketch, problem.k, &problem.score, comp, meter);
        scratch.return_sketch(theta, sketch);
        Ok(seeds)
    }

    fn greedy_masked_cumulative(
        &self,
        problem: &Problem<'_>,
        mask: &[bool],
        _comp: Option<Competitors<'_>>,
        scratch: &mut SessionScratch,
    ) -> Result<Vec<Node>> {
        let (theta, pristine) = self.ensure_sketch(problem);
        let cand = problem.instance.candidate(problem.target);
        let mut sketch = scratch.checkout_sketch(theta, &pristine);
        for &s in &cand.fixed_seeds {
            sketch.add_seed(s);
        }
        let seeds = crate::greedy::greedy_masked_cumulative(&mut sketch, problem.k, mask);
        scratch.return_sketch(theta, sketch);
        Ok(seeds)
    }

    fn supports_sandwich(&self) -> bool {
        true
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::CostBudget;
    use vom_diffusion::Instance;
    use vom_graph::builder::graph_from_edges;

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
    fn prepare_once_serves_every_budget_and_rule() {
        let inst = instance();
        let spec = Problem::new(&inst, 0, 2, 1, ScoringFunction::Cumulative).unwrap();
        let mut session =
            QuerySession::new(Arc::new(Engine::rs_default().prepare_index(&spec).unwrap()));
        // Budget 1, cumulative: node 0 (Table I).
        let r1 = session.select_k(1).unwrap();
        assert_eq!(r1.seeds, vec![0]);
        // Same prepared engine, plurality rule: node 2 wins.
        let q = Query::new(1, ScoringFunction::Plurality, 0);
        let r2 = session.select(&q).unwrap();
        assert_eq!(r2.exact_score, 4.0);
        assert!(r2.sandwich.is_some());
        // Budget 2 still within the prepared budget.
        assert_eq!(session.select_k(2).unwrap().seeds.len(), 2);
    }

    #[test]
    fn select_rejects_invalid_queries_readably() {
        let inst = instance();
        let spec = Problem::new(&inst, 0, 1, 1, ScoringFunction::Cumulative).unwrap();
        let mut session = QuerySession::new(Arc::new(Engine::Dm.prepare_index(&spec).unwrap()));
        // k over the prepared budget.
        assert!(matches!(
            session.select_k(2),
            Err(CoreError::BudgetExceedsPrepared { k: 2, budget: 1 })
        ));
        // k = 0 is an error, not a silent empty selection.
        let err = session.select_k(0).unwrap_err();
        assert!(matches!(err, CoreError::EmptyQuery));
        assert!(err.to_string().contains("k = 0"), "{err}");
        // Mismatched (but in-range) target.
        let q = Query::new(1, ScoringFunction::Cumulative, 1);
        assert!(matches!(
            session.select(&q),
            Err(CoreError::PreparedTargetMismatch {
                requested: 1,
                prepared: 0
            })
        ));
        // Out-of-range target reports the candidate count, not a
        // mismatch.
        let q = Query::new(1, ScoringFunction::Cumulative, 9);
        assert!(matches!(
            session.select(&q),
            Err(CoreError::BadTarget { target: 9, r: 2 })
        ));
    }

    #[test]
    fn build_stats_track_artifacts() {
        let inst = instance();
        let spec = Problem::new(&inst, 0, 1, 1, ScoringFunction::Cumulative).unwrap();
        let mut session =
            QuerySession::new(Arc::new(Engine::rw_default().prepare_index(&spec).unwrap()));
        let stats = session.index().build_stats();
        assert_eq!(stats.artifact_builds, 1);
        assert!(stats.heap_bytes > 0);
        // Re-querying the prepared class builds nothing new.
        session.select_k(1).unwrap();
        session.select_k(1).unwrap();
        assert_eq!(session.index().build_stats().artifact_builds, 1);
        // A competitive query lazily adds that class's arena, once.
        let q = Query::new(1, ScoringFunction::Plurality, 0);
        session.select(&q).unwrap();
        session.select(&q).unwrap();
        assert_eq!(session.index().build_stats().artifact_builds, 2);
    }

    #[test]
    fn dm_holds_no_estimator_memory() {
        let inst = instance();
        let spec = Problem::new(&inst, 0, 1, 1, ScoringFunction::Plurality).unwrap();
        let mut session = QuerySession::new(Arc::new(Engine::Dm.prepare_index(&spec).unwrap()));
        let res = session.select_k(1).unwrap();
        assert_eq!(res.estimator_heap_bytes, 0);
        assert_eq!(res.exact_score, 4.0);
    }

    #[test]
    fn prepared_index_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedIndex>();
        assert_send_sync::<Arc<PreparedIndex>>();
        assert_send_sync::<QuerySession>();
    }

    #[test]
    fn concurrent_sessions_lazily_build_each_class_once() {
        let inst = instance();
        let spec = Problem::new(&inst, 0, 2, 1, ScoringFunction::Cumulative).unwrap();
        let index = Arc::new(Engine::rw_default().prepare_index(&spec).unwrap());
        assert_eq!(index.build_stats().artifact_builds, 1);
        // Four sessions race to be the first to need the Rank-class
        // arena; it must be built exactly once and every session must
        // agree on the selection.
        let answered = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let index = Arc::clone(&index);
                    s.spawn(move || {
                        let mut session = QuerySession::new(Arc::clone(&index));
                        let q = Query::new(1, ScoringFunction::Plurality, 0);
                        (session.select(&q).unwrap().seeds, session)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert_eq!(index.build_stats().artifact_builds, 2);
        assert!(answered.windows(2).all(|w| w[0].0 == w[1].0));
        // Every session truncated over the one occurrence index built
        // with the arena.
        let rw = index.backend().as_any().unwrap();
        let rw = rw.downcast_ref::<RwIndex>().unwrap();
        let shared = &rw.arenas[RuleClass::Rank as usize].get().unwrap().index;
        for (_, session) in &answered {
            let trunc = session
                .scratch
                .rw_trunc
                .as_ref()
                .expect("a spare truncation");
            assert!(Arc::ptr_eq(trunc.index(), shared));
        }
    }

    #[test]
    fn rw_heap_bytes_include_the_occurrence_index_from_build_time() {
        let inst = instance();
        let spec = Problem::new(&inst, 0, 1, 1, ScoringFunction::Cumulative).unwrap();
        let index = Engine::rw_default().prepare_index(&spec).unwrap();
        let rw = index.backend().as_any().unwrap();
        let rw = rw.downcast_ref::<RwIndex>().unwrap();
        let arena = rw.arenas[RuleClass::Cumulative as usize]
            .get()
            .expect("built at prepare");
        assert!(arena.index.heap_bytes() > 0);
        assert_eq!(
            index.build_stats().heap_bytes,
            arena.walks.heap_bytes() + arena.index.heap_bytes()
        );
    }

    fn meter(ticks: u64) -> Arc<CostMeter> {
        Arc::new(CostMeter::new(CostBudget::ticks(ticks)))
    }

    #[test]
    fn budgeted_select_degrades_to_a_prefix_of_the_full_selection() {
        let inst = instance();
        let spec = Problem::new(&inst, 0, 3, 1, ScoringFunction::Cumulative).unwrap();
        for engine in [Engine::Dm, Engine::rw_default(), Engine::rs_default()] {
            let index = Arc::new(engine.prepare_index(&spec).unwrap());
            let mut session = QuerySession::new(Arc::clone(&index));
            let q = Query::plain(3, ScoringFunction::Cumulative, 0);
            let full = session.select(&q).unwrap();
            // Unlimited budget: complete, bit-identical to the unmetered run.
            match session.select_with_meter(&q, &meter(u64::MAX)).unwrap() {
                Outcome::Complete(res) => {
                    assert_eq!(res.seeds, full.seeds);
                    assert_eq!(res.exact_score.to_bits(), full.exact_score.to_bits());
                }
                out => panic!("unlimited budget degraded: {out:?}"),
            }
            // Every smaller budget yields a prefix (possibly empty).
            for t in 0..60 {
                let out = session.select_with_meter(&q, &meter(t)).unwrap();
                assert!(
                    full.seeds.starts_with(out.seeds()),
                    "budget {t}: {:?} is not a prefix of {:?}",
                    out.seeds(),
                    full.seeds
                );
                if let Outcome::Degraded {
                    budget_spent,
                    budget_limit,
                    ..
                } = out
                {
                    assert!(budget_spent >= budget_limit);
                    assert_eq!(budget_limit, t);
                }
            }
            // A metered query must not poison the shared caches: the
            // next unmetered query still answers in full.
            let again = session.select(&q).unwrap();
            assert_eq!(again.seeds, full.seeds);
        }
    }

    #[test]
    fn sessions_count_queries_and_reuse_scratch() {
        let inst = instance();
        let spec = Problem::new(&inst, 0, 2, 1, ScoringFunction::Plurality).unwrap();
        let index = Arc::new(Engine::rs_default().prepare_index(&spec).unwrap());
        let mut session = QuerySession::new(Arc::clone(&index));
        let warm_1 = session.select_k(1).unwrap();
        let warm_2 = session.select_k(1).unwrap();
        assert_eq!(session.queries_served(), 2);
        // Scratch reuse must not leak previous query state into results.
        assert_eq!(warm_1.seeds, warm_2.seeds);
        assert_eq!(warm_1.exact_score.to_bits(), warm_2.exact_score.to_bits());
    }

    fn methods() -> Vec<Engine> {
        vec![
            Engine::Dm,
            Engine::rw_default(),
            Engine::Rs(RsConfig {
                theta_override: Some(50_000),
                ..RsConfig::default()
            }),
        ]
    }

    #[test]
    fn all_methods_solve_table1_cumulative() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Cumulative).unwrap();
        for m in methods() {
            let res = m.select_once(&p, SelectionMode::Auto).unwrap();
            assert_eq!(res.seeds, vec![0], "{}", m.name());
            assert!((res.exact_score - 3.30).abs() < 1e-9, "{}", m.name());
            assert!(res.sandwich.is_none());
        }
    }

    #[test]
    fn all_methods_solve_table1_plurality_with_sandwich() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Plurality).unwrap();
        for m in methods() {
            let res = m.select_once(&p, SelectionMode::Auto).unwrap();
            assert_eq!(res.exact_score, 4.0, "{}", m.name());
            let info = res.sandwich.expect("plurality uses sandwich");
            assert!(info.ratio > 0.0 && info.ratio <= 1.0 + 1e-12);
            assert!(info.s_l.is_some(), "plurality has a lower bound");
        }
    }

    #[test]
    fn all_methods_solve_table1_copeland_with_sandwich() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Copeland).unwrap();
        for m in methods() {
            let res = m.select_once(&p, SelectionMode::Auto).unwrap();
            assert_eq!(res.exact_score, 1.0, "{}", m.name());
            let info = res.sandwich.expect("copeland uses sandwich");
            assert!(info.s_l.is_none(), "no Copeland lower bound");
        }
    }

    #[test]
    fn estimator_methods_report_memory() {
        let inst = instance();
        let p = Problem::new(&inst, 0, 1, 1, ScoringFunction::Cumulative).unwrap();
        let dm = Engine::Dm.select_once(&p, SelectionMode::Auto).unwrap();
        assert_eq!(dm.estimator_heap_bytes, 0);
        let rw = Engine::rw_default()
            .select_once(&p, SelectionMode::Auto)
            .unwrap();
        assert!(rw.estimator_heap_bytes > 0);
    }

    #[test]
    fn method_names_come_from_the_registry() {
        assert_eq!(Engine::Dm.name(), "DM");
        assert_eq!(Engine::rw_default().name(), "RW");
        assert_eq!(Engine::rs_default().name(), "RS");
    }
}
