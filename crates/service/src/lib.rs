#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # vom-service
//!
//! A shared-state query service over the prepared-index lifecycle:
//! register named diffusion instances once, then throw batches of
//! [`Query`]s at them from any number of callers.
//!
//! [`VomService`] is the facade the ROADMAP's serving story needs on top
//! of `vom-core`'s [`PreparedIndex`]/[`vom_core::QuerySession`] split:
//!
//! * **named graphs** — instances are registered under a name and shared
//!   behind `Arc`s;
//! * **memoized indexes** — each `(graph, method, target, horizon,
//!   rule-class, budget-bucket)` builds its [`PreparedIndex`] exactly
//!   once, whoever asks first; later queries (and whole batches) reuse
//!   it — including the competitive-scoring artifacts it carries (the
//!   exact competitor matrix and its `vom_voting::RankIndex`, which
//!   every session's delta-driven greedy ranks against);
//! * **parallel batches** — [`VomService::run_batch`] fans a
//!   `&[ServiceRequest]` across the worker pool (the vendored rayon
//!   shim), one cheap [`vom_core::QuerySession`] per request, and returns
//!   results **in request order**;
//! * **per-query errors** — an invalid query (unknown graph, `k = 0`,
//!   out-of-range target, oversized budget, bad rule) yields a readable
//!   [`ServiceError`] in its slot; the rest of the batch is unaffected.
//!
//! # Determinism contract
//!
//! Selections are bit-identical however the batch is scheduled: indexes
//! are immutable, artifact builds are deterministic given the engine
//! seed, and the budget each index is prepared at depends only on the
//! query (`k` rounded up to a power of two, capped at `n`) — never on
//! batch composition, memoization history, or thread count. The
//! workspace test `tests/query_service.rs` and the `repro --bench-json`
//! query-throughput section both assert this cross-width.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use vom_core::{MethodId, Query};
//! use vom_diffusion::{Instance, OpinionMatrix};
//! use vom_graph::builder::graph_from_edges;
//! use vom_service::{ServiceRequest, VomService};
//! use vom_voting::ScoringFunction;
//!
//! let g = Arc::new(graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)])?);
//! let b = OpinionMatrix::from_rows(vec![
//!     vec![0.40, 0.80, 0.60, 0.90],
//!     vec![0.35, 0.75, 1.00, 0.80],
//! ])?;
//! let inst = Instance::shared(g, b, vec![0.0, 0.0, 0.5, 0.5])?;
//!
//! let service = VomService::new();
//! service.register("toy", Arc::new(inst))?;
//!
//! let batch = vec![
//!     ServiceRequest::new("toy", MethodId::Rs, 1, Query::new(1, ScoringFunction::Cumulative, 0)),
//!     ServiceRequest::new("toy", MethodId::Rs, 1, Query::new(0, ScoringFunction::Cumulative, 0)),
//!     ServiceRequest::new("toy", MethodId::Dm, 1, Query::new(1, ScoringFunction::Plurality, 0)),
//! ];
//! let results = service.run_batch(&batch);
//!
//! assert_eq!(results.len(), 3); // request order, one slot per request
//! assert_eq!(results[0].as_ref().unwrap().seeds, vec![0]);
//! assert!(results[1].is_err()); // k = 0 fails alone, not the batch
//! assert_eq!(results[2].as_ref().unwrap().exact_score, 4.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use rayon::IntoParallelIterator;
// audit:allow(d-hash-iter, "HashMap is a keyed cache probed by exact key; every enumeration goes through sorted snapshots")
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Duration;
use vom_baselines::AnyEngine;
use vom_core::engine::{
    Outcome, PreparedIndex, Query, QuerySession, RuleClass, SeedSelector, SelectionResult,
};
use vom_core::persist::{graph_digest, load_snapshot};
use vom_core::{CoreError, CostBudget, CostMeter, MethodId, ProblemSpec};
use vom_diffusion::Instance;
use vom_graph::{Candidate, Node};
use vom_persist::PersistError;

/// Builds the engine (with its configuration) the service uses for a
/// registry method. The default is [`AnyEngine::with_defaults`]; a bench
/// harness can inject its §VIII-B parameter settings instead.
pub type EngineFactory = Box<dyn Fn(MethodId) -> AnyEngine + Send + Sync>;

/// Scheduling class of a request within a batch. Classes order the
/// deterministic batch schedule (all `High` requests are dispatched —
/// and their indexes resolved/admitted — before any `Normal`, which
/// precede any `Low`; request order breaks ties). Priorities never
/// change *what* a query answers, only *when* it is scheduled and in
/// which order its index competes for the memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Scheduled before all other classes.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Scheduled after everything else.
    Low,
}

/// One query against a named, registered graph.
#[derive(Debug, Clone)]
pub struct ServiceRequest {
    /// The registered instance name.
    pub graph: String,
    /// The selection method (any of the nine registered methods).
    pub method: MethodId,
    /// The diffusion horizon `t` the artifacts are built for.
    pub horizon: usize,
    /// The selection query (budget, rule, target, mode).
    pub query: Query,
    /// Optional deterministic deadline in cost-meter ticks (see
    /// [`vom_core::CostBudget`]). `None` (the default) runs to
    /// completion; `Some(t)` may end in [`ServiceError::Degraded`],
    /// which carries a bit-identical prefix of the full selection.
    pub budget: Option<u64>,
    /// Scheduling class (default [`Priority::Normal`]).
    pub priority: Priority,
}

impl ServiceRequest {
    /// Convenience constructor (no budget, normal priority).
    pub fn new(
        graph: impl Into<String>,
        method: MethodId,
        horizon: usize,
        query: Query,
    ) -> ServiceRequest {
        ServiceRequest {
            graph: graph.into(),
            method,
            horizon,
            query,
            budget: None,
            priority: Priority::Normal,
        }
    }

    /// Sets a deterministic tick budget for this request.
    pub fn with_budget(mut self, ticks: u64) -> ServiceRequest {
        self.budget = Some(ticks);
        self
    }

    /// Sets the scheduling class for this request.
    pub fn with_priority(mut self, priority: Priority) -> ServiceRequest {
        self.priority = priority;
        self
    }
}

/// A per-query service failure. Batches never fail as a whole: each
/// request gets its own `Result` slot.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The request named a graph that was never registered.
    UnknownGraph {
        /// The unknown name.
        name: String,
    },
    /// `register` was called with a name that is already taken.
    DuplicateGraph {
        /// The contested name.
        name: String,
    },
    /// The query itself was invalid or the selection failed (propagated
    /// from `vom-core`, e.g. `k = 0`, out-of-range target, `k > n`).
    Selection(CoreError),
    /// Saving or loading an index snapshot failed (typed; see
    /// [`vom_persist::PersistError`]). Loads fail closed — a bad
    /// snapshot never becomes a served index.
    Persist(PersistError),
    /// The index this request needs does not fit the service memory
    /// budget even after evicting every cold cached index. The request
    /// is rejected, not silently served from an over-budget cache.
    AdmissionDenied {
        /// The graph whose index was denied.
        graph: String,
        /// Heap bytes the new index needs.
        needed_bytes: usize,
        /// The configured service budget.
        budget_bytes: usize,
    },
    /// A query or index build panicked. The panic is confined to this
    /// slot (sibling batch entries are unaffected) and a panicked build
    /// is quarantined — the next caller retries a fresh build instead
    /// of observing a poisoned memo cell.
    Panicked {
        /// Human-readable description of where the panic happened.
        context: String,
    },
    /// A budgeted request degraded: its deadline expired before `k`
    /// seeds were selected. The prefix is a valid answer — the first
    /// seeds of the full selection, bit for bit (see
    /// [`Outcome::Degraded`]) — just shorter, and unscored.
    Degraded {
        /// Seeds selected before the deadline, in selection order.
        seeds_prefix: Vec<Node>,
        /// Ticks spent when the deadline fired.
        budget_spent: u64,
        /// The configured tick budget.
        budget_limit: u64,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownGraph { name } => {
                write!(f, "no graph registered under {name:?}")
            }
            ServiceError::DuplicateGraph { name } => {
                write!(f, "a graph is already registered under {name:?}")
            }
            ServiceError::Selection(e) => write!(f, "selection failed: {e}"),
            ServiceError::Persist(e) => write!(f, "index snapshot failed: {e}"),
            ServiceError::AdmissionDenied {
                graph,
                needed_bytes,
                budget_bytes,
            } => write!(
                f,
                "index for {graph:?} needs {needed_bytes} B, over the {budget_bytes} B service budget"
            ),
            ServiceError::Panicked { context } => write!(f, "panicked: {context}"),
            ServiceError::Degraded {
                seeds_prefix,
                budget_spent,
                budget_limit,
            } => write!(
                f,
                "degraded to a {}-seed prefix after {budget_spent}/{budget_limit} ticks",
                seeds_prefix.len()
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Selection(e) => Some(e),
            ServiceError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Selection(e)
    }
}

impl From<PersistError> for ServiceError {
    fn from(e: PersistError) -> Self {
        ServiceError::Persist(e)
    }
}

/// Per-request outcome of a batch.
pub type ServiceResult = Result<SelectionResult, ServiceError>;

/// One row of [`VomService::index_stats`]: the memo key of a cached
/// index plus its build-side diagnostics.
#[derive(Debug, Clone)]
pub struct IndexStats {
    /// The registered graph name.
    pub graph: String,
    /// The prepared method.
    pub method: MethodId,
    /// The prepared target candidate.
    pub target: Candidate,
    /// The prepared horizon.
    pub horizon: usize,
    /// The rule class the index was keyed under.
    pub class: RuleClass,
    /// The prepared (bucketed) budget.
    pub budget: usize,
    /// Heap bytes currently held by the estimator artifacts.
    pub heap_bytes: usize,
    /// Estimator artifacts present (eager + lazy builds, or loaded).
    pub artifact_builds: usize,
    /// Time to readiness: the prepare wall time for built indexes, the
    /// load wall time for snapshot-loaded ones.
    pub build_time: Duration,
}

/// Outcome of a [`VomService::warm_from_dir`] scan: how many snapshots
/// became served indexes, and — per file — why the rest did not. A
/// non-empty `skipped` list is not an error (the affected indexes are
/// rebuilt lazily), but it is the difference between a clean warm
/// restart and one degrading to cold builds, so callers should log it.
#[derive(Debug)]
pub struct WarmSummary {
    /// Snapshots loaded and memoized.
    pub loaded: usize,
    /// Snapshot files present but not served, with typed reasons.
    pub skipped: Vec<SkippedSnapshot>,
    /// Files whose open hit a transient IO error and was retried, with
    /// the exact deterministic backoff schedule that was applied —
    /// recorded whether or not the retries eventually succeeded.
    pub retries: Vec<RetryRecord>,
}

impl WarmSummary {
    /// Whether every `.vpi` file in the directory was served.
    pub fn is_clean(&self) -> bool {
        self.skipped.is_empty()
    }
}

/// One file [`VomService::warm_from_dir_with`] retried after a
/// transient IO failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryRecord {
    /// The snapshot file.
    pub path: PathBuf,
    /// Backoff pauses requested between attempts, in order (ms). The
    /// schedule is a pure function of the [`RetryPolicy`] — never of
    /// wall-clock time.
    pub backoff_ms: Vec<u64>,
    /// Whether a retry eventually opened the file.
    pub recovered: bool,
}

/// Bounded-retry policy for transient (`PersistError::Io`) snapshot
/// failures during a warm restart. Corruption and digest mismatches are
/// *not* retried — rereading a corrupt file cannot fix it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total open attempts per file (1 = no retries).
    pub attempts: u32,
    /// First backoff pause; each further retry doubles it. The schedule
    /// is deterministic: `base, 2·base, 4·base, …`.
    pub base_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_backoff_ms: 10,
        }
    }
}

impl RetryPolicy {
    /// The pause before retry number `retry` (0-based).
    fn backoff_ms(&self, retry: u32) -> u64 {
        self.base_backoff_ms.saturating_mul(1u64 << retry.min(16))
    }
}

/// How a warm restart waits out a backoff pause. Production uses
/// [`SleepScheduler`]; tests use [`NoopScheduler`] so retry logic is
/// exercised without real sleeps (the recorded schedule is identical —
/// it is computed, not measured).
pub trait WarmScheduler {
    /// Waits `ms` milliseconds (or records that it would).
    fn pause(&self, ms: u64);
}

/// Blocks the warming thread for the scheduled pause.
pub struct SleepScheduler;

impl WarmScheduler for SleepScheduler {
    fn pause(&self, ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// Skips pauses entirely (deterministic tests, impatient operators).
pub struct NoopScheduler;

impl WarmScheduler for NoopScheduler {
    fn pause(&self, _ms: u64) {}
}

/// A deterministic, seeded fault-injection plan. Installed with
/// [`VomService::set_fault_plan`], consulted at the service's fault
/// boundaries; every trigger is keyed on stable identifiers (graph
/// names, batch request indexes, snapshot file names) — never thread
/// ids or wall-clock time — so a faulted run is reproducible at any
/// worker-pool width.
///
/// Faults modeled:
/// * **build panics** — the next `count` index builds for a graph
///   panic inside the build boundary (exercises catch + quarantine);
/// * **query panics** — the request at a given batch index panics in
///   its worker (exercises per-slot isolation; membership is not
///   consumed, so every batch run faults the same slot);
/// * **tick inflation** — every budgeted query's meter charges are
///   multiplied, forcing earlier deadline degradation;
/// * **transient unreadable** — the next `count` opens of a snapshot
///   file during a warm restart fail with a synthetic transient IO
///   error (exercises the bounded-retry path).
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    tick_scale: u64,
    build_panics: Mutex<BTreeMap<String, u32>>,
    query_panics: BTreeSet<usize>,
    unreadable: Mutex<BTreeMap<String, u32>>,
}

impl FaultPlan {
    /// An empty plan carrying `seed` (harnesses derive fault sites from
    /// it; the plan itself treats it as opaque provenance).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            tick_scale: 1,
            ..FaultPlan::default()
        }
    }

    /// The seed this plan was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The next `count` index builds for `graph` panic.
    pub fn with_build_panics(self, graph: impl Into<String>, count: u32) -> FaultPlan {
        self.build_panics
            .lock()
            .expect("fault lock")
            .insert(graph.into(), count);
        self
    }

    /// The batch request at `request_index` panics in its worker.
    pub fn with_query_panic(mut self, request_index: usize) -> FaultPlan {
        self.query_panics.insert(request_index);
        self
    }

    /// Multiplies every budgeted query's meter charges by `scale`
    /// (clamped to ≥ 1), forcing earlier degradation.
    pub fn with_tick_scale(mut self, scale: u64) -> FaultPlan {
        self.tick_scale = scale.max(1);
        self
    }

    /// The next `count` warm-restart opens of snapshot `file_name`
    /// (the bare file name, e.g. `"toy--rs-c0-t0-h1-b1.vpi"`) fail
    /// with a transient IO error.
    pub fn with_transient_unreadable(self, file_name: impl Into<String>, count: u32) -> FaultPlan {
        self.unreadable
            .lock()
            .expect("fault lock")
            .insert(file_name.into(), count);
        self
    }

    /// The configured charge multiplier (≥ 1).
    pub fn tick_scale(&self) -> u64 {
        self.tick_scale.max(1)
    }

    /// Consumes one pending build panic for `graph`, if any.
    fn take_build_panic(&self, graph: &str) -> bool {
        let mut map = self.build_panics.lock().expect("fault lock");
        match map.get_mut(graph) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    }

    /// Whether the batch request at `index` is planned to panic.
    fn query_panics_at(&self, index: usize) -> bool {
        self.query_panics.contains(&index)
    }

    /// Consumes one pending transient-unreadable fault for `file_name`.
    fn take_unreadable(&self, file_name: &str) -> bool {
        let mut map = self.unreadable.lock().expect("fault lock");
        match map.get_mut(file_name) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    }
}

/// One `.vpi` file a warm restart could not serve from.
#[derive(Debug)]
pub struct SkippedSnapshot {
    /// The snapshot file.
    pub path: PathBuf,
    /// Why it was skipped.
    pub reason: SkipReason,
}

/// Why [`VomService::warm_from_dir`] skipped a snapshot file.
#[derive(Debug)]
pub enum SkipReason {
    /// The file failed to open or validate (truncation, corruption,
    /// format-version drift — see the wrapped [`PersistError`]).
    Unreadable(PersistError),
    /// No registered graph matches the snapshot's graph digest.
    NoMatchingGraph {
        /// The snapshot's graph digest.
        digest: u64,
    },
    /// A graph digest-matched but reconstructing the index failed, or
    /// the memory budget denied it admission.
    LoadFailed(ServiceError),
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::Unreadable(e) => write!(f, "unreadable snapshot: {e}"),
            SkipReason::NoMatchingGraph { digest } => {
                write!(f, "no registered graph matches digest {digest:016x}")
            }
            SkipReason::LoadFailed(e) => write!(f, "index load failed: {e}"),
        }
    }
}

/// Everything a prepared index depends on — the memoization key. The
/// budget bucket (`k` rounded up to a power of two, capped at `n`)
/// depends only on the query, so memo hits can never change results.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct IndexKey {
    graph: String,
    method: MethodId,
    target: Candidate,
    horizon: usize,
    class: RuleClass,
    budget: usize,
}

/// The budget an index is prepared at for a query asking `k ≤ n` seeds:
/// the next power of two (so nearby budgets share one index) capped at
/// `n` (a budget can never exceed the node count).
fn prepared_budget(k: usize, n: usize) -> usize {
    k.max(1).checked_next_power_of_two().unwrap_or(n).min(n)
}

/// Renders a caught panic payload for [`ServiceError::Panicked`].
fn panic_context(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One memo slot: same-key callers share the cell and only the first
/// runs the build (inside the cell's `OnceLock`, *outside* the cache
/// map lock — memo hits and unrelated builds never wait on each other).
type IndexCell = Arc<OnceLock<Result<Arc<PreparedIndex>, ServiceError>>>;

/// One cache slot: the memo cell plus the logical sequence number of
/// its last use. Recency is a **logical clock** (bumped once per cache
/// probe under the map lock), never wall-clock time — so eviction order
/// is a pure function of the request history.
struct CacheEntry {
    cell: IndexCell,
    last_use: u64,
}

/// The index memo: entries by key, LRU-evicted by logical admission
/// sequence under an optional entry capacity and/or heap-byte budget.
/// Eviction is safe at any moment — in-flight sessions keep their index
/// alive through their own `Arc`s, and a rebuilt index is bit-identical
/// by the determinism contract.
struct IndexCache {
    cells: HashMap<IndexKey, CacheEntry>,
    /// Logical use counter; every probe gets a fresh, unique value.
    seq: u64,
    capacity: Option<usize>,
    /// Heap-byte budget over built indexes; enforced at admission.
    memory_budget: Option<usize>,
}

impl IndexCache {
    /// Evicts the least-recently-used entry, skipping `protect`.
    /// Returns `false` when nothing (else) is left to evict.
    fn evict_lru(&mut self, protect: Option<&IndexKey>) -> bool {
        // Min over unique logical last_use values — iteration-order
        // independent, so hash order never reaches results.
        let victim = self
            .cells
            .iter()
            .filter(|(k, _)| protect != Some(*k))
            .min_by_key(|(_, e)| e.last_use)
            .map(|(k, _)| k.clone());
        match victim {
            Some(k) => {
                self.cells.remove(&k);
                true
            }
            None => false,
        }
    }

    /// Heap bytes currently resident in *built* cells other than
    /// `except` (cells still building, or whose build failed, hold no
    /// artifacts and count zero).
    fn resident_bytes(&self, except: &IndexKey) -> usize {
        // Commutative sum — iteration-order independent.
        self.cells
            .iter()
            .filter(|(k, _)| *k != except)
            .filter_map(|(_, e)| e.cell.get())
            .filter_map(|r| r.as_ref().ok())
            .map(|ix| ix.build_stats().heap_bytes)
            .sum()
    }
}

/// The shared-state query service facade. One `VomService` is meant to
/// live for the process: it is `Send + Sync`, all methods take `&self`,
/// and every piece of prepared state is shared behind `Arc`s.
pub struct VomService {
    engine_factory: EngineFactory,
    graphs: RwLock<BTreeMap<String, Arc<Instance>>>,
    /// The cache map lock is held only for cell lookup/insert/evict —
    /// never across an artifact build.
    indexes: Mutex<IndexCache>,
    /// Installed fault-injection plan (tests, chaos harness); `None`
    /// in production — every fault boundary is then a strict no-op.
    faults: Mutex<Option<Arc<FaultPlan>>>,
}

impl Default for VomService {
    fn default() -> Self {
        VomService::new()
    }
}

impl VomService {
    /// A service using each method's default configuration.
    pub fn new() -> VomService {
        VomService::with_engine_factory(Box::new(AnyEngine::with_defaults))
    }

    /// A service with custom engine configurations (e.g. the bench
    /// harness's §VIII-B parameter settings).
    pub fn with_engine_factory(factory: EngineFactory) -> VomService {
        VomService {
            engine_factory: factory,
            graphs: RwLock::new(BTreeMap::new()),
            indexes: Mutex::new(IndexCache {
                cells: HashMap::new(),
                seq: 0,
                capacity: None,
                memory_budget: None,
            }),
            faults: Mutex::new(None),
        }
    }

    /// Caps the index memo at `capacity` entries with LRU eviction
    /// (default: unbounded). A long-lived service whose requests vary
    /// target/horizon/budget freely should set this — every distinct
    /// key otherwise retains its arena/sketch artifacts forever.
    /// Eviction never changes results: a re-requested key rebuilds the
    /// identical index. Recency is a logical use counter, not
    /// wall-clock time, so eviction order is reproducible.
    pub fn with_index_capacity(self, capacity: usize) -> VomService {
        self.indexes.lock().expect("index lock").capacity = Some(capacity.max(1));
        self
    }

    /// Caps the total heap bytes of built cached indexes (default:
    /// unbounded). A new build that would overflow the budget first
    /// evicts cold indexes (LRU by logical use sequence); if the new
    /// index *alone* exceeds the budget, the request is rejected with
    /// [`ServiceError::AdmissionDenied`] — the cache never silently
    /// exceeds its budget.
    pub fn with_memory_budget(self, bytes: usize) -> VomService {
        self.indexes.lock().expect("index lock").memory_budget = Some(bytes);
        self
    }

    /// Installs (or clears, with `None`) a deterministic fault plan.
    /// Intended for tests and the chaos harness; with no plan every
    /// fault boundary is a strict no-op.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.faults.lock().expect("fault lock") = plan;
    }

    /// The installed fault plan, if any.
    fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.faults.lock().expect("fault lock").clone()
    }

    /// Drops every memoized index (e.g. after a bulk workload, to
    /// release artifact memory). Sessions already holding an index keep
    /// it alive through their own `Arc`s.
    pub fn clear_indexes(&self) {
        let mut cache = self.indexes.lock().expect("index lock");
        cache.cells.clear();
    }

    /// Registers an instance under a name. Names are first-come:
    /// re-registering is an error (indexes built for the old instance
    /// would silently answer for the new one otherwise).
    pub fn register(
        &self,
        name: impl Into<String>,
        instance: Arc<Instance>,
    ) -> Result<(), ServiceError> {
        let name = name.into();
        let mut graphs = self.graphs.write().expect("graphs lock");
        if graphs.contains_key(&name) {
            return Err(ServiceError::DuplicateGraph { name });
        }
        graphs.insert(name, instance);
        Ok(())
    }

    /// The registered instance names, sorted.
    pub fn graph_names(&self) -> Vec<String> {
        self.graphs
            .read()
            .expect("graphs lock")
            .keys()
            .cloned()
            .collect()
    }

    /// The registered instance under `name`, if any.
    pub fn instance(&self, name: &str) -> Option<Arc<Instance>> {
        self.graphs.read().expect("graphs lock").get(name).cloned()
    }

    /// Number of distinct prepared indexes currently memoized.
    pub fn index_count(&self) -> usize {
        self.indexes.lock().expect("index lock").cells.len()
    }

    /// The memo cell for `key`, creating (and LRU-evicting, if over
    /// capacity) under the short-held map lock. Every probe bumps the
    /// key's logical recency.
    fn cell_for(&self, key: &IndexKey) -> IndexCell {
        let mut cache = self.indexes.lock().expect("index lock");
        cache.seq += 1;
        let now = cache.seq;
        if let Some(entry) = cache.cells.get_mut(key) {
            entry.last_use = now;
            return Arc::clone(&entry.cell);
        }
        if let Some(cap) = cache.capacity {
            while cache.cells.len() >= cap && cache.evict_lru(None) {}
        }
        let cell: IndexCell = Arc::new(OnceLock::new());
        cache.cells.insert(
            key.clone(),
            CacheEntry {
                cell: Arc::clone(&cell),
                last_use: now,
            },
        );
        cell
    }

    /// Removes `key`'s slot iff it still holds exactly `cell` — used to
    /// quarantine panicked builds and to back out denied admissions
    /// without disturbing a racing rebuild that already replaced it.
    fn remove_cell(&self, key: &IndexKey, cell: &IndexCell) {
        let mut cache = self.indexes.lock().expect("index lock");
        if cache
            .cells
            .get(key)
            .is_some_and(|e| Arc::ptr_eq(&e.cell, cell))
        {
            cache.cells.remove(key);
        }
    }

    /// Admission control for a just-built or just-loaded index: evicts
    /// cold cached indexes (LRU) until the newcomer fits the memory
    /// budget, or denies it when it can never fit. Only the thread that
    /// ran the build or load calls this, so admission order equals build
    /// order — deterministic for any serial request sequence.
    fn admit(&self, key: &IndexKey, index: &Arc<PreparedIndex>) -> Result<(), ServiceError> {
        let mut cache = self.indexes.lock().expect("index lock");
        let Some(budget) = cache.memory_budget else {
            return Ok(());
        };
        let needed = index.build_stats().heap_bytes;
        if needed > budget {
            cache.cells.remove(key);
            return Err(ServiceError::AdmissionDenied {
                graph: key.graph.clone(),
                needed_bytes: needed,
                budget_bytes: budget,
            });
        }
        while cache.resident_bytes(key) + needed > budget {
            if !cache.evict_lru(Some(key)) {
                break;
            }
        }
        Ok(())
    }

    /// Build-side diagnostics of every successfully built (or loaded)
    /// memoized index: the memo key, current artifact heap bytes, and
    /// build counters — the serving-side view of Figure 17(b).
    pub fn index_stats(&self) -> Vec<IndexStats> {
        let cells: Vec<(IndexKey, IndexCell)> = {
            let cache = self.indexes.lock().expect("index lock");
            cache
                .cells
                .iter()
                .map(|(k, e)| (k.clone(), Arc::clone(&e.cell)))
                .collect()
        };
        let mut stats: Vec<IndexStats> = cells
            .into_iter()
            .filter_map(|(key, cell)| {
                let index = cell.get()?.as_ref().ok()?.clone();
                let b = index.build_stats();
                Some(IndexStats {
                    graph: key.graph,
                    method: key.method,
                    target: key.target,
                    horizon: key.horizon,
                    class: key.class,
                    budget: key.budget,
                    heap_bytes: b.heap_bytes,
                    artifact_builds: b.artifact_builds,
                    build_time: b.build_time,
                })
            })
            .collect();
        stats.sort_by(|a, b| {
            (&a.graph, a.method as usize, a.target, a.horizon, a.budget).cmp(&(
                &b.graph,
                b.method as usize,
                b.target,
                b.horizon,
                b.budget,
            ))
        });
        stats
    }

    /// The canonical snapshot filename for an index under `graph`.
    fn snapshot_name(key: &IndexKey) -> String {
        format!(
            "{}--{}-c{}-t{}-h{}-b{}.vpi",
            key.graph,
            key.method.name().to_lowercase(),
            key.class as usize,
            key.target,
            key.horizon,
            key.budget
        )
    }

    /// Resolves (building if absent) the index a request needs and
    /// writes it as a snapshot file into `dir`, returning the path.
    /// Pair with [`VomService::warm_from_dir`] on the next process start.
    pub fn save_index(&self, req: &ServiceRequest, dir: &Path) -> Result<PathBuf, ServiceError> {
        let index = self.index_for(req)?;
        let instance = self
            .instance(&req.graph)
            .ok_or_else(|| ServiceError::UnknownGraph {
                name: req.graph.clone(),
            })?;
        let key = IndexKey {
            graph: req.graph.clone(),
            method: req.method,
            target: req.query.target,
            horizon: req.horizon,
            class: RuleClass::of(&req.query.rule),
            budget: prepared_budget(req.query.k, instance.num_nodes()),
        };
        let path = dir.join(Self::snapshot_name(&key));
        index.save(&path)?;
        Ok(path)
    }

    /// Loads one index snapshot against the named registered graph and
    /// memoizes it. The snapshot's graph digest must match the
    /// registered instance — loading fails closed otherwise. A loaded
    /// index passes the same memory-budget admission as a build
    /// ([`ServiceError::AdmissionDenied`] when it alone exceeds the
    /// budget). If the key is already cached (e.g. a racing build won),
    /// the existing index is kept; both are bit-identical by the
    /// determinism contract.
    pub fn load_index(&self, graph: &str, path: &Path) -> Result<(), ServiceError> {
        let instance = self
            .instance(graph)
            .ok_or_else(|| ServiceError::UnknownGraph {
                name: graph.to_string(),
            })?;
        self.memoize_loaded(graph, PreparedIndex::load(instance, path)?)
    }

    /// Memoizes a loaded index under its key and admits it.
    fn memoize_loaded(&self, graph: &str, index: PreparedIndex) -> Result<(), ServiceError> {
        let key = IndexKey {
            graph: graph.to_string(),
            method: index.method_id(),
            target: index.target(),
            horizon: index.horizon(),
            class: RuleClass::of(index.rule()),
            budget: index.budget(),
        };
        let index = Arc::new(index);
        let cell = self.cell_for(&key);
        if cell.set(Ok(Arc::clone(&index))).is_ok() {
            if let Err(denied) = self.admit(&key, &index) {
                self.remove_cell(&key, &cell);
                return Err(denied);
            }
        }
        Ok(())
    }

    /// Warm restart: scans `dir` for `.vpi` snapshots, matches each to a
    /// registered graph **by graph digest** (no filename convention
    /// required), and memoizes every match under the memory budget, as
    /// [`VomService::load_index`] does; each file is read once. Snapshots
    /// that fail to load — corruption, version drift, no matching graph,
    /// a denied admission — are skipped, not fatal: the corresponding
    /// indexes are simply rebuilt on first use.
    /// Every skip is reported with its file and typed reason in the
    /// returned [`WarmSummary`], so operators can tell a clean restart
    /// from one that silently fell back to rebuilds. Transient IO
    /// failures are retried under [`RetryPolicy::default`] with real
    /// backoff sleeps; see [`VomService::warm_from_dir_with`].
    pub fn warm_from_dir(&self, dir: &Path) -> Result<WarmSummary, ServiceError> {
        self.warm_from_dir_with(dir, RetryPolicy::default(), &SleepScheduler)
    }

    /// [`VomService::warm_from_dir`] with an explicit retry policy and
    /// backoff scheduler. Only transient (`PersistError::Io`) open
    /// failures are retried — up to `policy.attempts` total tries per
    /// file with a deterministic doubling backoff, every pause recorded
    /// in [`WarmSummary::retries`]. Corruption and digest mismatches
    /// skip immediately: rereading a corrupt file cannot fix it.
    pub fn warm_from_dir_with(
        &self,
        dir: &Path,
        policy: RetryPolicy,
        scheduler: &dyn WarmScheduler,
    ) -> Result<WarmSummary, ServiceError> {
        let plan = self.fault_plan();
        let digests: Vec<(String, Arc<Instance>, u64)> = {
            let graphs = self.graphs.read().expect("graphs lock");
            graphs
                .iter()
                .map(|(name, inst)| (name.clone(), Arc::clone(inst), graph_digest(inst)))
                .collect()
        };
        let entries = std::fs::read_dir(dir).map_err(|e| {
            ServiceError::Persist(PersistError::Io {
                op: "read_dir",
                message: e.to_string(),
            })
        })?;
        let mut summary = WarmSummary {
            loaded: 0,
            skipped: Vec::new(),
            retries: Vec::new(),
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "vpi"))
            .collect();
        paths.sort();
        for path in paths {
            let file_name = path
                .file_name()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            let mut backoff_ms: Vec<u64> = Vec::new();
            let snap = loop {
                let injected = plan
                    .as_deref()
                    .is_some_and(|p| p.take_unreadable(&file_name));
                let opened = if injected {
                    Err(PersistError::Io {
                        op: "open",
                        message: format!("injected transient fault ({file_name})"),
                    })
                } else {
                    vom_persist::Snapshot::open(&path)
                };
                match opened {
                    Ok(snap) => break Some(snap),
                    Err(e) => {
                        let transient = matches!(e, PersistError::Io { .. });
                        let retries_done = backoff_ms.len() as u32;
                        if transient && retries_done + 1 < policy.attempts.max(1) {
                            let pause = policy.backoff_ms(retries_done);
                            backoff_ms.push(pause);
                            scheduler.pause(pause);
                            continue;
                        }
                        summary.skipped.push(SkippedSnapshot {
                            path: path.clone(),
                            reason: SkipReason::Unreadable(e),
                        });
                        break None;
                    }
                }
            };
            if !backoff_ms.is_empty() {
                summary.retries.push(RetryRecord {
                    path: path.clone(),
                    backoff_ms,
                    recovered: snap.is_some(),
                });
            }
            let Some(snap) = snap else { continue };
            let Some((graph, instance, _)) =
                digests.iter().find(|(_, _, d)| *d == snap.graph_digest())
            else {
                summary.skipped.push(SkippedSnapshot {
                    path,
                    reason: SkipReason::NoMatchingGraph {
                        digest: snap.graph_digest(),
                    },
                });
                continue;
            };
            // The snapshot is already open and digested: build the index
            // from it rather than reading the file again.
            let loaded = load_snapshot(Arc::clone(instance), &snap)
                .map_err(ServiceError::from)
                .and_then(|index| self.memoize_loaded(graph, index));
            match loaded {
                Ok(()) => summary.loaded += 1,
                Err(e) => summary.skipped.push(SkippedSnapshot {
                    path,
                    reason: SkipReason::LoadFailed(e),
                }),
            }
        }
        Ok(summary)
    }

    /// The memoized (building if absent) index for a request, after
    /// cheap upfront validation — so garbage queries fail readably
    /// *before* any expensive artifact build.
    fn index_for(&self, req: &ServiceRequest) -> Result<Arc<PreparedIndex>, ServiceError> {
        let instance = self
            .instance(&req.graph)
            .ok_or_else(|| ServiceError::UnknownGraph {
                name: req.graph.clone(),
            })?;
        let n = instance.num_nodes();
        let r = instance.num_candidates();
        if req.query.target >= r {
            return Err(CoreError::BadTarget {
                target: req.query.target,
                r,
            }
            .into());
        }
        if req.query.k == 0 {
            return Err(CoreError::EmptyQuery.into());
        }
        if req.query.k > n {
            return Err(CoreError::BudgetTooLarge { k: req.query.k, n }.into());
        }
        req.query.rule.validate(r).map_err(CoreError::from)?;

        let key = IndexKey {
            graph: req.graph.clone(),
            method: req.method,
            target: req.query.target,
            horizon: req.horizon,
            class: RuleClass::of(&req.query.rule),
            budget: prepared_budget(req.query.k, n),
        };
        // Grab (or create) the key's memo cell under the map lock —
        // cheap — then build outside it, inside the cell: same-key
        // racers wait for the one build, everyone else proceeds.
        let cell = self.cell_for(&key);
        let mut built_now = false;
        let result = cell
            .get_or_init(|| {
                built_now = true;
                let build = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(plan) = self.fault_plan() {
                        if plan.take_build_panic(&req.graph) {
                            panic!("injected build fault ({})", req.graph);
                        }
                    }
                    let engine = (self.engine_factory)(req.method);
                    let spec = ProblemSpec::new(
                        instance,
                        req.query.target,
                        key.budget,
                        req.horizon,
                        req.query.rule.clone(),
                    )?;
                    Ok(Arc::new(engine.prepare_spec(spec)?))
                }));
                build.unwrap_or_else(|payload| {
                    Err(ServiceError::Panicked {
                        context: format!(
                            "index build for {:?}/{} panicked: {}",
                            req.graph,
                            req.method.name(),
                            panic_context(payload.as_ref())
                        ),
                    })
                })
            })
            .clone();
        match &result {
            // The builder thread enforces admission; a denial backs the
            // cell out so the cache never carries an over-budget index.
            Ok(index) if built_now => {
                if let Err(denied) = self.admit(&key, index) {
                    self.remove_cell(&key, &cell);
                    return Err(denied);
                }
            }
            // Quarantine a panicked build: drop the poisoned cell so
            // the next caller retries a fresh build. Deterministic
            // failures (bad spec) stay memoized — rebuilding cannot
            // change them.
            Err(ServiceError::Panicked { .. }) => self.remove_cell(&key, &cell),
            _ => {}
        }
        result
    }

    /// Builds (and memoizes) every index a batch will need, skipping
    /// requests that fail validation — their errors resurface per-query
    /// in [`VomService::run_batch`]. Returns the number of indexes
    /// built. Useful to warm the service before latency-sensitive
    /// serving, and to time build vs. query phases separately.
    pub fn warm(&self, requests: &[ServiceRequest]) -> usize {
        let before = self.index_count();
        for req in requests {
            let _ = self.index_for(req);
        }
        self.index_count() - before
    }

    /// Runs one query session, honoring the request's optional tick
    /// budget (with any installed fault plan's tick inflation).
    fn answer(
        &self,
        req: &ServiceRequest,
        index: &Arc<PreparedIndex>,
        plan: Option<&FaultPlan>,
    ) -> ServiceResult {
        let mut session = QuerySession::new(Arc::clone(index));
        let Some(ticks) = req.budget else {
            return Ok(session.select(&req.query)?);
        };
        let scale = plan.map_or(1, FaultPlan::tick_scale);
        let meter = Arc::new(CostMeter::with_scale(CostBudget::ticks(ticks), scale));
        match session.select_with_meter(&req.query, &meter)? {
            Outcome::Complete(res) => Ok(res),
            Outcome::Degraded {
                seeds_prefix,
                budget_spent,
                budget_limit,
            } => Err(ServiceError::Degraded {
                seeds_prefix,
                budget_spent,
                budget_limit,
            }),
        }
    }

    /// Answers one request (building or reusing its index): a one-slot
    /// [`VomService::run_batch`], so it gets the same panic isolation
    /// and the same outcomes — including [`ServiceError::Degraded`] with
    /// the prefix when a budgeted request runs out of ticks.
    pub fn run(&self, req: &ServiceRequest) -> ServiceResult {
        self.run_batch(std::slice::from_ref(req))
            .pop()
            .expect("one result per request")
    }

    /// Answers a whole batch: indexes are resolved (and missing ones
    /// built, each exactly once) in deterministic schedule order —
    /// priority class first, request order within — then the queries run
    /// on the worker pool, one [`vom_core::QuerySession`] per request.
    /// The result vector is in **request order** regardless of schedule
    /// or priority, and each slot carries its own error: an invalid
    /// query, a denied admission, a spent budget
    /// ([`ServiceError::Degraded`], with the prefix), or even a
    /// panicking query ([`ServiceError::Panicked`], confined by a
    /// `catch_unwind` at the worker boundary) never sinks the batch.
    pub fn run_batch(&self, requests: &[ServiceRequest]) -> Vec<ServiceResult> {
        let plan = self.fault_plan();
        // Deterministic schedule: priority class, then request order.
        // The same permutation orders index resolution (and therefore
        // admission/eviction) and worker dispatch.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| (requests[i].priority, i));
        let mut indexes: Vec<Option<Result<Arc<PreparedIndex>, ServiceError>>> =
            (0..requests.len()).map(|_| None).collect();
        for &i in &order {
            indexes[i] = Some(self.index_for(&requests[i]));
        }
        let indexes: Vec<Result<Arc<PreparedIndex>, ServiceError>> = indexes
            .into_iter()
            .map(|slot| slot.expect("resolved"))
            .collect();
        let scheduled: Vec<(usize, ServiceResult)> = (0..order.len())
            .into_par_iter()
            .map(|p| {
                let i = order[p];
                let req = &requests[i];
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(p) = plan.as_deref() {
                        if p.query_panics_at(i) {
                            panic!("injected query fault (request {i})");
                        }
                    }
                    let index = indexes[i].clone()?;
                    self.answer(req, &index, plan.as_deref())
                }));
                let slot = outcome.unwrap_or_else(|payload| {
                    Err(ServiceError::Panicked {
                        context: format!(
                            "query {i} ({:?}/{}) panicked: {}",
                            req.graph,
                            req.method.name(),
                            panic_context(payload.as_ref())
                        ),
                    })
                });
                (i, slot)
            })
            .collect();
        let mut results: Vec<Option<ServiceResult>> = (0..requests.len()).map(|_| None).collect();
        for (i, slot) in scheduled {
            results[i] = Some(slot);
        }
        results
            .into_iter()
            .map(|slot| slot.expect("scattered"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vom_diffusion::OpinionMatrix;
    use vom_graph::builder::graph_from_edges;
    use vom_voting::ScoringFunction;

    fn instance() -> Arc<Instance> {
        let g = Arc::new(graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap());
        let b = OpinionMatrix::from_rows(vec![
            vec![0.40, 0.80, 0.60, 0.90],
            vec![0.35, 0.75, 1.00, 0.80],
        ])
        .unwrap();
        Arc::new(Instance::shared(g, b, vec![0.0, 0.0, 0.5, 0.5]).unwrap())
    }

    fn service() -> VomService {
        let service = VomService::new();
        service.register("toy", instance()).unwrap();
        service
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VomService>();
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let service = service();
        assert!(matches!(
            service.register("toy", instance()),
            Err(ServiceError::DuplicateGraph { .. })
        ));
        assert_eq!(service.graph_names(), vec!["toy".to_string()]);
    }

    #[test]
    fn batch_preserves_request_order_and_isolates_errors() {
        let service = service();
        let batch = vec![
            ServiceRequest::new(
                "toy",
                MethodId::Rs,
                1,
                Query::new(1, ScoringFunction::Cumulative, 0),
            ),
            ServiceRequest::new(
                "toy",
                MethodId::Rs,
                1,
                Query::new(0, ScoringFunction::Cumulative, 0),
            ),
            ServiceRequest::new(
                "nope",
                MethodId::Rs,
                1,
                Query::new(1, ScoringFunction::Cumulative, 0),
            ),
            ServiceRequest::new(
                "toy",
                MethodId::Rs,
                1,
                Query::new(1, ScoringFunction::Cumulative, 9),
            ),
            ServiceRequest::new(
                "toy",
                MethodId::Rs,
                1,
                Query::new(99, ScoringFunction::Cumulative, 0),
            ),
            ServiceRequest::new(
                "toy",
                MethodId::Dm,
                1,
                Query::new(1, ScoringFunction::Plurality, 0),
            ),
        ];
        let results = service.run_batch(&batch);
        assert_eq!(results.len(), batch.len());
        assert_eq!(results[0].as_ref().unwrap().seeds, vec![0]);
        assert!(matches!(
            results[1],
            Err(ServiceError::Selection(CoreError::EmptyQuery))
        ));
        assert!(matches!(
            results[2],
            Err(ServiceError::UnknownGraph { ref name }) if name == "nope"
        ));
        assert!(matches!(
            results[3],
            Err(ServiceError::Selection(CoreError::BadTarget {
                target: 9,
                r: 2
            }))
        ));
        assert!(matches!(
            results[4],
            Err(ServiceError::Selection(CoreError::BudgetTooLarge {
                k: 99,
                n: 4
            }))
        ));
        assert_eq!(results[5].as_ref().unwrap().exact_score, 4.0);
    }

    #[test]
    fn indexes_are_memoized_per_key_and_shared_across_budgets() {
        let service = service();
        // k = 3 and k = 4 share the power-of-two budget bucket 4; a
        // different rule class gets its own index.
        let reqs = vec![
            ServiceRequest::new(
                "toy",
                MethodId::Rs,
                1,
                Query::new(3, ScoringFunction::Cumulative, 0),
            ),
            ServiceRequest::new(
                "toy",
                MethodId::Rs,
                1,
                Query::new(4, ScoringFunction::Cumulative, 0),
            ),
            ServiceRequest::new(
                "toy",
                MethodId::Rs,
                1,
                Query::new(1, ScoringFunction::Plurality, 0),
            ),
        ];
        assert_eq!(service.warm(&reqs), 2);
        // Warming again builds nothing; neither does running the batch.
        assert_eq!(service.warm(&reqs), 0);
        let results = service.run_batch(&reqs);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(service.index_count(), 2);
    }

    #[test]
    fn batch_results_match_single_runs() {
        let service = service();
        let reqs: Vec<ServiceRequest> = (1..=2)
            .flat_map(|k| {
                [ScoringFunction::Cumulative, ScoringFunction::Plurality]
                    .into_iter()
                    .map(move |rule| {
                        ServiceRequest::new("toy", MethodId::Rs, 1, Query::new(k, rule, 0))
                    })
            })
            .collect();
        let batch = service.run_batch(&reqs);
        for (req, out) in reqs.iter().zip(&batch) {
            let solo = service.run(req).unwrap();
            let out = out.as_ref().unwrap();
            assert_eq!(solo.seeds, out.seeds);
            assert_eq!(solo.exact_score.to_bits(), out.exact_score.to_bits());
        }
    }

    #[test]
    fn index_capacity_evicts_fifo_without_changing_results() {
        let service = VomService::new().with_index_capacity(1);
        service.register("toy", instance()).unwrap();
        let cum = ServiceRequest::new(
            "toy",
            MethodId::Rs,
            1,
            Query::new(1, ScoringFunction::Cumulative, 0),
        );
        let plu = ServiceRequest::new(
            "toy",
            MethodId::Rs,
            1,
            Query::new(1, ScoringFunction::Plurality, 0),
        );
        let first = service.run(&cum).unwrap();
        assert_eq!(service.index_count(), 1);
        // A second key evicts the first (capacity 1)…
        service.run(&plu).unwrap();
        assert_eq!(service.index_count(), 1);
        // …and re-requesting the first rebuilds a bit-identical index.
        let again = service.run(&cum).unwrap();
        assert_eq!(service.index_count(), 1);
        assert_eq!(first.seeds, again.seeds);
        assert_eq!(first.exact_score.to_bits(), again.exact_score.to_bits());
        // clear_indexes releases everything.
        service.clear_indexes();
        assert_eq!(service.index_count(), 0);
    }

    #[test]
    fn save_then_warm_restart_reproduces_results_without_rebuilding() {
        let dir = std::env::temp_dir().join(format!(
            "vom-service-warm-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        let reqs = vec![
            ServiceRequest::new(
                "toy",
                MethodId::Rs,
                1,
                Query::new(2, ScoringFunction::Cumulative, 0),
            ),
            ServiceRequest::new(
                "toy",
                MethodId::Dm,
                1,
                Query::new(1, ScoringFunction::Plurality, 1),
            ),
        ];

        // First process: build, serve, snapshot to disk.
        let first = service();
        let fresh = first.run_batch(&reqs);
        for req in &reqs {
            let path = first.save_index(req, &dir).unwrap();
            assert!(path.exists());
        }

        // Toss in one corrupt snapshot: warm restarts must skip it.
        std::fs::write(dir.join("junk.vpi"), b"not a snapshot").unwrap();

        // Second process: warm from the directory, then serve without
        // building anything.
        let second = service();
        let summary = second.warm_from_dir(&dir).unwrap();
        assert_eq!(summary.loaded, 2);
        // The junk file is reported, not silently dropped.
        assert!(!summary.is_clean());
        assert_eq!(summary.skipped.len(), 1);
        assert!(summary.skipped[0].path.ends_with("junk.vpi"));
        assert!(matches!(
            summary.skipped[0].reason,
            SkipReason::Unreadable(_)
        ));
        assert_eq!(second.index_count(), 2);
        let stats = second.index_stats();
        assert_eq!(stats.len(), 2);
        // A loaded index owns what the built one does, arena included.
        let built = first.index_stats();
        for (b, w) in built.iter().zip(&stats) {
            assert_eq!((b.method, b.heap_bytes), (w.method, w.heap_bytes));
        }
        let rs = stats.iter().find(|s| s.method == MethodId::Rs).unwrap();
        // The RS sketch set was loaded, not rebuilt.
        assert_eq!(rs.artifact_builds, 1);
        let warmed = second.run_batch(&reqs);
        for (a, b) in fresh.iter().zip(&warmed) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.seeds, b.seeds);
            assert_eq!(a.exact_score.to_bits(), b.exact_score.to_bits());
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_from_dir_reports_each_skip_with_a_typed_reason() {
        let dir = std::env::temp_dir().join(format!(
            "vom-service-skips-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        let saver = service();
        let req = ServiceRequest::new(
            "toy",
            MethodId::Rs,
            1,
            Query::new(1, ScoringFunction::Cumulative, 0),
        );
        let good = saver.save_index(&req, &dir).unwrap();

        // A corrupt copy of the good snapshot: flip one payload byte so
        // the header parses but the payload digest fails.
        let mut bytes = std::fs::read(&good).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 0x01;
        std::fs::write(dir.join("corrupt.vpi"), &bytes).unwrap();
        // A snapshot whose graph was never registered here.
        let foreign = VomService::new();
        let g = Arc::new(graph_from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap());
        let b = OpinionMatrix::from_rows(vec![vec![0.2, 0.4, 0.6]]).unwrap();
        foreign
            .register(
                "elsewhere",
                Arc::new(Instance::shared(g, b, vec![0.5, 0.5, 0.5]).unwrap()),
            )
            .unwrap();
        let freq = ServiceRequest::new(
            "elsewhere",
            MethodId::Dm,
            1,
            Query::new(1, ScoringFunction::Cumulative, 0),
        );
        foreign.save_index(&freq, &dir).unwrap();

        let fresh = service();
        let summary = fresh.warm_from_dir(&dir).unwrap();
        assert_eq!(summary.loaded, 1, "only the good snapshot serves");
        assert_eq!(fresh.index_count(), 1);
        assert_eq!(summary.skipped.len(), 2);
        let corrupt = summary
            .skipped
            .iter()
            .find(|s| s.path.ends_with("corrupt.vpi"))
            .expect("corrupt file reported");
        assert!(matches!(
            corrupt.reason,
            SkipReason::Unreadable(PersistError::DigestMismatch { .. })
        ));
        let unmatched = summary
            .skipped
            .iter()
            .find(|s| !s.path.ends_with("corrupt.vpi"))
            .expect("foreign file reported");
        assert!(matches!(
            unmatched.reason,
            SkipReason::NoMatchingGraph { .. }
        ));
        // Reasons render readably for operator logs.
        assert!(corrupt.reason.to_string().contains("unreadable snapshot"));

        // The served index answers identically to a fresh build.
        let warmed = fresh.run(&req).unwrap();
        let rebuilt = saver.run(&req).unwrap();
        assert_eq!(warmed.seeds, rebuilt.seeds);
        assert_eq!(warmed.exact_score.to_bits(), rebuilt.exact_score.to_bits());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_from_dir_skips_a_version_3_snapshot_and_serves_the_rest() {
        let dir = std::env::temp_dir().join(format!(
            "vom-service-v3-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let saver = service();
        let rs = ServiceRequest::new(
            "toy",
            MethodId::Rs,
            1,
            Query::new(2, ScoringFunction::Plurality, 0),
        );
        let dm = ServiceRequest::new(
            "toy",
            MethodId::Dm,
            1,
            Query::new(1, ScoringFunction::Cumulative, 0),
        );
        let fresh = saver.run(&rs).unwrap();
        saver.save_index(&rs, &dir).unwrap();
        let old = saver.save_index(&dm, &dir).unwrap();
        // The format-version header word, patched back to version 3.
        let mut bytes = std::fs::read(&old).unwrap();
        bytes[8..16].copy_from_slice(&3u64.to_le_bytes());
        std::fs::write(&old, &bytes).unwrap();

        let warm = service();
        let summary = warm.warm_from_dir(&dir).unwrap();
        assert_eq!(summary.loaded, 1);
        assert_eq!(summary.skipped.len(), 1);
        assert_eq!(summary.skipped[0].path, old);
        assert!(matches!(
            summary.skipped[0].reason,
            SkipReason::Unreadable(PersistError::UnsupportedVersion { got: 3, want: 4 })
        ));
        // The RS snapshot serves without a build, as the index that
        // wrote it answered.
        let served = warm.run(&rs).unwrap();
        assert_eq!(warm.index_stats()[0].artifact_builds, 1);
        assert_eq!(served.seeds, fresh.seeds);
        assert_eq!(served.exact_score.to_bits(), fresh.exact_score.to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_index_fails_closed_on_wrong_graph_and_unknown_name() {
        let dir = std::env::temp_dir().join(format!(
            "vom-service-closed-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        let service = service();
        let req = ServiceRequest::new(
            "toy",
            MethodId::Rw,
            1,
            Query::new(1, ScoringFunction::Cumulative, 0),
        );
        let path = service.save_index(&req, &dir).unwrap();

        // Unknown graph name.
        assert!(matches!(
            service.load_index("nope", &path),
            Err(ServiceError::UnknownGraph { .. })
        ));

        // A different registered instance: the graph digest must reject
        // the snapshot.
        let g = Arc::new(graph_from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap());
        let b = OpinionMatrix::from_rows(vec![
            vec![0.10, 0.20, 0.30, 0.40],
            vec![0.40, 0.30, 0.20, 0.10],
        ])
        .unwrap();
        let other = Arc::new(Instance::shared(g, b, vec![0.1, 0.1, 0.1, 0.1]).unwrap());
        service.register("other", other).unwrap();
        assert!(matches!(
            service.load_index("other", &path),
            Err(ServiceError::Persist(PersistError::DigestMismatch {
                what: "graph",
                ..
            }))
        ));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_stats_reports_cached_indexes_with_their_keys() {
        let service = service();
        assert!(service.index_stats().is_empty());
        let req = ServiceRequest::new(
            "toy",
            MethodId::Rs,
            2,
            Query::new(3, ScoringFunction::Cumulative, 1),
        );
        service.run(&req).unwrap();
        let stats = service.index_stats();
        assert_eq!(stats.len(), 1);
        let s = &stats[0];
        assert_eq!(s.graph, "toy");
        assert_eq!(s.method, MethodId::Rs);
        assert_eq!(s.target, 1);
        assert_eq!(s.horizon, 2);
        assert_eq!(s.class, RuleClass::Cumulative);
        assert_eq!(s.budget, 4); // k = 3 bucketed up to 4
        assert!(s.heap_bytes > 0);
        assert_eq!(s.artifact_builds, 1);
    }

    #[test]
    fn budgeted_requests_degrade_to_prefixes() {
        let service = service();
        let full = ServiceRequest::new(
            "toy",
            MethodId::Rs,
            1,
            Query::new(3, ScoringFunction::Cumulative, 0),
        );
        let complete = service.run(&full).unwrap();
        assert_eq!(complete.seeds.len(), 3);

        // A generous budget completes bit-identically to no budget.
        let roomy = service.run(&full.clone().with_budget(u64::MAX)).unwrap();
        assert_eq!(roomy.seeds, complete.seeds);
        assert_eq!(roomy.exact_score.to_bits(), complete.exact_score.to_bits());

        // Every smaller budget completes or degrades to a typed error
        // carrying a prefix of the full selection.
        let mut saw_degraded = false;
        for ticks in 0..40 {
            let req = full.clone().with_budget(ticks);
            match service.run(&req) {
                Ok(res) => assert_eq!(res.seeds, complete.seeds),
                Err(ServiceError::Degraded {
                    seeds_prefix,
                    budget_spent,
                    budget_limit,
                }) => {
                    saw_degraded = true;
                    assert!(seeds_prefix.len() < complete.seeds.len());
                    assert!(complete.seeds.starts_with(&seeds_prefix));
                    assert!(budget_spent >= budget_limit);
                    assert_eq!(budget_limit, ticks);
                }
                Err(e) => panic!("budget {ticks}: {e}"),
            }
        }
        assert!(saw_degraded, "tiny budgets must degrade");

        // Batch slots behave identically.
        let batch = vec![full.clone(), full.clone().with_budget(0)];
        let outs = service.run_batch(&batch);
        assert_eq!(outs[0].as_ref().unwrap().seeds, complete.seeds);
        assert!(matches!(
            &outs[1],
            Err(ServiceError::Degraded { seeds_prefix, .. })
                if complete.seeds.starts_with(seeds_prefix)
        ));
    }

    #[test]
    fn a_panicking_query_is_confined_to_its_slot() {
        let service = service();
        let req = ServiceRequest::new(
            "toy",
            MethodId::Rs,
            1,
            Query::new(2, ScoringFunction::Cumulative, 0),
        );
        let batch = vec![req.clone(), req.clone(), req.clone()];
        let clean = service.run_batch(&batch);
        assert!(clean.iter().all(|r| r.is_ok()));

        service.set_fault_plan(Some(Arc::new(FaultPlan::new(7).with_query_panic(1))));
        let faulted = service.run_batch(&batch);
        assert!(matches!(
            faulted[1],
            Err(ServiceError::Panicked { ref context }) if context.contains("injected query fault")
        ));
        for i in [0, 2] {
            let (c, f) = (clean[i].as_ref().unwrap(), faulted[i].as_ref().unwrap());
            assert_eq!(c.seeds, f.seeds);
            assert_eq!(c.exact_score.to_bits(), f.exact_score.to_bits());
        }
        // Clearing the plan restores fault-free serving.
        service.set_fault_plan(None);
        let after = service.run_batch(&batch);
        assert!(after.iter().all(|r| r.is_ok()));

        // A single request is a one-slot batch: request 0 panics in
        // isolation, and fault-free serving afterwards is bit-identical.
        service.set_fault_plan(Some(Arc::new(FaultPlan::new(7).with_query_panic(0))));
        assert!(matches!(
            service.run(&req),
            Err(ServiceError::Panicked { ref context }) if context.contains("injected query fault")
        ));
        service.set_fault_plan(None);
        let solo = service.run(&req).unwrap();
        let c = clean[0].as_ref().unwrap();
        assert_eq!(solo.seeds, c.seeds);
        assert_eq!(solo.exact_score.to_bits(), c.exact_score.to_bits());
    }

    #[test]
    fn panicked_builds_are_quarantined_and_retried() {
        let service = service();
        service.set_fault_plan(Some(Arc::new(
            FaultPlan::new(11).with_build_panics("toy", 1),
        )));
        let req = ServiceRequest::new(
            "toy",
            MethodId::Rs,
            1,
            Query::new(1, ScoringFunction::Cumulative, 0),
        );
        assert!(matches!(
            service.run(&req),
            Err(ServiceError::Panicked { ref context }) if context.contains("injected build fault")
        ));
        // The poisoned cell is quarantined, not memoized…
        assert_eq!(service.index_count(), 0);
        // …so the next caller rebuilds and serves (the plan's single
        // panic is spent).
        let retried = service.run(&req).unwrap();
        let reference = self::tests::service().run(&req).unwrap();
        assert_eq!(retried.seeds, reference.seeds);
        assert_eq!(
            retried.exact_score.to_bits(),
            reference.exact_score.to_bits()
        );
    }

    #[test]
    fn memory_budget_denies_and_evicts_deterministically() {
        let cum = ServiceRequest::new(
            "toy",
            MethodId::Rs,
            1,
            Query::new(1, ScoringFunction::Cumulative, 0),
        );
        let plu = ServiceRequest::new(
            "toy",
            MethodId::Rs,
            1,
            Query::new(1, ScoringFunction::Plurality, 0),
        );

        // Measure real index sizes on an unbudgeted service.
        let sizer = service();
        sizer.run(&cum).unwrap();
        sizer.run(&plu).unwrap();
        let sizes: Vec<usize> = sizer.index_stats().iter().map(|s| s.heap_bytes).collect();
        let largest = sizes.iter().copied().max().unwrap();
        assert!(largest > 1);

        // A budget below any index denies admission and caches nothing.
        let tiny = VomService::new().with_memory_budget(1);
        tiny.register("toy", instance()).unwrap();
        assert!(matches!(
            tiny.run(&cum),
            Err(ServiceError::AdmissionDenied {
                budget_bytes: 1,
                ..
            })
        ));
        assert_eq!(tiny.index_count(), 0);

        // A budget fitting one index at a time evicts LRU on overflow
        // without ever changing results.
        let lean = VomService::new().with_memory_budget(largest);
        lean.register("toy", instance()).unwrap();
        let a = lean.run(&cum).unwrap();
        assert_eq!(lean.index_count(), 1);
        let b = lean.run(&plu).unwrap();
        assert_eq!(lean.index_count(), 1, "cold index evicted");
        let a2 = lean.run(&cum).unwrap();
        assert_eq!(a.seeds, a2.seeds);
        assert_eq!(a.exact_score.to_bits(), a2.exact_score.to_bits());
        let b2 = sizer.run(&plu).unwrap();
        assert_eq!(b.seeds, b2.seeds);

        // Loads pass the same admission as builds.
        let dir = std::env::temp_dir().join(format!(
            "vom-service-budget-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let cum_file = sizer.save_index(&cum, &dir).unwrap();
        sizer.save_index(&plu, &dir).unwrap();
        assert!(matches!(
            tiny.load_index("toy", &cum_file),
            Err(ServiceError::AdmissionDenied {
                budget_bytes: 1,
                ..
            })
        ));
        assert_eq!(tiny.index_count(), 0);
        // A warm restart reports each denied load and caches nothing.
        let summary = tiny.warm_from_dir(&dir).unwrap();
        assert_eq!(summary.loaded, 0);
        assert_eq!(summary.skipped.len(), 2);
        for skipped in &summary.skipped {
            assert!(matches!(
                skipped.reason,
                SkipReason::LoadFailed(ServiceError::AdmissionDenied { .. })
            ));
        }
        assert_eq!(tiny.index_count(), 0);
        // One index at a time: the rank-class file loads last (files
        // load in name order) and evicts the cumulative one.
        let lean = VomService::new().with_memory_budget(largest);
        lean.register("toy", instance()).unwrap();
        assert_eq!(lean.warm_from_dir(&dir).unwrap().loaded, 2);
        let kept: Vec<RuleClass> = lean.index_stats().iter().map(|s| s.class).collect();
        assert_eq!(kept, vec![RuleClass::Rank]);
        assert_eq!(lean.run(&plu).unwrap().seeds, b.seeds);
        assert_eq!(lean.index_stats()[0].artifact_builds, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn priority_orders_admission_within_a_batch() {
        let cum = ServiceRequest::new(
            "toy",
            MethodId::Rs,
            1,
            Query::new(1, ScoringFunction::Cumulative, 0),
        );
        let plu = ServiceRequest::new(
            "toy",
            MethodId::Rs,
            1,
            Query::new(1, ScoringFunction::Plurality, 0),
        );
        let sizer = service();
        sizer.run(&cum).unwrap();
        sizer.run(&plu).unwrap();
        let largest = sizer
            .index_stats()
            .iter()
            .map(|s| s.heap_bytes)
            .max()
            .unwrap();

        // One-index budget: the batch's admission order decides which
        // index survives. High priority resolves first, so the normal
        // request's index is admitted last and is the one retained.
        let svc = VomService::new().with_memory_budget(largest);
        svc.register("toy", instance()).unwrap();
        let batch = vec![cum.clone(), plu.clone().with_priority(Priority::High)];
        let outs = svc.run_batch(&batch);
        assert!(
            outs.iter().all(|r| r.is_ok()),
            "results are in request order"
        );
        let kept: Vec<RuleClass> = svc.index_stats().iter().map(|s| s.class).collect();
        assert_eq!(kept, vec![RuleClass::Cumulative]);

        // Flipping the priorities flips the retained index.
        let svc = VomService::new().with_memory_budget(largest);
        svc.register("toy", instance()).unwrap();
        let batch = vec![cum.clone().with_priority(Priority::High), plu.clone()];
        let outs = svc.run_batch(&batch);
        assert!(outs.iter().all(|r| r.is_ok()));
        let kept: Vec<RuleClass> = svc.index_stats().iter().map(|s| s.class).collect();
        assert_eq!(kept, vec![RuleClass::Rank]);
    }

    #[test]
    fn warm_retries_transient_failures_with_deterministic_backoff() {
        let dir = std::env::temp_dir().join(format!(
            "vom-service-retry-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let saver = service();
        let req = ServiceRequest::new(
            "toy",
            MethodId::Rs,
            1,
            Query::new(1, ScoringFunction::Cumulative, 0),
        );
        let path = saver.save_index(&req, &dir).unwrap();
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let policy = RetryPolicy {
            attempts: 3,
            base_backoff_ms: 10,
        };

        // Two transient failures, three attempts: recovered, with the
        // doubling backoff schedule recorded exactly.
        let svc = service();
        svc.set_fault_plan(Some(Arc::new(
            FaultPlan::new(3).with_transient_unreadable(&file, 2),
        )));
        let summary = svc
            .warm_from_dir_with(&dir, policy, &NoopScheduler)
            .unwrap();
        assert_eq!(summary.loaded, 1);
        assert!(summary.is_clean());
        assert_eq!(summary.retries.len(), 1);
        assert_eq!(summary.retries[0].backoff_ms, vec![10, 20]);
        assert!(summary.retries[0].recovered);

        // More failures than attempts: skipped as Unreadable, with the
        // exhausted schedule recorded.
        let svc = service();
        svc.set_fault_plan(Some(Arc::new(
            FaultPlan::new(3).with_transient_unreadable(&file, 99),
        )));
        let summary = svc
            .warm_from_dir_with(&dir, policy, &NoopScheduler)
            .unwrap();
        assert_eq!(summary.loaded, 0);
        assert_eq!(summary.skipped.len(), 1);
        assert!(matches!(
            summary.skipped[0].reason,
            SkipReason::Unreadable(PersistError::Io { .. })
        ));
        assert_eq!(summary.retries[0].backoff_ms, vec![10, 20]);
        assert!(!summary.retries[0].recovered);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prepared_budget_buckets_are_query_only() {
        assert_eq!(prepared_budget(1, 100), 1);
        assert_eq!(prepared_budget(3, 100), 4);
        assert_eq!(prepared_budget(4, 100), 4);
        assert_eq!(prepared_budget(90, 100), 100); // capped at n
        assert_eq!(prepared_budget(7, 7), 7);
    }
}
