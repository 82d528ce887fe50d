//! The unified sparse diffusion solver behind every exact FJ evaluation.
//!
//! Every exact opinion computation — fixed-horizon, convergence-style,
//! metered or not — goes through one API, [`Solver::solve`], built on
//! three pieces:
//!
//! * [`DiffusionSystem`] — the candidate's influence system in a
//!   solver-owned CSR layout (flat in-edge arrays plus the out-adjacency
//!   the warm frontier walks), built **once per candidate** and shared
//!   via `Arc` by every session and worker;
//! * cold solves with **exact fixed-point early-exit**: iteration stops
//!   as soon as a step reproduces its input bit for bit (every later row
//!   is provably identical) or, when a tolerance is supplied, as soon as
//!   the residual `max_v |b_v^{(s)} − b_v^{(s−1)}|` drops below it;
//! * **warm-start incremental solves**: greedy seed selection evaluates
//!   `S ∪ {v}` for thousands of trial nodes `v` against one committed
//!   set `S`. A cold solve of `S` recorded as a [`Baseline`] trajectory
//!   turns each trial into frontier propagation — only nodes whose
//!   opinion actually moves (a worklist over out-neighbors of moved
//!   nodes) are recomputed, and every untouched node reuses the baseline
//!   value, which is *bit-identical* to the full pass (see below).
//!
//! # Why warm-start is exact, not approximate
//!
//! Let `B^{(s)}` be the baseline rows for seed set `S` and `B'^{(s)}` the
//! rows for `S ∪ E`. At step 0 they differ exactly on the extra seeds `E`
//! (pinned to 1). Inductively, a node `u ∉ S ∪ E` satisfies
//! `b'_u^{(s+1)} = (1−d_u)·Σ_j w_ju·b'_j^{(s)} + d_u·b⁰_u`: if no
//! in-neighbor of `u` changed at step `s`, every operand is bitwise the
//! baseline operand, so the IEEE result is bitwise the baseline result.
//! The solver therefore only recomputes out-neighbors of changed nodes —
//! **with the full in-neighbor sum, in the same CSR order as the cold
//! step** — and detects change by bit comparison against the baseline
//! row. Nothing is truncated and no tolerance is involved, which is why
//! selection digests of warm-start greedy runs match the cold runs byte
//! for byte. A nonzero [`SolveOptions::tolerance`] requests the
//! *convergence* semantics instead; those solves always run cold.
//!
//! [`FjEngine::trajectory`] keeps the naive dense iteration over bare
//! slices; the equivalence tests use it as the independent reference.

use crate::budget::CostMeter;
use crate::error::validate_unit_range;
use crate::Result;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use vom_graph::{Node, SocialGraph};
use vom_persist::FlatBuf;

#[cfg(doc)]
use crate::fj::FjEngine;

// ---------------------------------------------------------------------
// Process-wide solver counters and the warm-start toggle
// ---------------------------------------------------------------------

static COLD_SOLVES: AtomicU64 = AtomicU64::new(0);
static WARM_SOLVES: AtomicU64 = AtomicU64::new(0);
static COLD_STEPS: AtomicU64 = AtomicU64::new(0);
static WARM_FRONTIER_NODES: AtomicU64 = AtomicU64::new(0);
static BASELINE_IDS: AtomicU64 = AtomicU64::new(1);

static WARM_DISABLED: AtomicBool = AtomicBool::new(false);
static WARM_ENV: OnceLock<()> = OnceLock::new();

/// Warm-solve saturation guard: once the changed set at some state
/// reaches `n / DENSE_FALLBACK_DIVISOR`, the remaining steps run dense.
/// At that density the frontier bookkeeping (out-neighbor candidate
/// gathering plus the per-in-neighbor changed/baseline branch) costs
/// more than the straight CSR sweep it avoids.
const DENSE_FALLBACK_DIVISOR: usize = 8;

/// The fallback never triggers below this size: tiny graphs saturate in
/// a step either way, and keeping the frontier path live there keeps it
/// covered by the small-graph property tests.
const DENSE_FALLBACK_MIN_N: usize = 64;

fn warm_env_init() {
    WARM_ENV.get_or_init(|| {
        // audit:allow(d-env-read, "documented opt-out knob; toggles warm-start reuse, digests asserted identical either way")
        if let Ok(v) = std::env::var("VOM_WARM_START") {
            let off = matches!(v.trim(), "0" | "false" | "off" | "no");
            WARM_DISABLED.store(off, Ordering::Relaxed);
        }
    });
}

/// Whether [`Solver::solve`] may take the warm-start path. Defaults to
/// true; `VOM_WARM_START=0` in the environment or
/// [`set_warm_start_enabled`]`(false)` force every solve cold (results
/// are bit-identical either way — the switch exists so tests and benches
/// can pin that equivalence).
pub fn warm_start_enabled() -> bool {
    warm_env_init();
    !WARM_DISABLED.load(Ordering::Relaxed)
}

/// Overrides the warm-start toggle process-wide (takes precedence over
/// the `VOM_WARM_START` environment variable).
pub fn set_warm_start_enabled(enabled: bool) {
    warm_env_init();
    WARM_DISABLED.store(!enabled, Ordering::Relaxed);
}

/// Process-wide counters of solver activity, for the bench trajectory
/// and build diagnostics. Monotone; readers take [`SolverCounters::snapshot`]
/// deltas around the section they want attributed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverCounters {
    /// Full fixed-horizon solves (including baseline recordings).
    pub cold_solves: u64,
    /// Warm-start frontier solves.
    pub warm_solves: u64,
    /// Dense iteration sweeps executed — by cold solves (early-exit
    /// shortens) and by warm solves whose frontier saturated and fell
    /// back to dense stepping.
    pub cold_steps: u64,
    /// Total changed-node recomputations across warm solves — the
    /// `O(frontier)` work that replaced `O(t·m)` per evaluation
    /// (dense-fallback sweeps are counted in `cold_steps`, not here).
    pub warm_frontier_nodes: u64,
}

impl SolverCounters {
    /// Current counter values.
    pub fn snapshot() -> SolverCounters {
        SolverCounters {
            cold_solves: COLD_SOLVES.load(Ordering::Relaxed),
            warm_solves: WARM_SOLVES.load(Ordering::Relaxed),
            cold_steps: COLD_STEPS.load(Ordering::Relaxed),
            warm_frontier_nodes: WARM_FRONTIER_NODES.load(Ordering::Relaxed),
        }
    }

    /// Counter increments since an earlier snapshot.
    pub fn since(self, earlier: SolverCounters) -> SolverCounters {
        SolverCounters {
            cold_solves: self.cold_solves.saturating_sub(earlier.cold_solves),
            warm_solves: self.warm_solves.saturating_sub(earlier.warm_solves),
            cold_steps: self.cold_steps.saturating_sub(earlier.cold_steps),
            warm_frontier_nodes: self
                .warm_frontier_nodes
                .saturating_sub(earlier.warm_frontier_nodes),
        }
    }

    /// Accumulates another delta into this one.
    pub fn add(&mut self, other: SolverCounters) {
        self.cold_solves += other.cold_solves;
        self.warm_solves += other.warm_solves;
        self.cold_steps += other.cold_steps;
        self.warm_frontier_nodes += other.warm_frontier_nodes;
    }
}

// ---------------------------------------------------------------------
// DiffusionSystem
// ---------------------------------------------------------------------

/// One candidate's influence system in the solver's own cache-friendly
/// layout: flat in-CSR arrays (`in_offsets`/`in_sources`/`in_weights`)
/// driving the FJ update in exactly the [`SocialGraph::in_entries`]
/// order, the out-adjacency the warm frontier expands along, and the
/// per-node `b⁰`/`d` vectors. Built once per candidate (see
/// [`crate::CandidateData::system`]) and shared by `Arc`; immutable and
/// `Send + Sync`.
/// The flat arrays live in [`FlatBuf`]s so a snapshot load (`vom-persist`)
/// can borrow them zero-copy from the mapped file region; `has_in` stays a
/// `Vec<bool>` (persisted as bytes — casting raw bytes to `bool` is UB)
/// and the folded constants are always recomputed, bitwise identically,
/// from `b0`/`d`.
#[derive(Debug)]
pub struct DiffusionSystem {
    n: usize,
    in_offsets: FlatBuf<usize>,
    in_sources: FlatBuf<Node>,
    in_weights: FlatBuf<f64>,
    out_offsets: FlatBuf<usize>,
    out_targets: FlatBuf<Node>,
    has_in: Vec<bool>,
    b0: FlatBuf<f64>,
    d: FlatBuf<f64>,
    // Per-node constants of the update rule, folded once at build time
    // (bitwise the same values the per-step expressions would produce):
    // `omd[v] = 1.0 - d[v]`, `db0[v] = d[v] * b0[v]`.
    omd: Vec<f64>,
    db0: Vec<f64>,
}

impl DiffusionSystem {
    /// Copies the graph's adjacency and validates `b0`/`d` exactly like
    /// [`FjEngine::new`].
    pub fn new(graph: &SocialGraph, b0: &[f64], d: &[f64]) -> Result<Self> {
        let n = graph.num_nodes();
        if b0.len() != n {
            return Err(crate::DiffusionError::LengthMismatch {
                what: "initial opinions",
                got: b0.len(),
                expected: n,
            });
        }
        if d.len() != n {
            return Err(crate::DiffusionError::LengthMismatch {
                what: "stubbornness",
                got: d.len(),
                expected: n,
            });
        }
        validate_unit_range("initial opinion", b0)?;
        validate_unit_range("stubbornness", d)?;
        let m = graph.num_edges();
        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut in_sources = Vec::with_capacity(m);
        let mut in_weights = Vec::with_capacity(m);
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_targets = Vec::with_capacity(m);
        let mut has_in = Vec::with_capacity(n);
        in_offsets.push(0);
        out_offsets.push(0);
        for v in 0..n as Node {
            for (j, w) in graph.in_entries(v) {
                in_sources.push(j);
                in_weights.push(w);
            }
            in_offsets.push(in_sources.len());
            out_targets.extend_from_slice(graph.out_neighbors(v));
            out_offsets.push(out_targets.len());
            has_in.push(graph.has_in_edges(v));
        }
        let omd: Vec<f64> = d.iter().map(|&dv| 1.0 - dv).collect();
        let db0: Vec<f64> = d.iter().zip(b0).map(|(&dv, &bv)| dv * bv).collect();
        Ok(DiffusionSystem {
            n,
            in_offsets: in_offsets.into(),
            in_sources: in_sources.into(),
            in_weights: in_weights.into(),
            out_offsets: out_offsets.into(),
            out_targets: out_targets.into(),
            has_in,
            b0: b0.to_vec().into(),
            d: d.to_vec().into(),
            omd,
            db0,
        })
    }

    /// Reassembles a system from its persisted arrays (snapshot load).
    /// The CSR shapes and every node id are validated up front so a
    /// corrupt-but-digest-valid snapshot fails closed here; the folded
    /// per-node constants are recomputed from `b0`/`d` with the same
    /// expressions [`DiffusionSystem::new`] folds, which is bitwise
    /// identical to having persisted them.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        n: usize,
        in_offsets: FlatBuf<usize>,
        in_sources: FlatBuf<Node>,
        in_weights: FlatBuf<f64>,
        out_offsets: FlatBuf<usize>,
        out_targets: FlatBuf<Node>,
        has_in: Vec<bool>,
        b0: FlatBuf<f64>,
        d: FlatBuf<f64>,
    ) -> std::result::Result<Self, &'static str> {
        let csr_ok = |off: &[usize], len: usize| {
            off.len() == n + 1
                && off.first() == Some(&0)
                && *off.last().unwrap() == len
                && off.windows(2).all(|w| w[0] <= w[1])
        };
        if !csr_ok(&in_offsets, in_sources.len()) || !csr_ok(&out_offsets, out_targets.len()) {
            return Err("adjacency offsets must span their arrays");
        }
        if in_weights.len() != in_sources.len() {
            return Err("in-weights must parallel in-sources");
        }
        if in_sources
            .iter()
            .chain(out_targets.iter())
            .any(|&v| (v as usize) >= n)
        {
            return Err("adjacency node id out of range");
        }
        if b0.len() != n || d.len() != n || has_in.len() != n {
            return Err("per-node arrays must have length n");
        }
        if (0..n).any(|v| has_in[v] != (in_offsets[v] < in_offsets[v + 1])) {
            return Err("has_in must mirror in-edge emptiness");
        }
        let omd: Vec<f64> = d.iter().map(|&dv| 1.0 - dv).collect();
        let db0: Vec<f64> = d.iter().zip(b0.iter()).map(|(&dv, &bv)| dv * bv).collect();
        Ok(DiffusionSystem {
            n,
            in_offsets,
            in_sources,
            in_weights,
            out_offsets,
            out_targets,
            has_in,
            b0,
            d,
            omd,
            db0,
        })
    }

    /// The persisted arrays `(in_offsets, in_sources, in_weights,
    /// out_offsets, out_targets, has_in)` — the exact buffers a snapshot
    /// writer serializes verbatim (plus [`DiffusionSystem::initial`] and
    /// [`DiffusionSystem::stubbornness`]).
    #[allow(clippy::type_complexity)]
    pub fn parts(&self) -> (&[usize], &[Node], &[f64], &[usize], &[Node], &[bool]) {
        (
            &self.in_offsets,
            &self.in_sources,
            &self.in_weights,
            &self.out_offsets,
            &self.out_targets,
            &self.has_in,
        )
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of directed edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.in_sources.len()
    }

    /// Initial opinions `B⁰` (without seeds applied).
    #[inline]
    pub fn initial(&self) -> &[f64] {
        &self.b0
    }

    /// Stubbornness diagonal `D` (without seeds applied).
    #[inline]
    pub fn stubbornness(&self) -> &[f64] {
        &self.d
    }

    /// `(source j, w_jv)` pairs of `v`, in [`SocialGraph::in_entries`]
    /// order.
    #[inline]
    fn in_entries(&self, v: usize) -> impl Iterator<Item = (Node, f64)> + '_ {
        let (s, e) = (self.in_offsets[v], self.in_offsets[v + 1]);
        self.in_sources[s..e]
            .iter()
            .copied()
            .zip(self.in_weights[s..e].iter().copied())
    }

    /// Out-neighbors of `u` — the nodes whose next-step value reads
    /// `u`'s current value.
    #[inline]
    fn out_neighbors(&self, u: usize) -> &[Node] {
        &self.out_targets[self.out_offsets[u]..self.out_offsets[u + 1]]
    }

    /// Exact owned heap footprint in bytes: `FlatBuf` capacities (zero
    /// for zero-copy snapshot borrows) plus the `Vec` capacities of the
    /// bitmap and the folded constants, so slack is never hidden.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.in_offsets.heap_bytes()
            + self.in_sources.heap_bytes()
            + self.in_weights.heap_bytes()
            + self.out_offsets.heap_bytes()
            + self.out_targets.heap_bytes()
            + self.b0.heap_bytes()
            + self.d.heap_bytes()
            + (self.omd.capacity() + self.db0.capacity()) * size_of::<f64>()
            + self.has_in.capacity()
    }

    /// The FJ update of one node from the current row:
    /// `(1−d_v)·Σ w·cur + d_v·b⁰_v`, in-less nodes hold their value.
    /// Seeds are NOT handled here — callers pin them. `start..end` is
    /// `v`'s in-entry range (passed in so step loops stream the
    /// offsets array once).
    #[inline(always)]
    fn update(&self, v: usize, start: usize, end: usize, cur: &[f64]) -> f64 {
        if start == end {
            // No in-edges: the node holds its value (`has_in` mirrors
            // exactly this emptiness).
            cur[v]
        } else {
            let mut acc = 0.0;
            for (j, w) in self.in_sources[start..end]
                .iter()
                .zip(&self.in_weights[start..end])
            {
                acc += w * cur[*j as usize];
            }
            self.omd[v] * acc + self.db0[v]
        }
    }

    /// One exact FJ step, bit-identical to [`FjEngine`]'s: seeds pinned
    /// at 1, in-less nodes hold their value, everyone else averages
    /// in-neighbors in CSR order. Returns `(max |next−cur|, next ≡ cur
    /// bitwise)` so the caller gets residual and fixed-point detection
    /// for free. Used by tolerance-mode solves; exact solves take the
    /// leaner [`DiffusionSystem::step_exact`].
    fn step(&self, is_seed: &[bool], cur: &[f64], next: &mut [f64]) -> (f64, bool) {
        let mut residual = 0.0f64;
        let mut bits_equal = true;
        let mut start = 0usize;
        for v in 0..self.n {
            let end = self.in_offsets[v + 1];
            let out = if is_seed[v] {
                1.0
            } else {
                self.update(v, start, end, cur)
            };
            start = end;
            next[v] = out;
            if out.to_bits() != cur[v].to_bits() {
                bits_equal = false;
                residual = residual.max((out - cur[v]).abs());
            }
        }
        (residual, bits_equal)
    }

    /// [`DiffusionSystem::step`] without residual tracking: the same
    /// update values bit for bit, but only the fixed-point flag is
    /// accumulated (branchlessly), and the seed pins come from a
    /// **sorted, deduplicated** node list walked with a cursor — a
    /// register compare per node instead of a byte load from a seed
    /// mask. This is the hot kernel of exact solves, where the residual
    /// is never read.
    fn step_exact(&self, seeds_sorted: &[usize], cur: &[f64], next: &mut [f64]) -> bool {
        let mut diff_bits = 0u64;
        let mut start = 0usize;
        let mut si = 0usize;
        let mut next_seed = seeds_sorted.first().copied().unwrap_or(usize::MAX);
        for v in 0..self.n {
            let end = self.in_offsets[v + 1];
            let out = if v == next_seed {
                si += 1;
                next_seed = seeds_sorted.get(si).copied().unwrap_or(usize::MAX);
                1.0
            } else {
                self.update(v, start, end, cur)
            };
            start = end;
            next[v] = out;
            diff_bits |= out.to_bits() ^ cur[v].to_bits();
        }
        diff_bits == 0
    }
}

// ---------------------------------------------------------------------
// SolveOptions / SolveReport / Baseline
// ---------------------------------------------------------------------

/// How one [`Solver::solve`] call should run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Step budget `t` (the paper's finite horizon).
    pub horizon: usize,
    /// Residual threshold for convergence-style solves: stop once
    /// `max_v |b_v^{(s)} − b_v^{(s−1)}| < tolerance`. `0.0` (the
    /// default) keeps the exact fixed-horizon semantics, where only a
    /// bitwise fixed point may end the iteration early.
    pub tolerance: f64,
    /// Attempt the warm-start path: if the installed [`Baseline`] has
    /// the same horizon and its seeds are a prefix of this call's
    /// seeds, only the changed frontier is propagated. Falls back to a
    /// cold solve otherwise (and whenever [`warm_start_enabled`] is
    /// off or a tolerance is set).
    pub warm: bool,
    /// Record the cold trajectory and install it as the solver's
    /// [`Baseline`] for subsequent warm solves. Forces a cold solve.
    pub record_baseline: bool,
}

impl SolveOptions {
    /// Exact fixed-horizon semantics: `B^(t)[S]` after exactly
    /// `horizon` steps (a bitwise fixed point may end the loop early).
    pub fn exact(horizon: usize) -> SolveOptions {
        SolveOptions {
            horizon,
            tolerance: 0.0,
            warm: false,
            record_baseline: false,
        }
    }

    /// Enables the warm-start path.
    pub fn warm(mut self) -> SolveOptions {
        self.warm = true;
        self
    }

    /// Records the trajectory as the solver's baseline.
    pub fn recording(mut self) -> SolveOptions {
        self.record_baseline = true;
        self
    }

    /// Sets the convergence tolerance.
    pub fn with_tolerance(mut self, eps: f64) -> SolveOptions {
        self.tolerance = eps;
        self
    }
}

/// What one [`Solver::solve`] call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveReport {
    /// Iteration steps actually executed (`≤ horizon`; early-exit and
    /// empty warm frontiers shorten).
    pub steps: usize,
    /// Final residual: for tolerance-mode solves
    /// `max_v |b_v^{(s)} − b_v^{(s−1)}|` of the last executed step; for
    /// warm solves the largest final deviation from the baseline row.
    /// Exact cold solves (`tolerance == 0`) skip residual tracking in
    /// the hot kernel and report `0.0`.
    pub residual: f64,
    /// Whether the solve ended before exhausting the horizon (bitwise
    /// fixed point, tolerance reached, or a warm frontier that died
    /// out).
    pub converged: bool,
    /// Whether the warm-start path was taken.
    pub warm: bool,
    /// Node updates performed: changed-node recomputations on the warm
    /// path, `steps · n` on the cold path.
    pub frontier: usize,
}

/// A recorded cold trajectory for a committed seed set — the fixed
/// point warm-start solves perturb. Rows are stored up to the step the
/// cold solve actually executed; at a bitwise fixed point every later
/// row equals the last stored one, so the accessor clamps.
#[derive(Debug)]
pub struct Baseline {
    id: u64,
    seeds: Vec<Node>,
    is_seed: Vec<bool>,
    horizon: usize,
    rows: Vec<Vec<f64>>,
}

impl Baseline {
    /// The committed seed set this trajectory was recorded with.
    #[inline]
    pub fn seeds(&self) -> &[Node] {
        &self.seeds
    }

    /// The horizon the trajectory was recorded for.
    #[inline]
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Row `B^{(s)}`, clamped past a fixed point.
    #[inline]
    fn row(&self, s: usize) -> &[f64] {
        &self.rows[s.min(self.rows.len() - 1)]
    }

    /// The final row `B^{(horizon)}`.
    #[inline]
    pub fn final_row(&self) -> &[f64] {
        self.rows.last().expect("baseline has at least row 0")
    }

    /// Exact owned heap footprint in bytes (`Vec` capacities throughout,
    /// including each recorded row's own buffer).
    pub fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<Vec<f64>>()
            + self
                .rows
                .iter()
                .map(|r| r.capacity() * std::mem::size_of::<f64>())
                .sum::<usize>()
            + self.is_seed.capacity()
            + self.seeds.capacity() * std::mem::size_of::<Node>()
    }
}

// ---------------------------------------------------------------------
// Solver
// ---------------------------------------------------------------------

/// A reusable solve context over one shared [`DiffusionSystem`]: all
/// iteration/frontier scratch is owned here, so repeated solves (the
/// greedy `(k, trial)` loop) allocate nothing. Not `Sync` by design —
/// one solver per worker; pool them with [`SolverPool`].
#[derive(Debug)]
pub struct Solver {
    system: Arc<DiffusionSystem>,
    baseline: Option<Arc<Baseline>>,
    // Cold-solve scratch: the two iteration rows and the seed bitmap.
    cur: Vec<f64>,
    next: Vec<f64>,
    is_seed: Vec<bool>,
    seed_marks: Vec<Node>,
    // Sorted, deduplicated seed list handed to the exact kernel (a
    // cursor walk beats a per-node mask load).
    seeds_sorted: Vec<usize>,
    // Warm-solve scratch, sized lazily on first warm solve.
    chg: Vec<bool>,
    val: Vec<f64>,
    chg_next: Vec<bool>,
    val_next: Vec<f64>,
    frontier: Vec<Node>,
    frontier_next: Vec<Node>,
    cand: Vec<Node>,
    cand_seen: Vec<bool>,
    extra: Vec<bool>,
    extra_marks: Vec<Node>,
    // Materialized warm output row: baseline final row + `dirty`
    // overrides, undone lazily before the next warm solve.
    row: Vec<f64>,
    dirty: Vec<Node>,
    row_baseline: u64,
    last_was_warm: bool,
}

impl Solver {
    /// A solver over `system` with cold scratch allocated eagerly (warm
    /// scratch follows on first use).
    pub fn new(system: Arc<DiffusionSystem>) -> Solver {
        let n = system.num_nodes();
        Solver {
            system,
            baseline: None,
            cur: vec![0.0; n],
            next: vec![0.0; n],
            is_seed: vec![false; n],
            seed_marks: Vec::new(),
            seeds_sorted: Vec::new(),
            chg: Vec::new(),
            val: Vec::new(),
            chg_next: Vec::new(),
            val_next: Vec::new(),
            frontier: Vec::new(),
            frontier_next: Vec::new(),
            cand: Vec::new(),
            cand_seen: Vec::new(),
            extra: Vec::new(),
            extra_marks: Vec::new(),
            row: Vec::new(),
            dirty: Vec::new(),
            row_baseline: 0,
            last_was_warm: false,
        }
    }

    /// The shared system this solver iterates.
    #[inline]
    pub fn system(&self) -> &Arc<DiffusionSystem> {
        &self.system
    }

    /// The installed warm-start baseline, if any.
    pub fn baseline(&self) -> Option<&Arc<Baseline>> {
        self.baseline.as_ref()
    }

    /// Installs a baseline recorded by another solver (pooled workers
    /// share one committed-set trajectory via `Arc`).
    pub fn set_baseline(&mut self, baseline: Arc<Baseline>) {
        self.baseline = Some(baseline);
    }

    /// Drops the installed baseline.
    pub fn clear_baseline(&mut self) {
        self.baseline = None;
    }

    /// The one solve entry point. `seeds` are pinned at opinion 1,
    /// fully stubborn, on top of the system's `b⁰`/`d` (the caller
    /// includes any fixed seeds). The resulting opinions are read with
    /// [`Solver::opinions`]; the report says how the solve ran.
    ///
    /// Warm-start is taken when all of: `opts.warm`, warm start is
    /// enabled process-wide, `opts.tolerance == 0`, no baseline
    /// recording was requested, and the installed baseline matches
    /// (same horizon, `baseline.seeds()` a prefix of `seeds`). The
    /// result is bit-identical to the cold solve in every case.
    ///
    /// A `meter` is charged from inside the iteration loop: one tick per
    /// executed step (cold or dense-fallback) and one tick per warm
    /// frontier state. The solve itself always runs to completion —
    /// truncating mid-solve would change the computed opinions and
    /// break the warm-start/bitwise exactness contract — so metered
    /// callers check [`CostMeter::exhausted`] *between* solves, at their
    /// own sequential checkpoints, and stop issuing further work there.
    pub fn solve(
        &mut self,
        seeds: &[Node],
        opts: &SolveOptions,
        meter: Option<&CostMeter>,
    ) -> SolveReport {
        if opts.warm && !opts.record_baseline && opts.tolerance == 0.0 && warm_start_enabled() {
            if let Some(base) = &self.baseline {
                if base.horizon == opts.horizon
                    && seeds.len() >= base.seeds.len()
                    && seeds[..base.seeds.len()] == base.seeds[..]
                {
                    let base = Arc::clone(base);
                    return self.warm_solve(&base, &seeds[base.seeds.len()..], meter);
                }
            }
        }
        self.cold_solve(seeds, opts, meter)
    }

    /// The opinions computed by the last [`Solver::solve`] call, as a
    /// full `n`-row (warm solves materialize baseline + frontier
    /// overrides, so downstream sums see the same IEEE evaluation order
    /// as ever).
    #[inline]
    pub fn opinions(&self) -> &[f64] {
        if self.last_was_warm {
            &self.row
        } else {
            &self.cur
        }
    }

    fn cold_solve(
        &mut self,
        seeds: &[Node],
        opts: &SolveOptions,
        meter: Option<&CostMeter>,
    ) -> SolveReport {
        let system = Arc::clone(&self.system);
        let n = system.num_nodes();
        for &s in seeds {
            if !self.is_seed[s as usize] {
                self.is_seed[s as usize] = true;
                self.seed_marks.push(s);
            }
        }
        self.cur.copy_from_slice(system.initial());
        for &s in seeds {
            self.cur[s as usize] = 1.0;
        }
        self.seeds_sorted.clear();
        self.seeds_sorted
            .extend(self.seed_marks.iter().map(|&s| s as usize));
        self.seeds_sorted.sort_unstable();
        let mut rows: Vec<Vec<f64>> = Vec::new();
        if opts.record_baseline {
            rows.reserve(opts.horizon + 1);
            rows.push(self.cur.clone());
        }
        let mut steps = 0usize;
        let mut residual = 0.0f64;
        let mut converged = false;
        let track_residual = opts.tolerance > 0.0;
        for _ in 0..opts.horizon {
            let bits_equal = if track_residual {
                let (res, eq) = system.step(&self.is_seed, &self.cur, &mut self.next);
                residual = res;
                eq
            } else {
                system.step_exact(&self.seeds_sorted, &self.cur, &mut self.next)
            };
            std::mem::swap(&mut self.cur, &mut self.next);
            steps += 1;
            if let Some(m) = meter {
                m.charge(1);
            }
            if opts.record_baseline {
                rows.push(self.cur.clone());
            }
            if bits_equal || (track_residual && residual < opts.tolerance) {
                converged = true;
                break;
            }
        }
        if opts.record_baseline {
            self.baseline = Some(Arc::new(Baseline {
                id: BASELINE_IDS.fetch_add(1, Ordering::Relaxed),
                seeds: seeds.to_vec(),
                is_seed: self.is_seed.clone(),
                horizon: opts.horizon,
                rows,
            }));
        }
        for s in self.seed_marks.drain(..) {
            self.is_seed[s as usize] = false;
        }
        self.last_was_warm = false;
        COLD_SOLVES.fetch_add(1, Ordering::Relaxed);
        COLD_STEPS.fetch_add(steps as u64, Ordering::Relaxed);
        SolveReport {
            steps,
            residual,
            converged,
            warm: false,
            frontier: steps * n,
        }
    }

    fn ensure_warm_scratch(&mut self) {
        let n = self.system.num_nodes();
        if self.chg.len() < n {
            self.chg.resize(n, false);
            self.val.resize(n, 0.0);
            self.chg_next.resize(n, false);
            self.val_next.resize(n, 0.0);
            self.cand_seen.resize(n, false);
            self.extra.resize(n, false);
        }
    }

    /// Frontier propagation of `extras` on top of `base` (whose seeds
    /// are already pinned in every baseline row). See the module docs
    /// for the exactness argument.
    ///
    /// When the changed set saturates — reaches `n /`
    /// [`DENSE_FALLBACK_DIVISOR`] at any state — the remaining steps run
    /// as plain dense sweeps over the materialized true state instead:
    /// per-candidate gathering and the per-neighbor changed/baseline
    /// branch cost more than a dense step well before the frontier
    /// covers the graph, and on small-world graphs one extra seed can
    /// reach most nodes within a few steps. The fallback is bit-identical
    /// too: the materialized state *is* the true state `s`, and a dense
    /// step computes exactly the sums the frontier recompute would.
    fn warm_solve(
        &mut self,
        base: &Arc<Baseline>,
        extras: &[Node],
        meter: Option<&CostMeter>,
    ) -> SolveReport {
        self.ensure_warm_scratch();
        let system = Arc::clone(&self.system);
        let n = system.num_nodes();
        let t = base.horizon;

        // Load (or lazily restore) the baseline's final row into the
        // materialized output row.
        if self.row_baseline != base.id {
            self.row.clear();
            self.row.extend_from_slice(base.final_row());
            self.dirty.clear();
            self.row_baseline = base.id;
        } else {
            let final_row = base.final_row();
            for u in self.dirty.drain(..) {
                self.row[u as usize] = final_row[u as usize];
            }
        }

        // Deduplicate the extra seeds; extras already committed in the
        // baseline are no-ops (pinned on both sides).
        for &v in extras {
            let vi = v as usize;
            if !self.extra[vi] && !base.is_seed[vi] {
                self.extra[vi] = true;
                self.extra_marks.push(v);
            }
        }

        // State 0: the extras flip to 1.
        self.frontier.clear();
        for &v in &self.extra_marks {
            let vi = v as usize;
            if 1.0f64.to_bits() != base.row(0)[vi].to_bits() {
                self.chg[vi] = true;
                self.val[vi] = 1.0;
                self.frontier.push(v);
            }
        }
        let mut frontier_total = self.frontier.len();

        let mut frontier = std::mem::take(&mut self.frontier);
        let mut frontier_next = std::mem::take(&mut self.frontier_next);
        let mut cand = std::mem::take(&mut self.cand);
        let mut fallback_from: Option<usize> = None;
        for s in 0..t {
            if n >= DENSE_FALLBACK_MIN_N && frontier.len() * DENSE_FALLBACK_DIVISOR >= n {
                fallback_from = Some(s);
                break;
            }
            let brow = base.row(s);
            let brow_next = base.row(s + 1);
            // Candidates for state s+1: out-neighbors of nodes changed
            // at state s. Baseline seeds never move; extras are handled
            // separately (their pin can diverge from the baseline again
            // even after a step of agreement).
            cand.clear();
            for &u in &frontier {
                for &w in system.out_neighbors(u as usize) {
                    let wi = w as usize;
                    if !self.cand_seen[wi] && !base.is_seed[wi] && !self.extra[wi] {
                        self.cand_seen[wi] = true;
                        cand.push(w);
                    }
                }
            }
            frontier_next.clear();
            for &v in &self.extra_marks {
                let vi = v as usize;
                if 1.0f64.to_bits() != brow_next[vi].to_bits() {
                    self.chg_next[vi] = true;
                    self.val_next[vi] = 1.0;
                    frontier_next.push(v);
                }
            }
            for &u in &cand {
                let ui = u as usize;
                self.cand_seen[ui] = false;
                let new = if !system.has_in[ui] {
                    // Unreachable via out-edges, kept for robustness: an
                    // in-less non-seed holds its (baseline) value.
                    if self.chg[ui] {
                        self.val[ui]
                    } else {
                        brow[ui]
                    }
                } else {
                    let mut acc = 0.0;
                    for (j, w) in system.in_entries(ui) {
                        let ji = j as usize;
                        let bj = if self.chg[ji] { self.val[ji] } else { brow[ji] };
                        acc += w * bj;
                    }
                    // Same folded constants as the dense kernels, so the
                    // result is bit-identical to a cold recompute.
                    system.omd[ui] * acc + system.db0[ui]
                };
                if new.to_bits() != brow_next[ui].to_bits() {
                    self.chg_next[ui] = true;
                    self.val_next[ui] = new;
                    frontier_next.push(u);
                }
            }
            for &u in &frontier {
                self.chg[u as usize] = false;
            }
            std::mem::swap(&mut frontier, &mut frontier_next);
            std::mem::swap(&mut self.chg, &mut self.chg_next);
            std::mem::swap(&mut self.val, &mut self.val_next);
            frontier_total += frontier.len();
            if let Some(m) = meter {
                m.charge(1);
            }
        }

        if let Some(s0) = fallback_from {
            // Saturated: materialize the true state `s0` (baseline row
            // plus the changed overrides) and finish dense.
            self.cur.copy_from_slice(base.row(s0));
            for &u in &frontier {
                let ui = u as usize;
                self.cur[ui] = self.val[ui];
                self.chg[ui] = false;
            }
            self.seeds_sorted.clear();
            self.seeds_sorted
                .extend(base.seeds().iter().map(|&s| s as usize));
            self.seeds_sorted
                .extend(self.extra_marks.iter().map(|&v| v as usize));
            self.seeds_sorted.sort_unstable();
            self.seeds_sorted.dedup();
            let mut dense_steps = 0usize;
            for _ in s0..t {
                let bits_equal = system.step_exact(&self.seeds_sorted, &self.cur, &mut self.next);
                std::mem::swap(&mut self.cur, &mut self.next);
                dense_steps += 1;
                if let Some(m) = meter {
                    m.charge(1);
                }
                if bits_equal {
                    // Fixed point: every remaining row is identical.
                    break;
                }
            }
            frontier.clear();
            self.frontier = frontier;
            self.frontier_next = frontier_next;
            self.cand = cand;
            for v in self.extra_marks.drain(..) {
                self.extra[v as usize] = false;
            }
            // Residual/convergence vs the baseline final row, matching
            // the frontier path's materialization semantics. `self.row`
            // stays a clean copy of the baseline final row (nothing was
            // marked dirty), so the next warm solve restores nothing.
            let final_row = base.final_row();
            let mut residual = 0.0f64;
            let mut moved = false;
            for (&x, &b) in self.cur.iter().zip(final_row) {
                if x.to_bits() != b.to_bits() {
                    moved = true;
                    residual = residual.max((x - b).abs());
                }
            }
            self.last_was_warm = false;
            WARM_SOLVES.fetch_add(1, Ordering::Relaxed);
            WARM_FRONTIER_NODES.fetch_add(frontier_total as u64, Ordering::Relaxed);
            COLD_STEPS.fetch_add(dense_steps as u64, Ordering::Relaxed);
            return SolveReport {
                steps: t,
                residual,
                converged: !moved,
                warm: true,
                frontier: frontier_total + dense_steps * n,
            };
        }

        // Materialize: final changed values override the baseline row.
        let final_row = base.final_row();
        let mut residual = 0.0f64;
        for &u in &frontier {
            let ui = u as usize;
            self.chg[ui] = false;
            self.row[ui] = self.val[ui];
            self.dirty.push(u);
            residual = residual.max((self.val[ui] - final_row[ui]).abs());
        }
        let converged = frontier.is_empty();
        frontier.clear();
        self.frontier = frontier;
        self.frontier_next = frontier_next;
        self.cand = cand;
        for v in self.extra_marks.drain(..) {
            self.extra[v as usize] = false;
        }
        self.last_was_warm = true;
        WARM_SOLVES.fetch_add(1, Ordering::Relaxed);
        WARM_FRONTIER_NODES.fetch_add(frontier_total as u64, Ordering::Relaxed);
        SolveReport {
            steps: t,
            residual,
            converged,
            warm: true,
            frontier: frontier_total,
        }
    }
}

// ---------------------------------------------------------------------
// SolverPool
// ---------------------------------------------------------------------

/// A checkout pool of [`Solver`]s, shared by parallel greedy workers
/// (and across the `(k, trial)` loop and successive queries via the
/// session scratch) so solver buffers are allocated once, not per
/// parallel iteration. Solvers are keyed to their system: a checkout
/// for a different [`DiffusionSystem`] drops stale entries.
#[derive(Debug, Default)]
pub struct SolverPool {
    slots: Mutex<Vec<Solver>>,
}

impl SolverPool {
    /// An empty pool.
    pub fn new() -> SolverPool {
        SolverPool::default()
    }

    /// Takes a solver for `system` out of the pool (or builds one). The
    /// guard returns it on drop.
    pub fn checkout(&self, system: &Arc<DiffusionSystem>) -> PooledSolver<'_> {
        let mut slots = self.slots.lock().expect("solver pool lock");
        let solver = loop {
            match slots.pop() {
                Some(s) if Arc::ptr_eq(s.system(), system) => break s,
                Some(_) => continue,
                None => break Solver::new(Arc::clone(system)),
            }
        };
        PooledSolver {
            pool: self,
            solver: Some(solver),
        }
    }
}

/// RAII guard over a pooled [`Solver`]; derefs to the solver and puts
/// it back on drop.
#[derive(Debug)]
pub struct PooledSolver<'p> {
    pool: &'p SolverPool,
    solver: Option<Solver>,
}

impl std::ops::Deref for PooledSolver<'_> {
    type Target = Solver;
    fn deref(&self) -> &Solver {
        self.solver.as_ref().expect("present until drop")
    }
}

impl std::ops::DerefMut for PooledSolver<'_> {
    fn deref_mut(&mut self) -> &mut Solver {
        self.solver.as_mut().expect("present until drop")
    }
}

impl Drop for PooledSolver<'_> {
    fn drop(&mut self) {
        if let Some(solver) = self.solver.take() {
            let mut slots = self.pool.slots.lock().expect("solver pool lock");
            slots.push(solver);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fj::FjEngine;
    use vom_graph::builder::graph_from_edges;

    fn running_example() -> (SocialGraph, Vec<f64>, Vec<f64>) {
        let g = graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        (g, vec![0.40, 0.80, 0.60, 0.90], vec![0.0, 0.0, 0.5, 0.5])
    }

    fn system(g: &SocialGraph, b0: &[f64], d: &[f64]) -> Arc<DiffusionSystem> {
        Arc::new(DiffusionSystem::new(g, b0, d).unwrap())
    }

    /// `B^(t)[S]` by the naive dense iteration — the independent
    /// reference the solver is checked against.
    fn reference(eng: &FjEngine<'_>, t: usize, seeds: &[Node]) -> Vec<f64> {
        eng.trajectory(t, seeds).pop().expect("t + 1 rows")
    }

    #[test]
    fn cold_solve_matches_fj_engine_bitwise() {
        let (g, b0, d) = running_example();
        let eng = FjEngine::new(&g, &b0, &d).unwrap();
        let mut solver = Solver::new(system(&g, &b0, &d));
        for t in 0..6 {
            for seeds in [vec![], vec![0], vec![2], vec![0, 1]] {
                solver.solve(&seeds, &SolveOptions::exact(t), None);
                let reference = reference(&eng, t, &seeds);
                assert_eq!(solver.opinions(), &reference[..], "t={t} seeds={seeds:?}");
            }
        }
    }

    #[test]
    fn warm_solve_is_bit_identical_to_cold() {
        let (g, b0, d) = running_example();
        let sys = system(&g, &b0, &d);
        let mut warm = Solver::new(Arc::clone(&sys));
        let mut cold = Solver::new(Arc::clone(&sys));
        let t = 4;
        warm.solve(&[], &SolveOptions::exact(t).recording(), None);
        for v in 0..4 as Node {
            let rep = warm.solve(&[v], &SolveOptions::exact(t).warm(), None);
            assert!(rep.warm, "baseline prefix must trigger the warm path");
            cold.solve(&[v], &SolveOptions::exact(t), None);
            let (w, c) = (warm.opinions().to_vec(), cold.opinions().to_vec());
            for (a, b) in w.iter().zip(&c) {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {v}");
            }
        }
        // Growing the committed set keeps the equivalence.
        warm.solve(&[2], &SolveOptions::exact(t).recording(), None);
        let rep = warm.solve(&[2, 0], &SolveOptions::exact(t).warm(), None);
        assert!(rep.warm);
        cold.solve(&[2, 0], &SolveOptions::exact(t), None);
        assert_eq!(warm.opinions(), cold.opinions());
    }

    #[test]
    fn warm_falls_back_cold_without_matching_baseline() {
        let (g, b0, d) = running_example();
        let mut solver = Solver::new(system(&g, &b0, &d));
        // No baseline at all.
        let rep = solver.solve(&[1], &SolveOptions::exact(3).warm(), None);
        assert!(!rep.warm);
        // Baseline at a different horizon.
        solver.solve(&[], &SolveOptions::exact(2).recording(), None);
        let rep = solver.solve(&[1], &SolveOptions::exact(3).warm(), None);
        assert!(!rep.warm);
        // Non-prefix seed list.
        solver.solve(&[1], &SolveOptions::exact(3).recording(), None);
        let rep = solver.solve(&[2, 1], &SolveOptions::exact(3).warm(), None);
        assert!(!rep.warm);
    }

    #[test]
    fn fixed_point_early_exit_keeps_values_exact() {
        // 0 -> 1 with full stubbornness everywhere: nothing ever moves,
        // so the solve must stop after one step with identical values.
        let g = graph_from_edges(2, &[(0, 1, 1.0)]).unwrap();
        let b0 = [0.3, 0.7];
        let d = [1.0, 1.0];
        let eng = FjEngine::new(&g, &b0, &d).unwrap();
        let mut solver = Solver::new(system(&g, &b0, &d));
        let rep = solver.solve(&[], &SolveOptions::exact(50), None);
        assert!(rep.converged);
        assert!(rep.steps < 50);
        assert_eq!(rep.residual, 0.0);
        assert_eq!(solver.opinions(), &reference(&eng, 50, &[])[..]);
    }

    #[test]
    fn tolerance_stops_like_the_legacy_convergence_loop() {
        let (g, b0, d) = running_example();
        let mut solver = Solver::new(system(&g, &b0, &d));
        let rep = solver.solve(&[], &SolveOptions::exact(500).with_tolerance(1e-9), None);
        assert!(rep.converged);
        assert!(rep.residual < 1e-9);
        // Fixed point of node 2: b = 0.5*0.6 + 0.5*0.6 = 0.6.
        assert!((solver.opinions()[2] - 0.6).abs() < 1e-6);
        // Fixed point of node 3: b = 0.5*b2 + 0.5*0.9 -> 0.75.
        assert!((solver.opinions()[3] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn non_convergent_cycle_hits_step_budget() {
        // Pure 2-cycle oscillates forever under DeGroot.
        let g = graph_from_edges(2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let mut solver = Solver::new(system(&g, &[1.0, 0.0], &[0.0, 0.0]));
        let rep = solver.solve(&[], &SolveOptions::exact(50).with_tolerance(1e-9), None);
        assert!(!rep.converged);
        assert_eq!(rep.steps, 50);
    }

    #[test]
    fn reports_count_warm_frontier_work() {
        let (g, b0, d) = running_example();
        let mut solver = Solver::new(system(&g, &b0, &d));
        solver.solve(&[], &SolveOptions::exact(3).recording(), None);
        // Seeding node 3 (no out-edges) moves only itself.
        let rep = solver.solve(&[3], &SolveOptions::exact(3).warm(), None);
        assert!(rep.warm);
        assert_eq!(rep.steps, 3);
        assert!(rep.frontier >= 1 && rep.frontier <= 4, "{}", rep.frontier);
        // A no-op extra (already at the baseline fixed point) converges.
        let rep = solver.solve(&[], &SolveOptions::exact(3).warm(), None);
        assert!(rep.warm && rep.converged);
        assert_eq!(rep.frontier, 0);
        assert_eq!(solver.opinions(), solver.baseline().unwrap().final_row());
    }

    #[test]
    fn saturated_warm_solve_takes_the_dense_fallback_and_stays_exact() {
        // A hub spraying a 100-node ring: seeding the hub changes nearly
        // every node by state 1, so the changed set crosses
        // `n / DENSE_FALLBACK_DIVISOR` immediately (n ≥
        // DENSE_FALLBACK_MIN_N) and the warm solve must finish dense —
        // still bit-identical to the cold solve.
        let n = 100usize;
        let mut edges: Vec<(Node, Node, f64)> = (1..n as Node).map(|v| (0, v, 1.0)).collect();
        edges.extend((0..n as Node).map(|v| (v, (v + 1) % n as Node, 0.5)));
        let g = graph_from_edges(n, &edges).unwrap();
        let b0: Vec<f64> = (0..n).map(|i| (i as f64) / (n as f64)).collect();
        let d: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 0.1 } else { 0.3 }).collect();
        let sys = system(&g, &b0, &d);
        let mut warm = Solver::new(Arc::clone(&sys));
        let mut cold = Solver::new(Arc::clone(&sys));
        let t = 6;
        warm.solve(&[], &SolveOptions::exact(t).recording(), None);
        for seed in [0 as Node, 17, 63] {
            let rep = warm.solve(&[seed], &SolveOptions::exact(t).warm(), None);
            assert!(rep.warm, "seed {seed}");
            cold.solve(&[seed], &SolveOptions::exact(t), None);
            for (i, (a, b)) in warm.opinions().iter().zip(cold.opinions()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}, node {i}");
            }
        }
        // Interleaving saturated and narrow solves on one solver keeps
        // the materialized-row bookkeeping consistent: seeding node 99
        // (out-edge only to the hub-adjacent ring) moves few nodes.
        let rep = warm.solve(&[99], &SolveOptions::exact(t).warm(), None);
        assert!(rep.warm);
        cold.solve(&[99], &SolveOptions::exact(t), None);
        assert_eq!(warm.opinions(), cold.opinions());
        let rep = warm.solve(&[0], &SolveOptions::exact(t).warm(), None);
        assert!(rep.warm);
        cold.solve(&[0], &SolveOptions::exact(t), None);
        assert_eq!(warm.opinions(), cold.opinions());
    }

    #[test]
    fn pool_reuses_matching_solvers() {
        let (g, b0, d) = running_example();
        let sys = system(&g, &b0, &d);
        let pool = SolverPool::new();
        {
            let mut s = pool.checkout(&sys);
            s.solve(&[], &SolveOptions::exact(2).recording(), None);
        }
        {
            // The returned solver still carries its baseline.
            let s = pool.checkout(&sys);
            assert!(s.baseline().is_some());
        }
        // A different system drops the stale entry.
        let other = system(&g, &b0, &d);
        let s = pool.checkout(&other);
        assert!(Arc::ptr_eq(s.system(), &other));
    }

    #[test]
    fn counters_accumulate() {
        let (g, b0, d) = running_example();
        let before = SolverCounters::snapshot();
        let mut solver = Solver::new(system(&g, &b0, &d));
        solver.solve(&[], &SolveOptions::exact(3).recording(), None);
        solver.solve(&[0], &SolveOptions::exact(3).warm(), None);
        let delta = SolverCounters::snapshot().since(before);
        assert!(delta.cold_solves >= 1);
        assert!(delta.cold_steps >= 1);
        assert!(delta.warm_solves >= 1);
        let mut acc = SolverCounters::default();
        acc.add(delta);
        assert_eq!(acc.cold_solves, delta.cold_solves);
    }

    #[test]
    fn metered_solves_charge_ticks_without_changing_results() {
        use crate::budget::{CostBudget, CostMeter};
        let (g, b0, d) = running_example();
        let sys = system(&g, &b0, &d);
        let mut metered = Solver::new(Arc::clone(&sys));
        let mut plain = Solver::new(Arc::clone(&sys));
        let meter = CostMeter::new(CostBudget::ticks(u64::MAX));
        // Cold: one tick per executed step.
        let rep = metered.solve(&[], &SolveOptions::exact(3).recording(), Some(&meter));
        assert_eq!(meter.spent(), rep.steps as u64);
        plain.solve(&[], &SolveOptions::exact(3).recording(), None);
        assert_eq!(metered.opinions(), plain.opinions());
        // Warm: one tick per frontier state; values identical to the
        // unmetered path.
        let before = meter.spent();
        let rep = metered.solve(&[0], &SolveOptions::exact(3).warm(), Some(&meter));
        assert!(rep.warm);
        assert_eq!(meter.spent() - before, rep.steps as u64);
        plain.solve(&[0], &SolveOptions::exact(3).warm(), None);
        assert_eq!(metered.opinions(), plain.opinions());
        // A solve is never truncated by an exhausted meter — budgets
        // cancel *between* solves, at greedy checkpoints.
        let spent_meter = CostMeter::new(CostBudget::ticks(0));
        assert!(spent_meter.exhausted());
        let rep = metered.solve(&[1], &SolveOptions::exact(3), Some(&spent_meter));
        assert_eq!(rep.steps, 3);
        plain.solve(&[1], &SolveOptions::exact(3), None);
        assert_eq!(metered.opinions(), plain.opinions());
    }

    #[test]
    fn system_layout_matches_graph() {
        let (g, b0, d) = running_example();
        let sys = DiffusionSystem::new(&g, &b0, &d).unwrap();
        assert_eq!(sys.num_nodes(), 4);
        assert_eq!(sys.num_edges(), 3);
        // Capacity-exact accounting: `new` allocates the CSR arrays with
        // exact capacities (n+1 offsets, m sources/targets/weights) and
        // five n-sized per-node arrays (b0, d, omd, db0, has_in).
        let (n, m) = (4usize, 3usize);
        assert_eq!(
            sys.heap_bytes(),
            2 * (n + 1) * std::mem::size_of::<usize>()
                + 2 * m * std::mem::size_of::<Node>()
                + (m + 4 * n) * std::mem::size_of::<f64>()
                + n
        );
        let in2: Vec<_> = sys.in_entries(2).collect();
        assert_eq!(in2, vec![(0, 0.5), (1, 0.5)]);
        assert_eq!(sys.out_neighbors(2), &[3]);
        assert!(DiffusionSystem::new(&g, &b0[..3], &d).is_err());
        assert!(DiffusionSystem::new(&g, &[2.0, 0.0, 0.0, 0.0], &d).is_err());
    }
}
