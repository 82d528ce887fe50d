//! The sparse diffusion solver behind every exact FJ evaluation.
//!
//! Every exact opinion computation — fixed-horizon, convergence-style,
//! metered or not — runs over one [`DiffusionSystem`]: the candidate's
//! influence system in a solver-owned in-CSR layout, built **once per
//! candidate** and shared via `Arc` by every session and worker. Two
//! entry points iterate it:
//!
//! * [`Solver::solve`] — one seed set, with **exact fixed-point
//!   early exit**: iteration stops as soon as a step reproduces its
//!   input bit for bit (every later row is provably identical) or, when
//!   a tolerance is supplied, as soon as the residual
//!   `max_v |b_v^{(s)} − b_v^{(s−1)}|` drops below it;
//! * [`Solver::solve_lanes`] — up to [`LANES`] seed sets
//!   `base ∪ {extras[l]}` in **one sweep per step** over node-major
//!   `[f64; LANES]` state. Greedy selection scores thousands of trial
//!   sets that differ from one committed set by a single node, and a
//!   sweep streams the in-CSR once for all of them (the multi-source
//!   idea of Then et al., "The More the Merrier", PVLDB 8(4), 2014,
//!   applied to FJ sweeps).
//!
//! # Why every lane is bit-identical to a single solve
//!
//! Lane `l` starts from the single solve's initial row for
//! `base ∪ {extras[l]}`. Each sweep computes every node's update exactly
//! as [`Solver::solve`]'s kernel does: the in-edges in the same CSR
//! order, the same folded constants `omd[v] = 1 − d[v]` and
//! `db0[v] = d[v]·b⁰[v]`, and in-less nodes holding their value. The
//! base pins and the lane's own pin are applied after the update, so a
//! pinned entry is 1 exactly when the single solve pins it. Rust never
//! contracts `a + w·x` into a fused multiply-add, so the lane arithmetic
//! is the scalar arithmetic, element by element. The sweep stops when
//! every lane reproduces its input bitwise, or at the horizon; a lane
//! that reached its own fixed point earlier keeps reproducing it, which
//! is where the single solve stopped. Nothing is truncated and no
//! tolerance is involved, so selections built from lanes match the
//! single-solve runs byte for byte.
//!
//! [`FjEngine::trajectory`] keeps the naive dense iteration over bare
//! slices; the equivalence tests use it as the independent reference.

use crate::budget::CostMeter;
use crate::error::validate_unit_range;
use crate::Result;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use vom_graph::{Node, SocialGraph};
use vom_persist::FlatBuf;

#[cfg(doc)]
use crate::fj::FjEngine;

/// Seed sets one [`Solver::solve_lanes`] sweep solves: eight `f64`
/// lanes per node, one 64-byte cache line.
pub const LANES: usize = 8;

// ---------------------------------------------------------------------
// Process-wide solver counters
// ---------------------------------------------------------------------

static COLD_SOLVES: AtomicU64 = AtomicU64::new(0);
static COLD_STEPS: AtomicU64 = AtomicU64::new(0);

/// Process-wide counters of solver activity, for the bench trajectory
/// and build diagnostics. Monotone; readers take [`SolverCounters::snapshot`]
/// deltas around the section they want attributed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverCounters {
    /// Seed sets solved: one per [`Solver::solve`] call and one per
    /// real lane of a [`Solver::solve_lanes`] call.
    pub cold_solves: u64,
    /// Always 0. Warm-start solves no longer exist; the field stays so
    /// the trajectory files and the benchmark keep their schema.
    pub warm_solves: u64,
    /// Dense iteration sweeps, counted per seed set: a single solve adds
    /// its executed steps, a batched solve adds its sweeps once per real
    /// lane. `cold_steps × m` is therefore solve-edge-steps.
    pub cold_steps: u64,
    /// Always 0, like [`SolverCounters::warm_solves`].
    pub warm_frontier_nodes: u64,
}

impl SolverCounters {
    /// Current counter values.
    pub fn snapshot() -> SolverCounters {
        SolverCounters {
            cold_solves: COLD_SOLVES.load(Ordering::Relaxed),
            warm_solves: 0,
            cold_steps: COLD_STEPS.load(Ordering::Relaxed),
            warm_frontier_nodes: 0,
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
/// order, and the per-node `b⁰`/`d` vectors. Built once per candidate
/// (see [`crate::CandidateData::system`]) and shared by `Arc`; immutable
/// and `Send + Sync`.
/// The flat arrays live in [`FlatBuf`]s so a snapshot load (`vom-persist`)
/// can borrow them zero-copy from the mapped file region; the folded
/// constants are always recomputed, bitwise identically, from `b0`/`d`.
#[derive(Debug)]
pub struct DiffusionSystem {
    n: usize,
    in_offsets: FlatBuf<usize>,
    in_sources: FlatBuf<Node>,
    in_weights: FlatBuf<f64>,
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
        in_offsets.push(0);
        for v in 0..n as Node {
            for (j, w) in graph.in_entries(v) {
                in_sources.push(j);
                in_weights.push(w);
            }
            in_offsets.push(in_sources.len());
        }
        Ok(Self::assemble(
            n,
            in_offsets.into(),
            in_sources.into(),
            in_weights.into(),
            b0.to_vec().into(),
            d.to_vec().into(),
        ))
    }

    /// Reassembles a system from its persisted arrays (snapshot load).
    /// The CSR shape and every node id are validated up front so a
    /// corrupt-but-digest-valid snapshot fails closed here; the folded
    /// per-node constants are recomputed from `b0`/`d` with the same
    /// expressions [`DiffusionSystem::new`] folds, which is bitwise
    /// identical to having persisted them.
    pub fn from_parts(
        n: usize,
        in_offsets: FlatBuf<usize>,
        in_sources: FlatBuf<Node>,
        in_weights: FlatBuf<f64>,
        b0: FlatBuf<f64>,
        d: FlatBuf<f64>,
    ) -> std::result::Result<Self, &'static str> {
        if in_offsets.len() != n + 1
            || in_offsets.first() != Some(&0)
            || in_offsets.last() != Some(&in_sources.len())
            || !in_offsets.windows(2).all(|w| w[0] <= w[1])
        {
            return Err("adjacency offsets must span their arrays");
        }
        if in_weights.len() != in_sources.len() {
            return Err("in-weights must parallel in-sources");
        }
        if in_sources.iter().any(|&v| (v as usize) >= n) {
            return Err("adjacency node id out of range");
        }
        if b0.len() != n || d.len() != n {
            return Err("per-node arrays must have length n");
        }
        Ok(Self::assemble(n, in_offsets, in_sources, in_weights, b0, d))
    }

    /// Folds the per-node update constants; shared by both constructors
    /// so a loaded system is bitwise the built one.
    fn assemble(
        n: usize,
        in_offsets: FlatBuf<usize>,
        in_sources: FlatBuf<Node>,
        in_weights: FlatBuf<f64>,
        b0: FlatBuf<f64>,
        d: FlatBuf<f64>,
    ) -> DiffusionSystem {
        let omd: Vec<f64> = d.iter().map(|&dv| 1.0 - dv).collect();
        let db0: Vec<f64> = d.iter().zip(b0.iter()).map(|(&dv, &bv)| dv * bv).collect();
        DiffusionSystem {
            n,
            in_offsets,
            in_sources,
            in_weights,
            b0,
            d,
            omd,
            db0,
        }
    }

    /// The persisted arrays `(in_offsets, in_sources, in_weights)` — the
    /// exact buffers a snapshot writer serializes verbatim (plus
    /// [`DiffusionSystem::initial`] and [`DiffusionSystem::stubbornness`]).
    pub fn parts(&self) -> (&[usize], &[Node], &[f64]) {
        (&self.in_offsets, &self.in_sources, &self.in_weights)
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

    /// Exact owned heap footprint in bytes: `FlatBuf` capacities (zero
    /// for zero-copy snapshot borrows) plus the `Vec` capacities of the
    /// folded constants, so slack is never hidden.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.in_offsets.heap_bytes()
            + self.in_sources.heap_bytes()
            + self.in_weights.heap_bytes()
            + self.b0.heap_bytes()
            + self.d.heap_bytes()
            + (self.omd.capacity() + self.db0.capacity()) * size_of::<f64>()
    }

    /// The FJ update of one node from the current row:
    /// `(1−d_v)·Σ w·cur + d_v·b⁰_v`, in-less nodes hold their value.
    /// Seeds are NOT handled here — callers pin them. `start..end` is
    /// `v`'s in-entry range (passed in so step loops stream the
    /// offsets array once).
    #[inline(always)]
    fn update(&self, v: usize, start: usize, end: usize, cur: &[f64]) -> f64 {
        if start == end {
            // No in-edges: the node holds its value.
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

    /// [`DiffusionSystem::step_exact`] over [`LANES`] seed sets at once:
    /// each lane's update is the scalar update, element by element, then
    /// the base pins (`seeds_sorted`, every lane) and the per-lane pins
    /// (`pins`: sorted `(node, lane mask)` pairs) overwrite it. Returns
    /// whether every lane reproduced its input bitwise.
    fn step_lanes(
        &self,
        seeds_sorted: &[usize],
        pins: &[(usize, u8)],
        cur: &[[f64; LANES]],
        next: &mut [[f64; LANES]],
    ) -> bool {
        let mut diff_bits = 0u64;
        let mut start = 0usize;
        let mut si = 0usize;
        let mut next_seed = seeds_sorted.first().copied().unwrap_or(usize::MAX);
        let mut pi = 0usize;
        let mut next_pin = pins.first().map_or(usize::MAX, |p| p.0);
        for v in 0..self.n {
            let end = self.in_offsets[v + 1];
            let mut out = if v == next_seed {
                si += 1;
                next_seed = seeds_sorted.get(si).copied().unwrap_or(usize::MAX);
                [1.0; LANES]
            } else if start == end {
                cur[v]
            } else {
                let mut acc = [0.0f64; LANES];
                for (j, &w) in self.in_sources[start..end]
                    .iter()
                    .zip(&self.in_weights[start..end])
                {
                    for (a, &x) in acc.iter_mut().zip(&cur[*j as usize]) {
                        *a += w * x;
                    }
                }
                let (omd, db0) = (self.omd[v], self.db0[v]);
                acc.map(|a| omd * a + db0)
            };
            if v == next_pin {
                let mask = pins[pi].1;
                for (l, o) in out.iter_mut().enumerate() {
                    if mask >> l & 1 == 1 {
                        *o = 1.0;
                    }
                }
                pi += 1;
                next_pin = pins.get(pi).map_or(usize::MAX, |p| p.0);
            }
            start = end;
            for (o, c) in out.iter().zip(&cur[v]) {
                diff_bits |= o.to_bits() ^ c.to_bits();
            }
            next[v] = out;
        }
        diff_bits == 0
    }
}

// ---------------------------------------------------------------------
// SolveOptions / SolveReport
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
}

impl SolveOptions {
    /// Exact fixed-horizon semantics: `B^(t)[S]` after exactly
    /// `horizon` steps (a bitwise fixed point may end the loop early).
    pub fn exact(horizon: usize) -> SolveOptions {
        SolveOptions {
            horizon,
            tolerance: 0.0,
        }
    }

    /// Sets the convergence tolerance.
    pub fn with_tolerance(mut self, eps: f64) -> SolveOptions {
        self.tolerance = eps;
        self
    }
}

/// What one [`Solver::solve`] or [`Solver::solve_lanes`] call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveReport {
    /// Iteration steps (sweeps) actually executed (`≤ horizon`;
    /// early exit shortens).
    pub steps: usize,
    /// Final residual: for tolerance-mode solves
    /// `max_v |b_v^{(s)} − b_v^{(s−1)}|` of the last executed step.
    /// Exact solves (`tolerance == 0`) skip residual tracking in the hot
    /// kernel and report `0.0`.
    pub residual: f64,
    /// Whether the solve ended before exhausting the horizon (bitwise
    /// fixed point — of every lane, for a batched solve — or tolerance
    /// reached).
    pub converged: bool,
}

// ---------------------------------------------------------------------
// Solver
// ---------------------------------------------------------------------

/// A reusable solve context over one shared [`DiffusionSystem`]: all
/// iteration scratch is owned here, so repeated solves (the greedy
/// `(k, trial)` loop) allocate nothing. Not `Sync` by design — one
/// solver per worker; pool them with [`SolverPool`].
#[derive(Debug)]
pub struct Solver {
    system: Arc<DiffusionSystem>,
    // Single-solve scratch: the two iteration rows and the seed bitmap.
    cur: Vec<f64>,
    next: Vec<f64>,
    is_seed: Vec<bool>,
    seed_marks: Vec<Node>,
    // Sorted, deduplicated seed list handed to the exact kernels (a
    // cursor walk beats a per-node mask load).
    seeds_sorted: Vec<usize>,
    // Batched-solve scratch, sized on the first `solve_lanes` call so
    // solvers that never batch never pay for it: node-major lane rows
    // and the sorted per-lane pins.
    lanes_cur: Vec<[f64; LANES]>,
    lanes_next: Vec<[f64; LANES]>,
    pins: Vec<(usize, u8)>,
    lanes_used: usize,
}

impl Solver {
    /// A solver over `system` with single-solve scratch allocated
    /// eagerly (batched scratch follows on first use).
    pub fn new(system: Arc<DiffusionSystem>) -> Solver {
        let n = system.num_nodes();
        Solver {
            system,
            cur: vec![0.0; n],
            next: vec![0.0; n],
            is_seed: vec![false; n],
            seed_marks: Vec::new(),
            seeds_sorted: Vec::new(),
            lanes_cur: Vec::new(),
            lanes_next: Vec::new(),
            pins: Vec::new(),
            lanes_used: 0,
        }
    }

    /// The shared system this solver iterates.
    #[inline]
    pub fn system(&self) -> &Arc<DiffusionSystem> {
        &self.system
    }

    /// Solves one seed set. `seeds` are pinned at opinion 1, fully
    /// stubborn, on top of the system's `b⁰`/`d` (the caller includes
    /// any fixed seeds). The resulting opinions are read with
    /// [`Solver::opinions`]; the report says how the solve ran.
    ///
    /// A `meter` is charged one tick per executed step, from inside the
    /// iteration loop. The solve itself always runs to completion —
    /// truncating mid-solve would change the computed opinions — so
    /// metered callers check [`CostMeter::exhausted`] *between* solves,
    /// at their own sequential checkpoints, and stop issuing further
    /// work there.
    pub fn solve(
        &mut self,
        seeds: &[Node],
        opts: &SolveOptions,
        meter: Option<&CostMeter>,
    ) -> SolveReport {
        let system = Arc::clone(&self.system);
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
            if bits_equal || (track_residual && residual < opts.tolerance) {
                converged = true;
                break;
            }
        }
        for s in self.seed_marks.drain(..) {
            self.is_seed[s as usize] = false;
        }
        COLD_SOLVES.fetch_add(1, Ordering::Relaxed);
        COLD_STEPS.fetch_add(steps as u64, Ordering::Relaxed);
        SolveReport {
            steps,
            residual,
            converged,
        }
    }

    /// The opinions computed by the last [`Solver::solve`] call, as a
    /// full `n`-row.
    #[inline]
    pub fn opinions(&self) -> &[f64] {
        &self.cur
    }

    /// Solves the seed sets `base ∪ {extras[l]}` for every lane `l` in
    /// one sweep per step, exact fixed-horizon semantics: lane `l` ends
    /// bit-identical to [`Solver::solve`]`(base ∪ {extras[l]})` (see the
    /// module docs). Read the lanes with [`Solver::lane`] or
    /// [`Solver::copy_lane`]. Extras may repeat or lie in `base`.
    ///
    /// The sweep stops when every lane reproduces its input bitwise, or
    /// at `horizon`. Each real lane counts as one solve in
    /// [`SolverCounters`], and its sweeps as its steps. A `meter` is
    /// charged one tick per lane per executed sweep; like a single
    /// solve, the batch always runs to completion.
    ///
    /// # Panics
    ///
    /// Unless `1 ≤ extras.len() ≤ LANES`.
    pub fn solve_lanes(
        &mut self,
        base: &[Node],
        extras: &[Node],
        horizon: usize,
        meter: Option<&CostMeter>,
    ) -> SolveReport {
        assert!(
            (1..=LANES).contains(&extras.len()),
            "a batched solve takes 1..={LANES} extra seeds, got {}",
            extras.len()
        );
        let system = Arc::clone(&self.system);
        let n = system.num_nodes();
        if self.lanes_cur.len() != n {
            self.lanes_cur = vec![[0.0; LANES]; n];
            self.lanes_next = vec![[0.0; LANES]; n];
        }
        self.seeds_sorted.clear();
        self.seeds_sorted.extend(base.iter().map(|&s| s as usize));
        self.seeds_sorted.sort_unstable();
        self.seeds_sorted.dedup();
        // Unused lanes repeat lane 0, so they reach its fixed point with
        // it and never hold the sweep open.
        self.pins.clear();
        for l in 0..LANES {
            let extra = extras.get(l).unwrap_or(&extras[0]);
            self.pins.push((*extra as usize, 1 << l));
        }
        self.pins.sort_unstable();
        self.pins.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 |= later.1;
            }
            same
        });
        for (row, &b) in self.lanes_cur.iter_mut().zip(system.initial()) {
            *row = [b; LANES];
        }
        for &s in &self.seeds_sorted {
            self.lanes_cur[s] = [1.0; LANES];
        }
        for &(v, mask) in &self.pins {
            for (l, x) in self.lanes_cur[v].iter_mut().enumerate() {
                if mask >> l & 1 == 1 {
                    *x = 1.0;
                }
            }
        }
        let lanes = extras.len() as u64;
        let mut steps = 0usize;
        let mut converged = false;
        for _ in 0..horizon {
            let bits_equal = system.step_lanes(
                &self.seeds_sorted,
                &self.pins,
                &self.lanes_cur,
                &mut self.lanes_next,
            );
            std::mem::swap(&mut self.lanes_cur, &mut self.lanes_next);
            steps += 1;
            if let Some(m) = meter {
                m.charge(lanes);
            }
            if bits_equal {
                converged = true;
                break;
            }
        }
        self.lanes_used = extras.len();
        COLD_SOLVES.fetch_add(lanes, Ordering::Relaxed);
        COLD_STEPS.fetch_add(lanes * steps as u64, Ordering::Relaxed);
        SolveReport {
            steps,
            residual: 0.0,
            converged,
        }
    }

    /// Lane `lane` of the last [`Solver::solve_lanes`] call, in node
    /// order. Summing it is bitwise `row.iter().sum()` of the equivalent
    /// single solve's row.
    ///
    /// # Panics
    ///
    /// If `lane` is not a real lane of that call.
    pub fn lane(&self, lane: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(lane < self.lanes_used, "lane {lane} was not solved");
        self.lanes_cur.iter().map(move |row| row[lane])
    }

    /// Copies lane `lane` into `row` (cleared first), for scorers that
    /// take a slice.
    pub fn copy_lane(&self, lane: usize, row: &mut Vec<f64>) {
        row.clear();
        row.extend(self.lane(lane));
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

    fn bits(xs: impl IntoIterator<Item = f64>) -> Vec<u64> {
        xs.into_iter().map(f64::to_bits).collect()
    }

    /// Every lane of `solve_lanes(base, extras)` against a single solve
    /// of `base ∪ {extra}`.
    fn assert_lanes_match(sys: &Arc<DiffusionSystem>, base: &[Node], extras: &[Node], t: usize) {
        let mut batched = Solver::new(Arc::clone(sys));
        let mut single = Solver::new(Arc::clone(sys));
        batched.solve_lanes(base, extras, t, None);
        for (l, &extra) in extras.iter().enumerate() {
            let mut seeds = base.to_vec();
            seeds.push(extra);
            single.solve(&seeds, &SolveOptions::exact(t), None);
            assert_eq!(
                bits(batched.lane(l)),
                bits(single.opinions().iter().copied()),
                "t={t} base={base:?} extra={extra}"
            );
        }
    }

    /// A hub spraying a 100-node ring: one extra seed moves most nodes
    /// within a step, and different lanes reach their fixed points at
    /// different sweeps.
    fn hub_ring() -> Arc<DiffusionSystem> {
        let n = 100usize;
        let mut edges: Vec<(Node, Node, f64)> = (1..n as Node).map(|v| (0, v, 1.0)).collect();
        edges.extend((0..n as Node).map(|v| (v, (v + 1) % n as Node, 0.5)));
        let g = graph_from_edges(n, &edges).unwrap();
        let b0: Vec<f64> = (0..n).map(|i| (i as f64) / (n as f64)).collect();
        let d: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 0.1 } else { 0.3 }).collect();
        system(&g, &b0, &d)
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
    fn lanes_match_single_solves_bitwise() {
        let (g, b0, d) = running_example();
        let sys = system(&g, &b0, &d);
        for t in 0..6 {
            assert_lanes_match(&sys, &[], &[0, 1, 2, 3], t);
            assert_lanes_match(&sys, &[2], &[0, 2, 3], t);
            assert_lanes_match(&sys, &[0, 1], &[3], t);
        }
        let ring = hub_ring();
        for t in [1, 6, 40] {
            assert_lanes_match(&ring, &[], &[0, 17, 63, 99, 5, 6, 7, 8], t);
            assert_lanes_match(&ring, &[50, 3], &[0, 3, 3, 99], t);
        }
    }

    #[test]
    fn batched_scratch_is_allocated_on_first_use_only() {
        let (g, b0, d) = running_example();
        let mut solver = Solver::new(system(&g, &b0, &d));
        solver.solve(&[1], &SolveOptions::exact(3), None);
        assert!(solver.lanes_cur.is_empty() && solver.lanes_next.is_empty());
        solver.solve_lanes(&[], &[1, 2], 3, None);
        assert_eq!((solver.lanes_cur.len(), solver.lanes_next.len()), (4, 4));
    }

    #[test]
    #[should_panic(expected = "lane 2 was not solved")]
    fn padded_lanes_are_not_readable() {
        let (g, b0, d) = running_example();
        let mut solver = Solver::new(system(&g, &b0, &d));
        solver.solve_lanes(&[], &[1, 2], 3, None);
        let _ = solver.lane(2);
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
        // The batch stops at the same sweep.
        let rep = solver.solve_lanes(&[], &[0, 1], 50, None);
        assert!(rep.converged);
        assert!(rep.steps < 50);
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
    fn pool_reuses_matching_solvers() {
        let (g, b0, d) = running_example();
        let sys = system(&g, &b0, &d);
        let pool = SolverPool::new();
        {
            let mut s = pool.checkout(&sys);
            s.solve_lanes(&[], &[0], 2, None);
        }
        {
            // The returned solver keeps its batched scratch.
            let s = pool.checkout(&sys);
            assert_eq!(s.lanes_cur.len(), 4);
        }
        // A different system drops the stale entry.
        let other = system(&g, &b0, &d);
        let s = pool.checkout(&other);
        assert!(Arc::ptr_eq(s.system(), &other));
        assert!(s.lanes_cur.is_empty());
    }

    #[test]
    fn counters_count_each_lane_as_a_solve() {
        let (g, b0, d) = running_example();
        let before = SolverCounters::snapshot();
        let mut solver = Solver::new(system(&g, &b0, &d));
        let single = solver.solve(&[], &SolveOptions::exact(3), None);
        let batched = solver.solve_lanes(&[], &[0, 1, 3], 3, None);
        let delta = SolverCounters::snapshot().since(before);
        // Other tests solve concurrently, so the delta is a lower bound.
        assert!(delta.cold_solves >= 4);
        assert!(delta.cold_steps >= (single.steps + 3 * batched.steps) as u64);
        assert_eq!((delta.warm_solves, delta.warm_frontier_nodes), (0, 0));
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
        // Single: one tick per executed step.
        let rep = metered.solve(&[], &SolveOptions::exact(3), Some(&meter));
        assert_eq!(meter.spent(), rep.steps as u64);
        plain.solve(&[], &SolveOptions::exact(3), None);
        assert_eq!(metered.opinions(), plain.opinions());
        // Batched: one tick per real lane per sweep; values identical to
        // the unmetered batch.
        let before = meter.spent();
        let rep = metered.solve_lanes(&[], &[0, 1, 2], 3, Some(&meter));
        assert_eq!(meter.spent() - before, 3 * rep.steps as u64);
        plain.solve_lanes(&[], &[0, 1, 2], 3, None);
        for l in 0..3 {
            assert_eq!(bits(metered.lane(l)), bits(plain.lane(l)));
        }
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
        // Capacity-exact accounting: `new` allocates the in-CSR arrays
        // with exact capacities (n+1 offsets, m sources and weights) and
        // four n-sized per-node arrays (b0, d, omd, db0).
        let (n, m) = (4usize, 3usize);
        assert_eq!(
            sys.heap_bytes(),
            (n + 1) * std::mem::size_of::<usize>()
                + m * std::mem::size_of::<Node>()
                + (m + 4 * n) * std::mem::size_of::<f64>()
        );
        let (off, src, w) = sys.parts();
        assert_eq!(&src[off[2]..off[3]], &[0, 1]);
        assert_eq!(&w[off[2]..off[3]], &[0.5, 0.5]);
        assert!(DiffusionSystem::new(&g, &b0[..3], &d).is_err());
        assert!(DiffusionSystem::new(&g, &[2.0, 0.0, 0.0, 0.0], &d).is_err());
    }
}
