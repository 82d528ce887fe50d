//! Process-wide per-phase wall-clock accounting for the query hot path.
//!
//! The `repro --bench-json` trajectory file attributes query time to the
//! three phases the paper's complexity analysis separates (§III-C):
//!
//! * **diffusion** — exact opinion evolution (`B^{(t)}` runs: DM's
//!   per-candidate evaluations, competitor/seedless matrices, exact
//!   score evaluations);
//! * **truncation** — walk/sketch truncation when a seed is committed
//!   (`add_seed` on the estimators);
//! * **scoring** — candidate gain computation (rank lookups, delta
//!   application, cumulative gain scans) and exact score tallies.
//!
//! Every exact solve, single or batched in lanes, is attributed to
//! [`Phase::Diffusion`]; solve and step *counts* live in
//! [`SolverCounters`]. [`PhaseTimes::diffusion_warm`] survives from the
//! retired warm-start solver only so report schemas keep the field; it
//! always reads 0.
//!
//! Counters are process-wide atomics, so the parallel pool's workers can
//! report from inside `par_iter` closures; readers take
//! [`snapshot`] deltas around the section they want attributed. The
//! phases cover the *hot* work, not every instruction — orchestration
//! (heap bookkeeping, sandwich arbitration) is deliberately left
//! unattributed, so the three phases sum to slightly less than the
//! section's wall clock. Timing the timers: one `Instant` pair per
//! greedy iteration / diffusion run, which is noise next to the work
//! being measured.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub use vom_diffusion::{CostBudget, CostMeter, SolverCounters};

/// A hot-path phase of the query pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Exact opinion diffusion: single and batched solves.
    Diffusion = 0,
    /// Seed-commit truncation on walk arenas / sketch sets.
    Truncation = 1,
    /// Candidate scoring: rank lookups, delta application, gain scans.
    Scoring = 2,
}

static NANOS: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

/// Adds `elapsed` to a phase's process-wide counter.
#[inline]
pub fn record(phase: Phase, elapsed: Duration) {
    NANOS[phase as usize].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
}

/// Runs `f`, attributing its wall clock to `phase`.
#[inline]
pub fn timed<T>(phase: Phase, f: impl FnOnce() -> T) -> T {
    // audit:allow(d-wall-clock, "phase timer: elapsed feeds reported timings, never selection order")
    let start = Instant::now();
    let out = f();
    record(phase, start.elapsed());
    out
}

/// Accumulated per-phase wall clock since process start (or the sum of
/// concurrent workers' wall clocks — on a pool the phases can exceed
/// real time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Exact diffusion time.
    pub diffusion: Duration,
    /// Truncation time.
    pub truncation: Duration,
    /// Scoring time.
    pub scoring: Duration,
    /// Always zero: warm-start solves no longer exist. Kept so the
    /// trajectory files and the benchmark keep their schema.
    pub diffusion_warm: Duration,
}

impl PhaseTimes {
    /// The phase totals accumulated since an earlier snapshot.
    pub fn since(self, earlier: PhaseTimes) -> PhaseTimes {
        PhaseTimes {
            diffusion: self.diffusion.saturating_sub(earlier.diffusion),
            truncation: self.truncation.saturating_sub(earlier.truncation),
            scoring: self.scoring.saturating_sub(earlier.scoring),
            diffusion_warm: self.diffusion_warm.saturating_sub(earlier.diffusion_warm),
        }
    }

    /// Accumulates another breakdown into this one.
    pub fn add(&mut self, other: PhaseTimes) {
        self.diffusion += other.diffusion;
        self.truncation += other.truncation;
        self.scoring += other.scoring;
        self.diffusion_warm += other.diffusion_warm;
    }

    /// Total exact diffusion time — `diffusion` plus the always-zero
    /// `diffusion_warm`, so the historical total keeps its meaning.
    pub fn diffusion_total(&self) -> Duration {
        self.diffusion + self.diffusion_warm
    }
}

/// Worker-local phase accumulator for per-item instrumentation inside
/// parallel loops: sections accumulate into plain fields and flush to
/// the shared atomics **once, on drop** — per-item atomic RMWs on the
/// three adjacent counters would ping-pong one cache line across every
/// pool worker. Hold one in the worker's `map_init` scratch; it flushes
/// when the pool tears the scratch down.
#[derive(Debug, Default)]
pub struct PhaseLocal {
    acc: [Duration; 3],
}

impl PhaseLocal {
    /// Adds `elapsed` to the local accumulator for `phase`.
    #[inline]
    pub fn add(&mut self, phase: Phase, elapsed: Duration) {
        self.acc[phase as usize] += elapsed;
    }

    /// Runs `f`, attributing its wall clock to `phase` locally.
    #[inline]
    pub fn timed<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        // audit:allow(d-wall-clock, "phase timer: elapsed feeds reported timings, never selection order")
        let start = Instant::now();
        let out = f();
        self.add(phase, start.elapsed());
        out
    }
}

impl Drop for PhaseLocal {
    fn drop(&mut self) {
        for (i, d) in self.acc.iter().enumerate() {
            if !d.is_zero() {
                NANOS[i].fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
            }
        }
    }
}

/// Current counter values.
pub fn snapshot() -> PhaseTimes {
    PhaseTimes {
        diffusion: Duration::from_nanos(NANOS[0].load(Ordering::Relaxed)),
        truncation: Duration::from_nanos(NANOS[1].load(Ordering::Relaxed)),
        scoring: Duration::from_nanos(NANOS[2].load(Ordering::Relaxed)),
        diffusion_warm: Duration::ZERO,
    }
}

/// Current process-wide solver counters (re-exported from the diffusion
/// crate so bench/report code reads phases and counters from one place).
pub fn solver_counters() -> SolverCounters {
    SolverCounters::snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_accumulate_and_diff() {
        let before = snapshot();
        timed(Phase::Scoring, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        record(Phase::Diffusion, Duration::from_micros(5));
        let delta = snapshot().since(before);
        assert!(delta.scoring >= Duration::from_millis(2));
        assert!(delta.diffusion >= Duration::from_micros(5));
        assert_eq!(delta.diffusion_warm, Duration::ZERO);
        assert_eq!(delta.diffusion_total(), delta.diffusion);
        let mut acc = PhaseTimes::default();
        acc.add(delta);
        assert_eq!(acc.scoring, delta.scoring);
    }
}
