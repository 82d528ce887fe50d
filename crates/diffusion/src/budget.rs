//! Deterministic cost budgets for cooperative cancellation.
//!
//! A [`CostBudget`] is a deadline measured in **work units** ("ticks"),
//! not wall-clock time: solver iteration steps, scored candidates —
//! quantities that are identical at every thread width and on every
//! machine. A [`CostMeter`] accumulates charges
//! against that budget while a selection runs; greedy loops consult
//! [`CostMeter::exhausted`] at their sequential iteration checkpoints
//! and stop committing seeds once the budget is spent, leaving a valid
//! CELF-consistent prefix.
//!
//! # Determinism contract
//!
//! * **Charges** may come from anywhere, including parallel workers —
//!   the total is a commutative sum, so it is schedule-independent at
//!   any barrier.
//! * **Exhaustion checks** must happen only in *sequential* code, at
//!   points where every outstanding parallel charge has been joined
//!   (greedy iteration boundaries, CELF pop boundaries). Checking
//!   mid-parallel-region would tie the answer to thread interleaving.
//! * **Never** derive a budget or a charge from a wall clock
//!   (`Instant`, `elapsed()`, `as_millis()` …). The `vom-audit`
//!   `d-degrade-prefix` lint enforces this; wall-clock→tick calibration
//!   belongs in the (audit-exempt) bench crate only.
//!
//! Tick magnitudes: one tick per dense solver step per node batch is
//! too fine; the convention used across the workspace is **one tick
//! per solver iteration step of each seed set** (a single solve's
//! step, or one lane's share of a batched sweep, so a sweep over `L`
//! lanes charges `L`) and **one tick per scored candidate**. Absolute
//! calibration does not matter for correctness — only that the
//! schedule of charges is deterministic.

use std::sync::atomic::{AtomicU64, Ordering};

/// A deadline in deterministic work units. See the module docs for the
/// tick convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostBudget {
    /// Total ticks the query may spend before degrading.
    pub ticks: u64,
}

impl CostBudget {
    /// A budget of `ticks` work units.
    pub fn ticks(ticks: u64) -> CostBudget {
        CostBudget { ticks }
    }
}

/// A progress meter charging work against a [`CostBudget`].
///
/// Shareable across threads (charges are atomic adds, so the total at
/// any join point is schedule-independent); exhaustion must only be
/// consulted from sequential checkpoints — see the module docs.
#[derive(Debug)]
pub struct CostMeter {
    limit: u64,
    /// Every charge is multiplied by this factor. 1 in production; the
    /// fault-injection harness inflates it to force degradation at a
    /// deterministic point without hand-tuning budgets per dataset.
    scale: u64,
    spent: AtomicU64,
}

impl CostMeter {
    /// A meter over `budget` with the production scale of 1.
    pub fn new(budget: CostBudget) -> CostMeter {
        CostMeter::with_scale(budget, 1)
    }

    /// A meter whose charges are inflated `scale`× (fault injection;
    /// `scale` is clamped to at least 1).
    pub fn with_scale(budget: CostBudget, scale: u64) -> CostMeter {
        CostMeter {
            limit: budget.ticks,
            scale: scale.max(1),
            spent: AtomicU64::new(0),
        }
    }

    /// Records `ticks` work units (times the meter's scale).
    #[inline]
    pub fn charge(&self, ticks: u64) {
        if ticks != 0 {
            self.spent
                .fetch_add(ticks.saturating_mul(self.scale), Ordering::Relaxed);
        }
    }

    /// Total ticks charged so far (scale included).
    #[inline]
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }

    /// The budget limit this meter enforces.
    #[inline]
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Whether the budget is spent. Only meaningful at sequential
    /// checkpoints (see the module docs); greedy loops that observe
    /// `true` stop before committing another seed.
    #[inline]
    pub fn exhausted(&self) -> bool {
        self.spent() >= self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_and_exhaust() {
        let m = CostMeter::new(CostBudget::ticks(10));
        assert!(!m.exhausted());
        m.charge(4);
        m.charge(0); // no-op
        assert_eq!(m.spent(), 4);
        assert!(!m.exhausted());
        m.charge(6);
        assert!(m.exhausted());
        assert_eq!(m.limit(), 10);
    }

    #[test]
    fn scale_inflates_charges() {
        let m = CostMeter::with_scale(CostBudget::ticks(100), 50);
        m.charge(1);
        assert_eq!(m.spent(), 50);
        m.charge(1);
        assert!(m.exhausted());
        // Scale 0 clamps to 1 (a zero scale would disable the budget).
        let m = CostMeter::with_scale(CostBudget::ticks(2), 0);
        m.charge(1);
        assert_eq!(m.spent(), 1);
    }

    #[test]
    fn parallel_charges_sum_deterministically() {
        let m = CostMeter::new(CostBudget::ticks(u64::MAX));
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        m.charge(3);
                    }
                });
            }
        });
        assert_eq!(m.spent(), 8 * 1000 * 3);
    }

    #[test]
    fn zero_budget_is_exhausted_immediately() {
        let m = CostMeter::new(CostBudget::ticks(0));
        assert!(m.exhausted());
    }
}
