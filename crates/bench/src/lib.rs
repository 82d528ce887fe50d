#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # vom-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§VIII + appendices), regenerating the same rows/series on
//! the synthetic dataset replicas. Entry point: the `repro` binary
//! (`cargo run -p vom-bench --release --bin repro -- <experiment|all>`).
//!
//! Absolute numbers differ from the paper (different hardware, synthetic
//! data at reduced scale); the *shape* — which method wins, monotonicity
//! in `k`/`t`, parameter sensitivities — is asserted by the workspace
//! integration tests in `tests/experiments_shape.rs`.

pub mod bench_parallel;
pub mod chaos;
pub mod error;
pub mod experiments;
pub mod methods;
pub mod scale_stress;
pub mod table;

pub use error::{BenchError, Result};
pub use methods::{harness_engine, MethodOutcome, PreparedMethod};
pub use table::Table;

use std::time::{Duration, Instant};

/// Global experiment configuration (set from `repro` CLI flags).
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Dataset scale: fraction of the paper's node counts.
    pub scale: f64,
    /// Master RNG seed.
    pub seed: u64,
    /// Quick mode: smaller sweeps for smoke testing.
    pub quick: bool,
    /// Directory for JSON result rows (`results/` by default).
    pub out_dir: std::path::PathBuf,
    /// Explicit seed-budget override (`repro --k N`). Experiments that
    /// derive a budget from [`ExpConfig::default_k`] still clamp it to
    /// their instance size; the `--bench-json` harness takes it
    /// verbatim so unsatisfiable budgets exercise the error path.
    pub k_override: Option<usize>,
    /// Directory the `--bench-json` workloads snapshot their prepared
    /// indexes into after querying (`repro --save-index DIR`).
    pub save_index: Option<std::path::PathBuf>,
    /// Directory the `--bench-json` workloads load prepared-index
    /// snapshots from instead of building (`repro --load-index DIR`).
    /// A missing or unusable snapshot falls back to a fresh build with
    /// a warning; when every index loads, the harness asserts no walk or
    /// sketch artifact was re-simulated (`BuildCounters` delta zero).
    pub load_index: Option<std::path::PathBuf>,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 0.003,
            seed: 2023,
            quick: false,
            out_dir: std::path::PathBuf::from("results"),
            k_override: None,
            save_index: None,
            load_index: None,
        }
    }
}

impl ExpConfig {
    /// The seed budgets swept in Figures 6–8, scaled down from the
    /// paper's 100..2000.
    pub fn k_sweep(&self) -> Vec<usize> {
        if self.quick {
            vec![5, 10, 20]
        } else {
            vec![10, 20, 50, 100]
        }
    }

    /// The default seed budget (paper: 100; `--k` overrides).
    pub fn default_k(&self) -> usize {
        if let Some(k) = self.k_override {
            return k;
        }
        if self.quick {
            10
        } else {
            100
        }
    }

    /// The default time horizon (paper: 20).
    pub fn default_t(&self) -> usize {
        20
    }
}

/// Times a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Formats a duration in seconds with 3 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_sweeps_shrink_in_quick_mode() {
        let full = ExpConfig::default();
        let quick = ExpConfig {
            quick: true,
            ..ExpConfig::default()
        };
        assert!(quick.k_sweep().len() < full.k_sweep().len());
        assert!(quick.default_k() < full.default_k());
    }

    #[test]
    fn timed_reports_elapsed() {
        let (v, d) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}
