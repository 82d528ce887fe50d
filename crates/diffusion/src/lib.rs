#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # vom-diffusion
//!
//! Opinion-formation models over a [`vom_graph::SocialGraph`]: the
//! **DeGroot** model and its stubbornness extension, the
//! **Friedkin–Johnsen (FJ)** model, exactly as used by the paper
//! (§II-A, Equations 1–2):
//!
//! ```text
//! B_q^(t+1) = B_q^(t) · W_q · (I − D_q) + B_q^(0) · D_q
//! ```
//!
//! The crate provides:
//!
//! * [`OpinionMatrix`] — the `r × n` matrix `B` of user opinions in `[0,1]`;
//! * [`Solver`] — the one exact engine computing `B_q^(t)[S]` for any
//!   seed set `S` over a candidate's [`DiffusionSystem`], with
//!   fixed-point early exit, convergence tolerances and warm starts (the
//!   paper's **DM** building block; DeGroot is the zero-stubbornness
//!   case);
//! * [`Instance`] — a full multi-candidate problem instance bundling, per
//!   candidate, the influence matrix `W_q`, initial opinions `B_q^(0)`,
//!   stubbornness `D_q`, and any pre-committed seed sets for non-target
//!   candidates;
//! * per-step opinion-change tracking over [`FjEngine`] trajectories
//!   ([`convergence`], used by the paper's Appendix B / Figure 18).
//!
//! Seeding a node `s` for candidate `c_q` sets `b_qs^(0) = 1` **and**
//! `d_qs = 1` (fully stubborn at the maximum opinion), per §II-C. Engines
//! take seed sets as parameters rather than mutated inputs so that greedy
//! seed selection can evaluate thousands of candidate sets without copying.
//!
//! # Example
//!
//! The paper's Figure-1 running example at `t = 1` (Table I):
//!
//! ```
//! use std::sync::Arc;
//! use vom_diffusion::{DiffusionSystem, SolveOptions, Solver};
//! use vom_graph::builder::graph_from_edges;
//!
//! let g = graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)])?;
//! let system = DiffusionSystem::new(
//!     &g,
//!     &[0.40, 0.80, 0.60, 0.90], // initial opinions about the target
//!     &[0.0, 0.0, 0.5, 0.5],     // stubbornness
//! )?;
//! let mut solver = Solver::new(Arc::new(system));
//!
//! // No seeds: users 3 and 4 average their in-neighbors with themselves.
//! solver.solve(&[], &SolveOptions::exact(1), None);
//! assert!((solver.opinions()[2] - 0.60).abs() < 1e-12);
//! assert!((solver.opinions()[3] - 0.75).abs() < 1e-12);
//!
//! // Seeding user 3 (paper seed set {3}) pins her at 1 and lifts user 4.
//! solver.solve(&[2], &SolveOptions::exact(1), None);
//! assert_eq!(solver.opinions()[2], 1.0);
//! assert!((solver.opinions()[3] - 0.95).abs() < 1e-12);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod budget;
pub mod campaign;
pub mod convergence;
pub mod error;
pub mod fj;
pub mod opinion;
pub mod shared;
pub mod solver;
pub mod stubbornness;

pub use budget::{CostBudget, CostMeter};
pub use campaign::{CandidateData, Instance};
pub use error::DiffusionError;
pub use fj::FjEngine;
pub use opinion::OpinionMatrix;
pub use shared::SharedValues;
pub use solver::{
    set_warm_start_enabled, warm_start_enabled, Baseline, DiffusionSystem, PooledSolver,
    SolveOptions, SolveReport, Solver, SolverCounters, SolverPool,
};
pub use stubbornness::Stubbornness;

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, DiffusionError>;
