#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Umbrella crate re-exporting the full voting-based opinion maximization API.
//!
//! # Quickstart
//!
//! The paper's Figure-1 running example: pick one seed so candidate 0
//! wins the plurality vote at horizon `t = 1`.
//!
//! ```
//! use std::sync::Arc;
//! use vom::core::{Engine, Problem, SeedSelector, SelectionMode};
//! use vom::diffusion::{Instance, OpinionMatrix};
//! use vom::graph::GraphBuilder;
//! use vom::voting::ScoringFunction;
//!
//! // Directed influence graph; incoming weights normalize to sum to 1.
//! let graph = Arc::new(
//!     GraphBuilder::new(4)
//!         .edge(0, 2, 1.0)
//!         .edge(1, 2, 1.0)
//!         .edge(2, 3, 1.0)
//!         .build()?,
//! );
//! // Opinions in [0, 1] about two candidates + per-user stubbornness.
//! let initial = OpinionMatrix::from_rows(vec![
//!     vec![0.40, 0.80, 0.60, 0.90],
//!     vec![0.35, 0.75, 1.00, 0.80],
//! ])?;
//! let instance = Instance::shared(graph, initial, vec![0.0, 0.0, 0.5, 0.5])?;
//!
//! let problem = Problem::new(&instance, 0, 1, 1, ScoringFunction::Plurality)?;
//! let result = Engine::rs_default().select_once(&problem, SelectionMode::Auto)?;
//! assert_eq!(result.exact_score, 4.0); // all four users favor the target
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
pub use vom_baselines as baselines;
pub use vom_core as core;
pub use vom_datasets as datasets;
pub use vom_diffusion as diffusion;
pub use vom_dynamics as dynamics;
pub use vom_graph as graph;
pub use vom_persist as persist;
pub use vom_service as service;
pub use vom_sketch as sketch;
pub use vom_voting as voting;
pub use vom_walks as walks;
