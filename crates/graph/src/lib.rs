#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # vom-graph
//!
//! Directed social-graph substrate for voting-based opinion maximization.
//!
//! The central type is [`SocialGraph`]: a compressed-sparse-row (CSR)
//! representation of a directed graph whose edge weights form a
//! *column-stochastic* influence matrix `W` — for every node `v`, the
//! weights on the incoming edges of `v` sum to one. This is exactly the
//! matrix the DeGroot and Friedkin–Johnsen opinion-diffusion models
//! multiply against (see the `vom-diffusion` crate).
//!
//! The crate also provides:
//!
//! * [`GraphBuilder`] — edge-list ingestion with interaction-count weight
//!   transforms (`w = 1 − e^{−a/µ}`, as used by the paper) and column
//!   normalization;
//! * bounded-hop BFS for the *reachable users set* `N_S^{(t)}`
//!   ([`bfs::bounded_out_bfs`]) and the coverage state of the sandwich
//!   upper-bound greedy ([`bfs::HopCoverage`]), which scores
//!   [`bfs::LANES`] = 64 sources per bit-parallel bounded BFS;
//! * deterministic random-graph generators used by the synthetic dataset
//!   replicas and the test-suite ([`generators`]);
//! * degree statistics ([`stats`]).
//!
//! Nodes are dense `u32` indices in `0..n` (alias [`Node`]); this keeps the
//! hot arrays (`Vec<f64>` opinion vectors, walk arenas) directly indexable.
//!
//! # Example
//!
//! ```
//! use vom_graph::GraphBuilder;
//!
//! // Raw interaction strengths; incoming weights normalize to sum to 1.
//! let g = GraphBuilder::new(3)
//!     .edge(0, 2, 3.0)
//!     .edge(1, 2, 1.0)
//!     .build()?;
//! assert_eq!(g.num_nodes(), 3);
//! assert_eq!(g.in_degree(2), 2);
//! let total: f64 = g.in_weights(2).iter().sum();
//! assert!((total - 1.0).abs() < 1e-12);
//! assert!(g.in_weights(2).contains(&0.75)); // 3.0 / (3.0 + 1.0)
//! g.validate_column_stochastic(1e-12)?;
//! # Ok::<(), vom_graph::GraphError>(())
//! ```

pub mod bfs;
pub mod builder;
pub mod csr;
pub mod error;
pub mod generators;
pub mod graph;
pub mod stats;
pub mod weights;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use error::GraphError;
pub use graph::SocialGraph;
pub use weights::WeightTransform;

/// Dense node identifier (`0..n`).
pub type Node = u32;

/// Candidate (campaigner) identifier (`0..r`).
pub type Candidate = usize;

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, GraphError>;
