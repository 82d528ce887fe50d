#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # vom-walks
//!
//! Reverse random-walk estimation of FJ opinions (§V of the paper).
//!
//! A *t-step reverse random walk* from `u` moves along **incoming** edges
//! (the out-edges of the reverse graph): at node `v` it terminates with
//! probability `d_v` (the stubbornness), otherwise it moves to in-neighbor
//! `y` with probability `w_yv`. The initial opinion of the walk's end node
//! is an unbiased estimate of `b_qu^{(t)}` (Theorem 8), and truncating
//! *seedless* walks at the first occurrence of a seed yields an unbiased
//! estimate of `b_qu^{(t)}[S]` for any seed set `S` (Theorem 9) — this
//! **post-generation truncation** is what lets the greedy algorithm reuse
//! one batch of walks across all `k` iterations.
//!
//! Components:
//!
//! * [`WalkArena`] — flat storage for millions of short walks;
//! * [`WalkGenerator`] — deterministic (seeded), parallel walk generation:
//!   per-node batches (RW, Algorithm 4), arbitrary start lists (sketches,
//!   Algorithm 5) and seed-aware *Direct Generation* (used as the ablation
//!   baseline for truncation);
//! * [`Truncation`] — incremental first-seed-occurrence truncation over
//!   an [`OccurrenceIndex`] of the walks containing each node, built once
//!   per arena and shared;
//! * [`OpinionEstimator`] — per-start-node opinion estimates plus the
//!   marginal-gain scans the greedy selectors consume;
//! * [`lambda`] — the walk-count bounds of Theorems 10–12 and the `γ*`
//!   heuristic of Eq. 33.
//!
//! # Example
//!
//! Estimates converge to the exact `t = 1` opinions of the running
//! example, and post-generation truncation applies a seed without
//! regenerating a single walk:
//!
//! ```
//! use vom_graph::builder::graph_from_edges;
//! use vom_walks::{Lambda, OpinionEstimator, WalkGenerator};
//!
//! let g = graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)])?;
//! let d = [0.0, 0.0, 0.5, 0.5];
//! let gen = WalkGenerator::new(&g, &d, 1);
//! let arena = gen.generate_per_node(&Lambda::Uniform(20_000), 7);
//!
//! let mut est = OpinionEstimator::new(&arena, &[0.40, 0.80, 0.60, 0.90]);
//! assert!((est.estimate(3) - 0.75).abs() < 0.02); // exact: 0.75
//!
//! est.add_seed(0); // truncation, not regeneration
//! assert_eq!(est.estimate(0), 1.0);
//! assert!((est.estimate(2) - 0.75).abs() < 0.02); // exact b_3[{1}] = 0.75
//! # Ok::<(), vom_graph::GraphError>(())
//! ```

pub mod arena;
pub mod estimator;
pub mod generator;
pub mod lambda;
pub mod truncation;

pub use arena::{WalkArena, WalkArenaBuilder};
pub use estimator::{DeltaScratch, OpinionEstimator, UserPairs};
pub use generator::{Lambda, WalkGenerator};
pub use truncation::{OccurrenceIndex, Truncation};

/// Mixes a base seed with a stream index into an independent RNG seed
/// (SplitMix64 finalizer). Used to give every node/walk its own
/// deterministic random stream regardless of thread scheduling.
#[inline]
pub fn mix_seed(base: u64, stream: u64) -> u64 {
    let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_seed_is_deterministic_and_spreads() {
        assert_eq!(mix_seed(42, 1), mix_seed(42, 1));
        assert_ne!(mix_seed(42, 1), mix_seed(42, 2));
        assert_ne!(mix_seed(42, 1), mix_seed(43, 1));
    }
}
