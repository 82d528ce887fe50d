#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # vom-voting
//!
//! The five voting-based scoring functions of the paper (§II-B), computed
//! over an opinion matrix `B^(t)`:
//!
//! * **cumulative** — `Σ_v b_qv` (Eq. 3);
//! * **plurality** — number of users ranking `c_q` strictly first (Eq. 4);
//! * **p-approval** — users ranking `c_q` within the top `p` (Eq. 5);
//! * **positional-p-approval** — position-weighted approval (Eq. 6);
//! * **Copeland** — one-on-one competitions won (Eq. 7).
//!
//! Plus ranking utilities (the rank `β` with ties), election tallies,
//! (Condorcet) winner determination, an [`index`] module with the
//! rank-indexed competitor opinions and delta-driven score accumulators
//! the selection engines' hot paths run on, and an [`ext`] module with
//! extended voting rules (Borda, veto, maximin, Bucklin, Copeland⁰·⁵)
//! behind the [`OpinionScore`] trait — the paper's §IX future-work
//! direction.

pub mod ext;
pub mod index;
pub mod rank;
pub mod score;
pub mod tally;

pub use ext::{ext_winner, ExtendedRule, OpinionScore};
pub use index::{
    CopelandAccumulator, CopelandScratch, PositionalAccumulator, RankIndex, WeightedCopeland,
};
pub use rank::{beta, position_histogram};
pub use score::{ScoreError, ScoringFunction};
pub use tally::{condorcet_winner, tally, ElectionResult};
