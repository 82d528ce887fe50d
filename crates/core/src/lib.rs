#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # vom-core
//!
//! Seed selection for voting-based opinion maximization — the paper's
//! primary contribution (Problems 1 and 2, Algorithms 1–5).
//!
//! Three interchangeable selection engines:
//!
//! * **DM** ([`dm`]) — exact greedy by direct sparse matrix–vector
//!   iteration, with CELF for the submodular cumulative score (§III-C);
//! * **RW** ([`rw`]) — greedy on reverse random-walk estimates with
//!   post-generation truncation (Algorithm 4, §V);
//! * **RS** ([`rs`]) — greedy on sketch estimates from θ sampled starts
//!   (Algorithm 5, §VI), the paper's ultimately recommended method.
//!
//! For the non-submodular plurality variants and Copeland, every engine
//! can be wrapped in **sandwich approximation** (Algorithm 3, §IV):
//! greedily maximize the submodular lower/upper bound functions of
//! Definitions 3/4/6 and keep the best of the three solutions under the
//! real objective.
//!
//! [`win::min_seeds_to_win`] implements Problem 2 (FJ-Vote-Win) by binary
//! search over the budget (Algorithm 2).
//!
//! Entry points — one lifecycle for every method:
//!
//! * build once: [`engine::SeedSelector::prepare_index`] (or
//!   [`engine::SeedSelector::prepare_spec`] for an owned
//!   [`ProblemSpec`]) on an [`engine::Engine`] builds an immutable,
//!   `Arc`-shareable [`engine::PreparedIndex`];
//! * query many: each caller opens an [`engine::QuerySession`] on the
//!   `Arc` and answers [`engine::Query`]s — plain or sandwich greedy,
//!   any rule and budget up to the prepared one, optionally under a
//!   deterministic [`CostMeter`] budget
//!   ([`engine::QuerySession::select_with_meter`]). This is the API for
//!   sweeps, rule comparisons, and concurrent serving (the
//!   `vom-service` crate batches over it);
//! * one query: [`engine::SeedSelector::select_once`] runs the whole
//!   lifecycle for a single problem.
//!
//! The [`registry`] is the single source of method identities and legend
//! names across the workspace (ours *and* the §VIII baselines).

pub mod bounds;
pub mod celf;
pub mod dm;
pub mod dm_ext;
pub mod engine;
pub mod error;
pub mod estimate;
pub mod greedy;
pub mod persist;
pub mod phases;
pub mod problem;
pub mod registry;
pub mod rs;
pub mod rw;
pub mod sandwich;
pub mod win;
pub mod win_ext;

pub use dm_ext::{evaluate_rule, generic_greedy};
pub use engine::{
    BuildCounters, BuildStats, Engine, IndexBackend, Outcome, PreparedIndex, Query, QuerySession,
    RuleClass, SeedSelector, SelectionMode, SelectionResult, SessionScratch,
};
pub use error::CoreError;
pub use persist::{graph_digest, spec_digest};
pub use phases::{CostBudget, CostMeter};
pub use problem::{Problem, ProblemSpec};
pub use registry::{MethodDescriptor, MethodId, METHOD_REGISTRY};
pub use win_ext::{min_seeds_to_win_rule, wins_rule};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, CoreError>;
