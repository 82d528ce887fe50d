//! Quickstart: build a small social network, diffuse opinions under the
//! Friedkin–Johnsen model, and pick seeds that maximize a voting score.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;
use vom::core::engine::{QuerySession, SeedSelector};
use vom::core::{Engine, Problem, Query};
use vom::diffusion::{Instance, OpinionMatrix};
use vom::graph::GraphBuilder;
use vom::voting::{tally, ScoringFunction};

fn main() {
    // 1. A directed social graph: edge (u, v, w) means u influences v
    //    with raw interaction strength w. Incoming weights are
    //    normalized to sum to 1 (column-stochastic) by the builder.
    //    This is the paper's Figure 1 running example.
    let graph = Arc::new(
        GraphBuilder::new(4)
            .edge(0, 2, 1.0)
            .edge(1, 2, 1.0)
            .edge(2, 3, 1.0)
            .build()
            .expect("valid edges"),
    );

    // 2. Two competing candidates; every user holds an opinion in [0, 1]
    //    about each, plus a stubbornness (how much they cling to their
    //    initial opinion).
    let initial = OpinionMatrix::from_rows(vec![
        vec![0.40, 0.80, 0.60, 0.90], // candidate 0 — our target
        vec![0.35, 0.75, 1.00, 0.80], // candidate 1 — the competitor
    ])
    .expect("opinions in range");
    let stubbornness = vec![0.0, 0.0, 0.5, 0.5];
    let instance = Instance::shared(graph, initial, stubbornness).expect("consistent inputs");

    // 3. Watch opinions evolve to the horizon.
    let horizon = 1;
    let seedless = instance.opinions_at(horizon, 0, &[]);
    println!(
        "opinions about the target at t={horizon}: {:?}",
        seedless.row(0)
    );
    let result = tally(&seedless, &ScoringFunction::Plurality);
    println!(
        "seedless plurality tally: {:?} -> winner candidate {}",
        result.scores, result.winner
    );

    // 4. Pick one seed for the target to maximize each voting score:
    //    build the exact DM engine's immutable index once, open a query
    //    session on it, then query per rule (the build-once/query-many
    //    lifecycle; the index is `Send + Sync`, so any number of threads
    //    could open their own sessions on the same `Arc` —
    //    `SeedSelector::select_once` is the one-shot shorthand).
    let spec =
        Problem::new(&instance, 0, 1, horizon, ScoringFunction::Cumulative).expect("valid problem");
    let index = Engine::Dm.prepare_index(&spec).expect("prepare succeeds");
    let mut session = QuerySession::new(Arc::new(index));
    for score in [
        ScoringFunction::Cumulative,
        ScoringFunction::Plurality,
        ScoringFunction::Copeland,
    ] {
        let query = Query::new(1, score.clone(), 0);
        let res = session.select(&query).expect("selection succeeds");
        println!(
            "{score:>10}: seed user {:?} -> score {:.2}",
            res.seeds, res.exact_score
        );
    }
    // The optimal seed differs per score — exactly the paper's Example 2:
    // user 0 for cumulative, user 2 for plurality/Copeland.
}
