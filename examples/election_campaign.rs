//! A four-party election on a Twitter-like network: find how many seed
//! users the trailing party needs to *win* the plurality vote
//! (FJ-Vote-Win, Problem 2), and compare selection engines.
//!
//! ```sh
//! cargo run --release --example election_campaign
//! ```

use std::sync::Arc;
use vom::core::win::{try_min_seeds_to_win, wins};
use vom::core::{Engine, Problem, Query, QuerySession, SeedSelector, SelectionMode};
use vom::datasets::{twitter_election_like, ReplicaParams};
use vom::voting::{tally, ScoringFunction};

fn main() {
    // A scaled synthetic replica of the paper's Twitter-US-Election
    // dataset: 4 parties, bimodal sentiment-style opinions.
    let ds = twitter_election_like(&ReplicaParams::at_scale(0.001, 7));
    let inst = &ds.instance;
    let t = 20;
    println!(
        "dataset {} — {} users, {} candidates",
        ds.name,
        inst.num_nodes(),
        inst.num_candidates()
    );

    // Current standings at the horizon.
    let standings = tally(&inst.opinions_at(t, 0, &[]), &ScoringFunction::Plurality);
    for (q, name) in ds.candidate_names.iter().enumerate() {
        println!("  {name:<12} plurality {}", standings.scores[q]);
    }
    let target = ds.default_target;
    println!(
        "target: {} (currently {})",
        ds.candidate_names[target],
        if standings.wins_strictly(target) {
            "winning"
        } else {
            "trailing"
        }
    );

    // A fixed-budget campaign with the recommended RS engine (sandwich
    // approximation kicks in automatically for the non-submodular
    // plurality score).
    let k = 25;
    let problem =
        Problem::new(inst, target, k, t, ScoringFunction::Plurality).expect("valid problem");
    let res = Engine::rs_default()
        .select_once(&problem, SelectionMode::Auto)
        .expect("selection succeeds");
    println!(
        "\nwith {k} seeds: plurality {} -> {} ({} with the sandwich ratio {:.2})",
        standings.scores[target],
        res.exact_score,
        if wins(&problem, &problem.non_target_opinions(), &res.seeds) {
            "WIN"
        } else {
            "still behind"
        },
        res.sandwich.as_ref().map_or(1.0, |s| s.ratio),
    );

    // Problem 2: the minimum budget that actually wins. The budget
    // search probes many k values — build the RS index once and let
    // every probe query the shared sketch artifacts through a session.
    let index = Engine::rs_default()
        .prepare_index(&problem.with_budget(inst.num_nodes()))
        .expect("prepare succeeds");
    let mut session = QuerySession::new(Arc::new(index));
    let win = try_min_seeds_to_win(&problem, |p| {
        session
            .select(&Query::plain(p.k, p.score.clone(), p.target))
            .map(|r| r.seeds)
    })
    .expect("selection succeeds");
    match win {
        Some(w) => println!(
            "minimum winning budget k* = {} (seeds: {:?}...)",
            w.k,
            &w.seeds[..w.seeds.len().min(5)]
        ),
        None => println!("this election cannot be won even seeding everyone"),
    }
}
