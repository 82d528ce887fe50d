//! A ten-brand marketplace (Yelp-style): maximize membership-style
//! scores — p-approval ("user subscribes to her top-p platforms") and
//! positional-p-approval (premium tiers for higher ranks) — and compare
//! the three engines' speed/quality trade-off.
//!
//! ```sh
//! cargo run --release --example product_campaign
//! ```

use std::sync::Arc;
use vom::core::engine::{QuerySession, SeedSelector};
use vom::core::{Engine, Problem, Query};
use vom::datasets::{yelp_like, ReplicaParams};
use vom::voting::{position_histogram, ScoringFunction};

fn main() {
    let ds = yelp_like(&ReplicaParams::at_scale(0.002, 11));
    let inst = &ds.instance;
    let (k, t) = (30, 20);
    println!(
        "dataset {} — {} users, target category: {}",
        ds.name,
        inst.num_nodes(),
        ds.candidate_names[ds.default_target]
    );

    // Where does the target rank in users' preference orders today?
    let seedless = inst.opinions_at(t, ds.default_target, &[]);
    let hist = position_histogram(&seedless, ds.default_target);
    println!(
        "rank distribution before seeding (positions 1..4): {:?}",
        &hist[..4]
    );

    // Three membership models, one budget.
    let scores = vec![
        ScoringFunction::Plurality,
        ScoringFunction::PApproval { p: 3 },
        ScoringFunction::PositionalPApproval {
            p: 3,
            // Premium tier worth 1.0, standard 0.6, basic 0.3.
            weights: {
                let mut w = vec![0.0; inst.num_candidates()];
                w[0] = 1.0;
                w[1] = 0.6;
                w[2] = 0.3;
                w
            },
        },
    ];
    // All three membership models are competitive rules, so one shared
    // RS index (one sketch set) serves them all — the build is paid
    // once, each rule is a cheap query on a session.
    let spec = Problem::new(inst, ds.default_target, k, t, ScoringFunction::Plurality)
        .expect("valid problem");
    let index = Arc::new(
        Engine::rs_default()
            .prepare_index(&spec)
            .expect("prepare succeeds"),
    );
    let mut session = QuerySession::new(Arc::clone(&index));
    println!(
        "prepared RS once in {:.2}s ({:.1} MB of sketches)",
        index.build_stats().build_time.as_secs_f64(),
        index.build_stats().heap_bytes as f64 / 1e6
    );
    for score in scores {
        let query = Query::new(k, score.clone(), ds.default_target);
        let res = session.select(&query).expect("selection succeeds");
        let after = inst.opinions_at(t, ds.default_target, &res.seeds);
        let hist = position_histogram(&after, ds.default_target);
        println!(
            "{score:<24} score {:>8.1}  (query {:.2}s)  rank dist: {:?}",
            res.exact_score,
            res.elapsed.as_secs_f64(),
            &hist[..4]
        );
    }

    // Engine comparison on the 3-approval objective.
    println!("\nengine comparison (3-approval):");
    let problem = Problem::new(
        inst,
        ds.default_target,
        k,
        t,
        ScoringFunction::PApproval { p: 3 },
    )
    .expect("valid problem");
    for engine in [Engine::Dm, Engine::rw_default(), Engine::rs_default()] {
        let index = Arc::new(engine.prepare_index(&problem).expect("prepare succeeds"));
        let res = QuerySession::new(Arc::clone(&index))
            .select_k(k)
            .expect("selection succeeds");
        println!(
            "  {:<3} score {:>8.1}  build {:>7.3}s  query {:>7.3}s  estimator {:>6.1} MB",
            engine.name(),
            res.exact_score,
            index.build_stats().build_time.as_secs_f64(),
            res.elapsed.as_secs_f64(),
            res.estimator_heap_bytes as f64 / 1e6
        );
    }
}
