//! Cross-method agreement on a mid-size synthetic instance: DM (exact),
//! RW and RS must find seed sets of near-identical quality, and the
//! estimated scores must track the exact ones.

use vom::core::rs::RsConfig;
use vom::core::rw::RwConfig;
use vom::core::{Engine, Problem, SeedSelector, SelectionMode};
use vom::datasets::{dblp_like, yelp_like, ReplicaParams};
use vom::voting::ScoringFunction;

fn params() -> ReplicaParams {
    ReplicaParams::at_scale(0.004, 97)
}

#[test]
fn cumulative_scores_agree_within_tolerance() {
    let ds = dblp_like(&params());
    let p = Problem::new(&ds.instance, 0, 10, 10, ScoringFunction::Cumulative).unwrap();
    let dm = Engine::Dm
        .select_once(&p, SelectionMode::Auto)
        .unwrap()
        .exact_score;
    let rw = Engine::rw_default()
        .select_once(&p, SelectionMode::Auto)
        .unwrap()
        .exact_score;
    let rs = Engine::rs_default()
        .select_once(&p, SelectionMode::Auto)
        .unwrap()
        .exact_score;
    // DM is exact greedy; the estimators should be within a few percent.
    assert!(rw >= 0.95 * dm, "RW {rw} too far below DM {dm}");
    assert!(rs >= 0.93 * dm, "RS {rs} too far below DM {dm}");
    // And none can exceed the best-possible trivial upper bound n.
    assert!(dm <= ds.instance.num_nodes() as f64 + 1e-9);
}

#[test]
fn plurality_scores_agree_within_tolerance() {
    let ds = dblp_like(&params());
    let p = Problem::new(&ds.instance, 0, 10, 10, ScoringFunction::Plurality).unwrap();
    let dm = Engine::Dm
        .select_once(&p, SelectionMode::Auto)
        .unwrap()
        .exact_score;
    let rw = Engine::rw_default()
        .select_once(&p, SelectionMode::Auto)
        .unwrap()
        .exact_score;
    let rs = Engine::rs_default()
        .select_once(&p, SelectionMode::Auto)
        .unwrap()
        .exact_score;
    assert!(rw >= 0.9 * dm, "RW {rw} too far below DM {dm}");
    assert!(rs >= 0.85 * dm, "RS {rs} too far below DM {dm}");
}

#[test]
fn estimated_cumulative_tracks_exact_score() {
    use vom::sketch::SketchSet;
    let ds = yelp_like(&params());
    let cand = ds.instance.candidate(0);
    let t = 10;
    let sketch = SketchSet::generate(
        &cand.graph,
        &cand.stubbornness,
        &cand.initial,
        t,
        200_000,
        3,
    );
    let exact: f64 = ds.instance.opinions_of(0, t, &[]).iter().sum();
    let est = sketch.estimated_cumulative();
    let rel = (est - exact).abs() / exact;
    assert!(rel < 0.02, "estimate {est} vs exact {exact} ({rel:.3} rel)");
}

#[test]
fn seed_overlap_between_methods_is_substantial() {
    let ds = dblp_like(&params());
    let p = Problem::new(&ds.instance, 0, 20, 10, ScoringFunction::Cumulative).unwrap();
    let dm = Engine::Dm
        .select_once(&p, SelectionMode::Plain)
        .unwrap()
        .seeds;
    let rw = Engine::Rw(RwConfig {
        seed: 5,
        ..RwConfig::default()
    })
    .select_once(&p, SelectionMode::Plain)
    .unwrap()
    .seeds;
    let rs = Engine::Rs(RsConfig {
        seed: 5,
        ..RsConfig::default()
    })
    .select_once(&p, SelectionMode::Plain)
    .unwrap()
    .seeds;
    let overlap = |a: &[u32], b: &[u32]| {
        let set: std::collections::HashSet<_> = a.iter().collect();
        b.iter().filter(|v| set.contains(v)).count()
    };
    assert!(
        overlap(&dm, &rw) >= 10,
        "DM/RW overlap {}",
        overlap(&dm, &rw)
    );
    assert!(
        overlap(&dm, &rs) >= 8,
        "DM/RS overlap {}",
        overlap(&dm, &rs)
    );
}

#[test]
fn selection_is_deterministic_given_seed() {
    let ds = dblp_like(&params());
    let p = Problem::new(&ds.instance, 0, 8, 10, ScoringFunction::Plurality).unwrap();
    for method in [
        Engine::Dm,
        Engine::Rw(RwConfig {
            seed: 11,
            ..RwConfig::default()
        }),
        Engine::Rs(RsConfig {
            seed: 11,
            ..RsConfig::default()
        }),
    ] {
        let a = method.select_once(&p, SelectionMode::Auto).unwrap().seeds;
        let b = method.select_once(&p, SelectionMode::Auto).unwrap().seeds;
        assert_eq!(a, b, "{}", method.name());
    }
}

/// FNV-1a 64 digest over the seeds that RW and RS indexes, prepared on a
/// small Yelp replica (n = 386, t = 20) for `prepared` at k = 8, select
/// for every rule of `rules` at k = 5 and 8, auto and plain: each seed
/// as a `u64` LE and each query closed by `u64::MAX`.
fn replica_selection_digest(prepared: ScoringFunction, rules: &[ScoringFunction]) -> String {
    use std::sync::Arc;
    use vom::core::{Query, QuerySession};
    let ds = yelp_like(&ReplicaParams::at_scale(0.0004, 2023));
    let target = ds.default_target;
    let p = Problem::new(&ds.instance, target, 8, 20, prepared).unwrap();
    let engines = [
        Engine::Rw(RwConfig {
            seed: 2023,
            max_lambda: 150,
            gamma_floor: 0.1,
            ..RwConfig::default()
        }),
        Engine::Rs(RsConfig {
            seed: 2023,
            ..RsConfig::default()
        }),
    ];
    let mut digest = vom::persist::Digest::new();
    for engine in engines {
        let mut session = QuerySession::new(Arc::new(engine.prepare_index(&p).unwrap()));
        for rule in rules {
            for k in [5, 8] {
                for query in [
                    Query::new(k, rule.clone(), target),
                    Query::plain(k, rule.clone(), target),
                ] {
                    for &v in &session.select(&query).unwrap().seeds {
                        digest.update_u64(u64::from(v));
                    }
                    digest.update_u64(u64::MAX);
                }
            }
        }
    }
    format!("{:016x}", digest.finish())
}

/// Pins the RW and RS rank-greedy selections: plurality and 2-approval,
/// sixteen queries per index.
#[test]
fn rank_selections_are_pinned() {
    let rules = [
        ScoringFunction::Plurality,
        ScoringFunction::PApproval { p: 2 },
    ];
    assert_eq!(
        replica_selection_digest(ScoringFunction::Plurality, &rules),
        "466a755c5e29775e"
    );
}

/// Pins the RW and RS Copeland-greedy selections on the same replica,
/// prepared for Copeland: eight queries per index.
#[test]
fn copeland_selections_are_pinned() {
    assert_eq!(
        replica_selection_digest(ScoringFunction::Copeland, &[ScoringFunction::Copeland]),
        "0116621daf5854a5"
    );
}
