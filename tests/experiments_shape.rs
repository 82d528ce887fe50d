//! Shape assertions for the headline experiments: the qualitative
//! findings of §VIII must hold on the replicas (who wins, monotonicity,
//! parameter trends) even though absolute numbers differ from the paper.

use vom::core::rs::RsConfig;
use vom::core::rw::RwConfig;
use vom::core::{Engine, Problem, SeedSelector, SelectionMode};
use vom::datasets::{acm_case_study, twitter_mask_like, yelp_like, ReplicaParams};
use vom::voting::ScoringFunction;

fn params() -> ReplicaParams {
    ReplicaParams::at_scale(0.002, 123)
}

#[test]
fn scores_are_monotone_in_k() {
    // Figures 6-8: every curve rises with k, fastest early.
    let ds = twitter_mask_like(&params());
    let mut last = f64::NEG_INFINITY;
    for k in [5, 10, 20, 40] {
        let p = Problem::new(&ds.instance, 0, k, 10, ScoringFunction::Plurality).unwrap();
        let score = Engine::rs_default()
            .select_once(&p, SelectionMode::Auto)
            .unwrap()
            .exact_score;
        assert!(
            score + 1e-9 >= last,
            "score must not drop when k grows: {last} -> {score} at k={k}"
        );
        last = score;
    }
}

#[test]
fn score_plateaus_in_the_horizon() {
    // Figure 12: the cumulative score changes much more from t=0 to t=5
    // than from t=20 to t=30.
    let ds = yelp_like(&params());
    let score_at = |t: usize| {
        let p = Problem::new(&ds.instance, 0, 10, t, ScoringFunction::Cumulative).unwrap();
        Engine::rs_default()
            .select_once(&p, SelectionMode::Plain)
            .unwrap()
            .exact_score
    };
    let s0 = score_at(0);
    let s5 = score_at(5);
    let s20 = score_at(20);
    let s30 = score_at(30);
    let early = (s5 - s0).abs();
    let late = (s30 - s20).abs();
    assert!(
        late <= early + 1e-6,
        "horizon effect should flatten: early Δ {early}, late Δ {late}"
    );
}

#[test]
fn theta_improves_rank_scores_until_convergence() {
    // Figures 13-14: the plurality score rises (noisily) with θ and
    // stabilizes; tiny θ must not beat the converged value materially.
    let ds = twitter_mask_like(&params());
    let p = Problem::new(&ds.instance, 0, 10, 10, ScoringFunction::Plurality).unwrap();
    let score_at = |theta: usize| {
        Engine::Rs(RsConfig {
            theta_override: Some(theta),
            seed: 7,
            ..RsConfig::default()
        })
        .select_once(&p, SelectionMode::Plain)
        .unwrap()
        .exact_score
    };
    let tiny = score_at(64);
    let big = score_at(8 * ds.instance.num_nodes());
    assert!(
        big >= tiny - 1e-9,
        "more sketches should not hurt: θ=64 gives {tiny}, large θ gives {big}"
    );
}

#[test]
fn rho_improves_rw_accuracy_and_costs_walks() {
    // Figure 16: λ grows with ρ (the bound is explicit); the score should
    // not degrade with more walks.
    use vom::walks::lambda::lambda_cumulative;
    assert!(lambda_cumulative(0.1, 0.95) > lambda_cumulative(0.1, 0.75));

    let ds = twitter_mask_like(&params());
    let p = Problem::new(&ds.instance, 0, 10, 10, ScoringFunction::Plurality).unwrap();
    let score_at = |rho: f64| {
        Engine::Rw(RwConfig {
            rho,
            seed: 7,
            ..RwConfig::default()
        })
        .select_once(&p, SelectionMode::Plain)
        .unwrap()
        .exact_score
    };
    let low = score_at(0.75);
    let high = score_at(0.95);
    assert!(
        high >= 0.95 * low,
        "high ρ ({high}) should be at least comparable to low ρ ({low})"
    );
}

#[test]
fn case_study_seeds_flip_a_large_neutral_population() {
    // Table IV headline: seeding massively increases the target's voter
    // share.
    let cs = acm_case_study(&ReplicaParams::at_scale(0.01, 5));
    let inst = &cs.dataset.instance;
    let n = inst.num_nodes();
    let k = n / 20;
    let t = 20;
    let p = Problem::new(inst, 0, k, t, ScoringFunction::Plurality).unwrap();
    let res = Engine::rs_default()
        .select_once(&p, SelectionMode::Auto)
        .unwrap();
    let before = ScoringFunction::Plurality.score(&inst.opinions_at(t, 0, &[]), 0);
    let after = res.exact_score;
    assert!(
        after >= before + (k as f64) * 0.8,
        "seeding {k} users should add voters well beyond the seeds: {before} -> {after}"
    );
}

#[test]
fn rs_is_fastest_proposed_method_at_scale() {
    // §VIII-C: "RS is the most efficient" — compare selection times on a
    // mid-size replica (DM excluded: it is known-slow by construction).
    let ds = twitter_mask_like(&ReplicaParams::at_scale(0.004, 9));
    let p = Problem::new(&ds.instance, 0, 20, 15, ScoringFunction::Cumulative).unwrap();
    let rw = Engine::rw_default()
        .select_once(&p, SelectionMode::Plain)
        .unwrap();
    let rs = Engine::rs_default()
        .select_once(&p, SelectionMode::Plain)
        .unwrap();
    assert!(
        rs.elapsed <= rw.elapsed * 3,
        "RS ({:?}) should not be drastically slower than RW ({:?})",
        rs.elapsed,
        rw.elapsed
    );
    // Memory ordering from Figure 17(b): RW holds more than RS.
    assert!(
        rw.estimator_heap_bytes > rs.estimator_heap_bytes,
        "RW ({}) should out-consume RS ({})",
        rw.estimator_heap_bytes,
        rs.estimator_heap_bytes
    );
}
