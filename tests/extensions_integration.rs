//! End-to-end integration tests for the extension surface: extended
//! voting rules through both the generic exact path and the paper's
//! estimator machinery (via the Borda/veto bridges), and the dynamics
//! models wired into a full campaign workflow.

use std::sync::Arc;
use vom::core::{
    evaluate_rule, generic_greedy, min_seeds_to_win_rule, Engine, Problem, SeedSelector,
    SelectionMode,
};
use vom::datasets::{dblp_like, yelp_like, ReplicaParams};
use vom::diffusion::OpinionMatrix;
use vom::dynamics::{
    expected_opinions, DynamicsModel, DynamicsSeeder, FjDynamics, HkModel, VoterModel,
};
use vom::voting::{ExtendedRule, ScoringFunction};

fn small_yelp() -> vom::datasets::Dataset {
    yelp_like(&ReplicaParams {
        scale: 0.0003,
        seed: 99,
        mu: 10.0,
    })
}

#[test]
fn borda_runs_through_the_paper_estimator_machinery() {
    // ScoringFunction::borda(r) is a positional-p-approval instance, so
    // the full RW and RS selectors (sandwich included) accept it.
    let ds = small_yelp();
    let r = ds.instance.num_candidates();
    let t = 10;
    let k = 4;
    let problem = Problem::new(
        &ds.instance,
        ds.default_target,
        k,
        t,
        ScoringFunction::borda(r),
    )
    .expect("valid problem");
    let seedless = problem.exact_score(&[]);
    for method in [Engine::rw_default(), Engine::rs_default()] {
        let res = method
            .select_once(&problem, SelectionMode::Auto)
            .expect("selection succeeds");
        assert_eq!(res.seeds.len(), k, "{}", method.name());
        assert!(
            res.exact_score >= seedless,
            "{}: {} < seedless {seedless}",
            method.name(),
            res.exact_score
        );
    }
}

#[test]
fn estimator_borda_is_competitive_with_exact_borda_greedy() {
    // The RS Borda selection (scaled positional form) should land within
    // a modest factor of the exact generic greedy on the unscaled rule.
    let ds = small_yelp();
    let q = ds.default_target;
    let r = ds.instance.num_candidates();
    let (t, k) = (10, 4);
    let problem =
        Problem::new(&ds.instance, q, k, t, ScoringFunction::borda(r)).expect("valid problem");
    let rs = Engine::rs_default()
        .select_once(&problem, SelectionMode::Auto)
        .expect("selection succeeds");
    let exact_seeds = generic_greedy(&ds.instance, q, k, t, &ExtendedRule::Borda).unwrap();

    let rule = ExtendedRule::Borda;
    let rs_val = evaluate_rule(&ds.instance, q, t, &rs.seeds, &rule);
    let exact_val = evaluate_rule(&ds.instance, q, t, &exact_seeds, &rule);
    assert!(exact_val > 0.0);
    assert!(
        rs_val >= 0.9 * exact_val,
        "RS Borda {rs_val} below 90% of exact greedy {exact_val}"
    );
}

#[test]
fn extended_rules_improve_their_own_objective_on_a_replica() {
    let ds = small_yelp();
    let q = ds.default_target;
    let t = 10;
    for rule in [ExtendedRule::Maximin, ExtendedRule::Bucklin] {
        let before = evaluate_rule(&ds.instance, q, t, &[], &rule);
        let seeds = generic_greedy(&ds.instance, q, 4, t, &rule).unwrap();
        let after = evaluate_rule(&ds.instance, q, t, &seeds, &rule);
        assert!(after >= before, "{rule}: {after} < {before}");
    }
}

#[test]
fn generic_win_search_agrees_with_plurality_specialized_path() {
    // Both Problem-2 implementations must report the same k* when run
    // with the same exact inner greedy on the same trailing target.
    let ds = small_yelp();
    let t = 10;
    let inst = &ds.instance;
    // Pick the weakest candidate by seedless plurality.
    let b0 = inst.opinions_at(t, 0, &[]);
    let q = (0..inst.num_candidates())
        .min_by(|&a, &b| {
            ScoringFunction::Plurality
                .score(&b0, a)
                .total_cmp(&ScoringFunction::Plurality.score(&b0, b))
        })
        .unwrap();
    let generic =
        min_seeds_to_win_rule(inst, q, t, &ScoringFunction::Plurality).expect("valid problem");
    let problem = Problem::new(inst, q, 1, t, ScoringFunction::Plurality).unwrap();
    let specialized = vom::core::win::min_seeds_to_win(&problem, |p| {
        let dm = Engine::Dm.select_once(p, SelectionMode::Plain);
        dm.expect("valid problem").seeds
    });
    match (generic, specialized) {
        (Some(g), Some(s)) => assert_eq!(g.k, s.k, "k* mismatch"),
        (None, None) => {}
        (g, s) => panic!("one path found a win, the other did not: {g:?} vs {s:?}"),
    }
}

#[test]
fn seeder_routes_around_entrenched_zealots() {
    // Two influencer hubs each feeding half the leaves; the rival has a
    // zealot on hub 0. The greedy seeder must not waste its single seed
    // on converting hub-0's already-lost audience... it can, in fact,
    // *buy* the zealot (seed precedence) or take hub 1 — either way the
    // chosen seed must beat seeding a mere leaf.
    use vom::graph::builder::graph_from_edges;
    let g = Arc::new(
        graph_from_edges(6, &[(0, 2, 1.0), (0, 3, 1.0), (1, 4, 1.0), (1, 5, 1.0)]).unwrap(),
    );
    let initial = OpinionMatrix::from_rows(vec![vec![0.4; 6], vec![0.6; 6]]).unwrap();
    let model = VoterModel::new(g, initial).unwrap().with_zealots(1, &[0]);
    let seeder = DynamicsSeeder::new(&model, 4, 0, 128, 21);
    let seeds = seeder.greedy(1, &ScoringFunction::Plurality);
    assert!(
        seeds == vec![0] || seeds == vec![1],
        "expected a hub (0 bought from the zealot, or 1), got {seeds:?}"
    );
    let lift = seeder.evaluate(&seeds, &ScoringFunction::Plurality)
        - seeder.evaluate(&[], &ScoringFunction::Plurality);
    assert!(
        lift >= 3.0,
        "a hub seed converts itself + two leaves: {lift}"
    );
}

#[test]
fn dynamics_campaign_end_to_end_on_a_replica() {
    // Full workflow: build models from a dataset replica, seed with the
    // voter model, and confirm the expected lift is real and the FJ
    // adapter agrees with the exact instance.
    let ds = dblp_like(&ReplicaParams {
        scale: 0.001,
        seed: 5,
        mu: 10.0,
    });
    let inst = Arc::new(ds.instance);
    let q = ds.default_target;
    let t = 8;
    let graph = inst.graph_of(q).clone();
    let rows: Vec<Vec<f64>> = (0..inst.num_candidates())
        .map(|c| inst.candidate(c).initial.to_vec())
        .collect();
    let initial = OpinionMatrix::from_rows(rows).unwrap();

    let fj = FjDynamics::new(inst.clone());
    assert_eq!(
        fj.opinions_at(t, q, &[0, 3], 1),
        inst.opinions_at(t, q, &[0, 3]),
        "adapter must match the exact engine"
    );

    let voter = VoterModel::new(graph.clone(), initial.clone()).unwrap();
    let seeder = DynamicsSeeder::new(&voter, t, q, 24, 11);
    let seeds = seeder.greedy(3, &ScoringFunction::Cumulative);
    assert_eq!(seeds.len(), 3);
    let before: f64 = expected_opinions(&voter, t, q, &[], 24, 11)
        .row(q)
        .iter()
        .sum();
    let after: f64 = expected_opinions(&voter, t, q, &seeds, 24, 11)
        .row(q)
        .iter()
        .sum();
    assert!(
        after >= before + 2.0,
        "3 voter-model seeds should add at least their own support: {before} -> {after}"
    );

    // Bounded confidence on the same data: stays valid and deterministic.
    let hk = HkModel::new(graph, initial, 0.3).unwrap();
    let snap = hk.opinions_at(t, q, &seeds, 0);
    for v in 0..snap.num_users() as u32 {
        for c in 0..snap.num_candidates() {
            assert!((0.0..=1.0).contains(&snap.get(c, v)));
        }
    }
    for &s in &seeds {
        assert_eq!(snap.get(q, s), 1.0, "HK pins the seeds too");
    }
}
