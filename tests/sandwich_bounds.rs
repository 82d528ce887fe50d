//! Sandwich approximation invariants on synthetic replicas: LB ≤ F ≤ UB,
//! ratio in (0, 1], the sandwich never returns worse seeds than the
//! plain greedy, and pinned upper-bound orders `S_U`.

use vom::core::bounds::{
    evaluate_upper_bound, favorable_users, upper_bound_parts, weakly_favorable_users,
};
use vom::core::{Engine, Problem, SeedSelector, SelectionMode};
use vom::datasets::{dblp_like, twitter_mask_like, ReplicaParams};
use vom::voting::rank::beta;
use vom::voting::ScoringFunction;

fn params() -> ReplicaParams {
    ReplicaParams::at_scale(0.003, 31)
}

#[test]
fn lower_bound_dominated_by_score_for_plurality_variants() {
    // LB(S) = ω[p] Σ_{v ∈ V_q} b_qv[S] <= F(S) (Theorem 5(4)).
    let ds = dblp_like(&params());
    for score in [
        ScoringFunction::Plurality,
        ScoringFunction::PApproval { p: 2 },
    ] {
        let p = Problem::new(&ds.instance, 0, 5, 8, score.clone()).unwrap();
        let pp = score.approval_depth().unwrap();
        let seedless = p.opinions(&[]);
        let favorable = favorable_users(&seedless, 0, pp);
        for seeds in [vec![], vec![1, 2, 3]] {
            let b = p.opinions(&seeds);
            let lb: f64 =
                score.position_weight(pp) * favorable.iter().map(|&v| b.get(0, v)).sum::<f64>();
            let f = p.exact_score(&seeds);
            assert!(lb <= f + 1e-9, "{score}: LB {lb} > F {f} for {seeds:?}");
        }
    }
}

#[test]
fn upper_bound_dominates_score_on_replicas() {
    let ds = twitter_mask_like(&params());
    for score in [ScoringFunction::Plurality, ScoringFunction::Copeland] {
        let p = Problem::new(&ds.instance, 0, 5, 8, score.clone()).unwrap();
        let seedless = p.opinions(&[]);
        let (mult, base) = upper_bound_parts(&p, &seedless);
        for seeds in [vec![], vec![0, 5, 9], vec![10, 20, 30, 40, 50]] {
            let ub = evaluate_upper_bound(&p, &base, mult, &seeds);
            let f = p.exact_score(&seeds);
            assert!(ub + 1e-9 >= f, "{score}: UB {ub} < F {f} for {seeds:?}");
        }
    }
}

#[test]
fn favorable_sets_are_consistent_with_beta() {
    let ds = dblp_like(&params());
    let p = Problem::new(&ds.instance, 0, 5, 8, ScoringFunction::Plurality).unwrap();
    let seedless = p.opinions(&[]);
    let favorable = favorable_users(&seedless, 0, 1);
    for &v in &favorable {
        assert_eq!(beta(&seedless, 0, v), 1);
    }
    let weak = weakly_favorable_users(&seedless, 0);
    // Strictly-first users strictly prefer the target to someone.
    for v in &favorable {
        assert!(weak.contains(v), "favorable ⊆ weakly favorable");
    }
}

#[test]
fn sandwich_never_loses_to_plain_greedy() {
    let ds = twitter_mask_like(&params());
    for score in [ScoringFunction::Plurality, ScoringFunction::Copeland] {
        let p = Problem::new(&ds.instance, 0, 10, 8, score.clone()).unwrap();
        let plain = Engine::rs_default()
            .select_once(&p, SelectionMode::Plain)
            .unwrap()
            .exact_score;
        let sandwich = Engine::rs_default()
            .select_once(&p, SelectionMode::Auto)
            .unwrap();
        assert!(
            sandwich.exact_score >= plain - 1e-9,
            "{score}: sandwich {} < plain {plain}",
            sandwich.exact_score
        );
        let info = sandwich.sandwich.unwrap();
        // ratio = F(S_U)/UB(S_U) ∈ [0, 1]; 0 is legitimate for Copeland
        // when the coverage seeds do not flip any duel.
        assert!((0.0..=1.0 + 1e-12).contains(&info.ratio), "{score}");
        assert!(info.ub_su + 1e-9 >= info.f_su, "{score}: UB(S_U) >= F(S_U)");
    }
}

#[test]
fn sandwich_ratio_is_reasonably_high_on_replicas() {
    // §IV-D: the ratio reaches 0.7 in 90% of trials. On the replicas we
    // assert a conservative floor.
    let ds = twitter_mask_like(&params());
    let p = Problem::new(&ds.instance, 0, 20, 8, ScoringFunction::Plurality).unwrap();
    let res = Engine::rs_default()
        .select_once(&p, SelectionMode::Auto)
        .unwrap();
    let ratio = res.sandwich.unwrap().ratio;
    assert!(ratio >= 0.3, "suspiciously poor sandwich ratio {ratio}");
}

#[test]
fn upper_bound_orders_are_pinned_on_the_dblp_replica() {
    // S_U of one auto plurality and one auto Copeland query. The seed
    // digests elsewhere pin only the chosen sets, and the arbitration
    // may never choose S_U; these pins hold the coverage greedy itself.
    let ds = dblp_like(&params());
    for (score, target, pin) in [
        (ScoringFunction::Plurality, 0, vec![0, 1, 2, 6, 3, 24, 4]),
        (ScoringFunction::Copeland, 1, vec![2, 0, 6]),
    ] {
        let p = Problem::new(&ds.instance, target, 10, 1, score.clone()).unwrap();
        let res = Engine::rs_default()
            .select_once(&p, SelectionMode::Auto)
            .unwrap();
        assert_eq!(res.sandwich.unwrap().s_u, pin, "{score}");
    }
}
