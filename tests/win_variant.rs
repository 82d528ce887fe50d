//! FJ-Vote-Win (Problem 2) on synthetic replicas.

use vom::core::win::{min_seeds_to_win, wins};
use vom::core::{Engine, Problem, SeedSelector, SelectionMode};
use vom::datasets::{twitter_mask_like, ReplicaParams};
use vom::voting::ScoringFunction;

#[test]
fn minimum_winning_budget_is_tight_and_winning() {
    let ds = twitter_mask_like(&ReplicaParams::at_scale(0.0005, 77));
    let p = Problem::new(&ds.instance, 0, 1, 10, ScoringFunction::Plurality).unwrap();
    let select = |prob: &Problem<'_>| {
        Engine::rs_default()
            .select_once(prob, SelectionMode::Plain)
            .unwrap()
            .seeds
    };
    let Some(result) = min_seeds_to_win(&p, select) else {
        panic!("replica elections are winnable");
    };
    let others = p.non_target_opinions();
    assert!(wins(&p, &others, &result.seeds), "returned set must win");
    assert_eq!(result.seeds.len().min(result.k), result.seeds.len());
    if result.k > 0 {
        // One fewer greedy seed must NOT win (tightness of the binary
        // search against the same selector).
        let fewer = select(&p.with_budget(result.k - 1));
        assert!(
            !wins(&p, &others, &fewer),
            "k* - 1 = {} should lose with the same selector",
            result.k - 1
        );
    }
}

#[test]
fn more_accurate_methods_need_no_more_seeds() {
    // Table VI's trend: DM's k* <= RW's k* <= RS's k* (allowing slack for
    // estimator noise, we assert DM <= both).
    let ds = twitter_mask_like(&ReplicaParams::at_scale(0.0003, 78));
    let p = Problem::new(&ds.instance, 0, 1, 8, ScoringFunction::Plurality).unwrap();
    let k_of = |method: Engine| {
        min_seeds_to_win(&p, |prob| {
            method
                .select_once(prob, SelectionMode::Plain)
                .unwrap()
                .seeds
        })
        .map(|w| w.k)
    };
    let dm = k_of(Engine::Dm);
    let rw = k_of(Engine::rw_default());
    let rs = k_of(Engine::rs_default());
    let (Some(dm), Some(rw), Some(rs)) = (dm, rw, rs) else {
        panic!("all methods should find a winning set");
    };
    assert!(dm <= rw + 2, "DM {dm} vs RW {rw}");
    assert!(dm <= rs + 2, "DM {dm} vs RS {rs}");
}

#[test]
fn already_winning_target_needs_zero_seeds() {
    let ds = twitter_mask_like(&ReplicaParams::at_scale(0.0005, 79));
    // Choose the currently winning candidate as the target.
    let b = ds.instance.opinions_at(10, 0, &[]);
    let winner = vom::voting::tally(&b, &ScoringFunction::Cumulative).winner;
    let p = Problem::new(&ds.instance, winner, 1, 10, ScoringFunction::Cumulative).unwrap();
    let res = min_seeds_to_win(&p, |prob| {
        Engine::Dm
            .select_once(prob, SelectionMode::Plain)
            .unwrap()
            .seeds
    })
    .expect("winner stays winnable");
    assert_eq!(res.k, 0);
}
