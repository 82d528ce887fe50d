//! Scale-stress workload contracts (the `repro --scale-stress` harness
//! rides on these): the R-MAT generator and the full dataset pipeline
//! are bit-identical across pool widths and run-to-run, instances stay
//! heavy-tailed at 10⁵ nodes, and RS selections over stress instances
//! are schedule-independent — the same contracts the replica-scale
//! suite pins, re-asserted on the workload that grows toward 10⁶.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use vom::core::rs::RsConfig;
use vom::core::{Engine, Problem, Query, QuerySession, SeedSelector, SelectionMode};
use vom::datasets::{scale_stress, ScaleParams};
use vom::graph::stats::GraphStats;
use vom::voting::ScoringFunction;

/// The pool override is process-global; tests that pin it must not
/// interleave (same discipline as `parallel_determinism.rs`).
static POOL_LOCK: Mutex<()> = Mutex::new(());

fn pool_lock() -> std::sync::MutexGuard<'static, ()> {
    POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            rayon::set_thread_override(None);
        }
    }
    rayon::set_thread_override(Some(threads));
    let _restore = Restore;
    f()
}

/// RS selection over one stress instance: the (seeds, exact score)
/// fingerprint the determinism contracts compare.
fn rs_selection(nodes: usize, seed: u64, k: usize) -> (Vec<vom::graph::Node>, u64) {
    let ds = scale_stress(&ScaleParams { nodes, seed });
    let spec = Problem::new(
        &ds.instance,
        ds.default_target,
        k,
        20,
        ScoringFunction::Cumulative,
    )
    .unwrap();
    let engine = Engine::Rs(RsConfig {
        seed,
        theta_override: Some(nodes),
        ..RsConfig::default()
    });
    let mut session = QuerySession::new(Arc::new(engine.prepare_index(&spec).unwrap()));
    let query = Query {
        k,
        rule: ScoringFunction::Cumulative,
        target: ds.default_target,
        mode: SelectionMode::Auto,
    };
    let res = session.select(&query).unwrap();
    (res.seeds, res.exact_score.to_bits())
}

#[test]
fn stress_datasets_are_bit_identical_across_thread_counts() {
    let _guard = pool_lock();
    for nodes in [300, 2_000] {
        let p = ScaleParams { nodes, seed: 11 };
        let reference = with_threads(1, || scale_stress(&p));
        for threads in [2, 8] {
            let rebuilt = with_threads(threads, || scale_stress(&p));
            assert_eq!(
                rebuilt.instance.graph_of(0).num_edges(),
                reference.instance.graph_of(0).num_edges(),
                "edge count diverged at n = {nodes}, {threads} threads"
            );
            for q in 0..2 {
                assert_eq!(
                    rebuilt.instance.candidate(q).initial,
                    reference.instance.candidate(q).initial,
                    "opinions diverged at n = {nodes}, {threads} threads"
                );
                assert_eq!(
                    rebuilt.instance.candidate(q).stubbornness,
                    reference.instance.candidate(q).stubbornness,
                    "stubbornness diverged at n = {nodes}, {threads} threads"
                );
            }
        }
    }
}

#[test]
fn stress_selections_are_bit_identical_across_thread_counts() {
    let _guard = pool_lock();
    let (nodes, seed, k) = (3_000, 0x5CA1E, 8);
    let reference = with_threads(1, || rs_selection(nodes, seed, k));
    for threads in [2, 8] {
        let rerun = with_threads(threads, || rs_selection(nodes, seed, k));
        assert_eq!(
            rerun, reference,
            "scale-stress RS selection diverged at {threads} threads"
        );
    }
}

#[test]
fn stress_instances_stay_heavy_tailed_at_1e5_nodes() {
    let ds = scale_stress(&ScaleParams::at(100_000));
    assert_eq!(ds.instance.num_nodes(), 100_000);
    let g = ds.instance.graph_of(0);
    g.validate_column_stochastic(1e-9).unwrap();
    let stats = GraphStats::compute(g);
    assert!(
        stats.max_in_degree as f64 > 8.0 * stats.mean_degree,
        "R-MAT must keep its hubs at stress scale: {stats}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The `--scale-stress` determinism contract, sampled over the
    /// parameter space: regenerating the dataset and rerunning the RS
    /// query in the same process selects bit-identical seeds with a
    /// bit-identical exact score.
    #[test]
    fn stress_selections_are_bit_identical_run_to_run(
        nodes in 200usize..800,
        seed in 0u64..1_000,
        k in 1usize..6,
    ) {
        let first = rs_selection(nodes, seed, k);
        let second = rs_selection(nodes, seed, k);
        prop_assert_eq!(first, second);
    }
}
