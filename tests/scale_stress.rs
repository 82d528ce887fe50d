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

/// FNV-1a over the bits of a stream of floats.
fn bits_digest(xs: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for byte in x.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn exact_rows_are_pinned_at_rmat_scale() {
    use vom::diffusion::{SolveOptions, Solver, LANES};
    let _guard = pool_lock();
    let ds = scale_stress(&ScaleParams {
        nodes: 20_000,
        seed: 2023,
    });
    let g = ds.instance.graph_of(0);
    let t = 20;
    // Hubs (the three largest total degrees) and in-less nodes, so rows
    // are pinned where a hub's value fans out and where a node holds.
    let hubs = [0, 16_384, 4_096];
    let in_less = [119, 123, 127];
    let total = |v| g.in_degree(v) + g.out_degree(v);
    let least_hub = hubs.iter().map(|&h| total(h)).min().unwrap();
    let n = g.num_nodes() as u32;
    assert!((0..n).all(|v| hubs.contains(&v) || total(v) < least_hub));
    let mean = 2.0 * g.num_edges() as f64 / g.num_nodes() as f64;
    assert!(least_hub as f64 > 50.0 * mean);
    for &v in &in_less {
        assert_eq!(g.in_degree(v), 0);
    }
    let seeds = [hubs[1], in_less[0], 777, 12_345];
    let mut solver = Solver::new(Arc::clone(ds.instance.candidate(0).system()));

    let exact = solver.solve(&seeds, &SolveOptions::exact(t), None);
    let exact_row = bits_digest(solver.opinions().iter().copied());
    let tolerant = solver.solve(&seeds, &SolveOptions::exact(t).with_tolerance(1e-4), None);
    let tolerant_row = bits_digest(solver.opinions().iter().copied());
    let extras = [
        hubs[0], hubs[2], in_less[1], in_less[2], hubs[1], 5, 19_999, 5,
    ];
    assert_eq!(extras.len(), LANES);
    let lanes = solver.solve_lanes(&seeds[..2], &extras, t, None);
    let lane_rows: Vec<u64> = (0..LANES).map(|l| bits_digest(solver.lane(l))).collect();
    let (_, score) = rs_selection(20_000, 2023, 10);

    assert_eq!((exact.steps, exact.converged), (t, false));
    assert_eq!(exact_row, 0x09b9_50df_13a5_07ad);
    assert_eq!(
        (
            tolerant.steps,
            tolerant.converged,
            tolerant.residual.to_bits()
        ),
        (8, true, 0x3f16_0596_fcd5_f000)
    );
    assert_eq!(tolerant_row, 0xc5a6_34d2_2d4d_16f8);
    assert_eq!((lanes.steps, lanes.converged), (t, false));
    assert_eq!(
        lane_rows,
        [
            0xebc1_6f82_b3ca_9845,
            0xc55c_1e88_ac7f_7875,
            0x7992_4a6b_c5cb_86b5,
            0xc227_451d_b3ae_3979,
            0x4a3c_8299_2621_4ae1,
            0x7047_243f_b1e6_0a22,
            0xb6fc_a64e_e6cf_7824,
            0x7047_243f_b1e6_0a22,
        ]
    );
    assert_eq!(score, 0x40c0_87e3_171a_1088);
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
