//! Cross-thread determinism suite: every estimator artifact and every
//! selection output must be **bit-identical** for `VOM_THREADS ∈ {1, 2, 8}`.
//!
//! This is the contract that lets the vendored rayon shim distribute
//! work freely (DESIGN.md § Vendored shims): per-item RNG streams plus
//! index-ordered merging mean the schedule can never leak into results.
//! The suite pins the pool width at runtime via
//! `rayon::set_thread_override` and compares against the 1-thread run,
//! which in turn equals the historical sequential shim's output.

use std::sync::{Arc, Mutex};
use vom::core::{Engine, Problem, Query, QuerySession, SeedSelector, SelectionMode};
use vom::datasets::{yelp_like, Dataset, ReplicaParams};
use vom::dynamics::{expected_opinions, VoterModel};
use vom::graph::Node;
use vom::sketch::SketchSet;
use vom::voting::ScoringFunction;
use vom::walks::{Lambda, WalkGenerator};

/// The thread counts every artifact is rebuilt under.
const THREADS: [usize; 3] = [1, 2, 8];

/// The pool override is process-global; tests in this binary run on
/// parallel test threads and must not interleave overrides. A failed
/// test poisons the lock with the override already restored (see the
/// guard in `with_threads`), so the remaining tests just clear the
/// poison instead of cascading.
static POOL_LOCK: Mutex<()> = Mutex::new(());

fn pool_lock() -> std::sync::MutexGuard<'static, ()> {
    POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    /// Restores the default width also when `f` panics, so one failed
    /// assertion cannot pin the pool for every later test.
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

/// A small but non-trivial replica (a few hundred users) so chunk
/// boundaries actually split the work across workers.
fn dataset() -> Dataset {
    yelp_like(&ReplicaParams {
        scale: 0.0003,
        seed: 77,
        mu: 10.0,
    })
}

#[test]
fn walk_arenas_are_bit_identical_across_thread_counts() {
    let _guard = pool_lock();
    let ds = dataset();
    let cand = ds.instance.candidate(ds.default_target);
    let generator = WalkGenerator::new(&cand.graph, &cand.stubbornness, 8);
    let n = cand.graph.num_nodes();
    let per_node: Vec<u32> = (0..n as u32).map(|v| v % 5).collect();

    let reference = with_threads(1, || {
        (
            generator.generate_per_node(&Lambda::Uniform(7), 42),
            generator.generate_per_node(&Lambda::PerNode(per_node.clone()), 43),
            generator.generate_direct(&Lambda::Uniform(3), &[1, 5, 9], 44),
            generator.generate_for_starts(&(0..n as Node).rev().collect::<Vec<_>>(), 45),
        )
    });
    for threads in THREADS {
        let rebuilt = with_threads(threads, || {
            (
                generator.generate_per_node(&Lambda::Uniform(7), 42),
                generator.generate_per_node(&Lambda::PerNode(per_node.clone()), 43),
                generator.generate_direct(&Lambda::Uniform(3), &[1, 5, 9], 44),
                generator.generate_for_starts(&(0..n as Node).rev().collect::<Vec<_>>(), 45),
            )
        });
        assert_eq!(rebuilt, reference, "arenas diverged at {threads} threads");
    }
}

#[test]
fn sketch_sets_are_bit_identical_across_thread_counts() {
    let _guard = pool_lock();
    let ds = dataset();
    let cand = ds.instance.candidate(ds.default_target);
    let build =
        || SketchSet::generate(&cand.graph, &cand.stubbornness, &cand.initial, 8, 4_000, 19);
    let reference = with_threads(1, build);
    for threads in THREADS {
        let mut rebuilt = with_threads(threads, build);
        assert_eq!(rebuilt.theta(), reference.theta());
        for j in 0..reference.theta() {
            assert_eq!(rebuilt.walk_start(j), reference.walk_start(j), "sketch {j}");
            assert_eq!(
                rebuilt.walk_value(j).to_bits(),
                reference.walk_value(j).to_bits(),
                "sketch {j} end value at {threads} threads"
            );
        }
        for v in 0..reference.num_nodes() as Node {
            assert_eq!(
                rebuilt.pooled_estimate(v).map(f64::to_bits),
                reference.pooled_estimate(v).map(f64::to_bits),
                "pooled estimate of {v} at {threads} threads"
            );
        }
        // Incremental truncation stays deterministic too.
        let mut ref_clone = reference.clone();
        assert_eq!(rebuilt.add_seed(3), ref_clone.add_seed(3));
        assert_eq!(
            rebuilt.estimated_cumulative().to_bits(),
            ref_clone.estimated_cumulative().to_bits(),
            "seeded cumulative estimate at {threads} threads"
        );
    }
}

#[test]
fn prepared_selections_are_bit_identical_across_thread_counts() {
    let _guard = pool_lock();
    let ds = dataset();
    let k = 4;
    let horizon = 6;
    let engines: [Engine; 3] = [Engine::Dm, Engine::rw_default(), Engine::rs_default()];
    let rules = [ScoringFunction::Plurality, ScoringFunction::Cumulative];
    for engine in &engines {
        for rule in &rules {
            let spec =
                Problem::new(&ds.instance, ds.default_target, k, horizon, rule.clone()).unwrap();
            let run = |threads: usize| {
                with_threads(threads, || {
                    let mut session =
                        QuerySession::new(Arc::new(engine.prepare_index(&spec).unwrap()));
                    assert_eq!(
                        session.index().build_stats().threads,
                        threads,
                        "BuildStats must report the prepare-time pool width"
                    );
                    let mut out = Vec::new();
                    for mode in [SelectionMode::Auto, SelectionMode::Plain] {
                        let query = Query {
                            k,
                            rule: rule.clone(),
                            target: ds.default_target,
                            mode,
                        };
                        let res = session.select(&query).unwrap();
                        out.push((res.seeds, res.exact_score.to_bits()));
                    }
                    out
                })
            };
            let reference = run(1);
            for threads in THREADS {
                assert_eq!(
                    run(threads),
                    reference,
                    "{} under {rule} diverged at {threads} threads",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn monte_carlo_expectations_are_bit_identical_across_thread_counts() {
    let _guard = pool_lock();
    let ds = dataset();
    let cand = ds.instance.candidate(ds.default_target);
    let n = cand.graph.num_nodes();
    let initial = vom::diffusion::OpinionMatrix::from_rows(vec![
        cand.initial.to_vec(),
        cand.initial.iter().map(|b| 1.0 - b).collect(),
    ])
    .unwrap();
    let model = VoterModel::new(cand.graph.clone(), initial).unwrap();
    let seeds: Vec<Node> = (0..4.min(n) as Node).collect();
    let reference = with_threads(1, || expected_opinions(&model, 5, 0, &seeds, 48, 7));
    for threads in THREADS {
        let rebuilt = with_threads(threads, || expected_opinions(&model, 5, 0, &seeds, 48, 7));
        assert_eq!(
            rebuilt, reference,
            "Monte-Carlo expectation diverged at {threads} threads"
        );
    }
}
