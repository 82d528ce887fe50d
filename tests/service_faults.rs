//! Fault-tolerant serving suite: the `VomService` robustness contracts
//! — per-slot panic isolation, build-panic quarantine, deterministic
//! admission denial, deadline degradation, and warm-restart retry —
//! exercised through the public facade under a seeded
//! [`vom::service::FaultPlan`], at pool widths 1/2/8. Every faulted
//! batch must be **bit-identical across widths**: same slots fault with
//! the same typed errors, same siblings complete with the same seeds.

use std::sync::{Arc, Mutex};
use vom::core::{MethodId, Query};
use vom::diffusion::{Instance, OpinionMatrix};
use vom::graph::builder::graph_from_edges;
use vom::graph::{generators, Node};
use vom::service::{
    FaultPlan, NoopScheduler, Priority, RetryPolicy, ServiceError, ServiceRequest, ServiceResult,
    VomService,
};
use vom::voting::ScoringFunction;

const HORIZON: usize = 4;
const THREADS: [usize; 3] = [1, 2, 8];

/// The pool override is process-global; tests in this binary must not
/// interleave overrides.
static POOL_LOCK: Mutex<()> = Mutex::new(());

fn pool_lock() -> std::sync::MutexGuard<'static, ()> {
    POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    /// Restores the default width also when `f` panics.
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

/// The 40-node, 3-candidate replica shared with `tests/degradation.rs`.
fn instance() -> Arc<Instance> {
    use rand::SeedableRng;
    let n = 40usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE0_1D);
    let edges = generators::erdos_renyi(n, n * 3, &mut rng);
    let g = Arc::new(graph_from_edges(n, &edges).unwrap());
    let rows: Vec<Vec<f64>> = (0..3)
        .map(|c| {
            (0..n)
                .map(|v| {
                    let x = ((v * 37 + c * 101 + 13) % 97) as f64 / 96.0;
                    x.clamp(0.02, 0.98)
                })
                .collect()
        })
        .collect();
    let b = OpinionMatrix::from_rows(rows).unwrap();
    let d: Vec<f64> = (0..n).map(|v| ((v * 29 + 7) % 50) as f64 / 100.0).collect();
    Arc::new(Instance::shared(g, b, d).unwrap())
}

fn service(inst: &Arc<Instance>) -> VomService {
    let svc = VomService::new();
    svc.register("net", Arc::clone(inst)).unwrap();
    svc
}

/// A small mixed batch: three budgets × two rules on one graph.
fn batch() -> Vec<ServiceRequest> {
    let mut requests = Vec::new();
    for k in [2usize, 3, 4] {
        for rule in [ScoringFunction::Cumulative, ScoringFunction::Plurality] {
            requests.push(ServiceRequest::new(
                "net",
                MethodId::Rs,
                HORIZON,
                Query::new(k, rule, 0),
            ));
        }
    }
    requests
}

/// One batch result reduced to a width-comparable signature per slot:
/// outcome kind, seeds (full or prefix), and the typed error name.
fn batch_sig(results: Vec<ServiceResult>) -> Vec<(String, Vec<Node>)> {
    results
        .into_iter()
        .map(|slot| match slot {
            Ok(res) => ("complete".into(), res.seeds),
            Err(ServiceError::Degraded {
                seeds_prefix,
                budget_spent,
                budget_limit,
            }) => (
                format!("degraded:{budget_spent}/{budget_limit}"),
                seeds_prefix,
            ),
            Err(ServiceError::Panicked { context }) => (format!("panicked:{context}"), Vec::new()),
            Err(e) => (format!("err:{e}"), Vec::new()),
        })
        .collect()
}

#[test]
fn faulted_batches_are_bit_identical_across_widths() {
    let _guard = pool_lock();
    let inst = instance();
    let requests = batch();

    // Fault-free reference at one thread.
    let baseline = with_threads(1, || batch_sig(service(&inst).run_batch(&requests)));
    assert!(baseline.iter().all(|(kind, _)| kind == "complete"));

    // A build panic (surfacing in slot 0, the first scheduled build)
    // plus a query panic in slot 3: a fresh plan per width so the
    // consumed build-panic count resets.
    let mut reference: Option<Vec<(String, Vec<Node>)>> = None;
    for threads in THREADS {
        let sig = with_threads(threads, || {
            let svc = service(&inst);
            svc.set_fault_plan(Some(Arc::new(
                FaultPlan::new(7)
                    .with_build_panics("net", 1)
                    .with_query_panic(3),
            )));
            batch_sig(svc.run_batch(&requests))
        });
        // The two faulted slots surface typed; nothing else changes.
        assert!(sig[0].0.starts_with("panicked:") && sig[0].0.contains("index build"));
        assert!(sig[3].0.starts_with("panicked:") && sig[3].0.contains("query 3"));
        for (i, (got, expected)) in sig.iter().zip(&baseline).enumerate() {
            if i != 0 && i != 3 {
                assert_eq!(
                    got, expected,
                    "sibling slot {i} corrupted at {threads} threads"
                );
            }
        }
        match &reference {
            None => reference = Some(sig),
            Some(expected) => assert_eq!(&sig, expected, "{threads} threads diverged"),
        }
    }
}

#[test]
fn budgeted_batch_slots_degrade_to_prefixes_at_any_width() {
    let _guard = pool_lock();
    let inst = instance();
    let mut requests = batch();
    // Tight deadlines on two slots; the tick scale inflates charges so
    // even generous budgets bind deterministically.
    requests[1] = requests[1].clone().with_budget(40);
    requests[4] = requests[4].clone().with_budget(7);

    let baseline = with_threads(1, || batch_sig(service(&inst).run_batch(&batch())));
    let mut reference: Option<Vec<(String, Vec<Node>)>> = None;
    for threads in THREADS {
        let sig = with_threads(threads, || {
            let svc = service(&inst);
            svc.set_fault_plan(Some(Arc::new(FaultPlan::new(7).with_tick_scale(3))));
            batch_sig(svc.run_batch(&requests))
        });
        for (i, (kind, seeds)) in sig.iter().enumerate() {
            if i == 1 || i == 4 {
                // Budgeted: degraded to a verified prefix of the
                // fault-free full selection (budgeted runs are plain
                // greedy, and these batch slots run plain already).
                assert!(kind.starts_with("degraded:"), "slot {i}: {kind}");
                assert!(
                    baseline[i].1.starts_with(seeds),
                    "slot {i} prefix mismatch at {threads} threads"
                );
                assert!(seeds.len() < baseline[i].1.len());
            } else {
                assert_eq!((kind, seeds), (&baseline[i].0, &baseline[i].1), "slot {i}");
            }
        }
        match &reference {
            None => reference = Some(sig),
            Some(expected) => assert_eq!(&sig, expected, "{threads} threads diverged"),
        }
    }
}

#[test]
fn admission_denial_is_typed_and_width_independent() {
    let _guard = pool_lock();
    let inst = instance();
    let requests = batch();
    let mut reference: Option<Vec<(String, Vec<Node>)>> = None;
    for threads in THREADS {
        // A one-byte budget: no index can ever fit, so every slot is
        // denied admission — typed, and identically at every width.
        let sig = with_threads(threads, || {
            let svc = service(&inst).with_memory_budget(1);
            batch_sig(svc.run_batch(&requests))
        });
        assert!(
            sig.iter()
                .all(|(kind, _)| kind.starts_with("err:") && kind.contains("service budget")),
            "expected every slot denied, got {sig:?}"
        );
        match &reference {
            None => reference = Some(sig),
            Some(expected) => assert_eq!(&sig, expected, "{threads} threads diverged"),
        }
    }
}

#[test]
fn priority_classes_order_batches_without_changing_results() {
    let _guard = pool_lock();
    let inst = instance();
    let requests = batch();
    let baseline = with_threads(1, || batch_sig(service(&inst).run_batch(&requests)));
    // Scrambled priorities: scheduling order changes, results must not
    // (the result vector stays in request order).
    let prioritized: Vec<ServiceRequest> = requests
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let class = match i % 3 {
                0 => Priority::Low,
                1 => Priority::High,
                _ => Priority::Normal,
            };
            req.clone().with_priority(class)
        })
        .collect();
    for threads in THREADS {
        let sig = with_threads(threads, || {
            batch_sig(service(&inst).run_batch(&prioritized))
        });
        assert_eq!(sig, baseline, "{threads} threads");
    }
}

#[test]
fn warm_restart_retries_transient_faults_and_serves_identically() {
    let _guard = pool_lock();
    let inst = instance();
    let requests = batch();
    let dir = std::env::temp_dir().join(format!("vom-svc-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let outcome = std::panic::catch_unwind(|| {
        let builder = service(&inst);
        let baseline = batch_sig(builder.run_batch(&requests));
        let path = builder.save_index(&requests[0], &dir).unwrap();
        let file_name = path.file_name().unwrap().to_string_lossy().into_owned();

        // Two injected transient open failures against three attempts:
        // the final try recovers, with the computed 10ms/20ms backoff
        // recorded — and no real sleeping under the NoopScheduler.
        let warmed = service(&inst);
        warmed.set_fault_plan(Some(Arc::new(
            FaultPlan::new(7).with_transient_unreadable(&file_name, 2),
        )));
        let summary = warmed
            .warm_from_dir_with(&dir, RetryPolicy::default(), &NoopScheduler)
            .unwrap();
        assert_eq!(summary.loaded, 1);
        assert!(summary.is_clean());
        assert_eq!(summary.retries.len(), 1);
        assert_eq!(summary.retries[0].backoff_ms, vec![10, 20]);
        assert!(summary.retries[0].recovered);

        // The snapshot-served index answers bit-identically.
        warmed.set_fault_plan(None);
        assert_eq!(batch_sig(warmed.run_batch(&requests)), baseline);

        // Exhausting the retry budget skips the file — typed, not fatal
        // — and the service falls back to a fresh (identical) build.
        let exhausted = service(&inst);
        exhausted.set_fault_plan(Some(Arc::new(
            FaultPlan::new(7).with_transient_unreadable(&file_name, 99),
        )));
        let summary = exhausted
            .warm_from_dir_with(&dir, RetryPolicy::default(), &NoopScheduler)
            .unwrap();
        assert_eq!(summary.loaded, 0);
        assert_eq!(summary.skipped.len(), 1);
        assert_eq!(summary.retries.len(), 1);
        assert!(!summary.retries[0].recovered);
        exhausted.set_fault_plan(None);
        assert_eq!(batch_sig(exhausted.run_batch(&requests)), baseline);
    });
    std::fs::remove_dir_all(&dir).ok();
    if let Err(payload) = outcome {
        std::panic::resume_unwind(payload);
    }
}
