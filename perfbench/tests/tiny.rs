//! The benchmark's own checks, on the tiny inputs of each workload (the
//! same code path as the benchmarked run).

use std::sync::Mutex;
use vom_perfbench::workloads::{Size, WorkloadId};
use vom_perfbench::{run, Config, Report, DEFAULT_SEED};

/// Runs share the process-wide pool width and phase counters, so tests
/// take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(workload: WorkloadId, trace: bool) -> Report {
    run(&Config::new(workload, DEFAULT_SEED, 0.3, trace, Size::Tiny))
}

/// `(name, unit)` pairs.
type Declared = Vec<(String, String)>;

/// `(name, unit)` of every metric `BENCHMARK.json` lists, end-to-end
/// first, then per-layer.
fn declared() -> (Declared, Declared) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    let (e2e, per_layer) = text.split_at(text.find("\"per_layer\"").expect("per_layer section"));
    let metrics = |section: &str| -> Declared {
        section
            .lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
            .collect()
    };
    (metrics(e2e), metrics(per_layer))
}

#[test]
fn every_declared_metric_prints_with_its_unit() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (e2e, per_layer) = declared();
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    assert!(!per_layer.is_empty());
    for workload in WorkloadId::ALL {
        for (trace, metrics) in [(false, &e2e), (true, &per_layer)] {
            let report = tiny(workload, trace);
            assert!(
                report.correct(),
                "{} trace={trace}: {}",
                workload.name(),
                report.json()
            );
            let json = report.json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            assert_eq!(report.metrics.len(), metrics.len(), "{}", workload.name());
            for (name, unit) in metrics {
                let value = report
                    .metric(name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert!(value.is_finite(), "{name} = {value}");
                let printed = format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
                assert!(json.contains(&printed), "{printed} not in {json}");
            }
        }
    }
}

#[test]
fn a_wrong_pinned_digest_fails_the_run() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in WorkloadId::ALL {
        let mut cfg = Config::new(workload, DEFAULT_SEED, 0.3, false, Size::Tiny);
        cfg.pinned ^= 1;
        let report = run(&cfg);
        let distinct = workload.requests(0).len() as u64;
        assert_eq!(report.failed, distinct, "{}", workload.name());
        assert!(report.attempted > report.failed);
        assert!(!report.correct());
        assert!(report.json().starts_with("{\"correct\": false, "));
    }
}

#[test]
fn every_seed_reproduces_the_pinned_selections() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let workload = WorkloadId::YelpPlurality;
    let report = run(&Config::new(
        workload,
        DEFAULT_SEED + 1,
        0.3,
        false,
        Size::Tiny,
    ));
    assert!(report.correct(), "{}", report.json());
    assert_eq!(report.digest, workload.pinned_digest(Size::Tiny));
}

#[test]
fn count_metrics_repeat_exactly() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (_, per_layer) = declared();
    for workload in WorkloadId::ALL {
        let (a, b) = (tiny(workload, true), tiny(workload, true));
        for (name, unit) in &per_layer {
            if unit == "count" || unit == "B" {
                assert_eq!(
                    a.metric(name),
                    b.metric(name),
                    "{}: {name}",
                    workload.name()
                );
            }
        }
    }
}
