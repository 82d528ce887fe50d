//! `BenchError` propagation: selection failures travel from the engine
//! layer through the harness as `Err` values — never panics — and the
//! `repro` binary turns them into a non-zero exit with a readable
//! message.

use std::process::Command;
use std::sync::Arc;
use vom_bench::{bench_parallel, BenchError, ExpConfig, PreparedMethod};
use vom_core::{CoreError, MethodId, Problem};
use vom_diffusion::{Instance, OpinionMatrix};
use vom_graph::builder::graph_from_edges;
use vom_voting::ScoringFunction;

fn running_example() -> Instance {
    let g = Arc::new(graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap());
    let b = OpinionMatrix::from_rows(vec![
        vec![0.40, 0.80, 0.60, 0.90],
        vec![0.35, 0.75, 1.00, 0.80],
    ])
    .unwrap();
    Instance::shared(g, b, vec![0.0, 0.0, 0.5, 0.5]).unwrap()
}

#[test]
fn prepared_method_propagates_invalid_rules_as_err() {
    let inst = running_example();
    // An approval depth no 2-candidate instance can satisfy; built via
    // the struct literal because `Problem::new` (rightly) rejects it.
    let spec = Problem {
        instance: &inst,
        target: 0,
        k: 1,
        horizon: 1,
        score: ScoringFunction::PApproval { p: 9 },
    };
    let err = PreparedMethod::new(&spec, MethodId::Dm, 1)
        .and_then(|mut dm| dm.evaluate(1))
        .expect_err("p=9 of r=2 cannot select");
    let msg = err.to_string();
    assert!(matches!(err, BenchError::Core(_)), "{msg}");
    assert!(msg.contains("selection failed"), "{msg}");
}

#[test]
fn over_budget_queries_return_err_not_panic() {
    let inst = running_example();
    let spec = Problem::new(&inst, 0, 1, 1, ScoringFunction::Cumulative).unwrap();
    let mut prepared = PreparedMethod::new(&spec, MethodId::Rs, 5).unwrap();
    let err = prepared
        .evaluate(3)
        .expect_err("budget 3 exceeds prepared 1");
    let msg = err.to_string();
    assert!(
        matches!(
            err,
            BenchError::Core(CoreError::BudgetExceedsPrepared { k: 3, budget: 1 })
        ),
        "{msg}"
    );
    assert!(msg.contains("selection failed"), "{msg}");
    assert!(msg.contains('3') && msg.contains('1'), "{msg}");
}

#[test]
fn bench_harness_rejects_unsatisfiable_budgets_with_err() {
    let cfg = ExpConfig {
        scale: 0.0002,
        seed: 1,
        k_override: Some(1_000_000),
        ..ExpConfig::default()
    };
    let err = bench_parallel::run(&cfg).expect_err("a million seeds cannot fit a tiny replica");
    let msg = err.to_string();
    assert!(
        matches!(err, BenchError::Core(CoreError::BudgetTooLarge { .. })),
        "{msg}"
    );
    assert!(msg.contains("exceeds node count"), "{msg}");
}

#[test]
fn repro_binary_exits_non_zero_with_a_readable_message() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--bench-json",
            "--k",
            "1000000",
            "--scale",
            "0.0002",
            "--seed",
            "1",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("repro binary runs");
    assert!(!output.status.success(), "unsatisfiable budget must fail");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("bench-json failed"), "stderr: {stderr}");
    assert!(stderr.contains("exceeds node count"), "stderr: {stderr}");
}

#[test]
fn repro_binary_rejects_unknown_flags_with_usage() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--no-such-flag")
        .output()
        .expect("repro binary runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}
