//! Artifact-reuse equivalence suite: preparing an engine once at budget
//! `k_max` and querying `k ∈ 1..=k_max` under each scoring rule must
//! return **bit-identical** seeds and scores to the one-shot
//! `SeedSelector::select_once` path in auto and plain mode, for all
//! three engines.
//!
//! The estimator artifacts are deterministic given their config seed; the
//! configs below pin the two budget-derived knobs (`gamma_pilot` for RW,
//! `theta_override` for RS) so the artifacts do not depend on the
//! prepared budget, which makes the equality exact rather than
//! statistical.

use std::sync::Arc;
use vom::core::rs::RsConfig;
use vom::core::rw::RwConfig;
use vom::core::{Engine, Problem, Query, QuerySession, SeedSelector, SelectionMode};
use vom::diffusion::{Instance, OpinionMatrix};
use vom::graph::builder::graph_from_edges;
use vom::graph::generators;
use vom::voting::ScoringFunction;

const K_MAX: usize = 4;
const HORIZON: usize = 4;

/// A 40-node, 3-candidate instance with enough structure that different
/// rules and budgets pick different seeds.
fn instance() -> Instance {
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
    Instance::shared(g, b, d).unwrap()
}

fn engines() -> Vec<Engine> {
    vec![
        Engine::Dm,
        Engine::Rw(RwConfig {
            // Pin the γ* pilot so the arena is identical whatever budget
            // the engine was prepared with.
            gamma_pilot: Some(4),
            seed: 11,
            ..RwConfig::default()
        }),
        Engine::Rs(RsConfig {
            // Pin θ so the sketch set is budget-independent.
            theta_override: Some(30_000),
            seed: 12,
            ..RsConfig::default()
        }),
    ]
}

fn rules() -> [ScoringFunction; 3] {
    [
        ScoringFunction::Cumulative,
        ScoringFunction::Plurality,
        ScoringFunction::Copeland,
    ]
}

#[test]
fn prepared_select_matches_one_shot_auto_mode() {
    let inst = instance();
    for engine in engines() {
        for rule in rules() {
            let spec = Problem::new(&inst, 0, K_MAX, HORIZON, rule.clone()).unwrap();
            let mut session = QuerySession::new(Arc::new(engine.prepare_index(&spec).unwrap()));
            for k in 1..=K_MAX {
                let via_prepared = session.select_k(k).unwrap();
                let one_shot_problem = Problem::new(&inst, 0, k, HORIZON, rule.clone()).unwrap();
                let via_one_shot = engine
                    .select_once(&one_shot_problem, SelectionMode::Auto)
                    .unwrap();
                assert_eq!(
                    via_prepared.seeds,
                    via_one_shot.seeds,
                    "{} {rule} k={k}",
                    engine.name()
                );
                assert_eq!(
                    via_prepared.exact_score.to_bits(),
                    via_one_shot.exact_score.to_bits(),
                    "{} {rule} k={k}",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn prepared_select_matches_one_shot_plain_mode() {
    let inst = instance();
    for engine in engines() {
        for rule in rules() {
            let spec = Problem::new(&inst, 0, K_MAX, HORIZON, rule.clone()).unwrap();
            let mut session = QuerySession::new(Arc::new(engine.prepare_index(&spec).unwrap()));
            for k in 1..=K_MAX {
                let query = Query::plain(k, rule.clone(), 0);
                let via_prepared = session.select(&query).unwrap();
                let one_shot_problem = Problem::new(&inst, 0, k, HORIZON, rule.clone()).unwrap();
                let via_one_shot = engine
                    .select_once(&one_shot_problem, SelectionMode::Plain)
                    .unwrap();
                assert_eq!(
                    via_prepared.seeds,
                    via_one_shot.seeds,
                    "{} {rule} k={k}",
                    engine.name()
                );
                assert_eq!(
                    via_prepared.exact_score.to_bits(),
                    via_one_shot.exact_score.to_bits(),
                    "{} {rule} k={k}",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn one_prepared_engine_serves_all_rules_identically() {
    // A single prepared engine (not one per rule) must still match every
    // one-shot result: rule-class artifacts are isolated from each other.
    let inst = instance();
    for engine in engines() {
        let spec = Problem::new(&inst, 0, K_MAX, HORIZON, ScoringFunction::Cumulative).unwrap();
        let mut session = QuerySession::new(Arc::new(engine.prepare_index(&spec).unwrap()));
        for rule in rules() {
            for k in [1, K_MAX] {
                let query = Query::new(k, rule.clone(), 0);
                let via_prepared = session.select(&query).unwrap();
                let one_shot_problem = Problem::new(&inst, 0, k, HORIZON, rule.clone()).unwrap();
                let via_one_shot = engine
                    .select_once(&one_shot_problem, SelectionMode::Auto)
                    .unwrap();
                assert_eq!(
                    via_prepared.seeds,
                    via_one_shot.seeds,
                    "{} {rule} k={k}",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn sandwich_diagnostics_survive_the_prepared_path() {
    let inst = instance();
    let spec = Problem::new(&inst, 0, K_MAX, HORIZON, ScoringFunction::Plurality).unwrap();
    for engine in engines() {
        let mut session = QuerySession::new(Arc::new(engine.prepare_index(&spec).unwrap()));
        let res = session.select_k(2).unwrap();
        let info = res.sandwich.expect("plurality runs the sandwich");
        assert!(
            info.ratio > 0.0 && info.ratio <= 1.0 + 1e-12,
            "{}",
            engine.name()
        );
        assert!(info.s_l.is_some(), "plurality has a lower bound");
    }
}
