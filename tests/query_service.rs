//! Shared-state query suite: one `Arc<PreparedIndex>` serving many
//! threads must be **bit-identical** to the sequential one-shot path,
//! and the `VomService` batch facade must preserve request order,
//! isolate per-query errors, and stay deterministic across pool widths.
//!
//! The engine configs pin the two budget-derived knobs (`gamma_pilot`
//! for RW, `theta_override` for RS) exactly like
//! `tests/prepared_equivalence.rs`, so prepared-at-`K_MAX` artifacts
//! answer any `k ≤ K_MAX` with the same bits a fresh budget-`k` one-shot
//! run would produce — which makes the concurrency comparison exact
//! rather than statistical.

use std::sync::Arc;
use vom::core::rs::RsConfig;
use vom::core::rw::RwConfig;
use vom::core::{Engine, Problem, Query, QuerySession, SeedSelector, SelectionMode};
use vom::diffusion::{Instance, OpinionMatrix};
use vom::graph::builder::graph_from_edges;
use vom::graph::{generators, Node};
use vom::service::{ServiceError, ServiceRequest, VomService};
use vom::voting::ScoringFunction;

const K_MAX: usize = 4;
const HORIZON: usize = 4;
const WORKERS: usize = 8;

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
            gamma_pilot: Some(4),
            seed: 11,
            ..RwConfig::default()
        }),
        Engine::Rs(RsConfig {
            theta_override: Some(30_000),
            seed: 12,
            ..RsConfig::default()
        }),
    ]
}

/// The mixed workload: every `(k, rule, mode)` combination, so the
/// threads exercise lazy per-class artifact builds, the sandwich path,
/// and plain greedy against one shared index at the same time.
fn mixed_queries() -> Vec<Query> {
    let mut queries = Vec::new();
    for k in 1..=K_MAX {
        for rule in [
            ScoringFunction::Cumulative,
            ScoringFunction::Plurality,
            ScoringFunction::Copeland,
        ] {
            for mode in [SelectionMode::Auto, SelectionMode::Plain] {
                queries.push(Query {
                    k,
                    rule: rule.clone(),
                    target: 0,
                    mode,
                });
            }
        }
    }
    queries
}

type Outcome = (Vec<Node>, u64);

fn one_shot(inst: &Instance, engine: &Engine, query: &Query) -> Outcome {
    let problem = Problem::new(inst, 0, query.k, HORIZON, query.rule.clone()).unwrap();
    let res = match query.mode {
        SelectionMode::Auto => engine.select_once(&problem, SelectionMode::Auto),
        SelectionMode::Plain => engine.select_once(&problem, SelectionMode::Plain),
    }
    .unwrap();
    (res.seeds, res.exact_score.to_bits())
}

#[test]
fn eight_threads_on_one_shared_index_match_the_sequential_baseline() {
    let inst = instance();
    for engine in engines() {
        let queries = mixed_queries();
        // Sequential baseline: a fresh one-shot selection per query.
        let expected: Vec<Outcome> = queries
            .iter()
            .map(|q| one_shot(&inst, &engine, q))
            .collect();

        // One shared index, prepared eagerly only for the cumulative
        // class — the competitive classes are built lazily *under
        // 8-thread contention*, and must still be built exactly once.
        let spec = Problem::new(&inst, 0, K_MAX, HORIZON, ScoringFunction::Cumulative).unwrap();
        let index = Arc::new(engine.prepare_index(&spec).unwrap());

        let mut got: Vec<Option<Outcome>> = vec![None; queries.len()];
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let index = Arc::clone(&index);
                    let queries = &queries;
                    s.spawn(move || {
                        let mut session = QuerySession::new(Arc::clone(&index));
                        (w..queries.len())
                            .step_by(WORKERS)
                            .map(|i| {
                                let res = session.select(&queries[i]).unwrap();
                                (i, (res.seeds, res.exact_score.to_bits()))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (i, outcome) in handle.join().unwrap() {
                    got[i] = Some(outcome);
                }
            }
        });

        for (i, query) in queries.iter().enumerate() {
            assert_eq!(
                got[i].as_ref().expect("every query answered"),
                &expected[i],
                "{} diverged from the sequential baseline on {:?} k={} {:?}",
                engine.name(),
                query.rule,
                query.k,
                query.mode
            );
        }
        // Concurrency must not have duplicated any lazy build: one arena
        // or sketch per touched rule class at most (DM builds none).
        let builds = index.build_stats().artifact_builds;
        assert!(
            builds <= 3,
            "{}: {builds} artifact builds for 3 rule classes",
            engine.name()
        );
    }
}

#[test]
fn sessions_racing_the_first_rw_query_share_one_index_at_every_width() {
    let inst = instance();
    let rw = &engines()[1];
    let spec = Problem::new(&inst, 0, K_MAX, HORIZON, ScoringFunction::Cumulative).unwrap();
    let query = Query::new(K_MAX, ScoringFunction::Plurality, 0);
    let mut outcomes = Vec::new();
    for threads in [1, 2, 8] {
        rayon::set_thread_override(Some(threads));
        // Prepared for the cumulative class only: the first plurality
        // query builds the rank-class arena and its occurrence index
        // while the other sessions wait for it.
        let index = Arc::new(rw.prepare_index(&spec).unwrap());
        let start = std::sync::Barrier::new(WORKERS);
        let answers = std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|_| {
                    let (index, query, start) = (Arc::clone(&index), &query, &start);
                    s.spawn(move || {
                        let mut session = QuerySession::new(index);
                        start.wait();
                        let res = session.select(query).unwrap();
                        (res.seeds, res.exact_score.to_bits())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<Outcome>>()
        });
        rayon::set_thread_override(None);
        assert!(answers.windows(2).all(|w| w[0] == w[1]), "width {threads}");
        let stats = index.build_stats();
        assert_eq!(stats.artifact_builds, 2, "width {threads}");
        outcomes.push((answers[0].clone(), stats.heap_bytes));
    }
    assert!(outcomes.windows(2).all(|w| w[0] == w[1]), "{outcomes:?}");
}

#[test]
fn repeated_rw_service_runs_answer_identically_on_build_time_memory() {
    let service = VomService::new();
    service.register("net", Arc::new(instance())).unwrap();
    let req = ServiceRequest::new(
        "net",
        vom::core::MethodId::Rw,
        HORIZON,
        Query::new(3, ScoringFunction::Plurality, 0),
    );
    let first = service.run(&req).unwrap();
    let heap = service.index_stats()[0].heap_bytes;
    let second = service.run(&req).unwrap();
    assert_eq!(first.seeds, second.seeds);
    assert_eq!(first.exact_score.to_bits(), second.exact_score.to_bits());
    // The occurrence index is counted when the index is admitted; the
    // second request builds nothing more.
    assert_eq!(service.index_stats()[0].heap_bytes, heap);
    assert_eq!(service.index_count(), 1);
}

#[test]
fn service_batches_match_solo_runs_and_memoize_indexes() {
    let inst = instance();
    let service = VomService::new();
    service.register("net", Arc::new(inst.clone())).unwrap();

    let mut batch: Vec<ServiceRequest> = mixed_queries()
        .into_iter()
        .map(|q| ServiceRequest::new("net", vom::core::MethodId::Rs, HORIZON, q))
        .collect();
    // Malformed requests ride along and fail alone.
    batch.push(ServiceRequest::new(
        "net",
        vom::core::MethodId::Rs,
        HORIZON,
        Query::new(0, ScoringFunction::Cumulative, 0),
    ));
    batch.push(ServiceRequest::new(
        "elsewhere",
        vom::core::MethodId::Rs,
        HORIZON,
        Query::new(1, ScoringFunction::Cumulative, 0),
    ));

    let results = service.run_batch(&batch);
    assert_eq!(results.len(), batch.len());
    for (req, res) in batch.iter().zip(&results).take(batch.len() - 2) {
        let solo = service.run(req).unwrap();
        let out = res.as_ref().unwrap();
        assert_eq!(
            out.seeds, solo.seeds,
            "k={} {:?}",
            req.query.k, req.query.rule
        );
        assert_eq!(out.exact_score.to_bits(), solo.exact_score.to_bits());
    }
    assert!(matches!(
        results[batch.len() - 2],
        Err(ServiceError::Selection(vom::core::CoreError::EmptyQuery))
    ));
    assert!(matches!(
        results[batch.len() - 1],
        Err(ServiceError::UnknownGraph { .. })
    ));

    // Rerunning the same batch builds nothing new.
    let indexes = service.index_count();
    let rerun = service.run_batch(&batch);
    assert_eq!(service.index_count(), indexes);
    for (a, b) in results.iter().zip(&rerun) {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.seeds, y.seeds);
                assert_eq!(x.exact_score.to_bits(), y.exact_score.to_bits());
            }
            (Err(x), Err(y)) => assert_eq!(x, y),
            _ => panic!("rerun changed a result slot"),
        }
    }
}

#[test]
fn concurrent_service_callers_share_one_set_of_indexes() {
    let inst = instance();
    let service = VomService::new();
    service.register("net", Arc::new(inst)).unwrap();
    let batch: Vec<ServiceRequest> = mixed_queries()
        .into_iter()
        .map(|q| ServiceRequest::new("net", vom::core::MethodId::Rs, HORIZON, q))
        .collect();

    let outcomes = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let service = &service;
                let batch = &batch;
                s.spawn(move || {
                    service
                        .run_batch(batch)
                        .into_iter()
                        .map(|r| {
                            let out = r.unwrap();
                            (out.seeds, out.exact_score.to_bits())
                        })
                        .collect::<Vec<Outcome>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    assert!(outcomes.windows(2).all(|w| w[0] == w[1]));
    // Four concurrent callers, mixed rule classes, exactly the per-class
    // index set — nothing built twice.
    assert!(service.index_count() <= 3 * K_MAX.next_power_of_two().ilog2() as usize + 3);
}
