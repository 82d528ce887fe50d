//! Degradation-determinism suite: a query cancelled by a deterministic
//! tick budget must return a **bit-identical prefix** of the selection
//! the same query produces with no budget, for every engine × rule
//! class, at every worker-pool width, for *any* budget — sampled here
//! from a seeded stream over the query's real tick range.
//!
//! Budgeted queries always run plain greedy (the sandwich arbitration
//! is not prefix-consistent — see `QuerySession::select_with_meter`), so
//! the unbudgeted reference below is the `SelectionMode::Plain` run.

use std::sync::{Arc, Mutex};
use vom::core::engine::Outcome;
use vom::core::rs::RsConfig;
use vom::core::rw::RwConfig;
use vom::core::{
    CostBudget, CostMeter, Engine, PreparedIndex, Problem, Query, QuerySession, SeedSelector,
    SelectionMode,
};
use vom::diffusion::{Instance, OpinionMatrix};
use vom::graph::builder::graph_from_edges;
use vom::graph::{generators, Node};
use vom::voting::ScoringFunction;

const K: usize = 4;
const HORIZON: usize = 4;
const THREADS: [usize; 3] = [1, 2, 8];

/// The pool override is process-global; tests in this binary run on
/// parallel test threads and must not interleave overrides.
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

/// splitmix64 — the budget sampler's seed stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A 40-node, 3-candidate instance with enough structure that different
/// rules pick different seeds (same replica as `tests/query_service.rs`).
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

/// The engine configs pin the budget-derived knobs so prepared indexes
/// answer deterministically (as in `tests/prepared_equivalence.rs`).
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

fn rules() -> [ScoringFunction; 3] {
    [
        ScoringFunction::Cumulative,
        ScoringFunction::Plurality,
        ScoringFunction::Copeland,
    ]
}

fn plain_query(rule: &ScoringFunction) -> Query {
    let mut q = Query::new(K, rule.clone(), 0);
    q.mode = SelectionMode::Plain;
    q
}

/// One budgeted run on a fresh session, reduced to comparable form:
/// `(degraded, seeds, budget_spent, budget_limit)`.
fn budgeted_sig(
    index: &Arc<PreparedIndex>,
    query: &Query,
    ticks: u64,
) -> (bool, Vec<Node>, u64, u64) {
    let mut session = QuerySession::new(Arc::clone(index));
    let meter = Arc::new(CostMeter::new(CostBudget::ticks(ticks)));
    match session.select_with_meter(query, &meter).unwrap() {
        Outcome::Complete(res) => (false, res.seeds, 0, 0),
        Outcome::Degraded {
            seeds_prefix,
            budget_spent,
            budget_limit,
        } => (true, seeds_prefix, budget_spent, budget_limit),
    }
}

/// The full plain selection and the total ticks the query charges, via
/// a slack meter the budget sampler then draws from.
fn full_run(index: &Arc<PreparedIndex>, query: &Query) -> (Vec<Node>, u64) {
    let mut session = QuerySession::new(Arc::clone(index));
    let meter = Arc::new(CostMeter::new(CostBudget::ticks(u64::MAX)));
    let outcome = session.select_with_meter(query, &meter).unwrap();
    let Outcome::Complete(res) = outcome else {
        panic!("slack-budget run degraded");
    };
    (res.seeds, meter.spent())
}

#[test]
fn random_budgets_yield_prefixes_for_every_engine_and_rule() {
    let _guard = pool_lock();
    let inst = instance();
    for engine in engines() {
        let spec = Problem::new(&inst, 0, K, HORIZON, ScoringFunction::Cumulative).unwrap();
        let index = Arc::new(engine.prepare_index(&spec).unwrap());
        for rule in rules() {
            let query = plain_query(&rule);
            let (full, total_ticks) = full_run(&index, &query);
            assert!(total_ticks > 0, "{}/{rule:?}: free query", engine.name());

            // A budget strictly above the real cost is a no-op:
            // complete, and bit-identical to the unmetered run.
            // (Exhaustion is `spent >= limit`, so a budget *equal* to
            // the total cost may legitimately stop at the last
            // checkpoint — the property loop below covers that edge.)
            let mut session = QuerySession::new(Arc::clone(&index));
            let unmetered = session.select(&query).unwrap();
            assert_eq!(unmetered.seeds, full, "{}/{rule:?}", engine.name());
            let (degraded, seeds, _, _) = budgeted_sig(&index, &query, total_ticks + 1);
            assert!(
                !degraded,
                "{}/{rule:?} degraded above full cost",
                engine.name()
            );
            assert_eq!(seeds, full, "{}/{rule:?}", engine.name());

            // Exhaustion at budget 0 must still return a valid
            // (possibly empty) prefix, never an error.
            let (degraded, seeds, spent, limit) = budgeted_sig(&index, &query, 0);
            assert!(degraded, "{}/{rule:?} completed on 0 ticks", engine.name());
            assert!(full.starts_with(&seeds) && spent >= limit);

            // Property: any budget sampled over the query's real tick
            // range yields either the full selection or a bit-identical
            // prefix of it, with consistent budget bookkeeping.
            let mut rng = 0xDE6_12ADE ^ total_ticks;
            let mut saw_degraded = 0usize;
            for _ in 0..8 {
                let ticks = splitmix(&mut rng) % (total_ticks + 1);
                let (degraded, seeds, spent, limit) = budgeted_sig(&index, &query, ticks);
                if degraded {
                    saw_degraded += 1;
                    assert!(
                        full.starts_with(&seeds),
                        "{}/{rule:?} ticks={ticks}: {seeds:?} is not a prefix of {full:?}",
                        engine.name()
                    );
                    assert!(seeds.len() < full.len());
                    assert_eq!(limit, ticks);
                    assert!(spent >= limit, "stopped before the budget ran out");
                } else {
                    assert_eq!(seeds, full, "{}/{rule:?} ticks={ticks}", engine.name());
                }
            }
            assert!(
                saw_degraded > 0,
                "{}/{rule:?}: no sampled budget degraded (range {total_ticks})",
                engine.name()
            );
        }
    }
}

#[test]
fn degradation_points_are_identical_across_widths() {
    let _guard = pool_lock();
    let inst = instance();
    for engine in engines() {
        let spec = Problem::new(&inst, 0, K, HORIZON, ScoringFunction::Cumulative).unwrap();
        let index = Arc::new(engine.prepare_index(&spec).unwrap());
        for rule in rules() {
            let query = plain_query(&rule);
            let (_, total_ticks) = with_threads(1, || full_run(&index, &query));
            let mut rng = 0x5EED ^ total_ticks;
            for _ in 0..4 {
                // Sampled below the full cost so degradation is likely;
                // either way every width must agree on the outcome —
                // kind, seeds, and the exact tick the meter stopped at.
                let ticks = splitmix(&mut rng) % total_ticks.max(1);
                let reference = with_threads(THREADS[0], || budgeted_sig(&index, &query, ticks));
                for &threads in &THREADS[1..] {
                    let sig = with_threads(threads, || budgeted_sig(&index, &query, ticks));
                    assert_eq!(
                        sig,
                        reference,
                        "{}/{rule:?} ticks={ticks} diverged at {threads} threads",
                        engine.name()
                    );
                }
            }
        }
    }
}
