//! The perf-trajectory harness behind `repro --bench-json`.
//!
//! Times the prepare and query phases of three representative workloads —
//! the Figure 6 plurality sweep in quick mode (`fig6-quick`), the
//! cumulative budget sweep (`sweep-k`), and a batched `query-throughput`
//! workload that fans mixed queries over **one shared
//! [`vom_service::VomService`] index** — with the pool pinned to a
//! single thread and at the parallel target, then writes the samples to
//! `BENCH_parallel.json`. The file seeds the repo's recorded perf
//! trajectory: each sample carries the thread count, phase wall clocks,
//! a `deterministic` flag asserting the run selected bit-identical
//! seeds to the single-threaded reference (the shim's
//! schedule-independence contract, checked on every bench run), and a
//! `digest` of the selections so external tooling (the CI smoke) can
//! re-assert the cross-width match from the JSON alone.
//!
//! The sweep workloads parallelize *inside* one query (artifact builds,
//! estimate updates); the query-throughput workload parallelizes
//! *across* queries — each batch item gets its own
//! [`vom_core::QuerySession`] on the shared `Send + Sync` index, so the
//! thread count scales served queries per second, not single-query
//! latency.
//!
//! Methodology: datasets are generated once and shared by all runs, so
//! the timings isolate engine work (artifact builds + greedy queries)
//! from replica synthesis; each (workload, width) pair runs
//! [`PASSES`] times with the widths interleaved — evening out cache
//! warmth — and the fastest pass is recorded (min-of-N, as criterion
//! does, so one scheduler hiccup cannot masquerade as a slowdown).

use crate::error::{BenchError, Result};
use crate::experiments::sweep_k;
use crate::{timed, ExpConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use vom_core::engine::{BuildCounters, PreparedIndex, Query, RuleClass, SelectionMode};
use vom_core::phases::{self, PhaseTimes, SolverCounters};
use vom_core::{IndexSource, MethodId, Problem};
use vom_datasets::Dataset;
use vom_graph::Node;
use vom_service::{ServiceRequest, VomService};
use vom_voting::ScoringFunction;

/// One timed (workload, thread-count) sample.
#[derive(Debug, Clone)]
pub struct BenchSample {
    /// Workload id (`fig6-quick`, `sweep-k`, or `query-throughput`).
    pub experiment: &'static str,
    /// Pool threads the sample ran with.
    pub threads: usize,
    /// Wall clock of all `prepare` calls (artifact builds).
    pub prepare_s: f64,
    /// Wall clock of all `select` queries.
    pub query_s: f64,
    /// `prepare_s + query_s` — the workload's engine wall clock.
    pub total_s: f64,
    /// Whether the selected seed sets are bit-identical to the
    /// 1-thread reference run of the same workload.
    pub deterministic: bool,
    /// FNV-1a digest of the selections (labels + seeds), hex. Equal
    /// digests across thread counts of one experiment mean equal
    /// selections — asserted again from the JSON by the CI smoke.
    pub digest: String,
    /// Query-phase breakdown (diffusion vs truncation vs scoring wall
    /// clock, from `vom_core::phases`) of the recorded pass. The
    /// phases cover the hot work, not the orchestration, so they sum to
    /// slightly less than `query_s`. Diffusion is reported as
    /// `diffusion_s` plus the historical `diffusion_cold_s` /
    /// `diffusion_warm_s` split, whose warm half always reads 0 since
    /// the warm-start solver was retired.
    pub phases: PhaseTimes,
    /// The same breakdown attributed per engine (`DM`/`RW`/`RS`), in
    /// first-run order.
    pub method_phases: Vec<(String, PhaseTimes)>,
    /// Diffusion-solver work counters (solves, one per batched lane;
    /// steps; the always-zero warm fields) of the recorded pass's query
    /// section, from `vom_diffusion::SolverCounters`.
    pub solver: SolverCounters,
}

/// Seed selections of one workload pass, for cross-thread comparison:
/// `(dataset, method, k) -> seeds`.
pub(crate) type Selections = Vec<(String, Vec<Node>)>;

struct WorkloadPass {
    prepare: Duration,
    query: Duration,
    selections: Selections,
    /// Per-phase attribution of the query wall clock.
    phases: PhaseTimes,
    /// Query phases split per method name.
    method_phases: Vec<(String, PhaseTimes)>,
    /// Diffusion-solver counters accumulated over the query sections.
    solver: SolverCounters,
}

/// Adds `delta` to `method`'s slot (insertion order preserved).
fn merge_method_phases(into: &mut Vec<(String, PhaseTimes)>, method: &str, delta: PhaseTimes) {
    match into.iter_mut().find(|(m, _)| m == method) {
        Some((_, acc)) => acc.add(delta),
        None => into.push((method.to_string(), delta)),
    }
}

/// Timed passes per (workload, width); the fastest is recorded. Three
/// passes converge the min to the noise floor on busy machines — with
/// one pass, scheduler jitter on the (mostly serial) query phase can
/// exceed the parallel build speedup being measured.
pub const PASSES: usize = 3;

/// The thread count for the parallel pass: the configured pool width,
/// but at least 2 so the comparison is meaningful on single-core boxes.
fn parallel_target() -> usize {
    rayon::current_num_threads().max(2)
}

/// FNV-1a over the selection labels and seed ids — a stable fingerprint
/// of "which seeds did every query pick".
pub(crate) fn selections_digest(selections: &Selections) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (label, seeds) in selections {
        for b in label.bytes() {
            eat(b);
        }
        eat(0xff);
        for &s in seeds {
            for b in s.to_le_bytes() {
                eat(b);
            }
        }
        eat(0xfe);
    }
    format!("{hash:016x}")
}

/// The snapshot file one (dataset, method) index of a sweep workload is
/// saved under: budget and horizon are part of the identity, so a `--k`
/// override never aliases a default-budget snapshot.
fn snapshot_path(
    dir: &Path,
    ds: &str,
    method: MethodId,
    score: &ScoringFunction,
    k_max: usize,
    t: usize,
) -> PathBuf {
    dir.join(format!(
        "{ds}--{}-c{}-k{k_max}-t{t}.vpi",
        method.name().to_lowercase(),
        RuleClass::of(score) as usize
    ))
}

/// Builds (or, under `cfg.load_index`, loads) one prepared method.
/// An unusable snapshot — missing file, corruption, digest mismatch —
/// falls back to a fresh build with a warning and clears `all_loaded`:
/// loads fail closed, the workload does not.
fn prepare_method(
    cfg: &ExpConfig,
    ds: &Dataset,
    spec: &Problem<'_>,
    m: MethodId,
    score: &ScoringFunction,
    k_max: usize,
    all_loaded: &mut bool,
) -> Result<crate::PreparedMethod> {
    if let Some(dir) = &cfg.load_index {
        let path = snapshot_path(dir, ds.name, m, score, k_max, cfg.default_t());
        match PreparedIndex::load(Arc::new(ds.instance.clone()), IndexSource::File(&path)) {
            Ok(index) => return Ok(crate::PreparedMethod::from_index(m, Arc::new(index))),
            Err(e) => {
                eprintln!(
                    "[bench] index snapshot {} unusable ({e}); rebuilding",
                    path.display()
                );
                *all_loaded = false;
            }
        }
    }
    crate::PreparedMethod::new(spec, m, cfg.seed)
}

/// Runs one sweep workload over the shared datasets at the current pool
/// setting, timing prepare and query phases separately. With
/// `cfg.load_index` the prepare phase loads snapshots instead of
/// simulating; with `cfg.save_index` every index is snapshotted after
/// its queries.
fn run_workload(
    cfg: &ExpConfig,
    datasets: &[Dataset],
    score: &ScoringFunction,
) -> Result<WorkloadPass> {
    let t = cfg.default_t();
    let mut prepare = Duration::ZERO;
    let mut query = Duration::ZERO;
    let mut selections: Selections = Vec::new();
    let mut query_phases = PhaseTimes::default();
    let mut method_phases: Vec<(String, PhaseTimes)> = Vec::new();
    let mut solver = SolverCounters::default();
    let counters_before = BuildCounters::snapshot();
    let mut all_loaded = cfg.load_index.is_some();
    if let Some(dir) = &cfg.save_index {
        std::fs::create_dir_all(dir).map_err(|e| {
            BenchError::InvalidConfig(format!("cannot create {}: {e}", dir.display()))
        })?;
    }
    for ds in datasets {
        let n = ds.instance.num_nodes();
        // An explicit --k override is taken verbatim (no clamping): an
        // unsatisfiable budget must surface as a BenchError, not be
        // silently shrunk to fit.
        let ks: Vec<usize> = match cfg.k_override {
            Some(k) => vec![k],
            None => cfg
                .k_sweep()
                .iter()
                .map(|&k| k.min(n / 2))
                .filter(|&k| k > 0)
                .collect(),
        };
        let Some(&k_max) = ks.iter().max() else {
            continue;
        };
        let spec = Problem::new(&ds.instance, ds.default_target, k_max, t, score.clone())?;
        let methods: Vec<_> = sweep_k::sweep_methods(n, score)
            .into_iter()
            .filter(|m| m.is_ours())
            .collect();
        for m in methods {
            let (prepared, build) =
                timed(|| prepare_method(cfg, ds, &spec, m, score, k_max, &mut all_loaded));
            let mut prepared = prepared?;
            prepare += build;
            let before = phases::snapshot();
            let solver_before = phases::solver_counters();
            for &k in &ks {
                let (out, select) = timed(|| prepared.evaluate(k));
                let out = out?;
                query += select;
                selections.push((format!("{}/{}/k{}", ds.name, m.name(), k), out.seeds));
            }
            let delta = phases::snapshot().since(before);
            query_phases.add(delta);
            solver.add(phases::solver_counters().since(solver_before));
            merge_method_phases(&mut method_phases, m.name(), delta);
            if let Some(dir) = &cfg.save_index {
                let path = snapshot_path(dir, ds.name, m, score, k_max, t);
                prepared.index().save(&path).map_err(|e| {
                    BenchError::InvalidConfig(format!("cannot save {}: {e}", path.display()))
                })?;
            }
        }
    }
    if all_loaded {
        // Every index came off disk: the load path must not have
        // re-simulated any walk arena or sketch set.
        let built = BuildCounters::snapshot().since(counters_before);
        if built.rw_arenas != 0 || built.rs_sketches != 0 {
            return Err(BenchError::InvalidConfig(format!(
                "--load-index run still built artifacts ({} arenas, {} sketch sets)",
                built.rw_arenas, built.rs_sketches
            )));
        }
    }
    Ok(WorkloadPass {
        prepare,
        query,
        selections,
        phases: query_phases,
        method_phases,
        solver,
    })
}

/// The mixed query batch of the throughput workload: every swept budget
/// under the plurality rule, auto (sandwich) and plain modes, replicated
/// [`QT_REPLICATION`] times — all answered by **one** shared RS index.
pub(crate) fn throughput_requests(cfg: &ExpConfig, ds: &Dataset) -> Vec<ServiceRequest> {
    let n = ds.instance.num_nodes();
    let ks: Vec<usize> = match cfg.k_override {
        Some(k) => vec![k],
        None => cfg
            .k_sweep()
            .iter()
            .map(|&k| k.min(n / 2))
            .filter(|&k| k > 0)
            .collect(),
    };
    let mut requests = Vec::new();
    for _rep in 0..QT_REPLICATION {
        for &k in &ks {
            for mode in [SelectionMode::Auto, SelectionMode::Plain] {
                let mut query = Query::new(k, ScoringFunction::Plurality, ds.default_target);
                query.mode = mode;
                requests.push(ServiceRequest::new(
                    QT_GRAPH,
                    MethodId::Rs,
                    cfg.default_t(),
                    query,
                ));
            }
        }
    }
    requests
}

pub(crate) const QT_GRAPH: &str = "bench";
/// Batch replication factor: enough in-flight queries that every pool
/// worker stays busy at the parallel target.
const QT_REPLICATION: usize = 4;

/// One pass of the batched query-throughput workload: a fresh service,
/// `warm` as the prepare phase (builds the one shared index), then
/// `run_batch` as the query phase.
fn run_query_throughput(cfg: &ExpConfig, ds: &Dataset) -> Result<WorkloadPass> {
    let seed = cfg.seed;
    let service =
        VomService::with_engine_factory(Box::new(move |m| crate::harness_engine(m, seed)));
    service
        .register(QT_GRAPH, Arc::new(ds.instance.clone()))
        .map_err(|e| BenchError::InvalidConfig(format!("service registration failed: {e}")))?;
    let requests = throughput_requests(cfg, ds);
    let (_, prepare) = timed(|| service.warm(&requests));
    let before = phases::snapshot();
    let solver_before = phases::solver_counters();
    let (results, query) = timed(|| service.run_batch(&requests));
    let query_phases = phases::snapshot().since(before);
    let solver = phases::solver_counters().since(solver_before);
    let mut selections: Selections = Vec::with_capacity(results.len());
    for (i, (req, res)) in requests.iter().zip(results).enumerate() {
        let out = res.map_err(|e| {
            BenchError::InvalidConfig(format!(
                "query-throughput request {i} (k={}) failed: {e}",
                req.query.k
            ))
        })?;
        selections.push((
            format!("{}/k{}/{:?}/{i}", ds.name, req.query.k, req.query.mode),
            out.seeds,
        ));
    }
    Ok(WorkloadPass {
        prepare,
        query,
        selections,
        phases: query_phases,
        method_phases: vec![(MethodId::Rs.name().to_string(), query_phases)],
        solver,
    })
}

/// The build-vs-load comparison of the index persistence path: one
/// workload prepared from scratch (and snapshotted), then the same
/// workload served from the snapshots.
#[derive(Debug, Clone)]
pub struct IndexIoSample {
    /// The workload the probe ran (`fig6-quick`).
    pub experiment: &'static str,
    /// Wall clock of building every index from the instance.
    pub index_build_s: f64,
    /// Wall clock of loading the same indexes from their snapshots.
    pub index_load_s: f64,
    /// `index_build_s / index_load_s`.
    pub speedup: f64,
    /// Selection digest of the built-index run.
    pub digest: String,
    /// Whether the loaded-index run selected bit-identical seeds.
    pub deterministic: bool,
}

/// Runs the fig6-quick workload twice at one pool thread — build+save,
/// then load — and compares wall clocks and selection digests. The
/// snapshots live in a scratch directory that is removed afterwards
/// (`--save-index`/`--load-index` are the user-facing way to keep them).
fn run_index_io_probe(cfg: &ExpConfig, datasets: &[Dataset]) -> Result<IndexIoSample> {
    let dir = std::env::temp_dir().join(format!("vom-index-io-{}", std::process::id()));
    let score = ScoringFunction::Plurality;
    let outcome = (|| -> Result<IndexIoSample> {
        let save_cfg = ExpConfig {
            save_index: Some(dir.clone()),
            load_index: None,
            ..cfg.clone()
        };
        let built = run_workload(&save_cfg, datasets, &score)?;
        let load_cfg = ExpConfig {
            save_index: None,
            load_index: Some(dir.clone()),
            ..cfg.clone()
        };
        let loaded = run_workload(&load_cfg, datasets, &score)?;
        let index_build_s = built.prepare.as_secs_f64();
        let index_load_s = loaded.prepare.as_secs_f64();
        Ok(IndexIoSample {
            experiment: "fig6-quick",
            index_build_s,
            index_load_s,
            speedup: index_build_s / index_load_s.max(f64::EPSILON),
            digest: selections_digest(&built.selections),
            deterministic: built.selections == loaded.selections,
        })
    })();
    std::fs::remove_dir_all(&dir).ok();
    outcome
}

/// Interleaves [`PASSES`] passes of one workload at 1 and `threads_hi`
/// pool threads, checks every pass against the 1-thread reference
/// selections, and records the fastest pass per width.
fn collect_workload(
    experiment: &'static str,
    threads_hi: usize,
    samples: &mut Vec<BenchSample>,
    mut pass_fn: impl FnMut() -> Result<WorkloadPass>,
) -> Result<()> {
    let mut reference: Option<Selections> = None;
    // threads -> (fastest pass, every pass matched the reference)
    let mut best: Vec<(usize, WorkloadPass, bool)> = Vec::new();
    for pass_no in 0..PASSES {
        for &threads in &[1usize, threads_hi] {
            rayon::set_thread_override(Some(threads));
            let pass = pass_fn()?;
            let matches = match &reference {
                None => {
                    reference = Some(pass.selections.clone());
                    true
                }
                Some(expected) => *expected == pass.selections,
            };
            println!(
                "[bench {experiment} threads={threads} pass {}/{PASSES}: \
                 prepare {:.3}s, query {:.3}s, deterministic: {matches}]",
                pass_no + 1,
                pass.prepare.as_secs_f64(),
                pass.query.as_secs_f64(),
            );
            match best.iter_mut().find(|(t, _, _)| *t == threads) {
                None => best.push((threads, pass, matches)),
                Some((_, fastest, all_match)) => {
                    *all_match = *all_match && matches;
                    if pass.prepare + pass.query < fastest.prepare + fastest.query {
                        *fastest = pass;
                    }
                }
            }
        }
    }
    for (threads, pass, deterministic) in best {
        samples.push(BenchSample {
            experiment,
            threads,
            prepare_s: pass.prepare.as_secs_f64(),
            query_s: pass.query.as_secs_f64(),
            total_s: (pass.prepare + pass.query).as_secs_f64(),
            deterministic,
            digest: selections_digest(&pass.selections),
            phases: pass.phases,
            method_phases: pass.method_phases,
            solver: pass.solver,
        });
    }
    Ok(())
}

/// Runs all three workloads at 1 and N threads (the configured pool
/// width, floored at 2) and writes `BENCH_parallel.json` into the
/// current directory. Returns the path written. The pool override in
/// effect at entry (e.g. from `repro --threads`) is always restored,
/// also on error.
pub fn run(cfg: &ExpConfig) -> Result<PathBuf> {
    let quick = ExpConfig {
        quick: true,
        ..cfg.clone()
    };
    let datasets = sweep_k::datasets(&quick);
    let entry_override = rayon::thread_override();
    let threads_hi = parallel_target();
    let workloads: [(&'static str, ScoringFunction); 2] = [
        ("fig6-quick", ScoringFunction::Plurality),
        ("sweep-k", ScoringFunction::Cumulative),
    ];

    let mut samples: Vec<BenchSample> = Vec::new();
    let mut index_io: Option<IndexIoSample> = None;
    let outcome = (|| -> Result<()> {
        for (experiment, score) in &workloads {
            collect_workload(experiment, threads_hi, &mut samples, || {
                run_workload(&quick, &datasets, score)
            })?;
        }
        // The batched service workload: one shared index, N sessions.
        let qt_dataset = datasets.first().ok_or_else(|| {
            BenchError::InvalidConfig("no dataset for the query-throughput workload".into())
        })?;
        collect_workload("query-throughput", threads_hi, &mut samples, || {
            run_query_throughput(&quick, qt_dataset)
        })?;
        // The persistence probe: build vs load wall clock, at one
        // thread so the parallel build speedup doesn't flatter the
        // load-path ratio.
        rayon::set_thread_override(Some(1));
        index_io = Some(run_index_io_probe(&quick, &datasets)?);
        Ok(())
    })();
    rayon::set_thread_override(entry_override);
    outcome?;

    if let Some(bad) = samples.iter().find(|s| !s.deterministic) {
        return Err(BenchError::InvalidConfig(format!(
            "parallel run of {} at {} threads diverged from the 1-thread selections \
             (schedule-independence contract violated)",
            bad.experiment, bad.threads
        )));
    }
    let index_io = index_io.expect("probe ran");
    if !index_io.deterministic {
        return Err(BenchError::InvalidConfig(
            "snapshot-loaded indexes diverged from freshly built ones \
             (persistence round-trip contract violated)"
                .into(),
        ));
    }
    println!(
        "[bench index-io: build {:.3}s, load {:.3}s ({:.1}x)]",
        index_io.index_build_s, index_io.index_load_s, index_io.speedup
    );

    let path = PathBuf::from("BENCH_parallel.json");
    std::fs::write(&path, render_json(&quick, &samples, &index_io))
        .map_err(|e| BenchError::InvalidConfig(format!("cannot write {}: {e}", path.display())))?;
    Ok(path)
}

/// Runs one pass of the `sweep-k` workload at the current pool setting
/// and returns the selection digest — the hook the sweep-k digest test
/// uses to assert that the batched DM greedy picks the committed seeds
/// at any thread count, without writing a JSON file.
pub fn sweep_k_selection_digest(cfg: &ExpConfig) -> Result<String> {
    sweep_k_pass(cfg).map(|(digest, _)| digest)
}

/// One `sweep-k` pass (honoring `cfg.save_index`/`cfg.load_index`),
/// returning the selection digest and the query-phase solver counters.
/// Because the pass accounts all process-global counters as deltas, two
/// passes in one process must return bitwise-equal counters — the
/// counter-hygiene contract the persistence integration test pins.
pub fn sweep_k_pass(cfg: &ExpConfig) -> Result<(String, SolverCounters)> {
    let quick = ExpConfig {
        quick: true,
        ..cfg.clone()
    };
    let datasets = sweep_k::datasets(&quick);
    let pass = run_workload(&quick, &datasets, &ScoringFunction::Cumulative)?;
    Ok((selections_digest(&pass.selections), pass.solver))
}

/// Renders one phase breakdown as JSON object fields. `diffusion_s`
/// keeps its historical meaning (all exact diffusion wall clock) so the
/// trajectory stays comparable; the historical cold/warm split rides
/// along as two extra fields, the warm one always 0.
pub(crate) fn phase_fields(p: PhaseTimes) -> String {
    format!(
        "\"diffusion_s\": {:.6}, \"diffusion_cold_s\": {:.6}, \"diffusion_warm_s\": {:.6}, \
         \"truncation_s\": {:.6}, \"scoring_s\": {:.6}",
        p.diffusion_total().as_secs_f64(),
        p.diffusion.as_secs_f64(),
        p.diffusion_warm.as_secs_f64(),
        p.truncation.as_secs_f64(),
        p.scoring.as_secs_f64()
    )
}

/// Renders the solver work counters as a JSON object.
pub(crate) fn solver_fields(c: SolverCounters) -> String {
    format!(
        "{{ \"cold_solves\": {}, \"warm_solves\": {}, \"cold_steps\": {}, \
         \"warm_frontier_nodes\": {} }}",
        c.cold_solves, c.warm_solves, c.cold_steps, c.warm_frontier_nodes
    )
}

/// Renders the build-vs-load probe as a JSON object.
fn index_io_fields(io: &IndexIoSample) -> String {
    format!(
        "{{ \"experiment\": \"{}\", \"index_build_s\": {:.6}, \"index_load_s\": {:.6}, \
         \"speedup\": {:.2}, \"digest\": \"{}\", \"deterministic\": {} }}",
        io.experiment, io.index_build_s, io.index_load_s, io.speedup, io.digest, io.deterministic
    )
}

/// Hand-rolled JSON (the workspace builds offline without serde; same
/// policy as [`crate::Table::to_json_pretty`]).
fn render_json(cfg: &ExpConfig, samples: &[BenchSample], index_io: &IndexIoSample) -> String {
    let runs = samples
        .iter()
        .map(|s| {
            let methods = s
                .method_phases
                .iter()
                .map(|(m, p)| {
                    format!("        {{ \"method\": \"{m}\", {} }}", phase_fields(*p))
                })
                .collect::<Vec<_>>()
                .join(",\n");
            format!(
                "    {{\n      \"experiment\": \"{}\",\n      \"threads\": {},\n      \
                 \"prepare_s\": {:.6},\n      \"query_s\": {:.6},\n      \"total_s\": {:.6},\n      \
                 \"deterministic\": {},\n      \"digest\": \"{}\",\n      \
                 \"phases\": {{ {} }},\n      \"solver\": {},\n      \
                 \"method_phases\": [\n{}\n      ]\n    }}",
                s.experiment,
                s.threads,
                s.prepare_s,
                s.query_s,
                s.total_s,
                s.deterministic,
                s.digest,
                phase_fields(s.phases),
                solver_fields(s.solver),
                methods
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"id\": \"bench_parallel\",\n  \"title\": \"engine wall clock at 1 vs N pool \
         threads (prepare/query phases, fastest of {PASSES} passes)\",\n  \"scale\": {},\n  \
         \"seed\": {},\n  \"passes\": {PASSES},\n  \"index_io\": {},\n  \
         \"runs\": [\n{runs}\n  ]\n}}\n",
        cfg.scale,
        cfg.seed,
        index_io_fields(index_io)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_shaped_for_the_trajectory_tooling() {
        let cfg = ExpConfig::default();
        let phases = PhaseTimes {
            diffusion: Duration::from_millis(100),
            truncation: Duration::from_millis(50),
            scoring: Duration::from_millis(250),
            diffusion_warm: Duration::from_millis(300),
        };
        let solver = SolverCounters {
            cold_solves: 7,
            warm_solves: 1234,
            cold_steps: 140,
            warm_frontier_nodes: 9876,
        };
        let samples = vec![
            BenchSample {
                experiment: "fig6-quick",
                threads: 1,
                prepare_s: 1.5,
                query_s: 0.5,
                total_s: 2.0,
                deterministic: true,
                digest: "00c0ffee00c0ffee".into(),
                phases,
                method_phases: vec![("RW".into(), phases), ("RS".into(), phases)],
                solver,
            },
            BenchSample {
                experiment: "fig6-quick",
                threads: 4,
                prepare_s: 0.5,
                query_s: 0.25,
                total_s: 0.75,
                deterministic: true,
                digest: "00c0ffee00c0ffee".into(),
                phases,
                method_phases: vec![("RW".into(), phases)],
                solver,
            },
        ];
        let io = IndexIoSample {
            experiment: "fig6-quick",
            index_build_s: 1.0,
            index_load_s: 0.1,
            speedup: 10.0,
            digest: "00c0ffee00c0ffee".into(),
            deterministic: true,
        };
        let json = render_json(&cfg, &samples, &io);
        assert!(json.contains("\"threads\": 1"));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"total_s\": 2.000000"));
        assert!(json.contains("\"deterministic\": true"));
        assert!(json.contains("\"digest\": \"00c0ffee00c0ffee\""));
        // The per-phase breakdown is present at both levels:
        // diffusion_s stays cold+warm so the trajectory is comparable.
        assert!(json.contains("\"phases\": { \"diffusion_s\": 0.400000"));
        assert!(json.contains("\"diffusion_cold_s\": 0.100000"));
        assert!(json.contains("\"diffusion_warm_s\": 0.300000"));
        assert!(json.contains("\"scoring_s\": 0.250000"));
        // The persistence probe is a top-level object.
        assert!(json.contains("\"index_io\": { \"experiment\": \"fig6-quick\""));
        assert!(json.contains("\"index_build_s\": 1.000000"));
        assert!(json.contains("\"index_load_s\": 0.100000"));
        assert!(json.contains("\"speedup\": 10.00"));
        // Solver work counters ride along per sample.
        assert!(json.contains("\"solver\": { \"cold_solves\": 7, \"warm_solves\": 1234"));
        assert!(json.contains("\"warm_frontier_nodes\": 9876"));
        assert!(json.contains("\"method\": \"RW\""));
        assert!(json.contains("\"method\": \"RS\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn parallel_target_is_at_least_two() {
        assert!(parallel_target() >= 2);
    }

    #[test]
    fn digest_tracks_selection_content() {
        let a: Selections = vec![("x/k1".into(), vec![1, 2]), ("x/k2".into(), vec![3])];
        let b: Selections = vec![("x/k1".into(), vec![1, 2]), ("x/k2".into(), vec![4])];
        assert_eq!(selections_digest(&a), selections_digest(&a));
        assert_ne!(selections_digest(&a), selections_digest(&b));
        assert_eq!(selections_digest(&a).len(), 16);
    }

    #[test]
    fn throughput_batch_covers_budgets_modes_and_replicas() {
        let cfg = ExpConfig {
            quick: true,
            ..ExpConfig::default()
        };
        let ds = sweep_k::datasets(&cfg).remove(0);
        let reqs = throughput_requests(&cfg, &ds);
        assert!(!reqs.is_empty());
        assert_eq!(reqs.len() % (2 * QT_REPLICATION), 0, "k × mode × replicas");
        assert!(reqs.iter().all(|r| r.graph == QT_GRAPH));
        assert!(reqs.iter().any(|r| r.query.mode == SelectionMode::Plain));
    }
}
