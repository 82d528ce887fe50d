#![forbid(unsafe_code)]
//! # vom-perfbench
//!
//! The repository's benchmark (`BENCHMARK.json`): each workload is served
//! through `VomService::run` by one client in a closed loop, with the
//! worker pool pinned to one thread. See `README.md` in this directory
//! for why each workload exists and which layer metric should move which
//! end-to-end metric.
//!
//! A run has three parts:
//!
//! 1. **Set-up**, timed as `setup_s`: generate the instance, register it,
//!    `VomService::warm` every index the stream touches, then one
//!    warm-up pass over the distinct requests, which fills the indexes'
//!    lazy caches (competitor matrix and rank index, seedless matrix,
//!    sandwich upper-bound orders, DM CELF order). The untraced run sets
//!    up [`SETUPS`] times, each time on a fresh service, and reports the
//!    median.
//! 2. **The timed stream**: after each set-up, a third of `--seconds` of
//!    whole passes over the distinct requests, each pass in a fresh
//!    order drawn from `--seed`.
//! 3. **The correctness gate**, applied to every response: `Ok`, `k`
//!    distinct in-range seeds, a finite exact score, and the same seeds
//!    as the warm-up pass (so every pass reproduces the warm-up digest).
//!    The warm-up digest must equal the workload's pinned value. A
//!    failed check counts as a failed request.
//!
//! The traced run (`--trace 1`) adds spans around every call into a
//! layer and reports the per-layer metrics instead (see [`trace`]).

pub mod stats;
pub mod trace;
pub mod workloads;

use stats::{median, SplitMix};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Mark, Trace};
use vom_core::engine::{
    Outcome, QuerySession, RuleClass, SeedSelector, SelectionMode, SelectionResult,
};
use vom_core::{CostBudget, CostMeter, MethodId, ProblemSpec};
use vom_diffusion::Instance;
use vom_graph::Node;
use vom_service::{ServiceRequest, ServiceResult, VomService};
use vom_voting::ScoringFunction;
use workloads::{Size, WorkloadId, GRAPH};

/// The `--seed` a run uses when none is given.
pub const DEFAULT_SEED: u64 = 2023;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Replays per plain estimator request in the traced run.
const REPLAYS: usize = 2;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: WorkloadId,
    /// Seed of the request order.
    pub seed: u64,
    /// Length of the timed stream.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Full or tiny inputs.
    pub size: Size,
    /// The digest the warm-up pass must reproduce (the workload's pin).
    pub pinned: u64,
    /// Where the traced run writes its spans (one JSON object a line).
    pub trace_dir: Option<PathBuf>,
}

impl Config {
    /// A run of `workload`, checked against its pinned digest.
    pub fn new(workload: WorkloadId, seed: u64, seconds: f64, trace: bool, size: Size) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            size,
            pinned: workload.pinned_digest(size),
            trace_dir: None,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The `BENCHMARK.json` name.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// The unit.
    pub unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Program outputs checked.
    pub attempted: u64,
    /// Outputs that failed a check.
    pub failed: u64,
    /// The warm-up pass's selection digest.
    pub digest: u64,
    /// Every metric of the run's kind.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The value of the metric called `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Failure accounting: every checked output is attempted, every failed
/// check is a failed request.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
}

impl Gate {
    /// Counts one checked output; logs the first few failures.
    fn check(&mut self, what: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.failed <= 10 {
                    eprintln!("[perfbench] check failed: {what}: {e}");
                }
                false
            }
        }
    }
}

/// A selection's validity: `k` distinct seeds in `0..n`, finite score.
fn valid(res: &SelectionResult, k: usize, n: usize) -> Result<(), String> {
    if res.seeds.len() != k {
        return Err(format!("{} seeds for k = {k}", res.seeds.len()));
    }
    let mut seen = res.seeds.clone();
    seen.sort_unstable();
    seen.dedup();
    if seen.len() != k {
        return Err("repeated seeds".into());
    }
    if res.seeds.iter().any(|&s| s as usize >= n) {
        return Err("seed out of range".into());
    }
    if !res.exact_score.is_finite() {
        return Err(format!("exact score {}", res.exact_score));
    }
    Ok(())
}

/// A served response's check against the warm-up selection.
fn matches(
    res: &ServiceResult,
    req: &ServiceRequest,
    n: usize,
    expected: &[Node],
) -> Result<(), String> {
    let res = res.as_ref().map_err(|e| e.to_string())?;
    valid(res, req.query.k, n)?;
    if res.seeds != expected {
        return Err("seeds differ from the warm-up pass".into());
    }
    Ok(())
}

/// A workload served and warmed.
struct Served {
    service: VomService,
    instance: Arc<Instance>,
    requests: Vec<ServiceRequest>,
    /// Warm-up selection per request (empty where the request failed).
    expected: Vec<Vec<Node>>,
    /// Warm-up latency per request, ms.
    warmup_ms: Vec<f64>,
    digest: u64,
    setup: Duration,
}

/// Set-up: generate, register, build every index, then one warm-up
/// pass. With a trace, every step is a span under one `setup` span.
fn set_up(cfg: &Config, gate: &mut Gate, mut trace: Option<&mut Trace>) -> Served {
    let started = Instant::now();
    let root = trace.as_deref_mut().map(|t| t.open("setup", None));
    let parent = root.as_ref().map(|(id, _)| *id);

    let from = Mark::now();
    let ds = cfg.workload.generate(cfg.size);
    if let Some(t) = trace.as_deref_mut() {
        t.record(
            "datasets.gen",
            parent,
            None,
            &from,
            &Mark::now(),
            Vec::new(),
        );
    }
    let n = ds.instance.num_nodes();
    let instance = Arc::new(ds.instance);
    let requests = cfg.workload.requests(ds.default_target);
    let workload = cfg.workload;
    let service = VomService::with_engine_factory(Box::new(move |m| workload.engine(m, n)));
    service
        .register(GRAPH, Arc::clone(&instance))
        .expect("a fresh service has no graphs");

    for req in &requests {
        let from = Mark::now();
        let built = service.warm(std::slice::from_ref(req));
        if let Some(t) = trace.as_deref_mut() {
            let counts = vec![("indexes_built", built as u64)];
            t.record("core.build", parent, None, &from, &Mark::now(), counts);
        }
    }

    let mut expected = Vec::with_capacity(requests.len());
    let mut warmup_ms = Vec::with_capacity(requests.len());
    for req in &requests {
        let request = trace.as_deref_mut().map(Trace::request_id);
        let from = Mark::now();
        let res = service.run(req);
        let to = Mark::now();
        warmup_ms.push(ms(to_duration(&from, &to)));
        if let Some(t) = trace.as_deref_mut() {
            t.record("warmup.request", parent, request, &from, &to, Vec::new());
        }
        let check = res
            .as_ref()
            .map_err(|e| e.to_string())
            .and_then(|r| valid(r, req.query.k, n));
        let ok = gate.check(&workloads::label(req), check);
        expected.push(match (ok, res) {
            (true, Ok(r)) => r.seeds,
            _ => Vec::new(),
        });
    }
    let labels: Vec<String> = requests.iter().map(workloads::label).collect();
    let digest = stats::digest(
        labels
            .iter()
            .map(String::as_str)
            .zip(expected.iter().map(Vec::as_slice)),
    );
    if let (Some(t), Some((id, mark))) = (trace, root) {
        t.close(id, &mark);
    }
    Served {
        service,
        instance,
        requests,
        expected,
        warmup_ms,
        digest,
        setup: started.elapsed(),
    }
}

fn to_duration(from: &Mark, to: &Mark) -> Duration {
    to.at().saturating_duration_since(from.at())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Checks the warm-up digest against the pin, failing every warm-up
/// request on a mismatch (the digest cannot say which one moved).
fn check_pin(cfg: &Config, served: &Served, gate: &mut Gate) {
    let pin = cfg.pinned;
    for _ in &served.requests {
        gate.check(
            "pinned digest",
            (served.digest == pin).then_some(()).ok_or_else(|| {
                format!("warm-up digest {:016x} != pinned {pin:016x}", served.digest)
            }),
        );
    }
}

/// Latencies of one kind of pass, per distinct request.
struct Samples {
    per_request: Vec<Vec<f64>>,
    wall: Duration,
}

impl Samples {
    fn new(requests: usize) -> Samples {
        Samples {
            per_request: vec![Vec::new(); requests],
            wall: Duration::ZERO,
        }
    }

    /// Each distinct request's median latency. A run serves every
    /// distinct request equally often, so the median of these is the
    /// median of the request mix, each request's latency taken as its
    /// median over the passes: one slow pass does not move it.
    fn medians(&self) -> Vec<f64> {
        self.per_request.iter().map(|l| median(l)).collect()
    }

    fn count(&self) -> usize {
        self.per_request.iter().map(Vec::len).sum()
    }
}

/// One untraced pass through the service in `order`.
fn untraced_pass(served: &Served, order: &[usize], gate: &mut Gate, samples: &mut Samples) {
    let n = served.instance.num_nodes();
    let started = Instant::now();
    for &i in order {
        let req = &served.requests[i];
        let t = Instant::now();
        let res = served.service.run(req);
        let elapsed = t.elapsed();
        if gate.check(
            &workloads::label(req),
            matches(&res, req, n, &served.expected[i]),
        ) {
            samples.per_request[i].push(ms(elapsed));
        }
    }
    samples.wall += started.elapsed();
}

/// The untraced run: the end-to-end metrics.
fn run_untraced(cfg: &Config) -> Report {
    let mut gate = Gate::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut served: Option<Served> = None;
    let mut rng = SplitMix(cfg.seed);
    let mut samples = None;
    let mut passes = 0;
    // Each set-up is followed by its share of the timed stream, so both
    // spread over the whole run and drift in machine speed falls on each alike.
    let segment = Duration::from_secs_f64(cfg.seconds / SETUPS as f64);
    for _ in 0..SETUPS {
        // Release the previous set-up before building the next.
        let previous = served.take().map(|s| s.digest);
        let s = set_up(cfg, &mut gate, None);
        setups.push(s.setup.as_secs_f64());
        match previous {
            None => check_pin(cfg, &s, &mut gate),
            Some(digest) => {
                gate.check(
                    "set-up determinism",
                    (s.digest == digest).then_some(()).ok_or_else(|| {
                        format!("digest {:016x} != previous set-up {digest:016x}", s.digest)
                    }),
                );
            }
        }
        let samples = samples.get_or_insert_with(|| Samples::new(s.requests.len()));
        let until = samples.wall + segment;
        while samples.wall < until {
            let order = rng.permutation(s.requests.len());
            untraced_pass(&s, &order, &mut gate, samples);
            passes += 1;
        }
        served = Some(s);
    }
    let served = served.expect("at least one set-up");
    let samples = samples.expect("at least one segment");
    eprintln!(
        "[perfbench] {} seed {}: {passes} passes, {} timed requests, digest {:016x}, set-ups {:?} s",
        cfg.workload.name(),
        cfg.seed,
        samples.count(),
        served.digest,
        setups
    );

    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new(
            "queries_per_s",
            samples.count() as f64 / samples.wall.as_secs_f64(),
            "1/s",
        ),
        Metric::new("query_p50_ms", median(&samples.medians()), "ms"),
        Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"),
    ];
    Report {
        attempted: gate.attempted,
        failed: gate.failed,
        digest: served.digest,
        metrics,
    }
}

/// `VmHWM` of this process, MiB (0 where `/proc` is unavailable).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The budget bucket `VomService` prepares an index at for `k`.
fn bucket(k: usize, n: usize) -> usize {
    k.max(1).next_power_of_two().min(n)
}

/// Bare sessions: one reused `QuerySession` per distinct index, on an
/// index prepared exactly as the service prepares it. They measure what
/// the service adds around a session.
struct Bare {
    sessions: Vec<QuerySession>,
    /// Session of each distinct request.
    of_request: Vec<usize>,
}

fn bare_sessions(cfg: &Config, served: &Served, gate: &mut Gate) -> Bare {
    let n = served.instance.num_nodes();
    let mut keys: Vec<(MethodId, usize, usize, RuleClass)> = Vec::new();
    let mut sessions = Vec::new();
    let mut of_request = Vec::with_capacity(served.requests.len());
    for req in &served.requests {
        let q = &req.query;
        let key = (req.method, q.target, bucket(q.k, n), RuleClass::of(&q.rule));
        let slot = match keys.iter().position(|k| *k == key) {
            Some(slot) => slot,
            None => {
                let spec = ProblemSpec::new(
                    Arc::clone(&served.instance),
                    q.target,
                    key.2,
                    req.horizon,
                    q.rule.clone(),
                )
                .expect("the service accepted this request");
                let index = cfg
                    .workload
                    .engine(req.method, n)
                    .prepare_spec(spec)
                    .expect("the service built this index");
                keys.push(key);
                sessions.push(QuerySession::new(Arc::new(index)));
                keys.len() - 1
            }
        };
        of_request.push(slot);
    }
    let mut bare = Bare {
        sessions,
        of_request,
    };
    // Fill the bare indexes' lazy caches, as the warm-up pass did for
    // the service's.
    for (i, req) in served.requests.iter().enumerate() {
        let res = bare.sessions[bare.of_request[i]].select(&req.query);
        gate.check(
            "bare warm-up",
            res.map_err(|e| e.to_string())
                .and_then(|r| valid(&r, req.query.k, n)),
        );
    }
    bare
}

/// One traced pass: a `request` span per `VomService::run`, with the
/// phase deltas as children and the solver counts on the span.
fn traced_pass(
    served: &Served,
    order: &[usize],
    gate: &mut Gate,
    samples: &mut Samples,
    t: &mut Trace,
) {
    let n = served.instance.num_nodes();
    let started = Instant::now();
    for &i in order {
        let req = &served.requests[i];
        let request = t.request_id();
        let before = served.service.index_count();
        let from = Mark::now();
        let res = served.service.run(req);
        let to = Mark::now();
        let builds = (served.service.index_count() - before) as u64;
        t.record(
            "request",
            None,
            Some(request),
            &from,
            &to,
            vec![("distinct", i as u64), ("index_builds", builds)],
        );
        if gate.check(
            &workloads::label(req),
            matches(&res, req, n, &served.expected[i]),
        ) {
            samples.per_request[i].push(ms(to_duration(&from, &to)));
        }
    }
    samples.wall += started.elapsed();
}

/// One pass of bare `QuerySession::select` calls.
fn bare_pass(
    served: &Served,
    bare: &mut Bare,
    order: &[usize],
    gate: &mut Gate,
    samples: &mut Samples,
) {
    let n = served.instance.num_nodes();
    let started = Instant::now();
    for &i in order {
        let req = &served.requests[i];
        let session = &mut bare.sessions[bare.of_request[i]];
        let t = Instant::now();
        let res = session.select(&req.query);
        let elapsed = t.elapsed();
        let check = res
            .map_err(|e| e.to_string())
            .and_then(|r| valid(&r, req.query.k, n));
        if gate.check("bare select", check) {
            samples.per_request[i].push(ms(elapsed));
        }
    }
    samples.wall += started.elapsed();
}

/// Replays each plain estimator request through
/// `QuerySession::select_with_meter`: the meter's spent ticks count the
/// candidates the greedy scored.
fn replay(served: &Served, bare: &mut Bare, gate: &mut Gate, t: &mut Trace) {
    let n = served.instance.num_nodes();
    for (i, req) in served.requests.iter().enumerate() {
        let name = match req.method {
            MethodId::Rw => "replay.rw",
            MethodId::Rs => "replay.rs",
            _ => continue,
        };
        // A cumulative auto query runs the plain greedy too.
        let plain = req.query.mode == SelectionMode::Plain
            || matches!(req.query.rule, ScoringFunction::Cumulative);
        if !plain {
            continue;
        }
        let mut first = None;
        for _ in 0..REPLAYS {
            let meter = Arc::new(CostMeter::new(CostBudget::ticks(u64::MAX)));
            let session = &mut bare.sessions[bare.of_request[i]];
            let from = Mark::now();
            let res = session.select_with_meter(&req.query, &meter);
            let to = Mark::now();
            let candidates = meter.spent();
            t.record(
                name,
                None,
                None,
                &from,
                &to,
                vec![("candidates", candidates)],
            );
            let check = match res {
                Ok(Outcome::Complete(r)) => valid(&r, req.query.k, n),
                Ok(Outcome::Degraded { .. }) => Err("unlimited budget degraded".into()),
                Err(e) => Err(e.to_string()),
            }
            .and_then(|()| match *first.get_or_insert(candidates) {
                c if c == candidates => Ok(()),
                c => Err(format!("candidates scored drifted: {c} then {candidates}")),
            });
            gate.check("replay", check);
        }
    }
}

/// The traced run: the per-layer metrics.
fn run_traced(cfg: &Config) -> Report {
    let mut gate = Gate::default();
    let mut t = Trace::new();

    // R-MAT generation cost per edge, by a direct call.
    let probe_nodes = match cfg.size {
        Size::Full => 1 << 18,
        Size::Tiny => 1 << 12,
    };
    let from = Mark::now();
    let edges = {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        std::hint::black_box(vom_graph::generators::rmat(
            probe_nodes,
            4 * probe_nodes,
            &mut rng,
        ))
        .len()
    };
    t.record(
        "graph.rmat",
        None,
        None,
        &from,
        &Mark::now(),
        vec![("edges", edges as u64)],
    );

    let served = set_up(cfg, &mut gate, Some(&mut t));
    check_pin(cfg, &served, &mut gate);
    let mut bare = bare_sessions(cfg, &served, &mut gate);

    // Untraced, traced and bare passes in rotation, so drift in machine speed
    // falls on all three alike.
    let distinct = served.requests.len();
    let mut rng = SplitMix(cfg.seed);
    let (mut untraced, mut traced, mut bare_samples) = (
        Samples::new(distinct),
        Samples::new(distinct),
        Samples::new(distinct),
    );
    let deadline = Duration::from_secs_f64(cfg.seconds);
    let mut rotations = 0u64;
    while untraced.wall + traced.wall + bare_samples.wall < deadline {
        let order = rng.permutation(distinct);
        untraced_pass(&served, &order, &mut gate, &mut untraced);
        traced_pass(&served, &order, &mut gate, &mut traced, &mut t);
        bare_pass(&served, &mut bare, &order, &mut gate, &mut bare_samples);
        rotations += 1;
    }
    replay(&served, &mut bare, &mut gate, &mut t);
    check_count_drift(&t, distinct, &mut gate);

    let metrics = per_layer(&served, &t, &untraced, &traced, &bare_samples, rotations);
    eprintln!(
        "[perfbench] {} seed {} traced: {rotations} rotations, {} traced requests, digest {:016x}",
        cfg.workload.name(),
        cfg.seed,
        traced.count(),
        served.digest
    );
    if let Some(dir) = &cfg.trace_dir {
        let path = dir.join(format!("{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
        match std::fs::create_dir_all(dir).and_then(|()| t.write_jsonl(&path)) {
            Ok(()) => eprintln!(
                "[perfbench] {} spans written to {}",
                t.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!(
                "[perfbench] could not write spans to {}: {e}",
                path.display()
            ),
        }
    }
    Report {
        attempted: gate.attempted,
        failed: gate.failed,
        digest: served.digest,
        metrics,
    }
}

/// Every traced run of one distinct request must count the same solver
/// work: drift is a determinism failure, not noise.
fn check_count_drift(t: &Trace, distinct: usize, gate: &mut Gate) {
    let mut seen: Vec<Option<[u64; 5]>> = vec![None; distinct];
    for s in t.named("request", None) {
        let i = count(s, "distinct") as usize;
        let w = &s.work.solver;
        let key = [
            w.cold_solves,
            w.cold_steps,
            w.warm_solves,
            w.warm_frontier_nodes,
            s.work.artifacts,
        ];
        let first = *seen[i].get_or_insert(key);
        gate.check(
            "count drift",
            (first == key)
                .then_some(())
                .ok_or_else(|| format!("request {i}: {first:?} then {key:?}")),
        );
    }
}

fn count(s: &trace::Span, name: &str) -> u64 {
    s.counts
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(0, |(_, v)| *v)
}

/// Per-layer metrics from the spans of a traced run.
fn per_layer(
    served: &Served,
    t: &Trace,
    untraced: &Samples,
    traced: &Samples,
    bare: &Samples,
    rotations: u64,
) -> Vec<Metric> {
    let secs = |d: Duration| d.as_secs_f64();
    let edges = served.instance.graph_of(0).num_edges() as f64;
    let setup = t.named("setup", None).next().expect("traced set-up");
    let under_setup = |name: &'static str| t.named(name, Some(setup.id));

    let gen = under_setup("datasets.gen")
        .map(|s| s.duration())
        .sum::<Duration>();
    let rmat = t.named("graph.rmat", None).next().expect("rmat probe");
    let builds: Vec<_> = under_setup("core.build").collect();
    let build_s: f64 = builds.iter().map(|s| secs(s.duration())).sum();
    let indexes_built: u64 = builds.iter().map(|s| count(s, "indexes_built")).sum();
    let artifacts = setup.work.artifacts;
    let heap: usize = served
        .service
        .index_stats()
        .iter()
        .map(|s| s.heap_bytes)
        .sum();

    // Lazy fill: what each warm-up request cost beyond its hot median.
    let lazy_fill_s: f64 = served
        .warmup_ms
        .iter()
        .zip(&untraced.per_request)
        .map(|(warm, hot)| (warm - median(hot)).max(0.0) / 1e3)
        .sum();

    // Warm-frontier diffusion over set-up.
    let warm = setup.work.solver;
    let warm_s = secs(setup.work.phases.diffusion_warm);
    let per_frontier = if warm.warm_frontier_nodes > 0 {
        warm_s * 1e9 / warm.warm_frontier_nodes as f64
    } else {
        0.0
    };

    // Hot requests: phase children and solver counts of request spans.
    let requests: Vec<_> = t.named("request", None).collect();
    let nreq = requests.len().max(1) as f64;
    let phase_ms = |name: &str| -> f64 {
        requests
            .iter()
            .map(|s| ms(t.child_time(s.id, name)))
            .sum::<f64>()
            / nreq
    };
    let cold_solves: u64 = requests.iter().map(|s| s.work.solver.cold_solves).sum();
    let cold_steps: u64 = requests.iter().map(|s| s.work.solver.cold_steps).sum();
    let cold_ms = phase_ms("diffusion.cold");
    let edge_steps = cold_steps as f64 * edges;
    let unattributed_ms = requests.iter().map(|s| ms(t.self_time(s.id))).sum::<f64>() / nreq;
    let builds_hot: u64 = requests.iter().map(|s| count(s, "index_builds")).sum();

    // Replays: candidates scored, and scoring time per candidate.
    let scoring_per_candidate = |name: &str| -> (f64, u64) {
        let spans: Vec<_> = t.named(name, None).collect();
        let candidates: u64 = spans.iter().map(|s| count(s, "candidates")).sum();
        let scoring: Duration = spans.iter().map(|s| t.child_time(s.id, "scoring")).sum();
        let ns = if candidates > 0 {
            scoring.as_nanos() as f64 / candidates as f64
        } else {
            0.0
        };
        (ns, candidates)
    };
    let (rw_ns, rw_candidates) = scoring_per_candidate("replay.rw");
    let (rs_ns, rs_candidates) = scoring_per_candidate("replay.rs");
    let replays = t.named("replay.rw", None).count() + t.named("replay.rs", None).count();
    let candidates_per_query = if replays > 0 {
        (rw_candidates + rs_candidates) as f64 / replays as f64
    } else {
        0.0
    };

    // Service overhead: median run minus median bare select, per request.
    let overhead_ms = untraced
        .per_request
        .iter()
        .zip(&bare.per_request)
        .map(|(run, sel)| median(run) - median(sel))
        .sum::<f64>()
        / served.requests.len() as f64;

    let p50 = |s: &Samples| median(&s.medians());
    let p50_overhead = 100.0 * (p50(traced) / p50(untraced) - 1.0);
    let per_request = |s: &Samples| secs(s.wall) / s.count().max(1) as f64;
    let wall_overhead = 100.0 * (per_request(traced) / per_request(untraced) - 1.0);

    let passes = rotations.max(1) as f64;
    vec![
        Metric::new("datasets.gen_s", secs(gen), "s"),
        Metric::new(
            "graph.rmat_ns_per_edge",
            rmat.duration().as_nanos() as f64 / count(rmat, "edges").max(1) as f64,
            "ns",
        ),
        Metric::new("core.build_s", build_s, "s"),
        Metric::new("core.indexes_built", indexes_built as f64, "count"),
        Metric::new("core.artifacts_built", artifacts as f64, "count"),
        Metric::new("core.index_heap_bytes", heap as f64, "B"),
        Metric::new("core.lazy_fill_s", lazy_fill_s, "s"),
        Metric::new("core.unattributed_ms_per_query", unattributed_ms, "ms"),
        Metric::new("diffusion.warm_s", warm_s, "s"),
        Metric::new("diffusion.warm_solves", warm.warm_solves as f64, "count"),
        Metric::new(
            "diffusion.warm_frontier_nodes",
            warm.warm_frontier_nodes as f64,
            "count",
        ),
        Metric::new("diffusion.warm_ns_per_frontier_node", per_frontier, "ns"),
        Metric::new("diffusion.cold_ms_per_query", cold_ms, "ms"),
        Metric::new(
            "diffusion.cold_solves_per_query",
            cold_solves as f64 / nreq,
            "count",
        ),
        Metric::new("diffusion.cold_edge_steps", edge_steps / nreq, "count"),
        Metric::new(
            "diffusion.cold_ns_per_edge_step",
            if edge_steps > 0.0 {
                cold_ms * nreq * 1e6 / edge_steps
            } else {
                0.0
            },
            "ns",
        ),
        Metric::new("truncation.ms_per_query", phase_ms("truncation"), "ms"),
        Metric::new("scoring.ms_per_query", phase_ms("scoring"), "ms"),
        Metric::new(
            "scoring.candidates_per_query",
            candidates_per_query,
            "count",
        ),
        Metric::new("scoring.rw_ns_per_candidate", rw_ns, "ns"),
        Metric::new("scoring.rs_ns_per_candidate", rs_ns, "ns"),
        Metric::new("service.overhead_ms_per_request", overhead_ms, "ms"),
        Metric::new("service.requests", nreq / passes, "count"),
        Metric::new(
            "service.index_hits",
            (nreq - builds_hot as f64) / passes,
            "count",
        ),
        Metric::new("service.index_builds", builds_hot as f64 / passes, "count"),
        Metric::new("trace.p50_overhead_pct", p50_overhead, "%"),
        Metric::new("trace.wall_overhead_pct", wall_overhead, "%"),
    ]
}

/// Runs one workload and reports its metrics. Pins the worker pool to
/// one thread for the whole process.
pub fn run(cfg: &Config) -> Report {
    rayon::set_thread_override(Some(1));
    let mut report = if cfg.trace {
        run_traced(cfg)
    } else {
        run_untraced(cfg)
    };
    // A metric that cannot be computed (no successful sample) fails the
    // run rather than printing a non-number.
    for m in &mut report.metrics {
        if !m.value.is_finite() {
            eprintln!("[perfbench] check failed: {} = {}", m.name, m.value);
            m.value = 0.0;
            report.failed += 1;
        }
    }
    report
}
