//! In-memory spans for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer
//! (dataset generation, index build, one request, one replay). A span
//! records its name, start, end, parent and request id, plus the work
//! counters read at the same boundaries. The process-wide phase timers
//! of `vom_core::phases` cannot give intervals, only totals, so each
//! phase delta is stored as an aggregate child span that starts with its
//! parent and lasts as long as the phase did inside it. A span's self
//! time is its duration minus its children's. Spans are kept in memory
//! and written out once, when the run ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};
use vom_core::engine::BuildCounters;
use vom_core::phases::{self, PhaseTimes, SolverCounters};

/// Counter readings at one boundary.
#[derive(Clone, Copy)]
pub struct Mark {
    at: Instant,
    phases: PhaseTimes,
    solver: SolverCounters,
    builds: BuildCounters,
}

impl Mark {
    /// Reads the clock and every counter.
    pub fn now() -> Mark {
        Mark {
            phases: phases::snapshot(),
            solver: phases::solver_counters(),
            builds: BuildCounters::snapshot(),
            at: Instant::now(),
        }
    }

    /// When the mark was taken.
    pub fn at(&self) -> Instant {
        self.at
    }
}

/// The work counted between two marks.
#[derive(Clone, Copy, Default)]
pub struct Work {
    /// Phase wall clock spent in the interval.
    pub phases: PhaseTimes,
    /// Exact-diffusion solver work.
    pub solver: SolverCounters,
    /// Walk arenas and sketch sets generated.
    pub artifacts: u64,
}

impl Work {
    fn between(a: &Mark, b: &Mark) -> Work {
        let built = b.builds.since(a.builds);
        Work {
            phases: b.phases.since(a.phases),
            solver: b.solver.since(a.solver),
            artifacts: (built.rw_arenas + built.rs_sketches) as u64,
        }
    }
}

/// One recorded span.
pub struct Span {
    /// Position in the trace.
    pub id: usize,
    /// The span this one was opened inside.
    pub parent: Option<usize>,
    /// Shared by every span of one request.
    pub request: Option<usize>,
    /// What the span covers.
    pub name: &'static str,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Nanoseconds since the trace began.
    pub end_ns: u64,
    /// Work counted inside the span.
    pub work: Work,
    /// Other counts read at the span's boundaries.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// The span's wall time.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// The names of the aggregate phase children.
const PHASE_SPANS: [&str; 4] = ["diffusion.cold", "diffusion.warm", "truncation", "scoring"];

/// A run's spans.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    requests: usize,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace starting now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            requests: 0,
        }
    }

    /// A fresh request id.
    pub fn request_id(&mut self) -> usize {
        self.requests += 1;
        self.requests
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records the span between two marks, with its phase deltas as
    /// aggregate children. Returns the span's id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<usize>,
        from: &Mark,
        to: &Mark,
        counts: Vec<(&'static str, u64)>,
    ) -> usize {
        let id = self.spans.len();
        let start_ns = self.ns(from.at);
        let work = Work::between(from, to);
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: self.ns(to.at),
            work,
            counts,
        });
        let p = work.phases;
        for (child, d) in
            PHASE_SPANS
                .into_iter()
                .zip([p.diffusion, p.diffusion_warm, p.truncation, p.scoring])
        {
            if !d.is_zero() {
                self.spans.push(Span {
                    id: self.spans.len(),
                    parent: Some(id),
                    request,
                    name: child,
                    start_ns,
                    end_ns: start_ns + d.as_nanos() as u64,
                    work: Work::default(),
                    counts: Vec::new(),
                });
            }
        }
        id
    }

    /// Opens a span whose end is set later by [`Trace::close`] (for
    /// spans that enclose other spans).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> (usize, Mark) {
        let mark = Mark::now();
        let id = self.record(name, parent, None, &mark, &mark, Vec::new());
        (id, mark)
    }

    /// Closes a span opened by [`Trace::open`].
    pub fn close(&mut self, id: usize, opened: &Mark) {
        let now = Mark::now();
        let end_ns = self.ns(now.at);
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.work = Work::between(opened, &now);
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans called `name` whose parent is `parent` (any parent when
    /// `None`).
    pub fn named<'a>(
        &'a self,
        name: &'a str,
        parent: Option<usize>,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && (parent.is_none() || s.parent == parent))
    }

    /// Total duration of the children of `id` called `name`.
    pub fn child_time(&self, id: usize, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id) && s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// A span's duration minus the time its children cover.
    pub fn self_time(&self, id: usize) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration)
            .sum();
        self.spans[id].duration().saturating_sub(children)
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let w = &s.work;
            let _ = write!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"cold_solves\": {}, \
                 \"cold_steps\": {}, \"warm_solves\": {}, \"warm_frontier_nodes\": {}, \
                 \"artifacts\": {}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request.map_or("null".to_string(), |r| r.to_string()),
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_time(s.id).as_nanos(),
                w.solver.cold_solves,
                w.solver.cold_steps,
                w.solver.warm_solves,
                w.solver.warm_frontier_nodes,
                w.artifacts,
            );
            for (k, v) in &s.counts {
                let _ = write!(out, ", \"{k}\": {v}");
            }
            out.push_str("}\n");
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}
