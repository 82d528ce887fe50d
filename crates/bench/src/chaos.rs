//! The seeded fault-injection harness behind `repro --chaos`.
//!
//! Replays the batched query-throughput workload of
//! [`crate::bench_parallel`] under a deterministic
//! [`vom_service::FaultPlan`] — an injected index-build panic, two
//! injected query panics, two deadline-budgeted requests with the
//! meter's tick charges inflated, and a transient snapshot IO fault
//! during a warm restart — and asserts the service's robustness
//! contracts hold at every worker-pool width:
//!
//! * every **injected fault surfaces as its typed error**
//!   ([`vom_service::ServiceError::Panicked`]) in exactly its own batch
//!   slot — a silently swallowed or misplaced fault fails the run
//!   (`repro` exits nonzero);
//! * every **non-faulted, non-budgeted slot is bit-identical** to the
//!   fault-free baseline selections;
//! * every **budgeted slot that degrades returns a verified prefix** of
//!   its baseline selection ([`vom_service::ServiceError::Degraded`]);
//! * the whole faulted batch — panic placement, degraded prefix
//!   lengths, completed selections — is **identical at widths 1, 2,
//!   and the parallel target** (one digest per width, all equal);
//! * the **transient snapshot fault is retried** with the deterministic
//!   backoff schedule and recovers ([`vom_service::WarmSummary`]), with
//!   no real sleeps ([`vom_service::NoopScheduler`]).
//!
//! Which slots are faulted and how many ticks the budgets grant derive
//! from `cfg.seed` through a splitmix64 stream — never from wall-clock
//! time — so a chaos run is reproducible bit-for-bit from its seed
//! alone. Results are written to `BENCH_chaos.json`.

use crate::bench_parallel::{selections_digest, throughput_requests, Selections, QT_GRAPH};
use crate::error::{BenchError, Result};
use crate::experiments::sweep_k;
use crate::ExpConfig;
use std::path::PathBuf;
use std::sync::Arc;
use vom_graph::Node;
use vom_service::{
    FaultPlan, NoopScheduler, RetryPolicy, ServiceError, ServiceRequest, VomService,
};

/// The seeded fault layout of one chaos run: which batch slots fault,
/// which are deadline-budgeted, and how hard the meter is inflated.
#[derive(Debug, Clone)]
struct FaultSpec {
    /// Injected build panics for the shared graph (the first scheduled
    /// request triggers the build, so its slot surfaces the panic).
    build_panics: u32,
    /// Batch slots whose worker panics (never slot 0 — that one is
    /// reserved for the build panic).
    query_panic_slots: Vec<usize>,
    /// `(slot, ticks)` — requests granted a deadline budget small
    /// enough to degrade under the greedy loops' metered checkpoints.
    budgets: Vec<(usize, u64)>,
    /// Meter charge multiplier applied to every budgeted query.
    tick_scale: u64,
    /// Injected transient-open failures for the warm-restart probe.
    transient_opens: u32,
}

/// splitmix64 — the workspace's stock seed-stream primitive.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws `count` distinct slots from `1..len`, skipping `taken`.
fn draw_slots(rng: &mut u64, len: usize, count: usize, taken: &[usize]) -> Vec<usize> {
    let mut slots = Vec::with_capacity(count);
    while slots.len() < count {
        let slot = 1 + (splitmix(rng) as usize) % (len - 1);
        if !taken.contains(&slot) && !slots.contains(&slot) {
            slots.push(slot);
        }
    }
    slots.sort_unstable();
    slots
}

/// Derives the fault layout for a batch of `len` requests from the
/// experiment seed. Pure function of `(seed, len)`.
fn derive_spec(seed: u64, len: usize) -> Result<FaultSpec> {
    if len < 6 {
        return Err(BenchError::InvalidConfig(format!(
            "chaos workload needs at least 6 requests, got {len}"
        )));
    }
    let mut rng = seed ^ 0xc4a05_u64.wrapping_mul(0x9e37_79b9);
    let query_panic_slots = draw_slots(&mut rng, len, 2, &[]);
    let budget_slots = draw_slots(&mut rng, len, 2, &query_panic_slots);
    let budgets = budget_slots
        .into_iter()
        .map(|slot| (slot, 3 + splitmix(&mut rng) % 29))
        .collect();
    Ok(FaultSpec {
        build_panics: 1,
        query_panic_slots,
        budgets,
        tick_scale: 2,
        transient_opens: 2,
    })
}

impl FaultSpec {
    /// The service-side plan this spec describes. Built fresh per run:
    /// build-panic and transient-open counts are consumed as they fire.
    fn plan(&self, seed: u64, snapshot_file: &str) -> Arc<FaultPlan> {
        let mut plan = FaultPlan::new(seed)
            .with_build_panics(QT_GRAPH, self.build_panics)
            .with_tick_scale(self.tick_scale)
            .with_transient_unreadable(snapshot_file, self.transient_opens);
        for &slot in &self.query_panic_slots {
            plan = plan.with_query_panic(slot);
        }
        Arc::new(plan)
    }

    /// The batch with this spec's deadline budgets applied.
    fn budgeted(&self, base: &[ServiceRequest]) -> Vec<ServiceRequest> {
        let mut requests = base.to_vec();
        for &(slot, ticks) in &self.budgets {
            requests[slot] = requests[slot].clone().with_budget(ticks);
        }
        requests
    }
}

/// What one faulted batch run looked like, reduced to comparable form.
struct ChaosPass {
    /// Injected faults that surfaced as `ServiceError::Panicked` in
    /// their own slot (expected: 1 build + every query-panic slot).
    faults_surfaced: usize,
    /// Budgeted slots that came back `ServiceError::Degraded` with a
    /// verified baseline prefix.
    degraded: usize,
    /// Digest over every slot — outcome kind and seeds — so equal
    /// digests across widths mean the whole faulted batch (panic
    /// placement, prefix lengths, selections) was identical.
    slot_digest: String,
    /// Digest over only the clean (non-faulted, non-budgeted) slots,
    /// comparable against the same subset of the baseline.
    clean_digest: String,
}

/// The result vector of a fresh fault-free service at the current pool
/// width, with every slot required to complete.
fn baseline_pass(
    cfg: &ExpConfig,
    service: &VomService,
    base: &[ServiceRequest],
) -> Result<Selections> {
    let _ = cfg;
    let results = service.run_batch(base);
    let mut selections: Selections = Vec::with_capacity(results.len());
    for (i, slot) in results.into_iter().enumerate() {
        match slot {
            Ok(res) => selections.push((format!("slot{i}"), res.seeds)),
            Err(e) => {
                return Err(BenchError::InvalidConfig(format!(
                    "fault-free baseline slot {i} failed: {e}"
                )))
            }
        }
    }
    Ok(selections)
}

/// Runs the faulted batch on a fresh service and checks every slot
/// against the baseline and the fault spec. Any contract violation —
/// a swallowed fault, a corrupted sibling, a non-prefix degradation —
/// is a [`BenchError`], which `repro --chaos` turns into a nonzero
/// exit.
fn chaos_pass(
    spec: &FaultSpec,
    service: &VomService,
    requests: &[ServiceRequest],
    baseline: &Selections,
) -> Result<ChaosPass> {
    let results = service.run_batch(requests);
    let mut faults_surfaced = 0usize;
    let mut degraded = 0usize;
    let mut slot_marks: Selections = Vec::with_capacity(results.len());
    let mut clean: Selections = Vec::new();
    for (i, slot) in results.into_iter().enumerate() {
        let budget = spec.budgets.iter().find(|&&(s, _)| s == i);
        if i == 0 {
            // The first scheduled request triggers the (panicking)
            // index build; its slot must carry the typed build fault.
            match slot {
                Err(ServiceError::Panicked { ref context }) if context.contains("index build") => {
                    faults_surfaced += 1;
                    slot_marks.push((format!("slot{i}/build-panic"), Vec::new()));
                }
                other => {
                    return Err(BenchError::InvalidConfig(format!(
                        "injected build panic did not surface in slot 0 (got {other:?})"
                    )))
                }
            }
        } else if spec.query_panic_slots.contains(&i) {
            match slot {
                Err(ServiceError::Panicked { ref context }) if context.contains("query") => {
                    faults_surfaced += 1;
                    slot_marks.push((format!("slot{i}/query-panic"), Vec::new()));
                }
                other => {
                    return Err(BenchError::InvalidConfig(format!(
                        "injected query panic at slot {i} did not surface (got {other:?})"
                    )))
                }
            }
        } else if let Some(&(_, ticks)) = budget {
            match slot {
                Err(ServiceError::Degraded {
                    seeds_prefix,
                    budget_spent,
                    budget_limit,
                }) => {
                    let full: &[Node] = &baseline[i].1;
                    if !full.starts_with(&seeds_prefix) {
                        return Err(BenchError::InvalidConfig(format!(
                            "degraded slot {i} is not a prefix of its baseline selection \
                             ({seeds_prefix:?} vs {full:?})"
                        )));
                    }
                    if budget_spent < budget_limit || budget_limit != ticks {
                        return Err(BenchError::InvalidConfig(format!(
                            "degraded slot {i} reported an inconsistent budget \
                             (spent {budget_spent}, limit {budget_limit}, granted {ticks})"
                        )));
                    }
                    degraded += 1;
                    slot_marks.push((format!("slot{i}/degraded"), seeds_prefix));
                }
                Ok(res) if res.seeds == baseline[i].1 => {
                    slot_marks.push((format!("slot{i}/complete"), res.seeds));
                }
                other => {
                    return Err(BenchError::InvalidConfig(format!(
                        "budgeted slot {i} neither degraded nor matched baseline (got {other:?})"
                    )))
                }
            }
        } else {
            match slot {
                Ok(res) if res.seeds == baseline[i].1 => {
                    clean.push((format!("slot{i}"), res.seeds.clone()));
                    slot_marks.push((format!("slot{i}/complete"), res.seeds));
                }
                other => {
                    return Err(BenchError::InvalidConfig(format!(
                        "clean slot {i} diverged from the fault-free baseline under faults \
                         (got {other:?})"
                    )))
                }
            }
        }
    }
    Ok(ChaosPass {
        faults_surfaced,
        degraded,
        slot_digest: selections_digest(&slot_marks),
        clean_digest: selections_digest(&clean),
    })
}

/// Builds a fresh service over the shared dataset instance.
fn fresh_service(cfg: &ExpConfig, instance: &Arc<vom_diffusion::Instance>) -> Result<VomService> {
    let seed = cfg.seed;
    let service =
        VomService::with_engine_factory(Box::new(move |m| crate::harness_engine(m, seed)));
    service
        .register(QT_GRAPH, Arc::clone(instance))
        .map_err(|e| BenchError::InvalidConfig(format!("service registration failed: {e}")))?;
    Ok(service)
}

/// The warm-restart probe: snapshot the workload's index, then warm a
/// fresh service from the snapshot directory while the fault plan makes
/// the first `transient_opens` opens fail. With the default policy's
/// three attempts the open must recover on the final try, with the
/// deterministic `10ms, 20ms` backoff schedule recorded (and no real
/// sleeps — the probe runs under [`NoopScheduler`]).
struct WarmProbe {
    backoff_ms: Vec<u64>,
    recovered: bool,
}

fn warm_retry_probe(
    cfg: &ExpConfig,
    spec: &FaultSpec,
    instance: &Arc<vom_diffusion::Instance>,
    requests: &[ServiceRequest],
) -> Result<WarmProbe> {
    let dir = std::env::temp_dir().join(format!("vom-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .map_err(|e| BenchError::InvalidConfig(format!("cannot create {}: {e}", dir.display())))?;
    let outcome = (|| -> Result<WarmProbe> {
        let builder = fresh_service(cfg, instance)?;
        let path = builder
            .save_index(&requests[0], &dir)
            .map_err(|e| BenchError::InvalidConfig(format!("snapshot save failed: {e}")))?;
        let file_name = path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let warmed = fresh_service(cfg, instance)?;
        warmed.set_fault_plan(Some(spec.plan(cfg.seed, &file_name)));
        let summary = warmed
            .warm_from_dir_with(&dir, RetryPolicy::default(), &NoopScheduler)
            .map_err(|e| BenchError::InvalidConfig(format!("warm restart failed: {e}")))?;
        let Some(record) = summary.retries.first() else {
            return Err(BenchError::InvalidConfig(
                "injected transient snapshot fault was swallowed (no retry recorded)".into(),
            ));
        };
        if !record.recovered || summary.loaded != 1 {
            return Err(BenchError::InvalidConfig(format!(
                "transient snapshot fault did not recover under retry \
                 (recovered: {}, loaded: {})",
                record.recovered, summary.loaded
            )));
        }
        Ok(WarmProbe {
            backoff_ms: record.backoff_ms.clone(),
            recovered: record.recovered,
        })
    })();
    std::fs::remove_dir_all(&dir).ok();
    outcome
}

/// Runs the chaos harness and writes `BENCH_chaos.json` into the
/// current directory. Returns the path written. The pool override in
/// effect at entry is always restored, also on error.
pub fn run(cfg: &ExpConfig) -> Result<PathBuf> {
    let quick = ExpConfig {
        quick: true,
        ..cfg.clone()
    };
    let datasets = sweep_k::datasets(&quick);
    let ds = datasets
        .first()
        .ok_or_else(|| BenchError::InvalidConfig("no dataset for the chaos workload".into()))?;
    let instance = Arc::new(ds.instance.clone());
    let base = throughput_requests(&quick, ds);
    let spec = derive_spec(quick.seed, base.len())?;
    let requests = spec.budgeted(&base);

    let entry_override = rayon::thread_override();
    // The contract is schedule-independence, not speedup, so the high
    // width is forced to at least 8 even on narrow machines — more
    // workers than work is exactly the kind of schedule the faulted
    // batch must shrug off.
    let hi = rayon::current_num_threads().max(8);
    let widths = vec![1usize, 2, hi];

    // Injected panics are caught and typed at the worker boundary;
    // the default hook's backtraces would only flood the log.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = (|| -> Result<(Selections, Vec<(usize, ChaosPass)>)> {
        // Fault-free reference at one thread: the selections every
        // clean slot — at every width, under every fault — must match.
        rayon::set_thread_override(Some(1));
        let baseline = baseline_pass(&quick, &fresh_service(&quick, &instance)?, &base)?;
        let mut passes = Vec::with_capacity(widths.len());
        for &threads in &widths {
            rayon::set_thread_override(Some(threads));
            // A fresh service and a fresh plan per width: the consumed
            // fault counts reset, so every width faces the identical
            // fault sequence.
            let service = fresh_service(&quick, &instance)?;
            service.set_fault_plan(Some(spec.plan(quick.seed, "unused.vpi")));
            let pass = chaos_pass(&spec, &service, &requests, &baseline)?;
            println!(
                "[chaos threads={threads}: {} faults surfaced, {} degraded, digest {}]",
                pass.faults_surfaced, pass.degraded, pass.slot_digest
            );
            passes.push((threads, pass));
        }
        Ok((baseline, passes))
    })();
    rayon::set_thread_override(entry_override);
    std::panic::set_hook(default_hook);
    let (baseline, passes) = outcome?;

    let expected_faults = 1 + spec.query_panic_slots.len();
    for (threads, pass) in &passes {
        if pass.faults_surfaced != expected_faults {
            return Err(BenchError::InvalidConfig(format!(
                "chaos run at {threads} threads surfaced {} of {expected_faults} injected \
                 faults — a fault was swallowed",
                pass.faults_surfaced
            )));
        }
        if pass.degraded == 0 {
            return Err(BenchError::InvalidConfig(format!(
                "chaos run at {threads} threads degraded no budgeted slot — the deadline \
                 budgets never bound"
            )));
        }
    }
    let reference_digest = &passes[0].1.slot_digest;
    if let Some((threads, _)) = passes
        .iter()
        .find(|(_, p)| &p.slot_digest != reference_digest)
    {
        return Err(BenchError::InvalidConfig(format!(
            "chaos run at {threads} threads diverged from the 1-thread faulted batch \
             (cross-width reproducibility contract violated)"
        )));
    }

    let warm = warm_retry_probe(&quick, &spec, &instance, &base)?;
    println!(
        "[chaos warm-retry: backoff {:?} ms, recovered: {}]",
        warm.backoff_ms, warm.recovered
    );

    let path = PathBuf::from("BENCH_chaos.json");
    std::fs::write(&path, render_json(&quick, &spec, &baseline, &passes, &warm))
        .map_err(|e| BenchError::InvalidConfig(format!("cannot write {}: {e}", path.display())))?;
    Ok(path)
}

/// Hand-rolled JSON (the workspace builds offline without serde; same
/// policy as [`crate::Table::to_json_pretty`]).
fn render_json(
    cfg: &ExpConfig,
    spec: &FaultSpec,
    baseline: &Selections,
    passes: &[(usize, ChaosPass)],
    warm: &WarmProbe,
) -> String {
    let slots = |v: &[usize]| {
        v.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let budgets = spec
        .budgets
        .iter()
        .map(|(slot, ticks)| format!("{{ \"slot\": {slot}, \"ticks\": {ticks} }}"))
        .collect::<Vec<_>>()
        .join(", ");
    let runs = passes
        .iter()
        .map(|(threads, p)| {
            format!(
                "    {{ \"threads\": {threads}, \"faults_surfaced\": {}, \"degraded\": {}, \
                 \"slot_digest\": \"{}\", \"clean_digest\": \"{}\" }}",
                p.faults_surfaced, p.degraded, p.slot_digest, p.clean_digest
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let backoff = warm
        .backoff_ms
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\n  \"id\": \"chaos\",\n  \"title\": \"seeded fault injection over the \
         query-throughput batch (typed surfacing, prefix degradation, cross-width \
         reproducibility)\",\n  \"scale\": {},\n  \"seed\": {},\n  \
         \"requests\": {},\n  \"baseline_digest\": \"{}\",\n  \"faults\": {{ \
         \"build_panics\": {}, \"query_panic_slots\": [{}], \"budgets\": [{}], \
         \"tick_scale\": {}, \"transient_opens\": {} }},\n  \
         \"warm_retry\": {{ \"backoff_ms\": [{}], \"recovered\": {} }},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        cfg.scale,
        cfg.seed,
        baseline.len(),
        selections_digest(baseline),
        spec.build_panics,
        slots(&spec.query_panic_slots),
        budgets,
        spec.tick_scale,
        spec.transient_opens,
        backoff,
        warm.recovered,
        runs
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_spec_is_a_pure_function_of_the_seed() {
        let a = derive_spec(2023, 24).unwrap();
        let b = derive_spec(2023, 24).unwrap();
        assert_eq!(a.query_panic_slots, b.query_panic_slots);
        assert_eq!(a.budgets, b.budgets);
        let c = derive_spec(7, 24).unwrap();
        assert!(a.query_panic_slots != c.query_panic_slots || a.budgets != c.budgets);
    }

    #[test]
    fn fault_slots_never_collide() {
        for seed in 0..32u64 {
            let spec = derive_spec(seed, 24).unwrap();
            // Slot 0 is reserved for the build panic.
            assert!(!spec.query_panic_slots.contains(&0));
            assert!(spec.budgets.iter().all(|&(s, _)| s != 0));
            for &(slot, ticks) in &spec.budgets {
                assert!(!spec.query_panic_slots.contains(&slot));
                assert!(ticks >= 3);
            }
        }
    }

    #[test]
    fn tiny_batches_are_rejected() {
        assert!(derive_spec(2023, 5).is_err());
    }

    #[test]
    fn budgets_apply_only_to_their_slots() {
        let cfg = ExpConfig {
            quick: true,
            ..ExpConfig::default()
        };
        let ds = sweep_k::datasets(&cfg).remove(0);
        let base = throughput_requests(&cfg, &ds);
        let spec = derive_spec(cfg.seed, base.len()).unwrap();
        let budgeted = spec.budgeted(&base);
        for (i, req) in budgeted.iter().enumerate() {
            let expected = spec.budgets.iter().find(|&&(s, _)| s == i).map(|&(_, t)| t);
            assert_eq!(req.budget, expected, "slot {i}");
        }
    }
}
