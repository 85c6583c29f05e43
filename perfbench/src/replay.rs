//! In-process replay of a workload's requests, layer call by layer call.
//!
//! The replay makes the same public calls, in the same order, as the
//! daemon's `run_session` (for `sweep_hit` and `cold_mix`) or as
//! `ReadySimulation::run` (for `kv_large`), each wrapped in a span when
//! the recorder is on. Its `RunStats` are compared with the timed run's,
//! request by request, so it is also the benchmark's determinism check.
//!
//! `PlanCache::with_plan` lowers a missing plan inside itself, where no
//! span can reach it. The replay therefore keeps its own copy of the
//! cache's slot protocol (map lock, then per-key slot lock, lowering
//! under the slot lock) and calls placement, lowering and the reference
//! run itself, so each gets its own span.

use crate::gen::{Request, Stream, Workload};
use crate::spans::{Recorder, Span, ROOT};
use overlap_core::ScenarioSpec;
use overlap_daemon::{JsonlStore, RunRecord, RunStore};
use overlap_model::{ReferenceRun, ReferenceTrace};
use overlap_sim::stats::RunStats;
use overlap_sim::{fnv1a, scenario_key, validate_run, Engine, ExecPlan, PlanDelta, RunControl};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Entry {
    plan: ExecPlan<'static>,
    reference: ReferenceTrace,
}

type Slot = Arc<Mutex<Option<Entry>>>;

/// The replay's copy of `PlanCache`'s slot map.
#[derive(Default)]
struct Slots {
    slots: Mutex<HashMap<String, Slot>>,
}

impl Slots {
    fn slot(&self, key: &str) -> (Slot, bool) {
        let mut map = self.slots.lock().expect("slot map poisoned");
        match map.get(key) {
            Some(slot) => (Arc::clone(slot), true),
            None => {
                let slot: Slot = Arc::new(Mutex::new(None));
                map.insert(key.to_string(), Arc::clone(&slot));
                (slot, false)
            }
        }
    }
}

/// What one replayed request produced.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// Stream index.
    pub index: u64,
    /// Host time of the whole request, in nanoseconds.
    pub ns: u64,
    /// Engine statistics (scenarios only).
    pub stats: Option<RunStats>,
    /// Whether the replay's cache had the plan (daemon workloads).
    pub cache_hit: Option<bool>,
    /// FNV-1a hash of the plan key (daemon workloads).
    pub plan_hash: Option<u64>,
    /// Length of the plan key in bytes (daemon workloads).
    pub key_bytes: usize,
    /// Length of the scenario's JSON in bytes (scenarios only).
    pub json_bytes: usize,
}

/// The outcome of replaying a list of requests.
pub struct Replay {
    /// One entry per replayed request, by stream index.
    pub requests: Vec<Replayed>,
    /// Spans per thread (empty when the recorder was off).
    pub spans: Vec<Vec<Span>>,
    /// Requests that failed: stream index and reason.
    pub errors: Vec<(u64, String)>,
}

struct Ctx<'a> {
    stream: &'a Stream,
    slots: Slots,
    store: Option<JsonlStore>,
    base_hash: Option<u64>,
    next_run: AtomicU64,
}

/// Replay `indices` of `stream` on `threads` threads pulling from one
/// shared queue, recording spans when `traced`. Daemon workloads
/// persist to a fresh store at `store_path`, and first run the stream's
/// warm-up scenario untimed, as the benchmark's set-up does.
pub fn replay(
    stream: &Stream,
    indices: &[u64],
    threads: usize,
    traced: bool,
    store_path: &Path,
    base_hash: Option<u64>,
) -> Replay {
    let daemon = stream.workload().uses_daemon();
    let _ = std::fs::remove_file(store_path);
    let store = daemon.then(|| JsonlStore::open(store_path).expect("open replay store"));
    let ctx = Ctx {
        stream,
        slots: Slots::default(),
        store,
        base_hash,
        next_run: AtomicU64::new(1),
    };
    let epoch = Instant::now();
    let mut errors = Vec::new();
    if daemon {
        let warm = serde_json::to_string(&stream.warmup()).expect("spec serializes");
        let mut off = Recorder::new(false, epoch, 0);
        if let Err(e) = daemon_scenario(&ctx, &mut off, u64::MAX, &warm) {
            errors.push((u64::MAX, format!("replay warm-up: {e}")));
        }
    }
    let next = AtomicUsize::new(0);
    type PerThread = (Vec<Replayed>, Vec<Span>, Vec<(u64, String)>);
    let per_thread: Vec<PerThread> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (ctx, next) = (&ctx, &next);
                s.spawn(move || {
                    let mut rec = Recorder::new(traced, epoch, t as u32);
                    let (mut done, mut errs) = (Vec::new(), Vec::new());
                    loop {
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&i) = indices.get(k) else { break };
                        match one(ctx, &mut rec, i) {
                            Ok(r) => done.push(r),
                            Err(e) => {
                                rec.unwind();
                                errs.push((i, format!("replay: {e}")));
                            }
                        }
                    }
                    (done, rec.finish(), errs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut requests = Vec::new();
    let mut spans = Vec::new();
    for (done, s, errs) in per_thread {
        requests.extend(done);
        spans.push(s);
        errors.extend(errs);
    }
    requests.sort_by_key(|r| r.index);
    let _ = std::fs::remove_file(store_path);
    Replay {
        requests,
        spans,
        errors,
    }
}

fn one(ctx: &Ctx, rec: &mut Recorder, i: u64) -> Result<Replayed, String> {
    let json = match ctx.stream.request(i) {
        Request::Scenario(spec) => serde_json::to_string(&*spec).map_err(|e| e.to_string())?,
        Request::Query => return history_read(ctx, rec, i),
    };
    if ctx.stream.workload() == Workload::KvLarge {
        in_process_scenario(rec, i, &json)
    } else {
        daemon_scenario(ctx, rec, i, &json)
    }
}

/// `GET /v1/runs?hash=`: the daemon's `runs` is `load_all` plus a filter.
fn history_read(ctx: &Ctx, rec: &mut Recorder, i: u64) -> Result<Replayed, String> {
    let t0 = Instant::now();
    rec.open(ROOT, i);
    rec.open("store.load_all", i);
    let all = ctx
        .store
        .as_ref()
        .ok_or("history read without a store")?
        .load_all()
        .map_err(|e| e.to_string())?;
    rec.close();
    let mut runs = all.iter().filter(|r| Some(r.plan_hash) == ctx.base_hash);
    rec.close();
    if runs.any(|r| !r.validated) {
        return Err("history holds an unvalidated run".into());
    }
    Ok(Replayed {
        index: i,
        ns: t0.elapsed().as_nanos() as u64,
        stats: None,
        cache_hit: None,
        plan_hash: None,
        key_bytes: 0,
        json_bytes: 0,
    })
}

/// The daemon path: admission (`ScenarioSpec::plan_key`), then
/// `run_session` (cache slot, deltas, engine, validation, inverse
/// deltas, persistence).
fn daemon_scenario(ctx: &Ctx, rec: &mut Recorder, i: u64, json: &str) -> Result<Replayed, String> {
    let t0 = Instant::now();
    rec.open(ROOT, i);
    rec.open("scenario.parse", i);
    let spec: ScenarioSpec = serde_json::from_str(json).map_err(|e| e.to_string())?;
    rec.close();
    rec.open("placement.ready", i);
    let ready = spec.ready().map_err(|e| e.to_string())?;
    rec.close();
    rec.open("plan_key.build", i);
    let key = scenario_key(&spec.guest, &spec.host, ready.assignment(), spec.config);
    let hash = fnv1a(key.as_bytes());
    rec.close();
    drop(ready);

    rec.open("cache.wait", i);
    let (slot, hit) = ctx.slots.slot(&key);
    let mut guard = slot.lock().expect("slot poisoned");
    if guard.is_none() {
        rec.open("placement.ready", i);
        let assignment = spec
            .ready()
            .map_err(|e| e.to_string())?
            .assignment()
            .clone();
        rec.close();
        rec.open("lowering.build", i);
        let plan = ExecPlan::build_owned(
            spec.guest.clone(),
            spec.host.clone(),
            assignment,
            spec.config,
        )
        .map_err(|e| e.to_string())?;
        rec.close();
        rec.open("reference.execute", i);
        let reference = ReferenceRun::execute(&spec.guest);
        rec.close();
        *guard = Some(Entry { plan, reference });
    }
    rec.close();
    let entry = guard.as_mut().expect("slot populated above");

    rec.open("delta.apply", i);
    let mut inverses = Vec::new();
    if let Some(faults) = &spec.faults {
        let applied = entry
            .plan
            .apply_delta(PlanDelta::Faults(Some(faults.clone())));
        inverses.push(applied.map_err(|e| e.to_string())?.inverse);
    }
    if let Some(costs) = &spec.compute_costs {
        let applied = entry
            .plan
            .apply_delta(PlanDelta::ComputeCosts(Some(costs.clone())));
        inverses.push(applied.map_err(|e| e.to_string())?.inverse);
    }
    rec.close();
    // The daemon's control reports every checkpoint to a sink, which
    // feeds the session's event log.
    let control = RunControl::with_progress_sink(|_| {});
    rec.open("engine.run", i);
    let outcome = Engine::from_plan(&entry.plan).with_control(&control).run();
    rec.close();
    let mismatches = match &outcome {
        Ok(out) => {
            rec.open("validate.run", i);
            let n = validate_run(&entry.reference, out).len();
            rec.close();
            n
        }
        Err(_) => 0,
    };
    rec.open("delta.apply", i);
    for inverse in inverses.into_iter().rev() {
        entry
            .plan
            .apply_delta(inverse)
            .map_err(|e| format!("inverse delta: {e}"))?;
    }
    rec.close();
    drop(guard);
    let outcome = outcome.map_err(|e| e.to_string())?;
    let record = RunRecord {
        run_id: ctx.next_run.fetch_add(1, Ordering::SeqCst),
        session: i,
        plan_hash: hash,
        cache_hit: hit,
        engine: "event".into(),
        strategy: spec.strategy.label(),
        host: spec.host.name().to_string(),
        stats: outcome.stats,
        validated: mismatches == 0,
        mismatches: mismatches as u64,
        stalls: None,
    };
    rec.open("store.append", i);
    ctx.store
        .as_ref()
        .ok_or("scenario without a store")?
        .append(&record)
        .map_err(|e| e.to_string())?;
    rec.close();
    rec.close();
    if mismatches != 0 {
        return Err(format!("{mismatches} copies disagree with the reference"));
    }
    Ok(Replayed {
        index: i,
        ns: t0.elapsed().as_nanos() as u64,
        stats: Some(outcome.stats),
        cache_hit: Some(hit),
        plan_hash: Some(hash),
        key_bytes: key.len(),
        json_bytes: json.len(),
    })
}

/// The in-process path, in `ReadySimulation::run`'s order: reference
/// run, lowering, engine, validation.
fn in_process_scenario(rec: &mut Recorder, i: u64, json: &str) -> Result<Replayed, String> {
    let t0 = Instant::now();
    rec.open(ROOT, i);
    rec.open("scenario.parse", i);
    let spec: ScenarioSpec = serde_json::from_str(json).map_err(|e| e.to_string())?;
    rec.close();
    rec.open("placement.ready", i);
    let ready = spec.ready().map_err(|e| e.to_string())?;
    rec.close();
    rec.open("reference.execute", i);
    let reference = ReferenceRun::execute(&spec.guest);
    rec.close();
    rec.open("lowering.build", i);
    let plan = ready.build_plan().map_err(|e| e.to_string())?;
    rec.close();
    rec.open("engine.run", i);
    let outcome = ready.run_plan(&plan).map_err(|e| e.to_string())?;
    rec.close();
    drop(plan);
    rec.open("validate.run", i);
    let mismatches = validate_run(&reference, &outcome).len();
    rec.close();
    rec.close();
    let ns = t0.elapsed().as_nanos() as u64;
    if mismatches != 0 {
        return Err(format!("{mismatches} copies disagree with the reference"));
    }
    Ok(Replayed {
        index: i,
        ns,
        stats: Some(outcome.stats),
        cache_hit: None,
        plan_hash: None,
        key_bytes: 0,
        json_bytes: json.len(),
    })
}
