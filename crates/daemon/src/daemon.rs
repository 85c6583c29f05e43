//! The daemon proper: session registry, worker pool, and run lifecycle.
//!
//! A submission is validated and placed up front (the same builder
//! matrix as the in-process API — invalid scenarios are rejected at the
//! door, not at run time), keyed for the plan cache, and queued together
//! with its placement. Worker threads pull sessions off the queue,
//! resolve the plan through [`PlanCache`] (lowering at most once per key,
//! from the queued placement), set the session's faults and compute costs
//! on a view of the cached plan, execute on the requested engine under a
//! [`RunControl`], validate against the cached reference trace, persist
//! a [`RunRecord`], and stream [`Event`]s to subscribers.
//!
//! Session lifecycle: `Queued → Running ⇄ Paused → Done | Failed |
//! Cancelled`. Pause and cancel are cooperative — the engine observes
//! the control only at checkpoint boundaries, so a paused run holds all
//! simulation state intact and a resumed run is bit-identical to an
//! uninterrupted one. A paused run holds no cache lock, so it delays no
//! other session, not even one of the same scenario. Nothing is
//! persisted from a cancelled run.

use crate::cache::{CacheStats, Entry, PlanCache};
use crate::store::{MemStore, RunRecord, RunStore};
use overlap_core::{EngineKind, Error, ScenarioSpec};
use overlap_sim::engine::{RunError, RunOutcome};
use overlap_sim::trace::TraceConfig;
use overlap_sim::validate::validate_run;
use overlap_sim::{Assignment, RunControl};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Emit a `Progress` event every this many control checkpoints (the
/// progress *counter* still updates at every checkpoint; this only
/// throttles the event stream).
const PROGRESS_EVERY: u64 = 16;

/// A session's observable lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Status {
    /// Accepted, waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Paused at a checkpoint; all simulation state held intact.
    Paused,
    /// Completed; a [`RunRecord`] was persisted.
    Done,
    /// The run errored; see the `Failed` event for the message.
    Failed,
    /// Cancelled before completion; nothing was persisted.
    Cancelled,
}

impl Status {
    /// Terminal states never change again.
    pub fn is_terminal(self) -> bool {
        matches!(self, Status::Done | Status::Failed | Status::Cancelled)
    }
}

/// One entry of a session's event stream, in order of occurrence.
///
/// `Done` carries the full persisted record and dominates the enum's
/// size; events live briefly in per-session logs, so the variance is
/// cheaper than boxing every terminal event.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// The session was accepted and queued.
    Queued,
    /// A worker began executing; `cache_hit` tells whether the plan came
    /// out of the cache or was lowered for this session.
    Started {
        /// Plan-cache verdict for this session.
        cache_hit: bool,
    },
    /// Periodic progress (dispatch units completed so far).
    Progress {
        /// Dispatch units completed.
        done: u64,
    },
    /// The run reached a checkpoint while a pause was requested.
    Paused,
    /// The run resumed.
    Resumed,
    /// Stall-attribution totals (traced runs only), streamed before
    /// `Done` so subscribers see where the ticks went.
    Stalls {
        /// Category totals over all copies.
        totals: overlap_sim::trace::StallBreakdown,
    },
    /// The run completed; the record has been persisted.
    Done {
        /// The persisted record.
        record: RunRecord,
    },
    /// The run errored.
    Failed {
        /// Human-readable error.
        error: String,
    },
    /// The run was cancelled after `at` dispatch units.
    Cancelled {
        /// Dispatch units completed when the cancel was observed.
        at: u64,
    },
}

/// Point-in-time view of a session, as returned by `GET /v1/sessions/:id`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionView {
    /// Session id.
    pub id: u64,
    /// Lifecycle state.
    pub status: Status,
    /// Dispatch units completed, as last published by the engine.
    pub progress: u64,
    /// FNV-1a hash of the session's plan-cache key.
    pub plan_hash: u64,
    /// Events recorded so far (poll `events_since` to read them).
    pub events: u64,
}

struct SessionState {
    status: Status,
    events: Vec<Event>,
}

/// The part of a session shared with the control's progress sink (the
/// sink closure is fixed at [`RunControl`] construction, so it captures
/// this `Arc` rather than the session that owns the control).
struct Shared {
    state: Mutex<SessionState>,
    cv: Condvar,
}

impl Shared {
    fn push(&self, event: Event) {
        let mut st = self.state.lock().unwrap();
        st.events.push(event);
        self.cv.notify_all();
    }

    fn finish(&self, status: Status, event: Event) {
        let mut st = self.state.lock().unwrap();
        st.status = status;
        st.events.push(event);
        self.cv.notify_all();
    }
}

/// A session keeps only what its observers read: the spec and the plan
/// key travel with the queued work and are dropped when the run ends.
struct Session {
    id: u64,
    hash: u64,
    control: Arc<RunControl>,
    shared: Arc<Shared>,
}

impl Session {
    /// Mark the session started: `Running`, or `Paused` when a pause
    /// came while it was queued (the run then holds at its first
    /// checkpoint). Read under the state lock, which `pause` and `resume`
    /// hold while they flip the control.
    fn start(&self) {
        let mut st = self.state.lock().unwrap();
        st.status = if self.control.is_paused() {
            Status::Paused
        } else {
            Status::Running
        };
        self.cv.notify_all();
    }
}

impl std::ops::Deref for Session {
    type Target = Shared;

    fn deref(&self) -> &Shared {
        &self.shared
    }
}

/// Daemon construction options.
pub struct DaemonConfig {
    /// Worker threads executing simulations (≥ 1).
    pub workers: usize,
    /// Where completed runs are persisted.
    pub store: Box<dyn RunStore>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            store: Box::new(MemStore::new()),
        }
    }
}

/// A queued session's work: the spec, its plan key, and the placement
/// made at admission, which the worker lowers from on a cache miss.
struct Queued {
    id: u64,
    spec: ScenarioSpec,
    key: String,
    assignment: Assignment,
}

struct Inner {
    cache: PlanCache,
    store: Box<dyn RunStore>,
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    /// Queued work, dropped by the worker when the run ends, so kept
    /// sessions hold none of it.
    queue: Mutex<VecDeque<Queued>>,
    queue_cv: Condvar,
    next_session: AtomicU64,
    next_run: AtomicU64,
    shutdown: AtomicBool,
}

/// The simulation service. Cheap to share (`Arc<Daemon>`); all methods
/// take `&self`.
pub struct Daemon {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Daemon {
    /// Start a daemon with `config.workers` worker threads and a plan
    /// cache of [`DEFAULT_CACHE_BYTES`](crate::cache::DEFAULT_CACHE_BYTES).
    pub fn start(config: DaemonConfig) -> Self {
        Self::with_cache(config, PlanCache::new())
    }

    fn with_cache(config: DaemonConfig, cache: PlanCache) -> Self {
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            cache,
            store: config.store,
            sessions: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            next_session: AtomicU64::new(1),
            next_run: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("overlap-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Self {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// Validate and enqueue a scenario. Returns the session id, or the
    /// same typed error the in-process builder would produce (invalid
    /// engine config, unsupported feature × engine combination, …).
    pub fn submit(&self, spec: ScenarioSpec) -> Result<u64, Error> {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(Error::Config("daemon is shutting down".into()));
        }
        // Admission: placement + full validation matrix. The key is the
        // canonical lowering input; the hash is its display form.
        let (key, assignment) = spec.admit()?;
        let hash = overlap_sim::fnv1a(key.as_bytes());
        let id = self.inner.next_session.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::new(Shared {
            state: Mutex::new(SessionState {
                status: Status::Queued,
                events: vec![Event::Queued],
            }),
            cv: Condvar::new(),
        });
        // Every engine checkpoint lands here; every PROGRESS_EVERY-th one
        // becomes a streamed Progress event.
        let sink_shared = Arc::clone(&shared);
        let checkpoints = AtomicU64::new(0);
        let control = RunControl::with_progress_sink(move |done| {
            if checkpoints
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(PROGRESS_EVERY)
            {
                sink_shared.push(Event::Progress { done });
            }
        });
        let session = Arc::new(Session {
            id,
            hash,
            control: Arc::new(control),
            shared,
        });
        self.inner.sessions.lock().unwrap().insert(id, session);
        self.inner.queue.lock().unwrap().push_back(Queued {
            id,
            spec,
            key,
            assignment,
        });
        self.inner.queue_cv.notify_one();
        Ok(id)
    }

    fn session(&self, id: u64) -> Option<Arc<Session>> {
        self.inner.sessions.lock().unwrap().get(&id).cloned()
    }

    /// Current view of a session, `None` for unknown ids.
    pub fn status(&self, id: u64) -> Option<SessionView> {
        let s = self.session(id)?;
        let st = s.shared.state.lock().unwrap();
        Some(SessionView {
            id,
            status: st.status,
            progress: s.control.progress(),
            plan_hash: s.hash,
            events: st.events.len() as u64,
        })
    }

    /// Request a pause; the run holds at its next checkpoint. Returns
    /// false for unknown ids; no-op on terminal sessions.
    pub fn pause(&self, id: u64) -> bool {
        let Some(s) = self.session(id) else {
            return false;
        };
        let mut st = s.shared.state.lock().unwrap();
        if !st.status.is_terminal() && !s.control.is_paused() {
            s.control.pause();
            st.events.push(Event::Paused);
            if st.status == Status::Running {
                st.status = Status::Paused;
            }
            s.cv.notify_all();
        }
        true
    }

    /// Resume a paused session. Returns false for unknown ids.
    pub fn resume(&self, id: u64) -> bool {
        let Some(s) = self.session(id) else {
            return false;
        };
        let mut st = s.shared.state.lock().unwrap();
        if !st.status.is_terminal() && s.control.is_paused() {
            s.control.resume();
            st.events.push(Event::Resumed);
            if st.status == Status::Paused {
                st.status = Status::Running;
            }
            s.cv.notify_all();
        }
        true
    }

    /// Cancel a queued or running session (wakes it first if paused).
    /// Returns false for unknown ids; no-op on terminal sessions.
    pub fn cancel(&self, id: u64) -> bool {
        let Some(s) = self.session(id) else {
            return false;
        };
        s.control.cancel();
        true
    }

    /// Events `since..` of a session, blocking up to `wait` for at least
    /// one new event (long-poll). Returns `None` for unknown ids; an
    /// empty vec on timeout or when the session is terminal with no
    /// further events.
    pub fn events_since(&self, id: u64, since: usize, wait: Duration) -> Option<Vec<Event>> {
        let s = self.session(id)?;
        let mut st = s.shared.state.lock().unwrap();
        if st.events.len() <= since && !st.status.is_terminal() && !wait.is_zero() {
            let (guard, _timeout) =
                s.cv.wait_timeout_while(st, wait, |st| {
                    st.events.len() <= since && !st.status.is_terminal()
                })
                .unwrap();
            st = guard;
        }
        Some(st.events.get(since..).unwrap_or_default().to_vec())
    }

    /// Block until the session reaches a terminal state (up to `wait`).
    /// Returns the final status, or the current one on timeout.
    pub fn wait(&self, id: u64, wait: Duration) -> Option<Status> {
        let s = self.session(id)?;
        let st = s.shared.state.lock().unwrap();
        let (st, _timeout) =
            s.cv.wait_timeout_while(st, wait, |st| !st.status.is_terminal())
                .unwrap();
        Some(st.status)
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// Persisted runs, oldest first, optionally filtered to one plan
    /// hash (runs of the same lowered scenario across engines and
    /// daemon restarts).
    pub fn runs(&self, plan_hash: Option<u64>) -> std::io::Result<Vec<RunRecord>> {
        let mut all = self.inner.store.load_all()?;
        if let Some(h) = plan_hash {
            all.retain(|r| r.plan_hash == h);
        }
        Ok(all)
    }

    /// Has [`shutdown`](Self::shutdown) been called (e.g. via
    /// `POST /v1/shutdown`)?
    pub fn is_shut_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Stop accepting work, cancel in-flight sessions, and join the
    /// workers. Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for s in self.inner.sessions.lock().unwrap().values() {
            s.control.cancel();
        }
        self.inner.queue_cv.notify_all();
        for h in self.workers.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let queued = {
            let mut q = inner.queue.lock().unwrap();
            loop {
                if let Some(queued) = q.pop_front() {
                    break queued;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = inner.queue_cv.wait(q).unwrap();
            }
        };
        let Some(session) = inner.sessions.lock().unwrap().get(&queued.id).cloned() else {
            continue;
        };
        if session.control.is_cancelled() {
            session.finish(Status::Cancelled, Event::Cancelled { at: 0 });
            continue;
        }
        run_session(inner, &session, queued);
    }
}

/// Execute one session end-to-end: plan resolution, engine dispatch on a
/// view of the plan, validation, persistence, event emission.
fn run_session(inner: &Inner, session: &Arc<Session>, queued: Queued) {
    let Queued {
        spec,
        key,
        assignment,
        ..
    } = queued;
    session.start();
    let mut was_hit = false;
    let mut evicted = None;
    let result = inner.cache.get(&key, &spec, assignment).and_then(|lookup| {
        was_hit = lookup.hit;
        evicted = Some(lookup.evicted);
        session.push(Event::Started {
            cache_hit: lookup.hit,
        });
        let outcome = run_on_plan(&spec, &session.control, &lookup.entry)?;
        let mismatches = validate_run(&lookup.entry.reference, &outcome).len() as u64;
        Ok((outcome, mismatches))
    });
    match result {
        Ok((outcome, mismatches)) => {
            let record = RunRecord {
                run_id: inner.next_run.fetch_add(1, Ordering::SeqCst),
                session: session.id,
                plan_hash: session.hash,
                cache_hit: was_hit,
                engine: engine_label(spec.engine),
                strategy: spec.strategy.label(),
                host: spec.host.name().to_string(),
                stats: outcome.stats,
                validated: mismatches == 0,
                mismatches,
                stalls: outcome.trace.as_ref().map(|t| t.totals),
            };
            if let Some(t) = &outcome.trace {
                session.push(Event::Stalls { totals: t.totals });
            }
            match inner.store.append(&record) {
                Ok(()) => session.finish(Status::Done, Event::Done { record }),
                Err(e) => session.finish(
                    Status::Failed,
                    Event::Failed {
                        error: format!("run completed but persisting failed: {e}"),
                    },
                ),
            }
        }
        Err(Error::Run(RunError::Cancelled { at })) => {
            session.finish(Status::Cancelled, Event::Cancelled { at });
        }
        Err(e) => {
            session.finish(
                Status::Failed,
                Event::Failed {
                    error: e.to_string(),
                },
            );
        }
    }
    // Free what this session's lowering evicted only now, after its
    // result is out: on cold scenario streams that moves ~0.6 ms per
    // miss off the request's latency.
    drop(evicted);
}

/// Run `spec` on its engine, under `control`, on a view of the cached
/// plan that carries the spec's faults and compute costs.
fn run_on_plan(
    spec: &ScenarioSpec,
    control: &RunControl,
    entry: &Entry,
) -> Result<RunOutcome, Error> {
    let mut plan = entry.plan.view();
    if let Some(faults) = &spec.faults {
        plan = plan.with_faults(faults.clone())?;
    }
    if let Some(costs) = &spec.compute_costs {
        plan = plan.with_compute_costs(costs.clone());
    }
    let trace = spec.trace.then(TraceConfig::default);
    Ok(spec.engine.run(&plan, trace, Some(control))?)
}

fn engine_label(kind: EngineKind) -> String {
    match kind {
        EngineKind::Event => "event".into(),
        EngineKind::Lockstep => "lockstep".into(),
        EngineKind::Sharded { threads } => format!("sharded({threads})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_core::Strategy;
    use overlap_model::{GuestSpec, ProgramKind};
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;

    const WAIT: Duration = Duration::from_secs(60);

    fn spec(seed: u64, steps: u32) -> ScenarioSpec {
        ScenarioSpec {
            strategy: Strategy::Overlap { c: 4.0 },
            ..ScenarioSpec::new(
                GuestSpec::array(16, ProgramKind::KvWorkload, seed, steps),
                linear_array(8, DelayModel::uniform(1, 6), 7),
            )
        }
    }

    fn record(daemon: &Daemon, id: u64) -> RunRecord {
        let runs = daemon.runs(None).unwrap();
        runs.into_iter()
            .find(|r| r.session == id)
            .expect("persisted")
    }

    /// A one-byte budget: every lowering evicts every other entry. A run
    /// that already holds its entry finishes on it after the eviction,
    /// validated, and its key's next arrival lowers again to the same
    /// plan hash and bit-identical stats.
    #[test]
    fn evicted_entries_finish_their_runs_and_relower_identically() {
        let daemon = Daemon::with_cache(
            DaemonConfig {
                workers: 2,
                store: Box::new(MemStore::new()),
            },
            PlanCache::with_budget(1),
        );
        let a_spec = spec(3, 4000);
        let a = daemon.submit(a_spec.clone()).unwrap();
        assert!(daemon.pause(a));
        // Wait for A to hold at a checkpoint, so it has its entry in hand.
        let deadline = std::time::Instant::now() + WAIT;
        while daemon.status(a).unwrap().progress == 0 {
            assert!(std::time::Instant::now() < deadline, "A never started");
            std::thread::sleep(Duration::from_millis(5));
        }
        let b = daemon.submit(spec(4, 64)).unwrap();
        assert_eq!(daemon.wait(b, WAIT), Some(Status::Done));
        let c = daemon.cache_stats();
        assert_eq!(
            (c.misses, c.entries, c.evictions),
            (2, 1, 1),
            "B's lowering evicts A's entry"
        );
        assert!(daemon.resume(a));
        assert_eq!(daemon.wait(a, WAIT), Some(Status::Done));
        let first = record(&daemon, a);
        assert!(first.validated && !first.cache_hit);

        let again = daemon.submit(a_spec).unwrap();
        assert_eq!(daemon.wait(again, WAIT), Some(Status::Done));
        let second = record(&daemon, again);
        assert!(second.validated && !second.cache_hit);
        assert_eq!(second.plan_hash, first.plan_hash);
        assert_eq!(
            serde_json::to_string(&second.stats).unwrap(),
            serde_json::to_string(&first.stats).unwrap()
        );
        let c = daemon.cache_stats();
        assert_eq!((c.hits, c.misses, c.evictions, c.entries), (0, 3, 2, 1));
        daemon.shutdown();
    }
}
