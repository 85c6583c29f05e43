//! The timed runs: a closed loop of clients against the daemon over
//! loopback HTTP, or one in-process caller.
//!
//! Closed loop: each client sends its next request only after the
//! previous one completed, so a slower system receives less load. The
//! clients stop sending at the deadline and let in-flight requests
//! finish; the run's wall time ends when the last one does.

use crate::gen::{Request, Stream};
use overlap_core::ScenarioSpec;
use overlap_daemon::{serve, Client, Daemon, DaemonConfig, Event, JsonlStore, RunRecord, Server};
use overlap_sim::stats::RunStats;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest a single request may take before it counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// One timed request as the client saw it.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Stream index.
    pub index: u64,
    /// True for a run-history read.
    pub query: bool,
    /// Submission to validated result (scenario) or read round trip.
    pub latency_ms: f64,
    /// The POST round trip, admission included.
    pub submit_ms: f64,
    /// From the POST's answer to the client seeing `Started`.
    pub wait_to_start_ms: f64,
    /// From the client seeing `Started` to it seeing `Done`.
    pub run_to_done_ms: f64,
    /// The engine statistics of the result.
    pub stats: Option<RunStats>,
    /// Why the request failed, if it did.
    pub error: Option<String>,
}

/// A timed run: every request and the wall time from the first send to
/// the last completion.
pub struct TimedRun {
    /// Requests in stream order.
    pub requests: Vec<Timed>,
    /// Wall time of the run in seconds.
    pub wall_s: f64,
}

/// A daemon with a JSON-lines store behind a loopback HTTP server.
pub struct Service {
    daemon: Arc<Daemon>,
    server: Server,
    store_path: PathBuf,
}

impl Service {
    /// Open a fresh store at `store_path`, start a daemon with `workers`
    /// workers and serve it on an ephemeral loopback port.
    pub fn start(store_path: &Path, workers: usize) -> std::io::Result<Self> {
        let _ = std::fs::remove_file(store_path);
        let store = JsonlStore::open(store_path)?;
        let daemon = Arc::new(Daemon::start(DaemonConfig {
            workers,
            store: Box::new(store),
        }));
        let server = serve(Arc::clone(&daemon), "127.0.0.1:0")?;
        Ok(Self {
            daemon,
            server,
            store_path: store_path.to_path_buf(),
        })
    }

    /// A client for this service.
    pub fn client(&self) -> Client {
        Client::new(self.server.addr().to_string())
    }

    /// Stop the server, shut the daemon down (joining its workers) and
    /// delete the store.
    pub fn stop(mut self) {
        self.server.stop();
        self.daemon.shutdown();
        let _ = std::fs::remove_file(&self.store_path);
    }
}

/// Client-side timestamps of one scenario submission.
struct Submission {
    acked: Instant,
    started: Instant,
    done: Instant,
    record: RunRecord,
}

/// Submit `spec` and follow its event stream to `Done`.
pub fn submit_and_wait(client: &Client, spec: &ScenarioSpec) -> Result<RunRecord, String> {
    submit(client, spec).map(|s| s.record)
}

fn submit(client: &Client, spec: &ScenarioSpec) -> Result<Submission, String> {
    let deadline = Instant::now() + REQUEST_TIMEOUT;
    let id = client.submit(spec).map_err(|e| e.to_string())?;
    let acked = Instant::now();
    let (mut next, mut started) = (0, None);
    while Instant::now() < deadline {
        let resp = client.events(id, next, 30_000).map_err(|e| e.to_string())?;
        let seen = Instant::now();
        for event in resp.events {
            match event {
                Event::Started { .. } => {
                    started.get_or_insert(seen);
                }
                Event::Done { record } => {
                    return Ok(Submission {
                        acked,
                        started: started.unwrap_or(seen),
                        done: seen,
                        record,
                    })
                }
                Event::Failed { error } => return Err(format!("run failed: {error}")),
                Event::Cancelled { at } => return Err(format!("run cancelled at {at}")),
                _ => {}
            }
        }
        next = resp.next;
    }
    Err("timed out waiting for Done".into())
}

/// What every daemon result of a workload must look like.
pub struct Expect {
    /// Whether every timed request must hit the plan cache.
    pub cache_hit: bool,
    /// The plan hash every request must carry (`sweep_hit`).
    pub plan_hash: Option<u64>,
}

fn check_record(record: &RunRecord, expect: &Expect) -> Result<(), String> {
    if record.cache_hit != expect.cache_hit {
        return Err(format!("cache_hit was {}", record.cache_hit));
    }
    check_persisted(record, expect)
}

/// The checks that also hold for the set-up's run in the history.
fn check_persisted(record: &RunRecord, expect: &Expect) -> Result<(), String> {
    if !record.validated || record.mismatches != 0 {
        return Err(format!("{} copies failed validation", record.mismatches));
    }
    if let Some(h) = expect.plan_hash {
        if record.plan_hash != h {
            return Err(format!(
                "plan hash {:#x}, expected {h:#x}",
                record.plan_hash
            ));
        }
    }
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `clients` closed-loop clients against the daemon at `client`'s
/// address for `seconds`, drawing requests from `stream` in order.
pub fn daemon_closed_loop(
    client: &Client,
    stream: &Stream,
    clients: usize,
    seconds: f64,
    expect: &Expect,
) -> TimedRun {
    let next = AtomicU64::new(0);
    // Completed scenarios, so a history read knows how many runs it
    // must at least see.
    let done = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut requests: Vec<Timed> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let (next, done) = (&next, &done);
                s.spawn(move || {
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let t = match stream.request(i) {
                            Request::Query => history_read(client, i, done, expect),
                            Request::Scenario(spec) => {
                                let t = scenario(client, i, &spec, expect);
                                if t.stats.is_some() {
                                    done.fetch_add(1, Ordering::SeqCst);
                                }
                                t
                            }
                        };
                        out.push(t);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    requests.sort_by_key(|t| t.index);
    TimedRun { requests, wall_s }
}

fn scenario(client: &Client, i: u64, spec: &ScenarioSpec, expect: &Expect) -> Timed {
    let t0 = Instant::now();
    let mut t = Timed {
        index: i,
        ..Timed::default()
    };
    match submit(client, spec) {
        Ok(s) => {
            t.latency_ms = ms(s.done - t0);
            t.submit_ms = ms(s.acked - t0);
            t.wait_to_start_ms = ms(s.started - s.acked);
            t.run_to_done_ms = ms(s.done - s.started);
            t.error = check_record(&s.record, expect).err();
            t.stats = Some(s.record.stats);
        }
        Err(e) => t.error = Some(e),
    }
    t
}

fn history_read(client: &Client, i: u64, done: &AtomicU64, expect: &Expect) -> Timed {
    let at_least = done.load(Ordering::SeqCst);
    let t0 = Instant::now();
    let result = client.runs(expect.plan_hash);
    let mut t = Timed {
        index: i,
        query: true,
        latency_ms: ms(t0.elapsed()),
        ..Timed::default()
    };
    t.error = match result {
        Err(e) => Some(e.to_string()),
        Ok(runs) if (runs.len() as u64) < at_least => Some(format!(
            "history read saw {} runs after {at_least} completed",
            runs.len()
        )),
        Ok(runs) => runs
            .iter()
            .find_map(|r| check_persisted(r, expect).err())
            .map(|e| format!("history: {e}")),
    };
    t
}

/// One in-process caller: the scenario's JSON to a validated
/// `SimReport` through `ScenarioSpec::ready()?.run()`, for `seconds`.
pub fn in_process_loop(stream: &Stream, seconds: f64) -> TimedRun {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut requests = Vec::new();
    let mut i = 0;
    while Instant::now() < deadline {
        let Request::Scenario(spec) = stream.request(i) else {
            unreachable!("in-process streams hold scenarios only")
        };
        let json = serde_json::to_string(&*spec).expect("spec serializes");
        let t0 = Instant::now();
        let result = run_json(&json);
        let mut t = Timed {
            index: i,
            latency_ms: ms(t0.elapsed()),
            ..Timed::default()
        };
        match result {
            Ok(stats) => t.stats = Some(stats),
            Err(e) => t.error = Some(e),
        }
        requests.push(t);
        i += 1;
    }
    TimedRun {
        requests,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Parse, place, lower, run and validate one scenario given as JSON.
pub fn run_json(json: &str) -> Result<RunStats, String> {
    let spec: ScenarioSpec = serde_json::from_str(json).map_err(|e| e.to_string())?;
    let report = spec
        .ready()
        .and_then(|r| r.run())
        .map_err(|e| e.to_string())?;
    if !report.validated || report.mismatches != 0 {
        return Err(format!("{} copies failed validation", report.mismatches));
    }
    Ok(report.stats)
}
