//! Daemon end-to-end tests: the determinism contract, fault variants on
//! views of a cached plan, pause/resume bit-identity, a paused session
//! not blocking its scenario, restart persistence, the HTTP round trip,
//! and typed rejection of malformed requests.

use overlap_core::{EngineKind, ScenarioSpec, Strategy};
use overlap_daemon::{Client, Daemon, DaemonConfig, Event, JsonlStore, MemStore, Status};
use overlap_model::{GuestSpec, ProgramKind};
use overlap_net::topology::linear_array;
use overlap_net::DelayModel;
use overlap_sim::faults::FaultPlan;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(60);

fn spec(cells: u32, steps: u32) -> ScenarioSpec {
    let mut s = ScenarioSpec::new(
        GuestSpec::array(cells, ProgramKind::KvWorkload, 3, steps),
        linear_array(8, DelayModel::uniform(1, 6), 7),
    );
    s.strategy = Strategy::Overlap { c: 4.0 };
    s
}

/// The stats of an uninterrupted in-process run, as canonical JSON bytes.
fn sequential_bytes(spec: &ScenarioSpec) -> String {
    let ready = spec.ready().expect("valid spec");
    let outcome = ready.run_raw().expect("sequential run");
    serde_json::to_string(&outcome.stats).expect("stats serialize")
}

#[test]
fn eight_concurrent_submissions_are_bit_identical_to_sequential() {
    let spec = spec(16, 64);
    let baseline = sequential_bytes(&spec);
    let daemon = Daemon::start(DaemonConfig {
        workers: 4,
        store: Box::new(MemStore::new()),
    });
    let ids: Vec<u64> = (0..8)
        .map(|_| daemon.submit(spec.clone()).expect("submit"))
        .collect();
    for &id in &ids {
        assert_eq!(daemon.wait(id, WAIT), Some(Status::Done), "session {id}");
    }
    let runs = daemon.runs(None).unwrap();
    assert_eq!(runs.len(), 8);
    for r in &runs {
        let bytes = serde_json::to_string(&r.stats).unwrap();
        assert_eq!(bytes, baseline, "run {} diverged from sequential", r.run_id);
    }
    // Exactly one lowering; the other seven sessions hit the cache.
    let c = daemon.cache_stats();
    assert_eq!((c.misses, c.hits, c.entries), (1, 7, 1));
    assert_eq!(runs.iter().filter(|r| r.cache_hit).count(), 7);
    daemon.shutdown();
}

#[test]
fn pause_resume_mid_run_lands_on_the_same_result() {
    // Big enough to cross many 4096-unit checkpoints.
    let spec = spec(16, 4000);
    let baseline = sequential_bytes(&spec);
    let daemon = Daemon::start(DaemonConfig::default());
    let id = daemon.submit(spec).unwrap();
    // Pause before the run starts: the engine holds at its first
    // checkpoint with all simulation state intact.
    assert!(daemon.pause(id));
    let deadline = std::time::Instant::now() + WAIT;
    let paused_at = loop {
        let v = daemon.status(id).unwrap();
        assert!(!v.status.is_terminal(), "run must not finish while paused");
        if v.progress > 0 {
            break v.progress;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "never reached a checkpoint"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    // Held: progress must not advance while paused.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(daemon.status(id).unwrap().progress, paused_at);
    assert!(daemon.resume(id));
    assert_eq!(daemon.wait(id, WAIT), Some(Status::Done));
    let runs = daemon.runs(None).unwrap();
    assert_eq!(runs.len(), 1);
    assert_eq!(
        serde_json::to_string(&runs[0].stats).unwrap(),
        baseline,
        "paused-and-resumed run must be bit-identical to uninterrupted"
    );
    let events = daemon.events_since(id, 0, Duration::ZERO).unwrap();
    assert!(events.contains(&Event::Paused));
    assert!(events.contains(&Event::Resumed));
    daemon.shutdown();
}

/// A paused session holds no lock on its cached plan: a fault variant
/// of the same scenario, submitted while the first session is paused
/// mid-run, completes on the second worker. Both results still match
/// in-process runs bit for bit.
#[test]
fn paused_session_does_not_block_its_scenario() {
    let a_spec = spec(16, 4000);
    let mut b_spec = a_spec.clone();
    b_spec.faults = Some(FaultPlan::new().link_down(2, 3, 40, 160));
    let (a_want, b_want) = (sequential_bytes(&a_spec), sequential_bytes(&b_spec));
    let daemon = Daemon::start(DaemonConfig {
        workers: 2,
        store: Box::new(MemStore::new()),
    });
    let a = daemon.submit(a_spec).unwrap();
    assert!(daemon.pause(a));
    // Wait for A to hold at a checkpoint, so it has its plan in hand.
    let deadline = std::time::Instant::now() + WAIT;
    while daemon.status(a).unwrap().progress == 0 {
        assert!(std::time::Instant::now() < deadline, "A never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    let b = daemon.submit(b_spec).unwrap();
    assert_eq!(
        daemon.wait(b, Duration::from_secs(20)),
        Some(Status::Done),
        "a fault variant must not wait for a paused run of its scenario"
    );
    assert_eq!(daemon.status(a).unwrap().status, Status::Paused);
    assert!(daemon.resume(a));
    assert_eq!(daemon.wait(a, WAIT), Some(Status::Done));
    let runs = daemon.runs(None).unwrap();
    let stats = |id| {
        let r = runs.iter().find(|r| r.session == id).expect("persisted");
        serde_json::to_string(&r.stats).unwrap()
    };
    assert_eq!(stats(a), a_want);
    assert_eq!(stats(b), b_want);
    let c = daemon.cache_stats();
    assert_eq!((c.misses, c.hits), (1, 1), "B must ride A's cached plan");
    daemon.shutdown();
}

#[test]
fn cancelled_runs_persist_nothing() {
    let spec = spec(16, 4000);
    let daemon = Daemon::start(DaemonConfig::default());
    let id = daemon.submit(spec).unwrap();
    daemon.pause(id);
    // Wait for the engine to hold at a checkpoint, then cancel.
    let deadline = std::time::Instant::now() + WAIT;
    while daemon.status(id).unwrap().progress == 0 {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(daemon.cancel(id));
    assert_eq!(daemon.wait(id, WAIT), Some(Status::Cancelled));
    assert_eq!(daemon.runs(None).unwrap().len(), 0);
    daemon.shutdown();
}

/// The cache-hit path sets faults on a view of the cached base plan
/// (never re-lowers); differential check against a fresh lowering that
/// bakes the same faults in.
#[test]
fn cache_hit_view_matches_fresh_lowering() {
    let base = spec(16, 64);
    let mut faulted = base.clone();
    faulted.faults = Some(FaultPlan::new().link_down(2, 3, 40, 160));
    let fresh_faulted = sequential_bytes(&faulted);
    let fresh_base = sequential_bytes(&base);

    let daemon = Daemon::start(DaemonConfig::default());
    // 1: populate the cache with the base plan.
    let a = daemon.submit(base.clone()).unwrap();
    assert_eq!(daemon.wait(a, WAIT), Some(Status::Done));
    // 2: same plan key, faults set on a view of the cached plan.
    let b = daemon.submit(faulted.clone()).unwrap();
    assert_eq!(daemon.wait(b, WAIT), Some(Status::Done));
    // 3: base again — the view must have left the cached plan as it was.
    let c = daemon.submit(base).unwrap();
    assert_eq!(daemon.wait(c, WAIT), Some(Status::Done));

    let cache = daemon.cache_stats();
    assert_eq!(
        (cache.misses, cache.hits, cache.entries),
        (1, 2, 1),
        "fault variants must share the base plan's cache entry"
    );
    let runs = daemon.runs(None).unwrap();
    assert_eq!(runs.len(), 3);
    assert!(!runs[0].cache_hit);
    assert!(runs[1].cache_hit, "faulted run must ride the cached plan");
    assert_eq!(serde_json::to_string(&runs[0].stats).unwrap(), fresh_base);
    assert_eq!(
        serde_json::to_string(&runs[1].stats).unwrap(),
        fresh_faulted,
        "a view on a cache hit must match a fresh lowering with faults"
    );
    assert_eq!(
        serde_json::to_string(&runs[2].stats).unwrap(),
        fresh_base,
        "a view must leave the base plan exactly as it was"
    );
    assert!(runs[1].stats.faults.retries > 0, "faults must have fired");
    daemon.shutdown();
}

#[test]
fn every_engine_matches_its_in_process_result() {
    let daemon = Daemon::start(DaemonConfig::default());
    for engine in [
        EngineKind::Event,
        EngineKind::Lockstep,
        EngineKind::Sharded { threads: 2 },
    ] {
        let mut s = spec(16, 64);
        s.engine = engine;
        let baseline = sequential_bytes(&s);
        let id = daemon.submit(s).unwrap();
        assert_eq!(daemon.wait(id, WAIT), Some(Status::Done), "{engine:?}");
        let run = daemon.runs(None).unwrap().pop().unwrap();
        assert_eq!(
            serde_json::to_string(&run.stats).unwrap(),
            baseline,
            "{engine:?} daemon run must match in-process"
        );
    }
    // One guest/host/config ⇒ one plan shared by all three engines.
    assert_eq!(daemon.cache_stats().entries, 1);
    daemon.shutdown();
}

#[test]
fn invalid_scenarios_are_rejected_at_submission() {
    let daemon = Daemon::start(DaemonConfig::default());
    let mut zero_threads = spec(16, 16);
    zero_threads.engine = EngineKind::Sharded { threads: 0 };
    assert!(matches!(
        daemon.submit(zero_threads),
        Err(overlap_core::Error::InvalidConfig {
            option: "threads",
            ..
        })
    ));
    let mut traced_lockstep = spec(16, 16);
    traced_lockstep.trace = true;
    traced_lockstep.engine = EngineKind::Lockstep;
    assert!(matches!(
        daemon.submit(traced_lockstep),
        Err(overlap_core::Error::Unsupported { .. })
    ));
    daemon.shutdown();
}

#[test]
fn persisted_runs_are_queryable_after_restart() {
    let path =
        std::env::temp_dir().join(format!("overlap-daemon-e2e-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let hash;
    {
        let daemon = Daemon::start(DaemonConfig {
            workers: 2,
            store: Box::new(JsonlStore::open(&path).unwrap()),
        });
        let id = daemon.submit(spec(16, 32)).unwrap();
        assert_eq!(daemon.wait(id, WAIT), Some(Status::Done));
        hash = daemon.status(id).unwrap().plan_hash;
        daemon.shutdown();
    }
    // A new daemon process over the same store sees the old run.
    let daemon = Daemon::start(DaemonConfig {
        workers: 2,
        store: Box::new(JsonlStore::open(&path).unwrap()),
    });
    let old = daemon.runs(Some(hash)).unwrap();
    assert_eq!(old.len(), 1, "pre-restart run must be queryable");
    assert_eq!(old[0].plan_hash, hash);
    // And new runs of the same scenario append to the same history.
    let id = daemon.submit(spec(16, 32)).unwrap();
    assert_eq!(daemon.wait(id, WAIT), Some(Status::Done));
    assert_eq!(daemon.runs(Some(hash)).unwrap().len(), 2);
    assert_eq!(daemon.runs(Some(hash ^ 1)).unwrap().len(), 0);
    daemon.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn http_round_trip() {
    let daemon = Arc::new(Daemon::start(DaemonConfig::default()));
    let mut server = overlap_daemon::serve(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    let client = Client::new(server.addr().to_string());

    let spec16 = spec(16, 64);
    let baseline = sequential_bytes(&spec16);
    let id = client.submit(&spec16).expect("submit over HTTP");
    // Long-poll the stream to a terminal event.
    let mut next = 0;
    let mut done = None;
    while done.is_none() {
        let resp = client.events(id, next, 5_000).expect("events");
        next = resp.next;
        done = resp.events.iter().find_map(|e| match e {
            Event::Done { record } => Some(record.clone()),
            _ => None,
        });
    }
    let record = done.unwrap();
    assert_eq!(serde_json::to_string(&record.stats).unwrap(), baseline);
    let view = client.status(id).unwrap();
    assert_eq!(view.status, Status::Done);
    assert_eq!(view.plan_hash, record.plan_hash);
    assert_eq!(client.runs(Some(record.plan_hash)).unwrap().len(), 1);
    assert_eq!(client.cache().unwrap().misses, 1);
    // Typed validation errors surface as HTTP 400 with the message.
    let mut bad = spec(16, 16);
    bad.engine = EngineKind::Sharded { threads: 0 };
    match client.submit(&bad) {
        Err(overlap_daemon::ClientError::Api { status, message }) => {
            assert_eq!(status, 400);
            assert!(message.contains("threads"), "{message}");
        }
        other => panic!("expected 400, got {other:?}"),
    }
    client.shutdown().expect("shutdown");
    assert!(daemon.is_shut_down());
    server.stop();
}

/// Send `request` verbatim over a fresh connection; return the response.
fn raw_request(addr: std::net::SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    response
}

#[test]
fn removed_engine_name_is_a_typed_error_in_process_and_over_http() {
    let json = serde_json::to_string(&spec(16, 16)).unwrap();
    assert!(json.contains("\"engine\":\"Event\""), "{json}");
    let stepped = json.replace("\"engine\":\"Event\"", "\"engine\":\"Stepped\"");
    assert!(serde_json::from_str::<ScenarioSpec>(&stepped).is_err());

    let daemon = Arc::new(Daemon::start(DaemonConfig::default()));
    let mut server = overlap_daemon::serve(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    let response = raw_request(
        server.addr(),
        &format!(
            "POST /v1/scenarios HTTP/1.1\r\nContent-Length: {}\r\n\r\n{stepped}",
            stepped.len()
        ),
    );
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(response.contains("malformed scenario"), "{response}");
    // The daemon still answers the next request.
    let client = Client::new(server.addr().to_string());
    assert_eq!(client.cache().expect("daemon still serving").misses, 0);
    server.stop();
    daemon.shutdown();
}

#[test]
fn oversized_body_is_refused_before_allocating() {
    let daemon = Arc::new(Daemon::start(DaemonConfig::default()));
    let mut server = overlap_daemon::serve(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    for claimed in [400_000_000_000, overlap_daemon::http::MAX_BODY_BYTES + 1] {
        let response = raw_request(
            server.addr(),
            &format!("POST /v1/scenarios HTTP/1.1\r\nContent-Length: {claimed}\r\n\r\n"),
        );
        assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
        assert!(response.contains("exceeds"), "{response}");
    }
    let client = Client::new(server.addr().to_string());
    assert_eq!(client.cache().expect("daemon still serving").misses, 0);
    server.stop();
    daemon.shutdown();
}

/// Send `request` from a writer thread (the server may refuse it before
/// reading it all, which fails the write) and return what the server
/// answered before closing the connection.
fn raw_request_unread(addr: std::net::SocketAddr, request: Vec<u8>) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let send = std::thread::spawn(move || {
        let _ = writer.write_all(&request);
    });
    let mut reader = stream;
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    // A reset after the response (unread request bytes) ends the read.
    while let Ok(n @ 1..) = reader.read(&mut buf) {
        response.extend_from_slice(&buf[..n]);
    }
    drop(reader);
    send.join().expect("writer thread");
    String::from_utf8_lossy(&response).into_owned()
}

#[test]
fn overlong_header_line_and_header_flood_are_refused() {
    let daemon = Arc::new(Daemon::start(DaemonConfig::default()));
    let mut server = overlap_daemon::serve(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    // One 1 MiB header line with no end in sight of the line limit.
    let mut request = b"GET /v1/cache HTTP/1.1\r\nX-Pad: ".to_vec();
    request.resize(request.len() + (1 << 20), b'a');
    request.extend_from_slice(b"\r\n\r\n");
    let response = raw_request_unread(server.addr(), request);
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(response.contains("byte limit"), "{response}");
    // More header lines than the cap, each of them short.
    let mut flood = String::from("GET /v1/cache HTTP/1.1\r\n");
    for i in 0..=overlap_daemon::http::MAX_HEADERS {
        flood.push_str(&format!("X-H{i}: 1\r\n"));
    }
    flood.push_str("\r\n");
    let response = raw_request_unread(server.addr(), flood.into_bytes());
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(response.contains("header lines"), "{response}");
    // The daemon still answers the next request.
    let client = Client::new(server.addr().to_string());
    assert_eq!(client.cache().expect("daemon still serving").misses, 0);
    server.stop();
    daemon.shutdown();
}
