//! End-to-end and per-layer benchmark of the OVERLAP simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_hit --seed 1 --seconds 12 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! holding the end-to-end metrics of the timed run; with `--trace 1` it
//! holds the per-layer metrics of the traced replay. Earlier lines carry
//! the provenance of the result and a readable table. Any failed,
//! unvalidated or mismatched request sets `"correct": false` and makes
//! the exit code 1. See `perfbench/README.md`.

mod gen;
mod load;
mod replay;
mod spans;

use gen::{Request, Stream, Workload};
use load::{Expect, Service, TimedRun};
use overlap_sim::stats::RunStats;
use spans::RequestTimes;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Closed-loop clients of the daemon workloads.
const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median. A daemon set-up takes
/// about 10 ms, so it is repeated more often than `kv_large`'s, which
/// runs one full-size scenario.
fn setups(workload: Workload) -> usize {
    if workload.uses_daemon() {
        7
    } else {
        3
    }
}
/// With `--trace 0`, one timed request in this many past the count
/// prefix is replayed and compared.
const REPLAY_STRIDE: usize = 10;
/// The request id set-up failures are reported under.
const SETUP: u64 = u64::MAX;
/// Where run artefacts (stores, spans, summaries) go, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload sweep_hit|cold_mix|kv_large \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let result = run(&args);
    for (i, e) in result.errors.iter().take(10) {
        eprintln!("perfbench: FAILED: request {i}: {e}");
    }
    let correct = result.errors.is_empty();
    println!(
        "{}",
        json_line(correct, result.attempted, result.failed, &result.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A metric value with its unit and sample count.
struct Metric {
    value: f64,
    unit: &'static str,
    samples: usize,
}

type Metrics = BTreeMap<String, Metric>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str, samples: usize) {
    m.insert(
        name.to_string(),
        Metric {
            value,
            unit,
            samples,
        },
    );
}

struct RunResult {
    attempted: u64,
    failed: u64,
    /// Failures by stream index ([`SETUP`] for set-up).
    errors: Vec<(u64, String)>,
    metrics: Metrics,
}

/// Linear-interpolation quantile of `values` (`q` in `[0, 1]`); 0 when
/// there are none.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Requests whose exact engine counts are reported, the same set on
/// every run of one seed.
fn count_prefix(workload: Workload) -> u64 {
    match workload {
        Workload::SweepHit => 40,
        Workload::ColdMix => 16,
        Workload::KvLarge => 2,
    }
}

fn run(args: &Args) -> RunResult {
    let workload = args.workload;
    let tag = format!(
        "{}-seed{}-{}",
        workload.name(),
        args.seed,
        std::process::id()
    );
    let out = Path::new(OUT_DIR);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut errors = Vec::new();

    // Set-up, several times; the last one is kept for the timed run.
    let mut setup_s = Vec::new();
    let mut kept: Option<(Stream, Option<Service>, Option<u64>)> = None;
    for k in 0..setups(workload) {
        if let Some((_, Some(svc), _)) = kept.take() {
            svc.stop();
        }
        let t0 = Instant::now();
        let stream = Stream::new(workload, args.seed);
        let warm = stream.warmup();
        let (svc, base_hash) = if workload.uses_daemon() {
            match Service::start(&out.join(format!("{tag}-setup{k}.jsonl")), workers) {
                Ok(svc) => match load::submit_and_wait(&svc.client(), &warm) {
                    Ok(rec) if rec.validated => {
                        let hash = (workload == Workload::SweepHit).then_some(rec.plan_hash);
                        (Some(svc), hash)
                    }
                    Ok(rec) => {
                        errors.push((SETUP, format!("warm-up: {} mismatches", rec.mismatches)));
                        (Some(svc), None)
                    }
                    Err(e) => {
                        errors.push((SETUP, format!("warm-up: {e}")));
                        (Some(svc), None)
                    }
                },
                Err(e) => {
                    errors.push((SETUP, format!("daemon start: {e}")));
                    (None, None)
                }
            }
        } else {
            let json = serde_json::to_string(&warm).expect("spec serializes");
            if let Err(e) = load::run_json(&json) {
                errors.push((SETUP, format!("warm-up: {e}")));
            }
            (None, None)
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some((stream, svc, base_hash));
    }
    let (stream, svc, base_hash) = kept.expect("at least one set-up");
    if !errors.is_empty() || (workload.uses_daemon() && svc.is_none()) {
        if let Some(svc) = svc {
            svc.stop();
        }
        return RunResult {
            attempted: 1,
            failed: 1,
            errors,
            metrics: Metrics::new(),
        };
    }

    // The timed run.
    let expect = Expect {
        cache_hit: workload == Workload::SweepHit,
        plan_hash: base_hash,
    };
    let cache_before = svc.as_ref().and_then(|s| s.client().cache().ok());
    let timed = match &svc {
        Some(svc) => {
            load::daemon_closed_loop(&svc.client(), &stream, CLIENTS, args.seconds, &expect)
        }
        None => load::in_process_loop(&stream, args.seconds),
    };
    let rss = peak_rss_mb();
    let cache_after = svc.as_ref().and_then(|s| s.client().cache().ok());
    let store_records = svc
        .as_ref()
        .and_then(|s| s.client().runs(None).ok())
        .map_or(0, |r| r.len());
    if let Some(svc) = svc {
        svc.stop();
    }
    for t in &timed.requests {
        if let Some(e) = &t.error {
            errors.push((t.index, e.clone()));
        }
    }

    // The replay: the prefix whose counts are reported plus every
    // REPLAY_STRIDE-th timed request, or with --trace 1 every timed
    // request, untraced and then traced.
    let done = timed.requests.len() as u64;
    let prefix = count_prefix(workload);
    let stride = if args.trace { 1 } else { REPLAY_STRIDE };
    let indices: Vec<u64> = (0..prefix).chain((prefix..done).step_by(stride)).collect();
    let threads = if workload.uses_daemon() { CLIENTS } else { 1 };
    let store = out.join(format!("{tag}-replay.jsonl"));
    let plain = replay::replay(&stream, &indices, threads, false, &store, base_hash);
    errors.extend(plain.errors.iter().cloned());
    errors.extend(compare(&timed, &plain.requests, &expect));
    let traced = args
        .trace
        .then(|| replay::replay(&stream, &indices, threads, true, &store, base_hash));
    if let Some(t) = &traced {
        errors.extend(t.errors.iter().cloned());
        errors.extend(compare(&timed, &t.requests, &expect));
    }

    // A request counts as failed once, whichever checks it failed.
    let attempted = (timed.requests.len() as u64).max(1);
    let failed_ids: std::collections::BTreeSet<u64> = errors.iter().map(|(i, _)| *i).collect();
    let failed = (failed_ids.len() as u64).min(attempted);

    let counts = exact_counts(&stream, &plain.requests, prefix);
    let metrics = match &traced {
        None => end_to_end(&timed, &setup_s, rss),
        Some(t) => {
            let cache = match (cache_before, cache_after) {
                (Some(b), Some(a)) => Some((a.hits - b.hits, a.misses - b.misses, a.entries)),
                _ => None,
            };
            let m = per_layer(&timed, &plain.requests, t, &counts, cache, store_records);
            write_trace(out, workload, args.seed, t, &timed, &m);
            m
        }
    };
    print_table(workload, args, &timed, &setup_s, rss, failed);
    let provenance = provenance(args, workers, &timed, &counts, &metrics);
    println!("{provenance}");
    let _ = std::fs::write(
        out.join(format!(
            "{}-seed{}-trace{}.json",
            workload.name(),
            args.seed,
            u8::from(args.trace)
        )),
        format!(
            "{provenance}\n{}\n",
            json_line(errors.is_empty(), attempted, failed, &metrics)
        ),
    );
    RunResult {
        attempted,
        failed,
        errors,
        metrics,
    }
}

/// Every replayed request the timed run also completed must have
/// produced bit-identical engine statistics, and the replay's cache
/// must have answered as the daemon's did.
fn compare(timed: &TimedRun, replayed: &[replay::Replayed], expect: &Expect) -> Vec<(u64, String)> {
    let by_index: BTreeMap<u64, &RunStats> = timed
        .requests
        .iter()
        .filter_map(|t| Some((t.index, t.stats.as_ref()?)))
        .collect();
    let cache = replayed.iter().filter_map(|r| {
        let wrong_hit = r.cache_hit.is_some_and(|hit| hit != expect.cache_hit);
        let wrong_hash =
            r.plan_hash.is_some() && expect.plan_hash.is_some_and(|h| r.plan_hash != Some(h));
        (wrong_hit || wrong_hash).then(|| {
            let e = format!(
                "replay cache hit {:?}, plan hash {:?}",
                r.cache_hit, r.plan_hash
            );
            (r.index, e)
        })
    });
    let stats = replayed.iter().filter_map(|r| {
        let (ours, theirs) = (r.stats.as_ref()?, by_index.get(&r.index)?);
        (ours != *theirs).then(|| {
            let e = format!(
                "replay stats differ from the timed run's (events {} vs {}, makespan {} vs {})",
                ours.events_processed, theirs.events_processed, ours.makespan, theirs.makespan
            );
            (r.index, e)
        })
    });
    cache.chain(stats).collect()
}

/// Exact engine counts over the stream's first scenario requests.
struct Counts {
    n: usize,
    events: u64,
    makespan: u64,
    peak_queue: u64,
}

fn exact_counts(stream: &Stream, replayed: &[replay::Replayed], prefix: u64) -> Counts {
    let mut c = Counts {
        n: 0,
        events: 0,
        makespan: 0,
        peak_queue: 0,
    };
    for r in replayed.iter().filter(|r| r.index < prefix) {
        if let (Some(s), Request::Scenario(_)) = (&r.stats, stream.request(r.index)) {
            c.n += 1;
            c.events += s.events_processed;
            c.makespan += s.makespan;
            c.peak_queue = c.peak_queue.max(s.peak_queue_depth);
        }
    }
    c
}

fn scenario_latencies(timed: &TimedRun) -> Vec<f64> {
    timed
        .requests
        .iter()
        .filter(|t| !t.query && t.error.is_none())
        .map(|t| t.latency_ms)
        .collect()
}

fn end_to_end(timed: &TimedRun, setups: &[f64], rss: f64) -> Metrics {
    let mut m = Metrics::new();
    let lat = scenario_latencies(timed);
    let events: u64 = timed
        .requests
        .iter()
        .filter(|t| t.error.is_none())
        .filter_map(|t| t.stats.as_ref())
        .map(|s| s.events_processed)
        .sum();
    let n = lat.len();
    put(&mut m, "latency_p50_ms", quantile(&lat, 0.5), "ms", n);
    put(&mut m, "latency_p90_ms", quantile(&lat, 0.9), "ms", n);
    put(&mut m, "throughput_rps", n as f64 / timed.wall_s, "1/s", n);
    put(
        &mut m,
        "sim_events_per_s",
        events as f64 / timed.wall_s,
        "1/s",
        n,
    );
    put(&mut m, "setup_s", quantile(setups, 0.5), "s", setups.len());
    put(&mut m, "peak_rss_mb", rss, "MB", 1);
    m
}

/// The replay's layer spans; `<span>_ms` is the p50 of its self time.
const SPANS: &[&str] = &[
    "scenario.parse",
    "placement.ready",
    "plan_key.build",
    "cache.wait",
    "lowering.build",
    "delta.apply",
    "reference.execute",
    "engine.run",
    "validate.run",
    "store.append",
    "store.load_all",
];

fn layer_of(span: &str) -> &str {
    span.split('.').next().unwrap_or(span)
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn per_layer(
    timed: &TimedRun,
    untraced: &[replay::Replayed],
    traced: &replay::Replay,
    counts: &Counts,
    cache: Option<(u64, u64, u64)>,
    store_records: usize,
) -> Metrics {
    let mut m = Metrics::new();
    let ok = || timed.requests.iter().filter(|t| t.error.is_none());
    // Client-side phases exist only over the daemon.
    let phase = |f: fn(&load::Timed) -> f64| -> Vec<f64> {
        match cache {
            Some(_) => ok().filter(|t| !t.query).map(f).collect(),
            None => Vec::new(),
        }
    };
    for (name, v) in [
        ("http.submit_ms", phase(|t| t.submit_ms)),
        ("http.wait_to_start_ms", phase(|t| t.wait_to_start_ms)),
        ("http.run_to_done_ms", phase(|t| t.run_to_done_ms)),
        (
            "http.query_ms",
            ok().filter(|t| t.query).map(|t| t.latency_ms).collect(),
        ),
    ] {
        put(&mut m, name, quantile(&v, 0.5), "ms", v.len());
    }

    let times = spans::per_request(&traced.spans);
    for span in SPANS {
        let v: Vec<f64> = times
            .values()
            .filter_map(|r| r.self_ns.get(span))
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        put(
            &mut m,
            &format!("{span}_ms"),
            quantile(&v, 0.5),
            "ms",
            v.len(),
        );
    }
    let total: u64 = times.values().map(|r| r.total_ns).sum();
    let mut layers: Vec<&str> = SPANS.iter().map(|s| layer_of(s)).collect();
    layers.dedup();
    layers.push(spans::ROOT);
    for layer in layers {
        let own: u64 = times.values().map(|r| layer_self(r, layer)).sum();
        let share = ratio(own as f64, total as f64);
        put(
            &mut m,
            &format!("{layer}.self_share"),
            share,
            "ratio",
            times.len(),
        );
    }

    let rs = &traced.requests;
    let sizes = |f: fn(&replay::Replayed) -> usize| -> Vec<f64> {
        rs.iter()
            .map(f)
            .filter(|&b| b > 0)
            .map(|b| b as f64)
            .collect()
    };
    for (name, v) in [
        ("scenario.json_bytes", sizes(|r| r.json_bytes)),
        ("plan_key.bytes", sizes(|r| r.key_bytes)),
    ] {
        put(&mut m, name, quantile(&v, 0.5), "bytes", v.len());
    }
    let events: u64 = rs
        .iter()
        .filter_map(|r| r.stats.as_ref())
        .map(|s| s.events_processed)
        .sum();
    let engine_ns: u64 = times
        .values()
        .filter_map(|r| r.self_ns.get("engine.run"))
        .sum();
    let eps = ratio(events as f64, engine_ns as f64 / 1e9);
    put(&mut m, "engine.events_per_s", eps, "1/s", rs.len());
    put(
        &mut m,
        "engine.events",
        counts.events as f64,
        "count",
        counts.n,
    );
    put(
        &mut m,
        "engine.makespan_ticks",
        counts.makespan as f64,
        "ticks",
        counts.n,
    );
    put(
        &mut m,
        "engine.peak_queue_depth",
        counts.peak_queue as f64,
        "count",
        counts.n,
    );

    let (hits, misses, entries) = cache.unwrap_or((0, 0, 0));
    let lookups = hits + misses;
    put(&mut m, "cache.hits", hits as f64, "count", 1);
    put(&mut m, "cache.misses", misses as f64, "count", 1);
    put(&mut m, "cache.entries", entries as f64, "count", 1);
    let hit_ratio = ratio(hits as f64, lookups as f64);
    put(
        &mut m,
        "cache.hit_ratio",
        hit_ratio,
        "ratio",
        lookups as usize,
    );
    put(&mut m, "store.records", store_records as f64, "count", 1);

    // Tracing overhead: the traced replay's request time minus the
    // untraced replay's, over the same requests.
    let sum_ns = |r: &[replay::Replayed]| r.iter().map(|x| x.ns).sum::<u64>() as f64;
    let (plain, with) = (sum_ns(untraced), sum_ns(rs));
    let per_request = ratio(with - plain, rs.len() as f64) / 1e6;
    put(&mut m, "trace.overhead_ms", per_request, "ms", rs.len());
    put(
        &mut m,
        "trace.overhead_share",
        ratio(with - plain, plain),
        "ratio",
        rs.len(),
    );
    m
}

fn layer_self(r: &RequestTimes, layer: &str) -> u64 {
    r.self_ns
        .iter()
        .filter(|(name, _)| layer_of(name) == layer)
        .map(|(_, ns)| ns)
        .sum()
}

/// Write the spans and the self-time summary of a traced run.
fn write_trace(
    out: &Path,
    workload: Workload,
    seed: u64,
    traced: &replay::Replay,
    timed: &TimedRun,
    metrics: &Metrics,
) {
    let stem = format!("{}-seed{seed}", workload.name());
    let _ = std::fs::write(
        out.join(format!("{stem}-spans.jsonl")),
        spans::to_jsonl(&traced.spans),
    );
    let table = self_time_table(workload, traced, timed, metrics);
    print!("{table}");
    let _ = std::fs::write(out.join(format!("{stem}-layers.txt")), table);
}

fn self_time_table(
    workload: Workload,
    traced: &replay::Replay,
    timed: &TimedRun,
    metrics: &Metrics,
) -> String {
    let times = spans::per_request(&traced.spans);
    let total: u64 = times.values().map(|r| r.total_ns).sum();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# {}: self time per span over {} replayed requests ({:.1} ms traced)",
        workload.name(),
        times.len(),
        total as f64 / 1e6
    );
    let _ = writeln!(
        s,
        "{:<20} {:>8} {:>12} {:>12} {:>7}",
        "span", "calls", "p50_ms", "total_ms", "share"
    );
    let mut names: Vec<&str> = SPANS.to_vec();
    names.push(spans::ROOT);
    let mut sum = 0u64;
    for name in names {
        let v: Vec<u64> = times
            .values()
            .filter_map(|r| r.self_ns.get(name).copied())
            .collect();
        let own: u64 = v.iter().sum();
        sum += own;
        let ms: Vec<f64> = v.iter().map(|&ns| ns as f64 / 1e6).collect();
        let _ = writeln!(
            s,
            "{:<20} {:>8} {:>12.4} {:>12.3} {:>6.1}%",
            name,
            v.len(),
            quantile(&ms, 0.5),
            own as f64 / 1e6,
            ratio(own as f64, total as f64) * 100.0
        );
    }
    let _ = writeln!(
        s,
        "{:<20} {:>8} {:>12} {:>12.3} {:>6.1}%",
        "(sum of self times)",
        "",
        "",
        sum as f64 / 1e6,
        ratio(sum as f64, total as f64) * 100.0
    );
    if workload.uses_daemon() {
        let lat: f64 = scenario_latencies(timed).iter().sum();
        let _ = writeln!(
            s,
            "# {}: client-side phases of the timed daemon run",
            workload.name()
        );
        let _ = writeln!(s, "{:<24} {:>12} {:>7}", "phase", "p50_ms", "share");
        let scen = || {
            timed
                .requests
                .iter()
                .filter(|t| !t.query && t.error.is_none())
        };
        for (name, sum) in [
            ("http.submit_ms", scen().map(|t| t.submit_ms).sum::<f64>()),
            (
                "http.wait_to_start_ms",
                scen().map(|t| t.wait_to_start_ms).sum(),
            ),
            (
                "http.run_to_done_ms",
                scen().map(|t| t.run_to_done_ms).sum(),
            ),
        ] {
            let _ = writeln!(
                s,
                "{:<24} {:>12.4} {:>6.1}%",
                name,
                metrics.get(name).map_or(0.0, |m| m.value),
                ratio(sum, lat) * 100.0
            );
        }
    }
    s
}

fn print_table(
    workload: Workload,
    args: &Args,
    timed: &TimedRun,
    setups: &[f64],
    rss: f64,
    failed: u64,
) {
    // All eight end-to-end metrics, whichever mode the run is in; the
    // ones a workload does not have read n/a.
    let e2e = end_to_end(timed, setups, rss);
    let query: Vec<f64> = timed
        .requests
        .iter()
        .filter(|t| t.query && t.error.is_none())
        .map(|t| t.latency_ms)
        .collect();
    println!(
        "# {} seed {} ({} s, trace {}): end-to-end",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, m) in &e2e {
        let na = name == "latency_p90_ms" && m.samples < 100;
        let note = if na { " (fewer than 100 samples)" } else { "" };
        println!(
            "{name:<22} {:>14.4} {:<6} n={}{note}",
            m.value, m.unit, m.samples
        );
    }
    if query.is_empty() {
        println!("{:<22} {:>14} {:<6}", "query_latency_p50_ms", "n/a", "ms");
    } else {
        println!(
            "{:<22} {:>14.4} {:<6} n={}",
            "query_latency_p50_ms",
            quantile(&query, 0.5),
            "ms",
            query.len()
        );
    }
    let attempted = timed.requests.len().max(1);
    println!(
        "{:<22} {:>14.4} {:<6} n={attempted}",
        "failed_frac",
        failed as f64 / attempted as f64,
        "ratio"
    );
}

fn command_output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the repository's Rust sources and manifests, so a result
/// names the code it measured even outside a git checkout.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.push(PathBuf::from("Cargo.toml"));
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!(
        "{:016x} ({} files)",
        overlap_sim::fnv1a(&bytes),
        files.len()
    )
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("string serializes")
}

fn provenance(
    args: &Args,
    workers: usize,
    timed: &TimedRun,
    counts: &Counts,
    metrics: &Metrics,
) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only a repository rooted here names the measured code; a checkout
    // unpacked inside some other repository must not borrow its commit.
    let here = std::env::current_dir().and_then(std::fs::canonicalize).ok();
    let commit = command_output("git", &["rev-parse", "--show-toplevel", "HEAD"])
        .and_then(|out| {
            let (top, head) = out.split_once('\n')?;
            (std::fs::canonicalize(top).ok() == here).then(|| head.to_string())
        })
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let samples: Vec<String> = metrics
        .iter()
        .map(|(name, m)| format!("{}:{}", json_str(name), m.samples))
        .collect();
    let scenarios = timed.requests.iter().filter(|t| !t.query).count();
    let reads = timed.requests.len() - scenarios;
    format!(
        concat!(
            r#"{{"provenance":{{"workload":{},"seed":{},"seconds":{},"trace":{},"#,
            r#""nproc":{},"cpu_model":{},"rustc":{},"git_commit":{},"source_fnv":{},"#,
            r#""clients":{},"daemon_workers":{},"setups":{},"scenarios":{},"history_reads":{},"#,
            r#""wall_s":{},"count_prefix_requests":{},"prefix_events":{},"prefix_makespan":{},"#,
            r#""samples":{{{}}}}}}}"#
        ),
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workers,
        json_str(&cpu),
        json_str(&rustc),
        json_str(&commit),
        json_str(&source_fingerprint()),
        if args.workload.uses_daemon() {
            CLIENTS
        } else {
            1
        },
        if args.workload.uses_daemon() {
            workers
        } else {
            0
        },
        setups(args.workload),
        scenarios,
        reads,
        timed.wall_s,
        counts.n,
        counts.events,
        counts.makespan,
        samples.join(","),
    )
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                r#"{}:{{"value":{},"unit":{}}}"#,
                json_str(name),
                if m.value.is_finite() { m.value } else { 0.0 },
                json_str(m.unit),
            )
        })
        .collect();
    format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        body.join(",")
    )
}
