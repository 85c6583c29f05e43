//! `overlap-cli` — explore latency-hiding simulations from the command line.
//!
//! ```text
//! overlap-cli [--host <topo>] [--delays <model>] [--guest <shape>]
//!             [--steps N] [--strategy <s>] [--seed N] [--engine <e>]
//!             [--faults <f>]...
//! overlap-cli fuzz [--seed N] [--cases K] [--dag]
//! overlap-cli serve [--addr A] [--workers N] [--store FILE]
//! overlap-cli submit [--addr A] [--wait] <scenario flags as above>
//! overlap-cli session|watch|pause|resume|cancel <ID> [--addr A]
//! overlap-cli runs [--hash H] [--addr A]
//! overlap-cli cache|stop-daemon [--addr A]
//!
//!   fuzz        differential fuzzing: sample K random scenarios (guest,
//!               host, delays, assignment, costs, faults, multicast,
//!               memory budgets), lower each once and run every legal
//!               engine plus the parallel reference over the shared plan,
//!               auditing state agreement and the invariant catalogue.
//!               Failures are shrunk to a minimal repro printed as a
//!               paste-able regression test; exits non-zero on any
//!               divergence. --dag forces every scenario onto a
//!               task-graph guest (random layered DAGs, wavefronts,
//!               fork-joins) with memory budgets twice as likely.
//!
//!   --host      line:N | ring:N | mesh:WxH | torus:WxH | hypercube:D |
//!               tree:LEVELS | rreg:N:DEG | bfly:K | ccc:K |
//!               geo:N:RADIUS_PCT:MAXDELAY | cliques:K | h1:N | h2:N
//!               (default line:32)
//!   --delays    const:D | uniform:LO:HI | bimodal:LO:HI:PCT |
//!               heavy:MIN:ALPHAx100:CAP | spike:BASE:SPIKE:PERIOD
//!               (default uniform:1:9; ignored by cliques/h1/h2)
//!   --guest     line:M | ring:M | mesh:WxH | torus:WxH | mesh3:WxHxD |
//!               btree:LEVELS    (default line:2×host)
//!   --steps     guest steps to simulate (default 64)
//!   --strategy  auto | overlap[:C] | halo[:W] | combined[:C:L] | blocked |
//!               slackness | all-on-one   (default overlap:4; grid guests
//!               always use the Theorem 8 pipeline)
//!   --engine    event | lockstep | sharded  (default event;
//!               line/ring only; sharded is the conservative-parallel
//!               engine, bit-identical to event)
//!   --threads   worker threads for --engine sharded (default: all cores;
//!               an explicit 0 is rejected with a typed error)
//!   --faults    down:A:B:FROM:UNTIL | spike:A:B:FROM:UNTIL:FACTOR |
//!               crash:P:AT | rand:PCT  (repeatable; injects deterministic
//!               link outages / delay spikes / processor crashes; rand:PCT
//!               draws seeded outages totalling ~PCT% downtime per link;
//!               event engine only)
//!   --seed        RNG seed (default 42)
//!   --trace-json  FILE — run with stall attribution and write the full
//!                 trace report (per-copy stall breakdown, link occupancy
//!                 and queue-depth series) as JSON; also prints a stall
//!                 summary line (event engine, line/ring guests only)
//!   --analyze     print host statistics, embedding quality and the Auto
//!                 strategy recommendation instead of simulating
//!   --dot         print the host as Graphviz DOT and exit
//! ```
//!
//! Prints the validated report: slowdown, load, redundancy, messages, and
//! the predicted bound where the strategy has one.

use overlap::core::mesh::simulate_mesh_on_host;
use overlap::daemon::{Client, Daemon, DaemonConfig, Event, JsonlStore, MemStore};
use overlap::net::metrics::DelayStats;
use overlap::{
    topology, DelayModel, EngineKind, Error, FaultPlan, GuestSpec, GuestTopology, HostGraph,
    ProgramKind, ScenarioSpec, Simulation, Strategy, TraceConfig,
};
use std::process::exit;

const DEFAULT_ADDR: &str = "127.0.0.1:7341";

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n\nrun with --help for usage");
    exit(2)
}

fn parse_nums(s: &str) -> Vec<u64> {
    s.split(&[':', 'x'][..])
        .skip(1)
        .map(|p| {
            p.parse()
                .unwrap_or_else(|_| usage(&format!("bad number in '{s}'")))
        })
        .collect()
}

fn parse_delays(spec: &str) -> DelayModel {
    let v = parse_nums(spec);
    let need = |k: usize| {
        if v.len() != k {
            usage(&format!("'{spec}' needs {k} parameters"));
        }
    };
    if spec.starts_with("const") {
        need(1);
        DelayModel::Constant(v[0])
    } else if spec.starts_with("uniform") {
        need(2);
        DelayModel::Uniform { lo: v[0], hi: v[1] }
    } else if spec.starts_with("bimodal") {
        need(3);
        DelayModel::Bimodal {
            lo: v[0],
            hi: v[1],
            p_hi: v[2] as f64 / 100.0,
        }
    } else if spec.starts_with("heavy") {
        need(3);
        DelayModel::HeavyTail {
            min: v[0],
            alpha: v[1] as f64 / 100.0,
            cap: v[2],
        }
    } else if spec.starts_with("spike") {
        need(3);
        DelayModel::Spike {
            base: v[0],
            spike: v[1],
            period: v[2],
        }
    } else {
        usage(&format!("unknown delay model '{spec}'"))
    }
}

fn parse_host(spec: &str, dm: DelayModel, seed: u64) -> HostGraph {
    let v = parse_nums(spec);
    let get = |i: usize| {
        *v.get(i)
            .unwrap_or_else(|| usage(&format!("'{spec}' needs more parameters"))) as u32
    };
    if spec.starts_with("line") {
        topology::linear_array(get(0), dm, seed)
    } else if spec.starts_with("ring") {
        topology::ring(get(0), dm, seed)
    } else if spec.starts_with("mesh") {
        topology::mesh2d(get(0), get(1), dm, seed)
    } else if spec.starts_with("torus") {
        topology::torus2d(get(0), get(1), dm, seed)
    } else if spec.starts_with("hypercube") {
        topology::hypercube(get(0), dm, seed)
    } else if spec.starts_with("tree") {
        topology::binary_tree(get(0), dm, seed)
    } else if spec.starts_with("rreg") {
        topology::random_regular(get(0), get(1), dm, seed)
    } else if spec.starts_with("bfly") {
        topology::butterfly(get(0), dm, seed)
    } else if spec.starts_with("ccc") {
        topology::cube_connected_cycles(get(0), dm, seed)
    } else if spec.starts_with("geo") {
        topology::geometric(get(0), get(1) as f64 / 100.0, get(2) as u64, seed)
    } else if spec.starts_with("cliques") {
        topology::clique_of_cliques(get(0))
    } else if spec.starts_with("h1") {
        topology::h1_lower_bound(get(0))
    } else if spec.starts_with("h2") {
        topology::h2_recursive_boxes(get(0)).graph
    } else {
        usage(&format!("unknown host '{spec}'"))
    }
}

fn parse_guest(spec: &str, seed: u64, steps: u32) -> GuestSpec {
    let v = parse_nums(spec);
    let get = |i: usize| {
        *v.get(i)
            .unwrap_or_else(|| usage(&format!("'{spec}' needs more parameters"))) as u32
    };
    let pk = ProgramKind::KvWorkload;
    if spec.starts_with("line") {
        GuestSpec::array(get(0), pk, seed, steps)
    } else if spec.starts_with("ring") {
        GuestSpec::ring(get(0), pk, seed, steps)
    } else if spec.starts_with("mesh3") {
        GuestSpec::mesh3(get(0), get(1), get(2), pk, seed, steps)
    } else if spec.starts_with("btree") {
        GuestSpec::tree(get(0), pk, seed, steps)
    } else if spec.starts_with("mesh") {
        GuestSpec::mesh(get(0), get(1), pk, seed, steps)
    } else if spec.starts_with("torus") {
        GuestSpec::torus(get(0), get(1), pk, seed, steps)
    } else {
        usage(&format!("unknown guest '{spec}'"))
    }
}

fn parse_strategy(spec: &str) -> Strategy {
    let v = parse_nums(spec);
    if spec.starts_with("auto") {
        Strategy::Auto
    } else if spec.starts_with("overlap") {
        Strategy::Overlap {
            c: v.first().map(|&c| c as f64).unwrap_or(4.0),
        }
    } else if spec.starts_with("halo") {
        Strategy::Halo {
            halo: v.first().map(|&w| w as u32).unwrap_or(1),
        }
    } else if spec.starts_with("combined") {
        Strategy::Combined {
            c: v.first().map(|&c| c as f64).unwrap_or(4.0),
            expansion: v.get(1).map(|&l| l as u32).unwrap_or(2),
        }
    } else if spec.starts_with("blocked") {
        Strategy::Blocked
    } else if spec.starts_with("slackness") {
        Strategy::Slackness
    } else if spec.starts_with("all-on-one") {
        Strategy::AllOnOne
    } else {
        usage(&format!("unknown strategy '{spec}'"))
    }
}

/// Fold every `--faults` occurrence into one [`FaultPlan`].
fn parse_faults(args: &[String], host: &HostGraph, seed: u64, horizon: u64) -> Option<FaultPlan> {
    let mut plan = FaultPlan::new();
    let mut any = false;
    for (i, a) in args.iter().enumerate() {
        if a != "--faults" {
            continue;
        }
        let spec = args
            .get(i + 1)
            .unwrap_or_else(|| usage("--faults needs a value"));
        let v = parse_nums(spec);
        let get = |i: usize| {
            *v.get(i)
                .unwrap_or_else(|| usage(&format!("'{spec}' needs more parameters")))
        };
        any = true;
        plan = if spec.starts_with("down") {
            plan.link_down(get(0) as u32, get(1) as u32, get(2), get(3))
        } else if spec.starts_with("spike") {
            plan.delay_spike(get(0) as u32, get(1) as u32, get(2), get(3), get(4) as u32)
        } else if spec.starts_with("crash") {
            plan.crash(get(0) as u32, get(1))
        } else if spec.starts_with("rand") {
            plan.with_random_outages(
                host,
                seed,
                get(0) as f64 / 100.0,
                (horizon / 16).max(8),
                horizon,
            )
        } else {
            usage(&format!("unknown fault '{spec}'"))
        };
    }
    any.then_some(plan)
}

fn opt_in(args: &[String], name: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

/// Resolve `--engine`/`--threads` into an [`EngineKind`]. An *absent*
/// `--threads` means "all cores"; an explicit `--threads 0` is passed
/// through so the builder rejects it with `Error::InvalidConfig` (it
/// used to be silently treated as the default).
fn parse_engine(engine: &str, args: &[String]) -> EngineKind {
    match engine {
        "event" => EngineKind::Event,
        "lockstep" => EngineKind::Lockstep,
        "sharded" => {
            let given = args.iter().any(|a| a == "--threads");
            let threads: usize = opt_in(args, "--threads", "0")
                .parse()
                .unwrap_or_else(|_| usage("bad --threads"));
            EngineKind::Sharded {
                threads: if threads == 0 && !given {
                    std::thread::available_parallelism().map_or(1, |n| n.get())
                } else {
                    threads
                },
            }
        }
        other => usage(&format!("unknown engine '{other}'")),
    }
}

fn engine_feature_label(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::Event => "event",
        EngineKind::Lockstep => "lockstep",
        EngineKind::Sharded { .. } => "sharded",
    }
}

/// Build a [`ScenarioSpec`] from the standard scenario flags (used by
/// `submit`; mirrors the local simulation path).
fn parse_scenario(args: &[String]) -> ScenarioSpec {
    let seed: u64 = opt_in(args, "--seed", "42")
        .parse()
        .unwrap_or_else(|_| usage("bad --seed"));
    let steps: u32 = opt_in(args, "--steps", "64")
        .parse()
        .unwrap_or_else(|_| usage("bad --steps"));
    let dm = parse_delays(&opt_in(args, "--delays", "uniform:1:9"));
    let host = parse_host(&opt_in(args, "--host", "line:32"), dm, seed);
    let default_guest = format!("line:{}", 2 * host.num_nodes());
    let guest = parse_guest(&opt_in(args, "--guest", &default_guest), seed, steps);
    let strategy = parse_strategy(&opt_in(args, "--strategy", "overlap:4"));
    let engine = parse_engine(&opt_in(args, "--engine", "event"), args);
    let stats = DelayStats::of(&host);
    let horizon = steps as u64 * (stats.d_max + 2);
    let faults = parse_faults(args, &host, seed, horizon);
    let trace = args.iter().any(|a| a == "--trace");
    let mut spec = ScenarioSpec::new(guest, host);
    spec.strategy = strategy;
    spec.engine = engine;
    spec.faults = faults;
    spec.trace = trace;
    spec
}

fn describe_event(e: &Event) -> String {
    match e {
        Event::Queued => "queued".into(),
        Event::Started { cache_hit } => format!(
            "started ({})",
            if *cache_hit {
                "plan-cache hit"
            } else {
                "plan lowered"
            }
        ),
        Event::Progress { done } => format!("progress: {done} dispatch units"),
        Event::Paused => "paused".into(),
        Event::Resumed => "resumed".into(),
        Event::Stalls { totals } => format!(
            "stalls: compute {} dep {} bw {} order {} fault {} drained {}",
            totals.compute_ticks,
            totals.stall_dependency,
            totals.stall_bandwidth,
            totals.stall_db_order,
            totals.stall_fault,
            totals.stall_drained
        ),
        Event::Done { record } => format!(
            "done: makespan {} slowdown {:.2} validated {} (run #{}, plan {:#018x})",
            record.stats.makespan,
            record.stats.slowdown,
            record.validated,
            record.run_id,
            record.plan_hash
        ),
        Event::Failed { error } => format!("FAILED: {error}"),
        Event::Cancelled { at } => format!("cancelled after {at} dispatch units"),
    }
}

/// `overlap-cli serve` — run the daemon until a client stops it.
fn serve_main(args: &[String]) -> ! {
    let addr = opt_in(args, "--addr", DEFAULT_ADDR);
    let workers: usize = opt_in(args, "--workers", "0")
        .parse()
        .unwrap_or_else(|_| usage("bad --workers"));
    let workers = if workers == 0 {
        std::thread::available_parallelism().map_or(2, |n| n.get())
    } else {
        workers
    };
    let store: Box<dyn overlap::daemon::RunStore> = match opt_in(args, "--store", "").as_str() {
        "" => Box::new(MemStore::new()),
        path => Box::new(JsonlStore::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open store {path}: {e}");
            exit(1)
        })),
    };
    let daemon = std::sync::Arc::new(Daemon::start(DaemonConfig { workers, store }));
    let mut server =
        overlap::daemon::serve(std::sync::Arc::clone(&daemon), &addr).unwrap_or_else(|e| {
            eprintln!("cannot bind {addr}: {e}");
            exit(1)
        });
    println!(
        "overlap-daemon listening on {} ({workers} workers)",
        server.addr()
    );
    while !daemon.is_shut_down() {
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    server.stop();
    println!("daemon stopped");
    exit(0)
}

/// Client subcommands (`submit`, `session`, `watch`, …).
fn client_main(cmd: &str, args: &[String]) -> ! {
    let addr = opt_in(args, "--addr", DEFAULT_ADDR);
    let client = Client::new(addr);
    let fail = |e: overlap::daemon::ClientError| -> ! {
        eprintln!("{e}");
        exit(1)
    };
    let session_arg = || -> u64 {
        args.iter()
            .find(|a| !a.starts_with("--"))
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| usage(&format!("'{cmd}' needs a session id")))
    };
    let watch = |client: &Client, id: u64| {
        let mut next = 0;
        loop {
            let resp = client.events(id, next, 5_000).unwrap_or_else(|e| fail(e));
            for e in &resp.events {
                println!("session {id}: {}", describe_event(e));
                match e {
                    Event::Failed { .. } => exit(1),
                    Event::Done { .. } | Event::Cancelled { .. } => exit(0),
                    _ => {}
                }
            }
            next = resp.next;
        }
    };
    match cmd {
        "submit" => {
            let spec = parse_scenario(args);
            let id = client.submit(&spec).unwrap_or_else(|e| fail(e));
            println!("session {id} accepted");
            if args.iter().any(|a| a == "--wait") {
                watch(&client, id);
            }
            exit(0)
        }
        "session" => {
            let view = client.status(session_arg()).unwrap_or_else(|e| fail(e));
            println!(
                "session {}: {:?}, progress {} dispatch units, plan {:#018x}, {} events",
                view.id, view.status, view.progress, view.plan_hash, view.events
            );
            exit(0)
        }
        "watch" => watch(&client, session_arg()),
        "pause" | "resume" | "cancel" => {
            let id = session_arg();
            match cmd {
                "pause" => client.pause(id),
                "resume" => client.resume(id),
                _ => client.cancel(id),
            }
            .unwrap_or_else(|e| fail(e));
            println!("session {id}: {cmd} requested");
            exit(0)
        }
        "runs" => {
            let hash = args
                .iter()
                .position(|a| a == "--hash")
                .and_then(|i| args.get(i + 1))
                .map(|h| {
                    let h = h.trim_start_matches("0x");
                    u64::from_str_radix(h, 16)
                        .or_else(|_| h.parse())
                        .unwrap_or_else(|_| usage("bad --hash"))
                });
            let runs = client.runs(hash).unwrap_or_else(|e| fail(e));
            for r in &runs {
                println!(
                    "run #{:<4} session {:<4} plan {:#018x} {:10} {:24} makespan {:8} slowdown {:6.2} validated {} {}",
                    r.run_id,
                    r.session,
                    r.plan_hash,
                    r.engine,
                    r.strategy,
                    r.stats.makespan,
                    r.stats.slowdown,
                    r.validated,
                    if r.cache_hit { "[cache hit]" } else { "[lowered]" }
                );
            }
            println!("{} run(s)", runs.len());
            exit(0)
        }
        "cache" => {
            let c = client.cache().unwrap_or_else(|e| fail(e));
            println!(
                "plan cache: {} hits, {} misses, {} cached plan(s)",
                c.hits, c.misses, c.entries
            );
            exit(0)
        }
        "stop-daemon" => {
            client.shutdown().unwrap_or_else(|e| fail(e));
            println!("daemon asked to stop");
            exit(0)
        }
        other => usage(&format!("unknown subcommand '{other}'")),
    }
}

/// `overlap-cli fuzz --seed N --cases K` — stream the differential fuzzer
/// with progress lines, printing a shrunk paste-able repro per divergence.
fn fuzz_main(args: &[String]) -> ! {
    use overlap::sim::fuzz::{check_spec, gen_spec, gen_spec_dag, shrink, Divergence};
    let opt = |name: &str, default: &str| -> String {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| default.to_string())
    };
    let seed: u64 = opt("--seed", "0")
        .parse()
        .unwrap_or_else(|_| usage("bad --seed"));
    let cases: u64 = opt("--cases", "1000")
        .parse()
        .unwrap_or_else(|_| usage("bad --cases"));
    let dag = args.iter().any(|a| a == "--dag");
    let profile = if dag { " [dag profile]" } else { "" };
    println!(
        "fuzzing {cases} scenarios (seed {seed}){profile} across \
         event/sharded/lockstep/classic/reference…"
    );
    let mut divergences = 0u64;
    for case in 0..cases {
        let spec = if dag {
            gen_spec_dag(seed, case)
        } else {
            gen_spec(seed, case)
        };
        if check_spec(&spec).is_err() {
            divergences += 1;
            let (min, detail) = shrink(&spec);
            let d = Divergence {
                case,
                spec: min,
                detail,
            };
            println!("\ncase {case} DIVERGED:\n  {}", d.detail);
            println!(
                "\nminimal repro (paste into tests/fuzz_regressions.rs):\n{}",
                d.repro_test(&format!("fuzz_repro_seed{seed}_case{case}"))
            );
        }
        if (case + 1) % 250 == 0 || case + 1 == cases {
            println!(
                "  {}/{cases} checked, {divergences} divergence(s)",
                case + 1
            );
        }
    }
    if divergences > 0 {
        eprintln!("FAIL: {divergences} divergence(s) in {cases} cases");
        exit(1)
    }
    println!("OK: no divergences in {cases} cases");
    exit(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fuzz") => fuzz_main(&args[1..]),
        Some("serve") => serve_main(&args[1..]),
        Some(
            cmd @ ("submit" | "session" | "watch" | "pause" | "resume" | "cancel" | "runs"
            | "cache" | "stop-daemon"),
        ) => client_main(cmd, &args[1..]),
        _ => {}
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        // The module doc is the help text.
        println!("overlap-cli — latency-hiding simulations (SPAA'96 reproduction)\n");
        println!(
            "{}",
            include_str!("overlap-cli.rs")
                .lines()
                .take_while(|l| l.starts_with("//!"))
                .map(|l| l.trim_start_matches("//!").trim_start_matches(' '))
                .collect::<Vec<_>>()
                .join("\n")
        );
        return;
    }
    let opt = |name: &str, default: &str| -> String {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| default.to_string())
    };
    let seed: u64 = opt("--seed", "42")
        .parse()
        .unwrap_or_else(|_| usage("bad --seed"));
    let steps: u32 = opt("--steps", "64")
        .parse()
        .unwrap_or_else(|_| usage("bad --steps"));
    let dm = parse_delays(&opt("--delays", "uniform:1:9"));
    let host = parse_host(&opt("--host", "line:32"), dm, seed);
    let default_guest = format!("line:{}", 2 * host.num_nodes());
    let guest = parse_guest(&opt("--guest", &default_guest), seed, steps);
    let strategy_spec = opt("--strategy", "overlap:4");
    let engine = opt("--engine", "event");

    let stats = DelayStats::of(&host);
    if args.iter().any(|a| a == "--dot") {
        print!("{}", host.to_dot());
        return;
    }
    if args.iter().any(|a| a == "--analyze") {
        use overlap::core::general::embedded_array_stats;
        use overlap::core::pipeline::{host_as_array, resolve_auto};
        use overlap::net::metrics::DistanceStats;
        println!(
            "host      : {} — {} nodes, {} links",
            host.name(),
            host.num_nodes(),
            host.num_links()
        );
        println!(
            "delays    : d_ave {:.2}, d_max {}, d_min {}",
            stats.d_ave, stats.d_max, stats.d_min
        );
        println!("degree    : max {}", host.max_degree());
        if host.num_nodes() <= 4096 {
            let dist = DistanceStats::of(&host);
            println!(
                "distances : diameter {} (delay-weighted), mean {:.1}",
                dist.diameter, dist.mean_distance
            );
        }
        let e = embedded_array_stats(&host);
        println!(
            "embedding : dilation {}, array d_ave {:.2} (host d_ave × {:.2})",
            e.dilation,
            e.array_d_ave,
            e.array_d_ave / e.host_d_ave.max(1e-9)
        );
        let (_, delays, _) = host_as_array(&host);
        println!("auto pick : {}", resolve_auto(&delays).label());
        return;
    }
    println!(
        "host    : {} — {} nodes, d_ave {:.2}, d_max {}",
        host.name(),
        host.num_nodes(),
        stats.d_ave,
        stats.d_max
    );
    println!(
        "guest   : {:?} — {} cells × {} steps",
        guest.topology,
        guest.num_cells(),
        guest.steps
    );

    // Horizon estimate for random fault generation: the run's tick count
    // is unknown up front, so scale the guest length by the delay spread.
    let horizon = steps as u64 * (stats.d_max + 2);
    let faults = parse_faults(&args, &host, seed, horizon);
    let trace_json: Option<String> = args.iter().position(|a| a == "--trace-json").map(|i| {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage("--trace-json needs a file path"))
    });

    let report = match guest.topology {
        GuestTopology::Line { .. } | GuestTopology::Ring { .. } => {
            let strategy = parse_strategy(&strategy_spec);
            let kind = parse_engine(&engine, &args);
            // Tracing is event-engine-only; say so before planning the
            // placement rather than after (and with the same typed error
            // the builder would produce).
            if trace_json.is_some() && kind != EngineKind::Event {
                let err = Error::Unsupported {
                    engine: engine_feature_label(kind),
                    feature: "stall-attribution tracing",
                };
                eprintln!("simulation failed: {err}");
                exit(1);
            }
            let mut builder = Simulation::of(&guest)
                .on(&host)
                .strategy(strategy)
                .engine(kind);
            if let Some(plan) = faults {
                builder = builder.faults(plan);
            }
            if trace_json.is_some() {
                builder = builder.trace(TraceConfig::default());
            }
            builder.build().and_then(|sim| sim.run()).map(|mut r| {
                if kind != EngineKind::Event {
                    r.strategy = format!("{} [{engine} engine]", r.strategy);
                }
                r
            })
        }
        GuestTopology::BinaryTree { .. } => {
            if trace_json.is_some() {
                usage("--trace-json supports line/ring guests only");
            }
            overlap::core::tree_guest::simulate_tree_on_host(&guest, &host, true, None)
        }
        _ => {
            if trace_json.is_some() {
                usage("--trace-json supports line/ring guests only");
            }
            simulate_mesh_on_host(&guest, &host, 4.0, 2)
        }
    };
    match report {
        Ok(r) => {
            println!("strategy: {}", r.strategy);
            println!(
                "slowdown : {:.2}  (makespan {} / {} steps)",
                r.stats.slowdown, r.stats.makespan, r.stats.guest_steps
            );
            println!(
                "load     : {} databases/processor, redundancy {:.2}×",
                r.stats.load, r.stats.redundancy
            );
            println!(
                "traffic  : {} pebble messages, {} link hops",
                r.stats.messages, r.stats.pebble_hops
            );
            println!(
                "efficiency {:.3}, work overhead {:.2}×",
                r.stats.efficiency(),
                r.stats.work_overhead()
            );
            let f = r.stats.faults;
            if f != Default::default() {
                println!(
                    "faults   : {} retries, {} rerouted subs, {} crashed procs ({} copies lost), {} stall ticks",
                    f.retries, f.rerouted_subscriptions, f.crashed_procs, f.lost_copies, f.fault_stall_ticks
                );
            }
            if let Some(b) = r.stats.stalls {
                let total = b.total().max(1) as f64;
                println!(
                    "stalls   : compute {:.1}%, dependency {:.1}%, bandwidth {:.1}%, db-order {:.1}%, fault {:.1}%, drained {:.1}%",
                    100.0 * b.compute_ticks as f64 / total,
                    100.0 * b.stall_dependency as f64 / total,
                    100.0 * b.stall_bandwidth as f64 / total,
                    100.0 * b.stall_db_order as f64 / total,
                    100.0 * b.stall_fault as f64 / total,
                    100.0 * b.stall_drained as f64 / total,
                );
            }
            if let Some(path) = &trace_json {
                let report = r.outcome.trace.as_ref().expect("traced run has a report");
                let json = serde_json::to_string(report).expect("trace serializes");
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("cannot write {path}: {e}");
                    exit(1);
                }
                println!("trace    : written to {path}");
            }
            if let Some(p) = r.predicted_slowdown {
                println!("predicted: {p:.1} (asymptotic shape, constants included)");
            }
            if r.dilation > 0 {
                println!("embedding: dilation {}", r.dilation);
            }
            println!("validated: {}", r.validated);
            if !r.validated {
                eprintln!("VALIDATION FAILED: {} copy mismatches", r.mismatches);
                exit(1);
            }
        }
        Err(e) => {
            eprintln!("simulation failed: {e}");
            exit(1);
        }
    }
}
