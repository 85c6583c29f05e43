//! Determinism: the whole pipeline — topology generation, embedding,
//! planning, simulation — is a pure function of its seeds, including when
//! sweeps fan out across threads with `par_map`.

use overlap::model::{fold64, GuestSpec, ProgramKind, ReferenceRun};
use overlap::net::{topology, DelayModel, HostGraph};
use overlap::sim::engine::{Engine, EngineConfig, Jitter};
use overlap::sim::sweep::par_map;
use overlap::sim::Assignment;
use overlap::{Simulation, Strategy};
/// Run via the builder facade (the old free-function entry points are
/// deprecated).
fn simulate(
    guest: &overlap::GuestSpec,
    host: &overlap::HostGraph,
    strategy: Strategy,
) -> Result<overlap::SimReport, overlap::Error> {
    Simulation::of(guest)
        .on(host)
        .strategy(strategy)
        .build()
        .and_then(|s| s.run())
}

#[test]
fn pipeline_is_deterministic_across_runs() {
    let guest = GuestSpec::array(28, ProgramKind::KvWorkload, 17, 14);
    let host = topology::mesh2d(4, 4, DelayModel::uniform(1, 15), 8);
    let a = simulate(&guest, &host, Strategy::Overlap { c: 4.0 }).unwrap();
    let b = simulate(&guest, &host, Strategy::Overlap { c: 4.0 }).unwrap();
    assert_eq!(a.stats.makespan, b.stats.makespan);
    assert_eq!(a.stats.messages, b.stats.messages);
    assert_eq!(a.stats.pebble_hops, b.stats.pebble_hops);
}

#[test]
fn parallel_sweep_equals_sequential() {
    let guest = GuestSpec::array(16, ProgramKind::Relaxation, 3, 10);
    let seeds: Vec<u64> = (0..8).collect();
    let sequential: Vec<u64> = seeds
        .iter()
        .map(|&s| {
            let host = topology::linear_array(8, DelayModel::uniform(1, 9), s);
            simulate(&guest, &host, Strategy::Blocked)
                .unwrap()
                .stats
                .makespan
        })
        .collect();
    let parallel: Vec<u64> = par_map(&seeds, |&s| {
        let host = topology::linear_array(8, DelayModel::uniform(1, 9), s);
        simulate(&guest, &host, Strategy::Blocked)
            .unwrap()
            .stats
            .makespan
    });
    assert_eq!(sequential, parallel);
}

#[test]
fn reference_trace_is_seed_stable() {
    let a = ReferenceRun::execute(&GuestSpec::array(10, ProgramKind::KvWorkload, 42, 8));
    let b = ReferenceRun::execute(&GuestSpec::array(10, ProgramKind::KvWorkload, 42, 8));
    assert_eq!(a.grid, b.grid);
    assert_eq!(a.final_db_digest, b.final_db_digest);
}

/// Golden end-to-end run: every feature that affects event ordering at
/// once — hand-built heterogeneous host, overlapping assignment, multicast
/// trees, delay jitter, per-processor compute costs, timing trace. The
/// asserted values were recorded from a verified run; any engine change
/// that shifts event order, link-id assignment, or tie-breaking will move
/// at least one of them.
#[test]
fn golden_engine_run_is_bit_stable() {
    let guest = GuestSpec::array(9, ProgramKind::KvWorkload, 5, 12);
    let mut host = HostGraph::new("golden", 4);
    host.add_link(0, 1, 3);
    host.add_link(1, 2, 5);
    host.add_link(2, 3, 2);
    host.add_link(0, 2, 7);
    let assign = Assignment::from_cells_of(
        4,
        9,
        vec![vec![0, 1, 2], vec![2, 3, 4], vec![4, 5, 6, 7], vec![7, 8]],
    );
    let cfg = EngineConfig {
        multicast: true,
        jitter: Jitter::Periodic {
            amplitude_pct: 40,
            period: 8,
        },
        record_timing: true,
        ..Default::default()
    };
    let out = Engine::new(&guest, &host, &assign, cfg)
        .with_compute_costs(vec![1, 3, 2, 1])
        .run()
        .expect("golden run");

    // One order-sensitive digest over every copy's audit record.
    let mut digest = 0x60u64;
    for c in &out.copies {
        for x in [
            c.cell as u64,
            c.proc as u64,
            c.value_fold,
            c.db_digest,
            c.update_fold,
            c.finished_at,
        ] {
            digest = fold64(digest, x);
        }
    }
    // And over the full timing trace.
    let timing = out.timing.as_ref().expect("timing recorded");
    let mut tdigest = 0x71u64;
    for ticks in &timing.ticks {
        for &t in ticks {
            tdigest = fold64(tdigest, t);
        }
    }
    assert_eq!(out.stats.makespan, 108);
    assert_eq!(out.stats.messages, 60);
    assert_eq!(out.stats.pebble_hops, 72);
    assert_eq!(out.stats.events_processed, 216);
    assert_eq!(out.stats.peak_queue_depth, 8);
    assert_eq!(digest, 0x099061efa035f13e, "copy records moved");
    assert_eq!(tdigest, 0x13bc53be88719ba8, "timing trace moved");

    // The frozen classic (heap-based) engine must agree bit for bit.
    let classic =
        overlap::sim::engine_classic::run_classic(&guest, &host, &assign, cfg, Some(&[1, 3, 2, 1]))
            .expect("classic run");
    assert_eq!(out, classic);
}

/// The stall-attribution tracer must observe without perturbing: re-run
/// the golden scenario traced and it must still agree bit for bit with
/// the frozen classic oracle once the trace-only fields are stripped,
/// while the attributed ticks partition every copy's `[0, makespan)`
/// exactly.
#[test]
fn traced_golden_run_matches_classic_oracle_and_conserves() {
    let guest = GuestSpec::array(9, ProgramKind::KvWorkload, 5, 12);
    let mut host = HostGraph::new("golden", 4);
    host.add_link(0, 1, 3);
    host.add_link(1, 2, 5);
    host.add_link(2, 3, 2);
    host.add_link(0, 2, 7);
    let assign = Assignment::from_cells_of(
        4,
        9,
        vec![vec![0, 1, 2], vec![2, 3, 4], vec![4, 5, 6, 7], vec![7, 8]],
    );
    let cfg = EngineConfig {
        multicast: true,
        jitter: Jitter::Periodic {
            amplitude_pct: 40,
            period: 8,
        },
        record_timing: true,
        ..Default::default()
    };
    let out = Engine::new(&guest, &host, &assign, cfg)
        .with_compute_costs(vec![1, 3, 2, 1])
        .run_traced(overlap::TraceConfig::default())
        .expect("traced golden run");

    let report = out.trace.as_ref().expect("tracing was enabled");
    assert_eq!(report.per_copy.len(), out.copies.len());
    for (i, b) in report.per_copy.iter().enumerate() {
        assert_eq!(b.total(), out.stats.makespan, "copy {i} leaks ticks");
    }
    assert_eq!(
        report.totals.total(),
        out.stats.makespan * out.copies.len() as u64
    );

    let classic =
        overlap::sim::engine_classic::run_classic(&guest, &host, &assign, cfg, Some(&[1, 3, 2, 1]))
            .expect("classic run");
    let mut stripped = out;
    stripped.trace = None;
    stripped.stats.stalls = None;
    assert_eq!(stripped, classic, "tracing perturbed the schedule");
}

/// The sharded conservative-parallel engine must be bit-identical to the
/// sequential event engine — for every thread count, under both partition
/// heuristics — on the full-feature golden scenario (multicast, jitter,
/// heterogeneous costs, timing trace), `peak_queue_depth` included: the
/// barrier merge reconstructs the sequential single-queue depth.
#[test]
fn sharded_engine_matches_event_on_golden_scenario() {
    use overlap::sim::{run_sharded_with, ExecPlan, Partition};

    let guest = GuestSpec::array(9, ProgramKind::KvWorkload, 5, 12);
    let mut host = HostGraph::new("golden", 4);
    host.add_link(0, 1, 3);
    host.add_link(1, 2, 5);
    host.add_link(2, 3, 2);
    host.add_link(0, 2, 7);
    let assign = Assignment::from_cells_of(
        4,
        9,
        vec![vec![0, 1, 2], vec![2, 3, 4], vec![4, 5, 6, 7], vec![7, 8]],
    );
    let cfg = EngineConfig {
        multicast: true,
        jitter: Jitter::Periodic {
            amplitude_pct: 40,
            period: 8,
        },
        record_timing: true,
        ..Default::default()
    };
    let plan = ExecPlan::build(&guest, &host, &assign, cfg)
        .unwrap()
        .with_compute_costs(vec![1, 3, 2, 1]);
    let ev = Engine::from_plan(&plan).run().expect("event run");
    assert_eq!(ev.stats.makespan, 108, "golden scenario drifted");

    for threads in [1, 2, 8] {
        for how in [Partition::DelayCut, Partition::RoundRobin] {
            let sh = run_sharded_with(&plan, threads, how)
                .unwrap_or_else(|e| panic!("sharded({threads}, {how:?}): {e}"));
            assert_eq!(sh, ev, "sharded({threads}, {how:?}) diverged");
        }
    }
}

/// Same bit-identity under a fault schedule exercising every fault event
/// the engine orders at barriers: a link outage (forcing retries), a
/// delay spike, and a processor crash that strands subscribers and
/// triggers re-subscription plus replayed backfill sends.
#[test]
fn sharded_engine_matches_event_under_crash_faults() {
    use overlap::sim::{run_sharded_with, ExecPlan, Partition};
    use overlap::FaultPlan;

    let guest = GuestSpec::array(24, ProgramKind::Relaxation, 11, 20);
    let host = topology::linear_array(6, DelayModel::uniform(1, 7), 5);
    // Every cell on exactly two processors, so the crash strands live
    // subscribers (re-subscription) instead of losing a column.
    let assign = Assignment::from_cells_of(
        6,
        24,
        (0..6u32)
            .map(|p| (0..8).map(|i| (4 * p + i) % 24).collect())
            .collect(),
    );
    let cfg = EngineConfig {
        record_timing: true,
        ..Default::default()
    };
    let faults = FaultPlan::new()
        .link_down(1, 2, 10, 40)
        .delay_spike(0, 1, 5, 60, 3)
        .crash(3, 55);
    let plan = ExecPlan::build(&guest, &host, &assign, cfg)
        .unwrap()
        .with_faults(faults)
        .unwrap();
    let ev = Engine::from_plan(&plan).run().expect("event run");
    assert!(ev.stats.faults.crashed_procs > 0, "crash did not land");
    assert!(
        ev.stats.faults.rerouted_subscriptions > 0,
        "no re-subscription exercised"
    );

    for threads in [1, 2, 8] {
        for how in [Partition::DelayCut, Partition::RoundRobin] {
            let sh = run_sharded_with(&plan, threads, how)
                .unwrap_or_else(|e| panic!("sharded({threads}, {how:?}): {e}"));
            assert_eq!(sh, ev, "sharded({threads}, {how:?}) diverged under faults");
        }
    }
}

/// `EngineKind::Sharded` through the builder facade reaches the same
/// validated report as the default event engine.
#[test]
fn sharded_engine_via_builder_matches_event() {
    use overlap::EngineKind;

    let guest = GuestSpec::array(20, ProgramKind::KvWorkload, 7, 16);
    let host = topology::linear_array(5, DelayModel::uniform(2, 6), 3);
    let run = |kind| {
        Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Overlap { c: 4.0 })
            .engine(kind)
            .build()
            .and_then(|s| s.run())
            .unwrap()
    };
    let ev = run(EngineKind::Event);
    let sh = run(EngineKind::Sharded { threads: 4 });
    assert_eq!(ev.stats.makespan, sh.stats.makespan);
    assert_eq!(ev.stats.messages, sh.stats.messages);
    assert_eq!(ev.stats.pebble_hops, sh.stats.pebble_hops);
    assert_eq!(ev.stats.events_processed, sh.stats.events_processed);
    assert!(sh.validated && ev.validated);
}

#[test]
fn topology_generation_is_seed_stable() {
    for seed in 0..4 {
        let a = topology::random_regular(20, 3, DelayModel::uniform(1, 99), seed);
        let b = topology::random_regular(20, 3, DelayModel::uniform(1, 99), seed);
        assert_eq!(a.links(), b.links());
    }
    let a = topology::h2_recursive_boxes(512);
    let b = topology::h2_recursive_boxes(512);
    assert_eq!(a.graph.links(), b.graph.links());
    assert_eq!(a.segments.len(), b.segments.len());
}
