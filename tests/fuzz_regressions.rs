//! Shrunken repros checked in from differential-fuzzer findings, plus
//! direct regression tests for the bugs the fuzzing/audit PR fixed. Each
//! `ScenarioSpec` test is in the exact paste-able form the fuzzer prints
//! (`overlap-cli fuzz`), so future findings land here the same way.

use overlap::model::ProgramKind;
use overlap::net::DelayModel;
use overlap::sim::engine::{Engine, EngineConfig, RunError};
use overlap::sim::fuzz::{check_spec, AssignKind, FaultSpec, GuestKind, HostKind, ScenarioSpec};
use overlap::sim::{run_sharded, Assignment, ExecPlan, FaultPlan, Jitter};
use overlap::{topology, GuestSpec};

/// Fuzzer finding (seed 0, case 770, shrunk): a crash scheduled after an
/// engine's last pebble fired in the event engine (which drains its queue
/// by tick) but not in the since-removed time-stepped engine (whose loop
/// exited at the last pebble), so the engines disagreed on the surviving
/// copy set. Crashes now destroy storage regardless of engine timing.
#[test]
fn fuzz_repro_seed0_case770_crash_after_completion() {
    let spec = ScenarioSpec {
        guest: GuestKind::Line(4),
        program: ProgramKind::KvWorkload,
        steps: 1,
        guest_seed: 969918,
        host: HostKind::Line(4),
        delays: DelayModel::Constant(1),
        host_seed: 687235,
        assign: AssignKind::Redundant {
            seed: 457216850984680125,
        },
        costs: None,
        multicast: false,
        mem: None,
        faults: vec![FaultSpec::Crash { proc: 2, at: 4 }],
        jitter: Jitter::None,
    };
    check_spec(&spec).expect("engines must agree");
}

/// Same finding, seed 0 case 86: a tree host and a one-step guest, where
/// the crash tick lands between the two engines' makespans.
#[test]
fn fuzz_repro_seed0_case86_crash_straddles_makespans() {
    let spec = ScenarioSpec {
        guest: GuestKind::Line(7),
        program: ProgramKind::StencilSum,
        steps: 1,
        guest_seed: 501491,
        host: HostKind::Tree(2),
        delays: DelayModel::Constant(1),
        host_seed: 929698,
        assign: AssignKind::Redundant {
            seed: 15561091816461123874,
        },
        costs: None,
        multicast: false,
        mem: None,
        faults: vec![FaultSpec::Crash { proc: 2, at: 4 }],
        jitter: Jitter::None,
    };
    check_spec(&spec).expect("engines must agree");
}

/// Direct form of the finding: a crash far beyond the makespan still
/// loses the victim's copies in the event and sharded engines, and the
/// fault counters agree with the plan.
#[test]
fn crash_beyond_makespan_still_destroys_copies() {
    let guest = GuestSpec::array(8, ProgramKind::KvWorkload, 3, 2);
    let host = topology::linear_array(4, DelayModel::constant(1), 0);
    let assign = Assignment::from_cells_of(
        4,
        8,
        vec![
            vec![0, 1, 2, 3],
            vec![2, 3, 4, 5],
            vec![4, 5, 6, 7],
            vec![6, 7, 0, 1],
        ],
    );
    let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default())
        .unwrap()
        .with_faults(FaultPlan::new().crash(1, 1_000_000))
        .unwrap();
    let ev = Engine::from_plan(&plan).run().expect("event");
    let sh = run_sharded(&plan, 2).expect("sharded");
    for (label, out) in [("event", &ev), ("sharded", &sh)] {
        assert!(
            out.stats.makespan < 1_000_000,
            "{label}: the crash must be post-completion for this test"
        );
        assert_eq!(out.stats.faults.crashed_procs, 1, "{label}");
        assert!(
            out.copies.iter().all(|c| c.proc != 1),
            "{label}: crashed processor's copies must be lost"
        );
    }
    assert_eq!(
        ev.copies.len(),
        sh.copies.len(),
        "engines must agree on the surviving set"
    );
}

/// Satellite regression: a fault plan naming a link the host does not
/// have used to abort the whole process inside fault lowering
/// (`no such link` panic). It must now surface as a typed error on every
/// path — attaching to a plan, and running a scenario.
#[test]
fn fault_on_missing_link_is_an_error_on_every_path() {
    let guest = GuestSpec::array(8, ProgramKind::StencilSum, 0, 4);
    let host = topology::linear_array(4, DelayModel::constant(2), 0);
    let assign = Assignment::blocked(4, 8);
    let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
    let err = plan
        .with_faults(FaultPlan::new().link_down(0, 3, 5, 10))
        .unwrap_err();
    assert!(
        matches!(err, RunError::MissingLink { from: 0, to: 3 }),
        "{err:?}"
    );

    // The fuzzer reports the same misconfiguration as a divergence
    // instead of dying.
    let spec = ScenarioSpec {
        guest: GuestKind::Line(8),
        program: ProgramKind::StencilSum,
        steps: 4,
        guest_seed: 0,
        host: HostKind::Line(4),
        delays: DelayModel::Constant(2),
        host_seed: 0,
        assign: AssignKind::Blocked,
        costs: None,
        multicast: false,
        mem: None,
        faults: vec![FaultSpec::LinkDown {
            a: 0,
            b: 3,
            from: 5,
            until: 10,
        }],
        jitter: Jitter::None,
    };
    let detail = check_spec(&spec).unwrap_err();
    assert!(detail.contains("fault plan rejected"), "{detail}");
}

/// Satellite regression: crashing a processor the host does not have is a
/// typed error, not an index panic.
#[test]
fn crash_of_missing_processor_is_an_error() {
    let guest = GuestSpec::array(8, ProgramKind::StencilSum, 0, 4);
    let host = topology::linear_array(4, DelayModel::constant(2), 0);
    let assign = Assignment::blocked(4, 8);
    let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
    let err = plan.with_faults(FaultPlan::new().crash(17, 5)).unwrap_err();
    assert!(
        matches!(err, RunError::NoSuchProcessor { proc: 17, procs: 4 }),
        "{err:?}"
    );
}

/// Satellite regression: zero-step guests are legal everywhere — every
/// engine completes with an empty, well-defined outcome (makespan 0,
/// finite ratios, no NaNs) instead of dividing by zero.
#[test]
fn zero_step_scenarios_are_well_defined() {
    for (assign, multicast) in [
        (AssignKind::Blocked, false),
        (AssignKind::AllOnOne, false),
        (AssignKind::Redundant { seed: 11 }, false),
        (AssignKind::Blocked, true),
    ] {
        let spec = ScenarioSpec {
            guest: GuestKind::Ring(9),
            program: ProgramKind::RuleAutomaton { db_size: 4 },
            steps: 0,
            guest_seed: 5,
            host: HostKind::Mesh(2, 2),
            delays: DelayModel::Uniform { lo: 1, hi: 7 },
            host_seed: 9,
            assign,
            costs: None,
            multicast,
            mem: None,
            faults: vec![],
            jitter: Jitter::None,
        };
        check_spec(&spec).unwrap_or_else(|d| panic!("{assign:?}/multicast={multicast}: {d}"));
    }

    let guest = GuestSpec::array(6, ProgramKind::KvWorkload, 1, 0);
    let host = topology::linear_array(3, DelayModel::constant(3), 0);
    let assign = Assignment::blocked(3, 6);
    let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
    let out = Engine::from_plan(&plan).run().expect("zero-step event run");
    assert_eq!(out.stats.makespan, 0);
    assert_eq!(out.stats.total_compute, 0);
    assert_eq!(out.stats.slowdown, 0.0);
    assert!(out.stats.efficiency().is_finite());
    assert!(out.stats.work_overhead().is_finite());
}

/// Satellite regression: crash recovery on a *disconnected* host used to
/// panic (`expect("connected host")`) in every fault-capable engine. A
/// cell redundantly held in two components, all subscriptions
/// intra-component (so the plan builds cleanly), then a crash of the
/// same-component holder: the nearest surviving holder sits across the
/// cut with no path to the orphaned consumer. That must surface as
/// `RunError::NoRouteToHolder`, identically everywhere.
#[test]
fn crash_recovery_without_a_route_is_an_error_not_a_panic() {
    use overlap::model::taskgraph::DagBuilder;
    use overlap::net::HostGraph;
    use overlap::sim::{run_sharded_with, Partition};

    // Lane 0 is a self-contained chain; lane 1 consumes lane 0. Only the
    // lane-1 copy ever subscribes, so the redundant lane-0 copy on the
    // isolated processor needs no route at build time.
    let mut b = DagBuilder::new(2);
    let t0 = b.node(0, 1, &[]);
    let t1 = b.node(0, 1, &[t0]);
    let t2 = b.node(0, 1, &[t1]);
    let u1 = b.node(1, 1, &[t0]);
    let u2 = b.node(1, 1, &[t1, u1]);
    let _ = b.node(1, 1, &[t2, u2]);
    let guest = GuestSpec::dag(b.build().unwrap(), ProgramKind::KvWorkload, 7);

    // Processors {0, 1} are linked; processor 2 is an island holding the
    // redundant copy of cell 0.
    let mut host = HostGraph::new("split-host", 3);
    host.add_link(0, 1, 2);
    let assign = Assignment::from_cells_of(3, 2, vec![vec![0], vec![1], vec![0]]);

    let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default())
        .unwrap()
        .with_faults(FaultPlan::new().crash(0, 1))
        .unwrap();
    let want = RunError::NoRouteToHolder {
        cell: 0,
        holder: 2,
        consumer: 1,
        tick: 1,
    };
    assert_eq!(Engine::from_plan(&plan).run().unwrap_err(), want, "event");
    for threads in [1, 3] {
        for how in [Partition::DelayCut, Partition::RoundRobin] {
            assert_eq!(
                run_sharded_with(&plan, threads, how).unwrap_err(),
                want,
                "sharded({threads}, {how:?})"
            );
        }
    }
}

/// Task-graph scenarios in the exact paste-able form the fuzzer prints,
/// pinning the DAG/memory-budget fuzzing profile: a non-uniform random
/// layered DAG under a thrashing memory budget must keep all engines in
/// bit-agreement (lockstep and tracing are auto-skipped as unsupported).
#[test]
fn fuzz_pin_dag_random_under_memory_budget() {
    use overlap::sim::engine::MemBudget;
    let spec = ScenarioSpec {
        guest: GuestKind::DagRandom {
            dbs: 11,
            extra: 2,
            max_cost: 3,
            seed: 0xD151_71CE,
        },
        program: ProgramKind::KvWorkload,
        steps: 7,
        guest_seed: 414243,
        host: HostKind::Mesh(2, 3),
        delays: DelayModel::Uniform { lo: 1, hi: 9 },
        host_seed: 55,
        assign: AssignKind::Blocked,
        costs: Some(vec![1, 2, 1, 3, 1, 2]),
        multicast: false,
        mem: Some(MemBudget {
            budget: 1,
            reload_cost: 4,
        }),
        faults: vec![],
        jitter: Jitter::None,
    };
    check_spec(&spec).expect("engines must agree");
}

/// Fork-join diamonds exercise relay slots (pass-through tasks padding
/// the layered normal form) under faults and redundant placement.
#[test]
fn fuzz_pin_fork_join_relays_with_link_fault() {
    let spec = ScenarioSpec {
        guest: GuestKind::ForkJoin(3),
        program: ProgramKind::RuleAutomaton { db_size: 4 },
        steps: 5, // overridden by the graph's fixed 2·levels−1 layers
        guest_seed: 99,
        host: HostKind::Line(3),
        delays: DelayModel::Constant(3),
        host_seed: 0,
        assign: AssignKind::Redundant { seed: 1234 },
        costs: None,
        multicast: false,
        mem: None,
        faults: vec![FaultSpec::LinkDown {
            a: 0,
            b: 1,
            from: 2,
            until: 20,
        }],
        jitter: Jitter::None,
    };
    check_spec(&spec).expect("engines must agree");
}

/// A uniform wavefront DAG lowers through the static tables, so every
/// engine (lockstep and the traced event run included) is in scope —
/// with multicast routing on top for the event/sharded pair.
#[test]
fn fuzz_pin_wavefront_multicast() {
    let spec = ScenarioSpec {
        guest: GuestKind::Wavefront(9),
        program: ProgramKind::Histogram { buckets: 6 },
        steps: 6,
        guest_seed: 77,
        host: HostKind::Ring(5),
        delays: DelayModel::Bimodal {
            lo: 1,
            hi: 12,
            p_hi: 0.25,
        },
        host_seed: 3,
        assign: AssignKind::Blocked,
        costs: None,
        multicast: true,
        mem: None,
        faults: vec![],
        jitter: Jitter::None,
    };
    check_spec(&spec).expect("engines must agree");
}

/// Zero-layer task graphs are legal everywhere: the static lowering's
/// layer-1 probe of an empty graph must see an empty dependency list
/// instead of tripping the slot bounds (regression: `TaskGraph::slot`
/// debug-assert via `visit_deps` during `ExecPlan::build`).
#[test]
fn zero_layer_task_graph_is_well_defined() {
    let spec = ScenarioSpec {
        guest: GuestKind::Wavefront(6),
        program: ProgramKind::KvWorkload,
        steps: 0,
        guest_seed: 1,
        host: HostKind::Line(3),
        delays: DelayModel::Constant(2),
        host_seed: 0,
        assign: AssignKind::Blocked,
        costs: None,
        multicast: false,
        mem: None,
        faults: vec![],
        jitter: Jitter::None,
    };
    check_spec(&spec).expect("engines must agree");
}
