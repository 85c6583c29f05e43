//! Three engines, one lowered plan: every strategy's assignment is
//! compiled once into an `ExecPlan`, and the event-driven engine, the
//! sharded conservative-parallel engine, and the lockstep executor all
//! consume that same plan. They must compute identical state (sharded is
//! bit-identical to event), and their makespans must order sensibly
//! (greedy ≤ lockstep).

use overlap::core::pipeline::{plan_line_placement, Strategy};
use overlap::model::{GuestSpec, ProgramKind, ReferenceRun};
use overlap::net::{topology, DelayModel};
use overlap::sim::engine::{Engine, EngineConfig};
use overlap::sim::lockstep::run_lockstep;
use overlap::sim::sharded::run_sharded;
use overlap::sim::validate::validate_run;
use overlap::sim::{ExecPlan, RunOutcome};

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::Overlap { c: 4.0 },
        Strategy::Halo { halo: 1 },
        Strategy::Combined {
            c: 4.0,
            expansion: 2,
        },
        Strategy::Blocked,
        Strategy::Slackness,
    ]
}

/// Copy-level state must agree between two outcomes (folds and database
/// digests; completion times legitimately differ between engines).
fn assert_same_state(label: &str, a: &RunOutcome, b: &RunOutcome) {
    let mut xs = a.copies.clone();
    let mut ys = b.copies.clone();
    xs.sort_by_key(|c| (c.cell, c.proc));
    ys.sort_by_key(|c| (c.cell, c.proc));
    assert_eq!(xs.len(), ys.len(), "{label}: copy count mismatch");
    for (x, y) in xs.iter().zip(&ys) {
        assert_eq!(x.value_fold, y.value_fold, "{label}: value fold");
        assert_eq!(x.db_digest, y.db_digest, "{label}: db digest");
        assert_eq!(x.update_fold, y.update_fold, "{label}: update fold");
    }
}

#[test]
fn all_three_engines_agree_on_state_from_one_plan() {
    // Heterogeneous link delays, every placement strategy; one lowering
    // feeds all three executors.
    let guest = GuestSpec::array(24, ProgramKind::KvWorkload, 11, 10);
    let host = topology::linear_array(8, DelayModel::uniform(1, 12), 5);
    let trace = ReferenceRun::execute(&guest);
    for s in strategies() {
        let placement = plan_line_placement(&guest, &host, s).expect("placement");
        let plan = ExecPlan::build(
            &guest,
            &host,
            &placement.assignment,
            EngineConfig::default(),
        )
        .expect("plan");
        let ev = Engine::from_plan(&plan).run().expect("event");
        let sh = run_sharded(&plan, 2).expect("sharded");
        let lk = run_lockstep(&plan).expect("lockstep");
        for out in [&ev, &sh, &lk] {
            assert!(
                validate_run(&trace, out).is_empty(),
                "{}: engine state mismatch",
                s.label()
            );
        }
        assert_eq!(ev, sh, "{}: sharded diverged from event", s.label());
        assert_same_state(&s.label(), &ev, &lk);
        assert!(
            ev.stats.makespan <= lk.stats.makespan,
            "{}: greedy {} should not lose to lockstep {}",
            s.label(),
            ev.stats.makespan,
            lk.stats.makespan
        );
    }
}

#[test]
fn engines_agree_on_ring_fold_over_embedded_host() {
    // Ring guest (the slowdown-2 fold) on a non-path host: the plan is
    // lowered from the embedded placement and shared three ways.
    let guest = GuestSpec::ring(18, ProgramKind::RuleAutomaton { db_size: 8 }, 3, 8);
    let host = topology::mesh2d(3, 3, DelayModel::uniform(1, 10), 7);
    let trace = ReferenceRun::execute(&guest);
    let placement =
        plan_line_placement(&guest, &host, Strategy::Overlap { c: 4.0 }).expect("placement");
    let plan = ExecPlan::build(
        &guest,
        &host,
        &placement.assignment,
        EngineConfig::default(),
    )
    .expect("plan");
    let ev = Engine::from_plan(&plan).run().expect("event");
    let sh = run_sharded(&plan, 2).expect("sharded");
    let lk = run_lockstep(&plan).expect("lockstep");
    assert!(validate_run(&trace, &ev).is_empty());
    assert!(validate_run(&trace, &lk).is_empty());
    assert_eq!(ev, sh, "ring-fold: sharded diverged from event");
    assert_same_state("ring-fold", &ev, &lk);
    assert_eq!(ev.stats.messages, lk.stats.messages);
}

#[test]
fn plan_reuse_is_bit_identical_to_fresh_lowerings() {
    // Two runs from one plan must equal two runs from two independent
    // lowerings, outcome-for-outcome — including the multicast tables
    // (event engine only; the other executors reject multicast up front).
    let guest = GuestSpec::array(24, ProgramKind::KvWorkload, 7, 12);
    let host = topology::mesh2d(3, 3, DelayModel::uniform(1, 9), 2);
    let placement =
        plan_line_placement(&guest, &host, Strategy::Halo { halo: 1 }).expect("placement");
    let a = &placement.assignment;
    for multicast in [false, true] {
        let cfg = EngineConfig {
            multicast,
            ..Default::default()
        };
        let shared = ExecPlan::build(&guest, &host, a, cfg).expect("plan");
        let r1 = Engine::from_plan(&shared).run().expect("first shared run");
        let r2 = Engine::from_plan(&shared).run().expect("second shared run");
        let f1 = Engine::new(&guest, &host, a, cfg).run().expect("fresh 1");
        let f2 = Engine::new(&guest, &host, a, cfg).run().expect("fresh 2");
        assert_eq!(r1, r2, "multicast={multicast}: shared plan not reusable");
        assert_eq!(r1, f1, "multicast={multicast}: shared vs fresh diverge");
        assert_eq!(f1, f2, "multicast={multicast}: fresh lowerings diverge");
    }
}

#[test]
fn calendar_engine_matches_classic_on_planned_placements() {
    // The rewritten hot path must reproduce the frozen heap-based engine's
    // full `RunOutcome` (stats, copy records, timing trace) on real
    // pipeline placements, in both route modes with jitter and costs.
    use overlap::sim::engine::Jitter;
    use overlap::sim::engine_classic::run_classic;

    let guest = GuestSpec::array(24, ProgramKind::KvWorkload, 11, 10);
    let host = topology::mesh2d(3, 3, DelayModel::uniform(1, 12), 5);
    let costs: Vec<u32> = (0..9).map(|p| 1 + p % 3).collect();
    for s in [Strategy::Overlap { c: 4.0 }, Strategy::Blocked] {
        let placement = plan_line_placement(&guest, &host, s).expect("placement");
        let a = &placement.assignment;
        for multicast in [false, true] {
            let cfg = EngineConfig {
                multicast,
                jitter: Jitter::Periodic {
                    amplitude_pct: 30,
                    period: 16,
                },
                record_timing: true,
                ..Default::default()
            };
            let new = Engine::new(&guest, &host, a, cfg)
                .with_compute_costs(costs.clone())
                .run()
                .expect("calendar engine");
            let classic = run_classic(&guest, &host, a, cfg, Some(&costs)).expect("classic engine");
            assert_eq!(
                new,
                classic,
                "{}: engines diverge (multicast={multicast})",
                s.label()
            );
        }
    }
}

#[test]
fn lockstep_slowdown_tracks_dmax_while_greedy_does_not() {
    // The E10 story as a single integration check.
    // n must be large enough that the integer overlaps m_k are nonzero
    // (m_0 = n/(c·log n) ≥ 4 at n = 128), else OVERLAP degenerates to
    // blocked and pays the spike like everyone else.
    let guest = GuestSpec::array(512, ProgramKind::Relaxation, 5, 24);
    let mut lock_slow = Vec::new();
    let mut greedy_slow = Vec::new();
    for spike in [8u64, 1024] {
        let host = topology::line_with_middle_spike(128, spike);
        let placement =
            plan_line_placement(&guest, &host, Strategy::Overlap { c: 4.0 }).expect("placement");
        let plan = ExecPlan::build(
            &guest,
            &host,
            &placement.assignment,
            EngineConfig::default(),
        )
        .expect("plan");
        let lk = run_lockstep(&plan).expect("lockstep");
        let ev = Engine::from_plan(&plan).run().expect("event");
        lock_slow.push(lk.stats.slowdown);
        greedy_slow.push(ev.stats.slowdown);
    }
    let lock_growth = lock_slow[1] / lock_slow[0];
    let greedy_growth = greedy_slow[1] / greedy_slow[0];
    assert!(
        greedy_growth < lock_growth,
        "greedy growth {greedy_growth:.2} vs lockstep {lock_growth:.2}"
    );
}

#[test]
fn pebble_grid_as_taskgraph_is_bit_identical_to_line_guest() {
    // The tentpole invariant of the task-graph IR: the paper's pebble
    // grid expressed as an explicit `TaskGraph` must lower through the
    // same static tables as the native line guest and reproduce its full
    // `RunOutcome` — stats, copies, event counts — on all four engines.
    use overlap::model::TaskGraph;

    let (m, steps) = (24u32, 10u32);
    let line = GuestSpec::array(m, ProgramKind::KvWorkload, 11, steps);
    let dag = GuestSpec::dag(
        TaskGraph::pebble_grid(&line.topology, steps),
        ProgramKind::KvWorkload,
        11,
    );
    assert_eq!(dag.steps, steps);
    let host = topology::linear_array(8, DelayModel::uniform(1, 12), 5);
    for s in [
        Strategy::Overlap { c: 4.0 },
        Strategy::Halo { halo: 1 },
        Strategy::Blocked,
    ] {
        let placement = plan_line_placement(&line, &host, s).expect("placement");
        let a = &placement.assignment;
        let pl_line = ExecPlan::build(&line, &host, a, EngineConfig::default()).expect("line plan");
        let pl_dag = ExecPlan::build(&dag, &host, a, EngineConfig::default()).expect("dag plan");
        let label = s.label();
        assert_eq!(
            Engine::from_plan(&pl_line).run().expect("event line"),
            Engine::from_plan(&pl_dag).run().expect("event dag"),
            "{label}: event"
        );
        assert_eq!(
            run_lockstep(&pl_line).expect("lockstep line"),
            run_lockstep(&pl_dag).expect("lockstep dag"),
            "{label}: lockstep"
        );
        assert_eq!(
            run_sharded(&pl_line, 3).expect("sharded line"),
            run_sharded(&pl_dag, 3).expect("sharded dag"),
            "{label}: sharded"
        );
    }
}
