//! Bounded differential-fuzzing harness: the same generator + invariant
//! audit the `overlap-cli fuzz` subcommand drives, run small enough for
//! every `cargo test`. A clean pass certifies that the event, sharded,
//! stepped and lockstep engines plus the parallel reference agree across
//! a random sample of guests, hosts, delay models, assignments, costs,
//! multicast lowerings and fault schedules — each scenario lowered
//! exactly once into a shared `ExecPlan`. The sharded engine runs on
//! every case (it supports the full feature set) at several thread
//! counts and both partition heuristics.

use overlap::model::ProgramKind;
use overlap::net::DelayModel;
use overlap::sim::fuzz::{
    check_spec, gen_spec, run_fuzz, shrink, AssignKind, FuzzConfig, GuestKind, HostKind,
    ScenarioSpec,
};
use overlap::sim::Jitter;

#[test]
fn bounded_fuzz_run_is_divergence_free() {
    let report = run_fuzz(&FuzzConfig {
        seed: 0,
        cases: 150,
    });
    assert_eq!(report.cases, 150);
    for d in &report.divergences {
        eprintln!(
            "case {} diverged:\n  {}\n{}",
            d.case,
            d.detail,
            d.repro_test(&format!("fuzz_repro_case{}", d.case))
        );
    }
    assert!(
        report.divergences.is_empty(),
        "{} divergence(s); repros printed above — check them into \
         tests/fuzz_regressions.rs",
        report.divergences.len()
    );
}

#[test]
fn scenario_stream_is_deterministic_and_diverse() {
    // Replays must be exact for repro-by-case-number to work.
    for case in 0..200 {
        assert_eq!(gen_spec(42, case), gen_spec(42, case));
    }
    // The stream must actually exercise the feature matrix.
    let specs: Vec<ScenarioSpec> = (0..200).map(|c| gen_spec(42, c)).collect();
    assert!(specs.iter().any(|s| s.multicast));
    assert!(specs.iter().any(|s| s.costs.is_some()));
    assert!(specs.iter().any(|s| !s.faults.is_empty()));
    assert!(specs.iter().any(|s| s.steps == 0));
    assert!(specs
        .iter()
        .any(|s| matches!(s.assign, AssignKind::Redundant { .. })));
    let hosts: std::collections::BTreeSet<String> =
        specs.iter().map(|s| format!("{:?}", s.host)).collect();
    assert!(hosts.len() >= 8, "host diversity: {hosts:?}");
}

/// Hand-written corner scenarios that must stay green: each pins one
/// cell of the engine-support matrix through the shared-plan path.
#[test]
fn feature_matrix_corners_agree() {
    let corners = [
        // Multicast lowering: event engine + reference only.
        ScenarioSpec {
            guest: GuestKind::Mesh(3, 3),
            program: ProgramKind::Histogram { buckets: 5 },
            steps: 6,
            guest_seed: 1,
            host: HostKind::Mesh(2, 2),
            delays: DelayModel::Uniform { lo: 1, hi: 11 },
            host_seed: 3,
            assign: AssignKind::Blocked,
            costs: None,
            multicast: true,
            mem: None,
            faults: vec![],
            jitter: Jitter::None,
        },
        // Heterogeneous compute costs over a heavy-tailed network.
        ScenarioSpec {
            guest: GuestKind::Ring(12),
            program: ProgramKind::CacheChurn,
            steps: 8,
            guest_seed: 7,
            host: HostKind::Ring(4),
            delays: DelayModel::HeavyTail {
                min: 1,
                alpha: 1.5,
                cap: 64,
            },
            host_seed: 5,
            assign: AssignKind::Redundant { seed: 99 },
            costs: Some(vec![1, 3, 2, 4]),
            multicast: false,
            mem: None,
            faults: vec![],
            jitter: Jitter::None,
        },
        // All databases on one processor: no messages at all.
        ScenarioSpec {
            guest: GuestKind::Tree(3),
            program: ProgramKind::Relaxation,
            steps: 5,
            guest_seed: 2,
            host: HostKind::Line(5),
            delays: DelayModel::Spike {
                base: 1,
                spike: 20,
                period: 3,
            },
            host_seed: 8,
            assign: AssignKind::AllOnOne,
            costs: None,
            multicast: false,
            mem: None,
            faults: vec![],
            jitter: Jitter::None,
        },
    ];
    for spec in &corners {
        check_spec(spec).unwrap_or_else(|d| panic!("{spec:?}: {d}"));
    }
}

#[test]
fn shrinker_minimizes_while_preserving_failure() {
    // An impossible fault (missing link) fails check_spec deterministically;
    // the shrinker must simplify everything else away but keep failing.
    let spec = ScenarioSpec {
        guest: GuestKind::Mesh(4, 4),
        program: ProgramKind::RuleAutomaton { db_size: 8 },
        steps: 10,
        guest_seed: 3,
        host: HostKind::Ring(8),
        delays: DelayModel::Bimodal {
            lo: 1,
            hi: 30,
            p_hi: 0.2,
        },
        host_seed: 4,
        assign: AssignKind::Redundant { seed: 1 },
        costs: Some(vec![2; 8]),
        multicast: false,
        mem: None,
        faults: vec![
            crate_fault_missing_link(),
            overlap::sim::fuzz::FaultSpec::Spike {
                a: 0,
                b: 1,
                from: 0,
                until: 5,
                factor: 3,
            },
        ],
        jitter: Jitter::None,
    };
    assert!(check_spec(&spec).is_err());
    let (min, detail) = shrink(&spec);
    assert!(check_spec(&min).is_err());
    assert!(!detail.is_empty());
    assert!(min.costs.is_none());
    assert_eq!(min.steps, 1);
    assert_eq!(min.faults.len(), 1, "only the impossible fault survives");
    assert_eq!(min.delays, DelayModel::Constant(1));
}

fn crate_fault_missing_link() -> overlap::sim::fuzz::FaultSpec {
    // Ring(8) has no chord 0–4.
    overlap::sim::fuzz::FaultSpec::LinkDown {
        a: 0,
        b: 4,
        from: 0,
        until: 10,
    }
}
