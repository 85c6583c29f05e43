//! Parallel parameter-sweep driver.
//!
//! Every experiment in the paper reproduction is a sweep over hosts,
//! guests, and assignment strategies — hundreds of independent simulator
//! runs. This driver fans them out across cores on scoped threads; each
//! run is fully deterministic, so the parallel sweep's results are
//! identical to a sequential one.

use crate::assignment::Assignment;
use crate::engine::{Engine, EngineConfig, RunError, RunOutcome};
use crate::plan::{ExecPlan, PlanDelta};
use crate::validate::{validate_run, ValidationError};
use overlap_model::{GuestSpec, ReferenceTrace};
use overlap_net::HostGraph;

/// A run plus its validation result.
#[derive(Debug, Clone)]
pub struct ValidatedRun {
    /// The simulator outcome.
    pub outcome: RunOutcome,
    /// Validation mismatches (empty = fully validated).
    pub errors: Vec<ValidationError>,
}

impl ValidatedRun {
    /// True when the run reproduced the reference exactly.
    pub fn is_valid(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Run one simulation and validate it against a precomputed reference.
///
/// Lowers a fresh [`ExecPlan`] per call. Sweeps that repeat the same
/// `(guest, host, assign, config)` point — across repeats, engines, or
/// fault variants — should build the plan once and call
/// [`run_plan_and_validate`] instead.
pub fn run_and_validate(
    guest: &GuestSpec,
    host: &HostGraph,
    assign: &Assignment,
    config: EngineConfig,
    trace: &ReferenceTrace,
) -> Result<ValidatedRun, RunError> {
    let plan = ExecPlan::build(guest, host, assign, config)?;
    run_plan_and_validate(&plan, trace)
}

/// Run one simulation from an already-lowered plan and validate it
/// against a precomputed reference. The plan is shared, so a sweep pays
/// the lowering cost once per `(host, strategy)` point rather than once
/// per run.
pub fn run_plan_and_validate(
    plan: &ExecPlan,
    trace: &ReferenceTrace,
) -> Result<ValidatedRun, RunError> {
    let outcome = Engine::from_plan(plan).run()?;
    let errors = validate_run(trace, &outcome);
    Ok(ValidatedRun { outcome, errors })
}

/// Sweep a neighbourhood of plans by incremental deltas, validating each
/// point, without re-lowering per point.
///
/// Each delta is applied relative to the **base** plan (the receipt's
/// inverse undoes it before the next point), so the points are
/// independent variations, exactly as if each had been lowered fresh —
/// [`ExecPlan::apply_delta`] guarantees bit-identical outcomes. This is
/// the cheap form of the delay/fault/cost sweeps the experiments run:
/// fault-plan and compute-cost points never re-lower, and single-link
/// delay points re-lower only when the routes could actually move.
///
/// The plan is returned to its base state even when a point's run fails.
pub fn sweep_plan_deltas(
    plan: &mut ExecPlan,
    deltas: &[PlanDelta],
    trace: &ReferenceTrace,
) -> Result<Vec<ValidatedRun>, RunError> {
    let mut out = Vec::with_capacity(deltas.len());
    for d in deltas {
        let receipt = plan.apply_delta(d.clone())?;
        let run = run_plan_and_validate(plan, trace);
        plan.apply_delta(receipt.inverse)?;
        out.push(run?);
    }
    Ok(out)
}

/// Map `f` over `items` in parallel, preserving order.
///
/// `items` is cut into one contiguous chunk per available core, each
/// mapped on its own scoped thread; the chunks' results are concatenated
/// in input order. A panic in `f` is re-raised on the caller's thread.
pub fn par_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Send + Sync,
{
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = items.len().div_ceil(cores).max(1);
    let f = &f;
    std::thread::scope(|s| {
        let workers: Vec<_> = items
            .chunks(chunk)
            .map(|part| s.spawn(move || part.iter().map(f).collect::<Vec<T>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_model::{ProgramKind, ReferenceRun};
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;

    #[test]
    fn par_map_preserves_order() {
        // Empty, shorter than the core count, and uneven chunkings.
        for n in [0u64, 1, 2, 3, 7, 100] {
            let xs: Vec<u64> = (0..n).collect();
            let ys = par_map(&xs, |&x| x * x);
            assert_eq!(ys, xs.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_sweep_matches_sequential_runs() {
        let guest = GuestSpec::array(8, ProgramKind::Relaxation, 1, 6);
        let trace = ReferenceRun::execute(&guest);
        let delays = [1u64, 4, 16];
        let results = par_map(&delays, |&d| {
            let host = linear_array(4, DelayModel::constant(d), 0);
            let assign = Assignment::blocked(4, 8);
            run_and_validate(&guest, &host, &assign, EngineConfig::default(), &trace).expect("run")
        });
        assert!(results.iter().all(|r| r.is_valid()));
        // Higher delays cannot reduce the makespan.
        let spans: Vec<u64> = results.iter().map(|r| r.outcome.stats.makespan).collect();
        assert!(spans[0] <= spans[1] && spans[1] <= spans[2], "{spans:?}");
    }

    #[test]
    fn delta_sweep_matches_fresh_lowerings() {
        use crate::faults::FaultPlan;
        let guest = GuestSpec::array(10, ProgramKind::KvWorkload, 5, 8);
        let trace = ReferenceRun::execute(&guest);
        let host = linear_array(5, DelayModel::constant(3), 0);
        let assign = Assignment::blocked(5, 10);
        let mut plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
        let deltas = vec![
            PlanDelta::LinkDelay {
                a: 2,
                b: 3,
                delay: 9,
            },
            PlanDelta::LinkDelay {
                a: 0,
                b: 1,
                delay: 1,
            },
            PlanDelta::ComputeCosts(Some(vec![1, 2, 1, 1, 3])),
            PlanDelta::Faults(Some(FaultPlan::new().link_down(1, 2, 4, 10))),
        ];
        let swept = sweep_plan_deltas(&mut plan, &deltas, &trace).unwrap();
        assert_eq!(swept.len(), deltas.len());
        // Every point must be bit-identical to a from-scratch lowering.
        for (d, got) in deltas.iter().zip(&swept) {
            assert!(got.is_valid());
            let mut h2 = host.clone();
            if let PlanDelta::LinkDelay { a, b, delay } = d {
                h2.set_link_delay(*a, *b, *delay);
            }
            let fresh = ExecPlan::build(&guest, &h2, &assign, EngineConfig::default()).unwrap();
            let fresh = match d {
                PlanDelta::ComputeCosts(Some(c)) => fresh.with_compute_costs(c.clone()),
                PlanDelta::Faults(Some(f)) => fresh.with_faults(f.clone()).unwrap(),
                _ => fresh,
            };
            let want = run_plan_and_validate(&fresh, &trace).unwrap();
            assert_eq!(got.outcome, want.outcome, "delta {d:?}");
        }
        // And the base plan is restored: rerunning matches a clean build.
        let base = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
        assert_eq!(plan.run().unwrap(), base.run().unwrap());
    }

    #[test]
    fn shared_plan_sweep_matches_fresh_lowering() {
        let guest = GuestSpec::array(8, ProgramKind::KvWorkload, 3, 6);
        let trace = ReferenceRun::execute(&guest);
        let host = linear_array(4, DelayModel::uniform(1, 7), 1);
        let assign = Assignment::blocked(4, 8);
        let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
        // Repeats share the plan; each must be bit-identical to a fresh
        // per-run lowering.
        let repeats = [0u32; 3];
        let shared = par_map(&repeats, |_| {
            run_plan_and_validate(&plan, &trace).expect("run")
        });
        let fresh =
            run_and_validate(&guest, &host, &assign, EngineConfig::default(), &trace).unwrap();
        for r in &shared {
            assert!(r.is_valid());
            assert_eq!(r.outcome.stats, fresh.outcome.stats);
            assert_eq!(r.outcome.copies, fresh.outcome.copies);
        }
    }
}
