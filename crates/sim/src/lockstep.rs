//! The lockstep executor: §1's naive baseline, executed for real.
//!
//! "The simplest of these methods is to slow down the computation to the
//! point where the latency is accommodated. … the circuit needs to be
//! slowed down to accommodate the highest latency."
//!
//! Every guest step is one globally synchronized round:
//!
//! 1. each processor computes this step's pebble for every held cell
//!    (`load` ticks — processors run their cells sequentially);
//! 2. every subscription ships exactly one pebble along its route; the
//!    round's barrier waits for the slowest route, including bandwidth
//!    serialization where routes share links.
//!
//! The per-round cost is therefore
//! `max_p load(p) + max_route(delay + per-link queueing)`, and the
//! makespan is exactly `steps × round_cost` — the `Θ(d_max + 1)` the
//! paper ascribes to clock-slowing, generalized to routed NOWs. The
//! computed state is identical to the other engines' (validated the same
//! way).
//!
//! Like the other executors, lockstep consumes a lowered
//! [`ExecPlan`] — the routing table comes from the plan, never rebuilt
//! here.

use crate::assignment::Assignment;
use crate::bandwidth::BandwidthMode;
use crate::engine::{CopyRecord, RunError, RunOutcome};
use crate::plan::ExecPlan;
use crate::routing::RoutingTable;
use crate::stats::RunStats;
use overlap_model::{fold64, Db, Dep, PebbleValue, ProgramRef};
use overlap_net::{HostGraph, NodeId};
use std::collections::HashMap;

/// The exact cost of one lockstep round: slowest processor's compute plus
/// the slowest route's latency with per-link queueing (each subscription
/// injects one pebble per round; links serve `bw` per tick).
///
/// Fails with [`RunError::MissingLink`] when a route references a host
/// link that does not exist (a malformed routing table — previously a
/// panic).
pub fn round_cost(
    host: &HostGraph,
    assign: &Assignment,
    routing: &RoutingTable,
    bandwidth: BandwidthMode,
) -> Result<u64, RunError> {
    let compute = assign.load() as u64;
    let bw = bandwidth.per_tick(host.num_nodes()) as u64;
    // Pebbles per directed link per round.
    let mut per_link: HashMap<(NodeId, NodeId), u64> = HashMap::new();
    for sub in &routing.subs {
        for w in sub.path.windows(2) {
            *per_link.entry((w[0], w[1])).or_default() += 1;
        }
    }
    let mut worst_route = 0u64;
    for sub in &routing.subs {
        let mut t = 0u64;
        for w in sub.path.windows(2) {
            let load = per_link[&(w[0], w[1])];
            let queueing = load.div_ceil(bw) - 1;
            let delay = host.link_delay(w[0], w[1]).ok_or(RunError::MissingLink {
                from: w[0],
                to: w[1],
            })?;
            t += delay + queueing;
        }
        worst_route = worst_route.max(t);
    }
    Ok(compute + worst_route)
}

/// Execute the guest under lockstep rounds over a lowered plan. State is
/// computed exactly (and can be validated like any other engine's
/// outcome); time is the closed form `steps × round_cost`.
pub fn run_lockstep(plan: &ExecPlan) -> Result<RunOutcome, RunError> {
    run_lockstep_controlled(plan, None)
}

/// [`run_lockstep`] under a cooperative [`RunControl`](crate::control::RunControl):
/// checked once per
/// simulated round (rounds are the lockstep engine's dispatch unit).
pub fn run_lockstep_controlled(
    plan: &ExecPlan,
    control: Option<&crate::control::RunControl>,
) -> Result<RunOutcome, RunError> {
    let routing = plan.routing().expect(
        "the lockstep engine implements unicast routing; \
         use the event engine for multicast",
    );
    let guest = plan.guest();
    let host = plan.host();
    let assign = plan.assignment();
    let bandwidth = plan.config().bandwidth;
    let n = host.num_nodes();
    let steps = guest.steps;
    // The closed-form makespan `steps × round_cost` assumes every pebble
    // costs one compute tick and every copy is always resident; weighted
    // task graphs and memory budgets would silently mis-time, so they are
    // rejected up front (use the event or sharded engine).
    if plan.config().mem.is_some() {
        return Err(RunError::UnsupportedFeature {
            engine: "lockstep",
            feature: "memory budget",
        });
    }
    if guest.has_nonunit_task_costs() {
        return Err(RunError::UnsupportedFeature {
            engine: "lockstep",
            feature: "non-unit task costs",
        });
    }
    let program: ProgramRef = guest.program.instantiate();
    let boundary = guest.boundary();
    let cost = round_cost(host, assign, routing, bandwidth)?;

    // Lockstep delivers every dependency every round, so execution reduces
    // to a redundant-copy reference run.
    let cells = guest.num_cells();
    let mut prev: Vec<PebbleValue> = (0..cells).map(|c| guest.initial_value(c)).collect();
    let mut cur: Vec<PebbleValue> = vec![0; cells as usize];
    // One database per (proc, held cell) copy, plus folds.
    struct Copy {
        cell: u32,
        proc: NodeId,
        db: Db,
        value_fold: u64,
        update_fold: u64,
    }
    let kind = program.db_kind();
    let mut copies: Vec<Copy> = (0..n)
        .flat_map(|p| {
            assign
                .cells_of(p)
                .iter()
                .map(move |&c| (p, c))
                .collect::<Vec<_>>()
        })
        .map(|(p, c)| Copy {
            cell: c,
            proc: p,
            db: kind.instantiate(c, guest.seed),
            value_fold: 0xF01Du64,
            update_fold: 0xD16u64,
        })
        .collect();

    let mut deps_buf = Vec::with_capacity(guest.max_deps());
    for t in 1..=steps {
        if let Some(ctl) = control {
            ctl.checkpoint(t as u64)?;
        }
        // Compute each cell once into `cur` (all copies agree by purity);
        // apply per-copy database updates.
        for c in 0..cells {
            deps_buf.clear();
            guest.visit_deps(c, t, |d| {
                deps_buf.push(match d {
                    Dep::Cell(cc) => prev[cc as usize],
                    Dep::Boundary { side, offset } => boundary.value(side, offset, t),
                });
            });
            // Use the first copy's db (all copies of a cell hold identical
            // state; asserted below in debug builds).
            let idx = copies
                .iter()
                .position(|cp| cp.cell == c)
                .expect("complete assignment");
            let (v, u) = if guest.is_relay(c, t) {
                (prev[c as usize], overlap_model::DbUpdate::None)
            } else {
                program.compute(c, t, &copies[idx].db, &deps_buf)
            };
            cur[c as usize] = v;
            for cp in copies.iter_mut().filter(|cp| cp.cell == c) {
                cp.db.apply(&u);
                cp.value_fold = fold64(cp.value_fold, v);
                cp.update_fold = fold64(cp.update_fold, u.digest());
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }

    let makespan = cost * steps as u64;
    let messages = routing.num_subscriptions() as u64 * steps as u64;
    let pebble_hops: u64 = routing
        .subs
        .iter()
        .map(|s| (s.path.len() as u64 - 1) * steps as u64)
        .sum();
    let out_copies: Vec<CopyRecord> = copies
        .iter()
        .map(|cp| CopyRecord {
            cell: cp.cell,
            proc: cp.proc,
            value_fold: cp.value_fold,
            db_digest: cp.db.digest(),
            update_fold: cp.update_fold,
            finished_at: makespan,
        })
        .collect();
    let stats = RunStats {
        guest_cells: cells,
        guest_steps: steps,
        host_procs: n,
        makespan,
        slowdown: if steps == 0 { 0.0 } else { cost as f64 },
        total_compute: assign.total_copies() as u64 * steps as u64,
        guest_work: guest.total_work(),
        redundancy: assign.redundancy(),
        load: assign.load(),
        active_procs: assign.active_procs(),
        messages,
        pebble_hops,
        subscriptions: routing.num_subscriptions(),
        bandwidth_per_link: bandwidth.per_tick(n),
        busiest_link_pebbles: 0,
        mean_link_pebbles: 0.0,
        events_processed: 0,
        peak_queue_depth: 0,
        queue_clamped_pushes: 0,
        faults: crate::stats::FaultStats::default(),
        stalls: None,
        mem: crate::stats::MemStats::default(),
    };
    Ok(RunOutcome {
        stats,
        copies: out_copies,
        timing: None,
        trace: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::validate::validate_run;
    use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;

    fn lockstep(
        guest: &GuestSpec,
        host: &HostGraph,
        assign: &Assignment,
        bandwidth: BandwidthMode,
    ) -> Result<RunOutcome, RunError> {
        let cfg = EngineConfig {
            bandwidth,
            ..Default::default()
        };
        let plan = ExecPlan::build(guest, host, assign, cfg)?;
        run_lockstep(&plan)
    }

    #[test]
    fn lockstep_state_matches_reference() {
        let guest = GuestSpec::array(12, ProgramKind::KvWorkload, 5, 10);
        let host = linear_array(4, DelayModel::uniform(1, 9), 2);
        let assign = Assignment::blocked(4, 12);
        let out = lockstep(&guest, &host, &assign, BandwidthMode::LogN).unwrap();
        let trace = ReferenceRun::execute(&guest);
        assert!(validate_run(&trace, &out).is_empty());
    }

    #[test]
    fn lockstep_pays_dmax_every_step() {
        let d = 50;
        let guest = GuestSpec::array(8, ProgramKind::Relaxation, 3, 6);
        let host = linear_array(4, DelayModel::constant(d), 0);
        let assign = Assignment::blocked(4, 8);
        let out = lockstep(&guest, &host, &assign, BandwidthMode::LogN).unwrap();
        // round = load (2) + worst route (one link, 50) = 52.
        assert_eq!(out.stats.slowdown, 52.0);
        assert_eq!(out.stats.makespan, 52 * 6);
    }

    #[test]
    fn lockstep_never_beats_the_greedy_engine() {
        for seed in 0..5 {
            let guest = GuestSpec::array(16, ProgramKind::Relaxation, seed, 12);
            let host = linear_array(4, DelayModel::uniform(1, 40), seed);
            let assign = Assignment::blocked(4, 16);
            // One plan serves both engines.
            let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
            let greedy = Engine::from_plan(&plan).run().unwrap();
            let lock = run_lockstep(&plan).unwrap();
            assert!(
                lock.stats.makespan >= greedy.stats.makespan,
                "seed {seed}: lockstep {} < greedy {}",
                lock.stats.makespan,
                greedy.stats.makespan
            );
            // And both compute the exact same state.
            let mut a = greedy.copies.clone();
            let mut b = lock.copies.clone();
            a.sort_by_key(|c| (c.cell, c.proc));
            b.sort_by_key(|c| (c.cell, c.proc));
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.value_fold, y.value_fold);
                assert_eq!(x.db_digest, y.db_digest);
            }
        }
    }

    #[test]
    fn queueing_shows_up_with_bandwidth_one() {
        // Many subscriptions over one link: bw = 1 queues them.
        let guest = GuestSpec::array(12, ProgramKind::StencilSum, 1, 4);
        let host = linear_array(2, DelayModel::constant(5), 0);
        let assign = Assignment::blocked(2, 12);
        let fat = lockstep(&guest, &host, &assign, BandwidthMode::Fixed(8)).unwrap();
        let thin = lockstep(&guest, &host, &assign, BandwidthMode::Fixed(1)).unwrap();
        assert!(thin.stats.slowdown >= fat.stats.slowdown);
    }

    #[test]
    fn incomplete_assignment_rejected() {
        let guest = GuestSpec::array(4, ProgramKind::StencilSum, 0, 2);
        let host = linear_array(2, DelayModel::constant(1), 0);
        let assign = Assignment::from_cells_of(2, 4, vec![vec![0], vec![3]]);
        assert!(matches!(
            lockstep(&guest, &host, &assign, BandwidthMode::LogN),
            Err(RunError::IncompleteAssignment(_))
        ));
    }

    #[test]
    fn malformed_route_reports_missing_link() {
        // Build a routing table against one host, then cost it against a
        // host whose links differ: the route references a missing link.
        let guest = GuestSpec::array(6, ProgramKind::StencilSum, 0, 2);
        let chain = linear_array(3, DelayModel::constant(1), 0);
        let assign = Assignment::blocked(3, 6);
        let routing = RoutingTable::build(&chain, &guest.topology, &assign);
        // Same node count, but the 1–2 link the routes rely on is gone.
        let mut sparse = HostGraph::new("sparse", 3);
        sparse.add_link(0, 1, 1);
        let err = round_cost(&sparse, &assign, &routing, BandwidthMode::LogN).unwrap_err();
        assert!(matches!(err, RunError::MissingLink { .. }), "{err:?}");
    }
}
