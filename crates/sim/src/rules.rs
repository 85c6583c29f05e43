//! The event rules, written once for both event-driven engines.
//!
//! The paper's execution model is one set of rules: a processor computes
//! a pebble, streams it along its routes, a link delivers it, and a crash
//! re-subscribes the orphaned consumers to a surviving copy. [`Rules`]
//! holds those rules and nothing else:
//!
//! * event handling ([`Rules::handle`]) for `ComputeDone`, `Arrival`,
//!   `TreeHop`, `Resend` and `TreeResend`;
//! * the unicast and tree send paths, including the retry/backoff branch
//!   of a fault plan;
//! * the compute-duration rule: processor cost × task cost, plus the
//!   memory-budget reload penalty;
//! * crash handling ([`Rules::crash`]): forfeit, loss accounting, orphan
//!   re-subscription and backfill sends;
//! * seeding ([`Rules::seed`]) and outcome collection
//!   ([`Rules::outcome`]).
//!
//! What differs between the sequential engine ([`crate::engine`]) and the
//! sharded engine ([`crate::sharded`]) sits behind [`Backend`]: where a
//! pushed event goes, how a processor index maps to its [`ProcState`],
//! which link slot a send charges, and which [`Lane`] of counters it
//! charges. Both engines monomorphise the rules over their backend (the
//! same trick as [`Tracer`]/[`NoopTracer`](crate::trace::NoopTracer)), so
//! the hot path has no dynamic dispatch.

use crate::engine::{CopyRecord, RunError, RunOutcome, TimingTrace};
use crate::faults::{FaultMark, FaultMarkKind, FaultPlan, FaultRt};
use crate::plan::{DepSrc, ExecPlan, ProcTables, Routes, SUB_BIT};
use crate::stats::{FaultStats, MemStats, RunStats};
use crate::trace::{MsgKey, ReadyCause, Tracer};
use overlap_model::{fold64, BoundaryRule, Db, DbUpdate, PebbleValue, ProgramRef};
use overlap_net::paths::dijkstra;
use overlap_net::NodeId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Event payload. Stored inline in the sequential engine's calendar
/// buckets and in the sharded engine's per-shard queues.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// Processor `proc` finishes computing its `own_idx`-th column's next
    /// step at the event tick.
    ComputeDone { proc: NodeId, own_idx: u32 },
    /// A streamed pebble reaches `path[hop]` of subscription `sub`.
    Arrival {
        sub: u32,
        hop: u16,
        step: u32,
        value: PebbleValue,
    },
    /// A multicast pebble reaches tree node `node` of tree `tree`.
    TreeHop {
        tree: u32,
        node: u32,
        step: u32,
        value: PebbleValue,
    },
    /// Retry a timed-out transfer toward `Arrival { sub, hop }` (the link
    /// used is the one *into* `hop`). Only scheduled under a fault plan.
    Resend {
        sub: u32,
        hop: u16,
        step: u32,
        value: PebbleValue,
        attempt: u32,
    },
    /// Retry a timed-out transfer on the tree edge into `node`.
    TreeResend {
        tree: u32,
        node: u32,
        step: u32,
        value: PebbleValue,
        attempt: u32,
    },
    /// Processor `proc` crashes permanently at the event tick. Scheduled
    /// at seed time, so it fires before same-tick compute/arrival events.
    /// Handled by [`Rules::crash`], never by [`Rules::handle`].
    Crash { proc: NodeId },
}

/// Mutable per-processor run state. Step-indexed arrays are flat with
/// stride `steps + 1` (index 0 = initial value).
pub(crate) struct ProcState {
    /// Next step (1-based) to compute per held cell; `T+1` = done.
    next_step: Vec<u32>,
    /// Value history per held cell: `history[i·stride + s]`.
    history: Vec<PebbleValue>,
    /// Database copy per held cell.
    dbs: Vec<Db>,
    /// Value/update folds per held cell (validator food).
    value_fold: Vec<u64>,
    update_fold: Vec<u64>,
    finished_at: Vec<u64>,
    /// Per held cell: completion tick per step (only when timing).
    times: Vec<Vec<u64>>,
    /// Receive buffers per dependency column: `dep_values[k·stride + s]`.
    dep_values: Vec<PebbleValue>,
    dep_have: Vec<bool>,
    /// Highest contiguous step received per dependency column.
    dep_watermark: Vec<u32>,
    /// Ready-pebble queue: `(step, own_idx)` min-heap; at most one entry
    /// per held cell (its next step).
    ready: BinaryHeap<Reverse<(u32, u32)>>,
    /// Whether each held cell currently sits in `ready` or is being
    /// computed.
    queued: Vec<bool>,
    /// Processor is computing until the pending `ComputeDone` fires.
    busy: bool,
    /// Memory-budget LRU over this processor's copies (`None` when the
    /// plan sets no budget). Boxed to keep the hot state compact.
    mem: Option<Box<MemLru>>,
}

impl ProcState {
    /// Fresh state for the processor described by `pt`: initial values at
    /// step 0, dependency step 0 pre-delivered.
    fn seed(
        pt: &ProcTables,
        plan: &ExecPlan<'_>,
        stride: usize,
        kind: overlap_model::DbKind,
    ) -> Self {
        let steps = plan.guest.steps;
        let record_timing = plan.config.record_timing;
        let nc = pt.cells.len();
        let nd = pt.dep_cells.len();
        let mut history = vec![0 as PebbleValue; nc * stride];
        for (i, &c) in pt.cells.iter().enumerate() {
            history[i * stride] = plan.guest.initial_value(c);
        }
        let mut dep_values = vec![0 as PebbleValue; nd * stride];
        let mut dep_have = vec![false; nd * stride];
        for (k, &c) in pt.dep_cells.iter().enumerate() {
            dep_values[k * stride] = plan.guest.initial_value(c);
            dep_have[k * stride] = true;
        }
        ProcState {
            next_step: vec![1; nc],
            history,
            dbs: pt
                .cells
                .iter()
                .map(|&c| kind.instantiate(c, plan.guest.seed))
                .collect(),
            value_fold: vec![0xF01Du64; nc],
            update_fold: vec![0xD16u64; nc],
            finished_at: vec![0; nc],
            times: if record_timing {
                (0..nc)
                    .map(|_| Vec::with_capacity(steps as usize))
                    .collect()
            } else {
                vec![Vec::new(); nc]
            },
            dep_values,
            dep_have,
            dep_watermark: vec![0; nd],
            ready: BinaryHeap::new(),
            queued: vec![false; nc],
            busy: false,
            mem: plan
                .config
                .mem
                .map(|m| Box::new(MemLru::new(nc, m.budget, m.reload_cost))),
        }
    }
}

/// Directed-link injection bookkeeping for pipelined bandwidth, plus the
/// link's total pebble count.
#[derive(Clone, Copy, Default)]
pub(crate) struct LinkSlot {
    tick: u64,
    count: u32,
    /// Pebbles injected over the whole run (timed-out attempts included).
    pub(crate) traffic: u64,
}

/// Reserve an injection slot on a directed link: at most `bw` injections
/// per tick, FIFO, never before `now`. Returns the departure tick.
pub(crate) fn inject(slot: &mut LinkSlot, now: u64, bw: u64) -> u64 {
    if slot.tick < now {
        slot.tick = now;
        slot.count = 0;
    }
    if (slot.count as u64) < bw {
        slot.count += 1;
    } else {
        slot.tick += 1;
        slot.count = 1;
    }
    slot.tick
}

/// Deterministic per-processor LRU over database copies, driven by the
/// compute schedule (touched once per compute *start*, in schedule
/// order). Both engines start computes through [`Rules`] in the same
/// per-processor order, so the LRU evolves bit-identically in each.
pub(crate) struct MemLru {
    cap: usize,
    reload: u64,
    resident: Vec<bool>,
    last_use: Vec<u64>,
    clock: u64,
    evictions: u64,
    reloads: u64,
    reload_ticks: u64,
}

impl MemLru {
    /// Seed residency: the first `budget` copies in held-cell order are
    /// resident with ascending use stamps (so stamps are always unique and
    /// the eviction choice is total-ordered).
    fn new(num_cells: usize, budget: u32, reload_cost: u32) -> Self {
        let cap = (budget.max(1) as usize).min(num_cells.max(1));
        let mut resident = vec![false; num_cells];
        let mut last_use = vec![0u64; num_cells];
        let mut clock = 0u64;
        for (i, r) in resident.iter_mut().enumerate().take(cap) {
            *r = true;
            last_use[i] = clock;
            clock += 1;
        }
        Self {
            cap,
            reload: reload_cost as u64,
            resident,
            last_use,
            clock,
            evictions: 0,
            reloads: 0,
            reload_ticks: 0,
        }
    }

    /// Charge a compute start on held cell `i`: 0 extra ticks when the
    /// copy is resident, else evict the LRU resident copy and charge the
    /// reload cost. Returns the extra ticks.
    fn touch(&mut self, i: usize) -> u64 {
        if self.cap >= self.resident.len() {
            return 0; // every copy fits; no accounting needed
        }
        if self.resident[i] {
            self.last_use[i] = self.clock;
            self.clock += 1;
            return 0;
        }
        let victim = self
            .resident
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r)
            .min_by_key(|&(j, _)| (self.last_use[j], j))
            .map(|(j, _)| j)
            .expect("cap ≥ 1 resident copies");
        self.resident[victim] = false;
        self.evictions += 1;
        self.resident[i] = true;
        self.last_use[i] = self.clock;
        self.clock += 1;
        self.reloads += 1;
        self.reload_ticks += self.reload;
        self.reload
    }
}

/// Is held cell `i` ready to compute its next step? Pure table walk over
/// the interned check list — no hashing, no `Dep` matching.
#[inline(always)]
fn is_ready(pt: &ProcTables, st: &ProcState, i: usize, steps: u32) -> bool {
    let s = st.next_step[i];
    if s > steps {
        return false;
    }
    for &enc in pt.checks_at(i, s) {
        if enc & SUB_BIT != 0 {
            if st.dep_watermark[(enc & !SUB_BIT) as usize] < s - 1 {
                return false;
            }
        } else if st.next_step[enc as usize] < s {
            return false;
        }
    }
    true
}

/// Queue held cell `j` if it is ready and not already queued/being run.
/// `try_enqueue` succeeds at most once per (cell, step) — the `queued`
/// flag — so the successful call's context is exactly the event that made
/// the pebble ready, which is what `tracer` gets told.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn try_enqueue<T: Tracer>(
    pt: &ProcTables,
    st: &mut ProcState,
    j: usize,
    steps: u32,
    proc: NodeId,
    tick: u64,
    cause: ReadyCause,
    tracer: &mut T,
) {
    if !st.queued[j] && is_ready(pt, st, j, steps) {
        st.ready.push(Reverse((st.next_step[j], j as u32)));
        st.queued[j] = true;
        tracer.on_enqueued(proc, j as u32, st.next_step[j], tick, cause);
    }
}

/// A runtime re-subscription created when a holder crashed: `source`
/// streams `cell` to `dest` over `links` (directed link ids in route
/// order), delivering into the consumer's dependency slot `dest_dep`.
#[derive(Clone)]
pub(crate) struct DynSub {
    cell: u32,
    source: NodeId,
    dest: NodeId,
    dest_dep: u32,
    links: Vec<u32>,
}

/// Routing state that only crashes change: which processors are down and
/// the re-subscriptions created for their orphaned consumers. Read by
/// every event, written only by [`Rules::crash`] (the sharded engine runs
/// crashes at barriers, so its shards share one read-only copy).
#[derive(Default, Clone)]
pub(crate) struct Crashes {
    crashed: Vec<bool>,
    dyn_subs: Vec<DynSub>,
    /// Dynamic outbound subscription ids per copy id (allocated on the
    /// first crash that orphans a consumer).
    dyn_out: Vec<Vec<u32>>,
}

/// Run counters one backend charges. The sequential engine has one; the
/// sharded engine has one per shard plus one for the barrier (crashes),
/// summed at the end.
#[derive(Default)]
pub(crate) struct Lane {
    pub(crate) messages: u64,
    pub(crate) pebble_hops: u64,
    pub(crate) makespan: u64,
    /// Pebbles computed.
    pub(crate) completed: u64,
    /// Pebbles forfeited by crashed processors.
    pub(crate) forfeited: u64,
    pub(crate) faults: FaultStats,
    /// Fault marks in processing order (only when timing is recorded).
    pub(crate) timeline: Vec<FaultMark>,
    /// Dependency-gather scratch buffer.
    deps: Vec<PebbleValue>,
}

impl Lane {
    /// Add another lane's counters (not its timeline) into this one.
    pub(crate) fn absorb(&mut self, o: &Lane) {
        self.messages += o.messages;
        self.pebble_hops += o.pebble_hops;
        self.makespan = self.makespan.max(o.makespan);
        self.completed += o.completed;
        self.forfeited += o.forfeited;
        self.faults.retries += o.faults.retries;
        self.faults.rerouted_subscriptions += o.faults.rerouted_subscriptions;
        self.faults.fault_stall_ticks += o.faults.fault_stall_ticks;
        self.faults.crashed_procs += o.faults.crashed_procs;
        self.faults.lost_copies += o.faults.lost_copies;
    }
}

/// The engine-specific half of the event rules. [`Rules`] is generic
/// over it; the implementations the per-event path uses are small and
/// `#[inline]`. The handlers on that path are `#[inline(always)]`, so
/// each engine's loop compiles to one function (left to itself, LLVM
/// keeps `try_enqueue` and the send paths out of line).
pub(crate) trait Backend {
    /// Run state of processor `p`.
    fn proc(&mut self, p: usize) -> &mut ProcState;
    /// Injection slot of directed link `lid`, charged by a send.
    fn link(&mut self, lid: u32) -> &mut LinkSlot;
    /// Schedule `ev` at `tick`. `owner` is the processor whose state the
    /// event will touch (the sharded engine routes by it).
    fn push(&mut self, tick: u64, owner: NodeId, ev: Ev);
    /// The counters this backend charges.
    fn lane(&mut self) -> &mut Lane;
}

/// Where a transmitted pebble goes next.
enum Sent {
    /// It arrives at this tick.
    Arrives(u64),
    /// It was lost on a downed link; retry at `at` as attempt `attempt`.
    Retries { at: u64, attempt: u32 },
}

/// Immutable per-run context of the event rules, shared by every shard.
pub(crate) struct Rules<'p, 'a> {
    pub(crate) plan: &'p ExecPlan<'a>,
    frt: Option<FaultRt>,
    program: ProgramRef,
    boundary: BoundaryRule,
    bw: u64,
    steps: u32,
    stride: usize,
    record_timing: bool,
    n_orig_subs: usize,
    costs: Option<&'p [u32]>,
    has_task_costs: bool,
    has_relays: bool,
}

impl<'p, 'a> Rules<'p, 'a> {
    /// Compile the rules for `plan` under `faults` (an empty plan takes
    /// the fault-free path) and per-processor compute `costs`.
    pub(crate) fn new(
        plan: &'p ExecPlan<'a>,
        faults: Option<&FaultPlan>,
        costs: Option<&'p [u32]>,
    ) -> Result<Self, RunError> {
        let frt = match faults {
            Some(fp) if !fp.is_empty() => Some(FaultRt::build(fp, &plan.host)?),
            _ => None,
        };
        Ok(Self {
            plan,
            frt,
            program: plan.guest.program.instantiate(),
            boundary: plan.guest.boundary(),
            bw: plan.config.bandwidth.per_tick(plan.host.num_nodes()) as u64,
            steps: plan.guest.steps,
            stride: plan.guest.steps as usize + 1,
            record_timing: plan.config.record_timing,
            n_orig_subs: plan.hot.sub_link_off.len() - 1,
            costs,
            has_task_costs: plan.guest.has_nonunit_task_costs(),
            has_relays: plan.guest.graph.is_some(),
        })
    }

    /// Fresh run state of processor `p`.
    pub(crate) fn proc_state(&self, p: usize) -> ProcState {
        let kind = self.program.db_kind();
        ProcState::seed(&self.plan.hot.procs[p], self.plan, self.stride, kind)
    }

    /// Fresh crash state (nothing crashed).
    pub(crate) fn crashes(&self) -> Crashes {
        let n = if self.frt.is_some() {
            self.plan.host.num_nodes() as usize
        } else {
            0
        };
        Crashes {
            crashed: vec![false; n],
            ..Crashes::default()
        }
    }

    /// A fresh, zeroed lane.
    pub(crate) fn lane(&self) -> Lane {
        Lane {
            deps: Vec::with_capacity(self.plan.guest.max_deps()),
            ..Lane::default()
        }
    }

    /// Pebbles the run must compute (every held cell, every step).
    pub(crate) fn total_compute(&self) -> u64 {
        let cells: u64 = self
            .plan
            .hot
            .procs
            .iter()
            .map(|pt| pt.cells.len() as u64)
            .sum();
        cells * self.steps as u64
    }

    /// Scheduled crashes as `(tick, proc)`, in processor order.
    pub(crate) fn crash_schedule(&self) -> impl Iterator<Item = (u64, NodeId)> + '_ {
        self.frt.iter().flat_map(|f| {
            f.crash_at
                .iter()
                .enumerate()
                .filter(|&(_, &at)| at != u64::MAX)
                .map(|(p, &at)| (at, p as NodeId))
        })
    }

    /// Seed: enqueue every initially-ready pebble and start every
    /// processor, in processor order.
    pub(crate) fn seed<B: Backend, T: Tracer>(&self, b: &mut B, tr: &mut T) {
        for (p, pt) in self.plan.hot.procs.iter().enumerate() {
            let st = b.proc(p);
            for i in 0..pt.cells.len() {
                try_enqueue(pt, st, i, self.steps, p as NodeId, 0, ReadyCause::Local, tr);
            }
            self.start_next(b, tr, p, 0);
        }
    }

    /// Process one non-crash event.
    #[inline(always)]
    pub(crate) fn handle<B: Backend, T: Tracer>(
        &self,
        cr: &Crashes,
        b: &mut B,
        tr: &mut T,
        tick: u64,
        ev: Ev,
    ) -> Result<(), RunError> {
        let hot = &self.plan.hot;
        match ev {
            Ev::ComputeDone { proc, own_idx } => self.compute_done(cr, b, tr, tick, proc, own_idx),
            Ev::Arrival {
                sub,
                hop,
                step,
                value,
            } => {
                let sid = sub as usize;
                let (nlinks, dest, dep) = if sid < self.n_orig_subs {
                    let llo = hot.sub_link_off[sid] as usize;
                    let lhi = hot.sub_link_off[sid + 1] as usize;
                    (
                        lhi - llo,
                        hot.sub_dest[sid] as usize,
                        hot.sub_dest_dep[sid] as usize,
                    )
                } else {
                    let ds = &cr.dyn_subs[sid - self.n_orig_subs];
                    (ds.links.len(), ds.dest as usize, ds.dest_dep as usize)
                };
                if (hop as usize) < nlinks {
                    // Forward along the route (intermediate processors
                    // store-and-forward even if crashed: the fabric
                    // outlives the workstation's compute).
                    self.send_sub(cr, b, tr, tick, sub, hop + 1, step, value, 0)?;
                } else if !(self.frt.is_some() && cr.crashed[dest]) {
                    let msg = MsgKey::Sub { sub, step };
                    self.deliver(b, tr, tick, dest, dep, step, value, msg);
                }
                Ok(())
            }
            Ev::TreeHop {
                tree,
                node,
                step,
                value,
            } => {
                let Routes::Multicast(mt) = &self.plan.routes else {
                    unreachable!("tree hop in unicast mode");
                };
                let t = &mt.trees[tree as usize];
                // Forward to children (store-and-forward survives a crash
                // of the intermediate workstation).
                for &child in &t.children[node as usize] {
                    b.lane().pebble_hops += 1;
                    self.send_tree(b, tr, tick, tree, child, step, value, 0)?;
                }
                // Deliver locally if this node subscribes.
                let kdep = hot.tree_deliver_dep[tree as usize][node as usize];
                if kdep != u32::MAX {
                    let p = t.nodes[node as usize] as usize;
                    if !(self.frt.is_some() && cr.crashed[p]) {
                        let msg = MsgKey::Tree { tree, step };
                        self.deliver(b, tr, tick, p, kdep as usize, step, value, msg);
                    }
                }
                Ok(())
            }
            Ev::Resend {
                sub,
                hop,
                step,
                value,
                attempt,
            } => self.send_sub(cr, b, tr, tick, sub, hop, step, value, attempt),
            Ev::TreeResend {
                tree,
                node,
                step,
                value,
                attempt,
            } => self.send_tree(b, tr, tick, tree, node, step, value, attempt),
            Ev::Crash { .. } => unreachable!("crashes are handled by Rules::crash"),
        }
    }

    /// `ComputeDone`: compute the pebble, stream it to every subscriber,
    /// and unblock the processor's next work.
    #[inline(always)]
    fn compute_done<B: Backend, T: Tracer>(
        &self,
        cr: &Crashes,
        b: &mut B,
        tr: &mut T,
        tick: u64,
        proc: NodeId,
        own_idx: u32,
    ) -> Result<(), RunError> {
        let p = proc as usize;
        // A crashed processor's in-flight pebble never completes (its work
        // was forfeited at crash time).
        if self.frt.is_some() && cr.crashed[p] {
            return Ok(());
        }
        let (hot, steps, stride) = (&self.plan.hot, self.steps, self.stride);
        let i = own_idx as usize;
        let pt = &hot.procs[p];
        let mut deps = std::mem::take(&mut b.lane().deps);
        let st = b.proc(p);
        let (cell, s) = (pt.cells[i], st.next_step[i]);
        debug_assert!(s <= steps);
        // Gather dependency values at step s-1 via the interned source
        // table.
        deps.clear();
        let sm1 = s as usize - 1;
        for &src in pt.gather_at(i, s) {
            deps.push(match src {
                DepSrc::Boundary { side, offset } => self.boundary.value(side, offset, s),
                DepSrc::Own(j) => st.history[j as usize * stride + sm1],
                DepSrc::Sub(k) => {
                    debug_assert!(st.dep_have[k as usize * stride + sm1]);
                    st.dep_values[k as usize * stride + sm1]
                }
            });
        }
        let (v, u) = if self.has_relays && self.plan.guest.is_relay(cell, s) {
            // Relay slots repeat the lane's previous value and leave the
            // database untouched; DbUpdate::None still folds into the
            // update log (as in the reference).
            (deps[0], DbUpdate::None)
        } else {
            self.program.compute(cell, s, &st.dbs[i], &deps)
        };
        st.dbs[i].apply(&u);
        st.history[i * stride + s as usize] = v;
        st.value_fold[i] = fold64(st.value_fold[i], v);
        st.update_fold[i] = fold64(st.update_fold[i], u.digest());
        st.next_step[i] = s + 1;
        st.queued[i] = false;
        st.busy = false;
        if self.record_timing {
            st.times[i].push(tick);
        }
        if s == steps {
            st.finished_at[i] = tick;
        }
        tr.on_compute_done(proc, own_idx, s, tick);
        let lane = b.lane();
        lane.deps = deps;
        lane.completed += 1;
        lane.makespan = lane.makespan.max(tick);

        // Stream to subscribers: the per-copy route list holds exactly
        // this column's routes, in classic scan order.
        let cid = hot.copy_off[p] as usize + i;
        let routes = &hot.out_ids[hot.out_off[cid] as usize..hot.out_off[cid + 1] as usize];
        match &self.plan.routes {
            Routes::Unicast(_) => {
                for &sid in routes {
                    let llo = hot.sub_link_off[sid as usize] as usize;
                    let lhi = hot.sub_link_off[sid as usize + 1] as usize;
                    let lane = b.lane();
                    lane.messages += 1;
                    lane.pebble_hops += (lhi - llo) as u64;
                    self.send_sub(cr, b, tr, tick, sid, 1, s, v, 0)?;
                }
            }
            Routes::Multicast(mt) => {
                for &tid in routes {
                    b.lane().messages += 1;
                    let tree = &mt.trees[tid as usize];
                    for &child in &tree.children[tree.root as usize] {
                        b.lane().pebble_hops += 1;
                        self.send_tree(b, tr, tick, tid, child, s, v, 0)?;
                    }
                }
            }
        }
        // Stream to re-subscribed consumers (crash recovery).
        if !cr.dyn_out.is_empty() {
            for &dsid in &cr.dyn_out[cid] {
                let lane = b.lane();
                lane.messages += 1;
                lane.pebble_hops +=
                    cr.dyn_subs[dsid as usize - self.n_orig_subs].links.len() as u64;
                self.send_sub(cr, b, tr, tick, dsid, 1, s, v, 0)?;
            }
        }

        // Unblock: this column's next step, then the held dependents —
        // walked in place, no scratch list.
        let st = b.proc(p);
        try_enqueue(pt, st, i, steps, proc, tick, ReadyCause::Local, tr);
        for idx in pt.own_dep_off[i] as usize..pt.own_dep_off[i + 1] as usize {
            let j = pt.own_dependents[idx] as usize;
            try_enqueue(pt, st, j, steps, proc, tick, ReadyCause::Local, tr);
        }
        self.start_next(b, tr, p, tick);
        Ok(())
    }

    /// Store a delivered pebble at processor `p`'s dependency column `k`,
    /// advance the column watermark, unblock the held cells waiting on
    /// it, and start the processor if it is idle. `msg` identifies the
    /// delivering message for stall attribution.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn deliver<B: Backend, T: Tracer>(
        &self,
        b: &mut B,
        tr: &mut T,
        tick: u64,
        p: usize,
        k: usize,
        step: u32,
        value: PebbleValue,
        msg: MsgKey,
    ) {
        let (pt, steps) = (&self.plan.hot.procs[p], self.steps);
        let st = b.proc(p);
        let base = k * self.stride;
        st.dep_values[base + step as usize] = value;
        st.dep_have[base + step as usize] = true;
        while (st.dep_watermark[k] as usize) < steps as usize
            && st.dep_have[base + st.dep_watermark[k] as usize + 1]
        {
            st.dep_watermark[k] += 1;
        }
        for idx in pt.dep_dep_off[k] as usize..pt.dep_dep_off[k + 1] as usize {
            let j = pt.dep_dependents[idx] as usize;
            let cause = ReadyCause::Delivered(msg);
            try_enqueue(pt, st, j, steps, p as NodeId, tick, cause, tr);
        }
        self.start_next(b, tr, p, tick);
    }

    /// If processor `p` is idle, start its lowest ready pebble and
    /// schedule the completion. The duration is processor speed × task
    /// cost, plus the memory-budget reload penalty (which also advances
    /// the LRU — exactly once per start).
    #[inline(always)]
    fn start_next<B: Backend, T: Tracer>(&self, b: &mut B, tr: &mut T, p: usize, tick: u64) {
        let st = b.proc(p);
        if st.busy {
            return;
        }
        let Some(Reverse((s, j))) = st.ready.pop() else {
            return;
        };
        st.busy = true;
        tr.on_start(p as NodeId, j, s, tick);
        let jj = j as usize;
        let mut d = self.costs.map_or(1, |c| c[p] as u64);
        if self.has_task_costs {
            let cell = self.plan.hot.procs[p].cells[jj];
            d *= self.plan.guest.task_cost(cell, st.next_step[jj]) as u64;
        }
        if let Some(m) = st.mem.as_mut() {
            d += m.touch(jj);
        }
        let proc = p as NodeId;
        b.push(tick + d, proc, Ev::ComputeDone { proc, own_idx: j });
    }

    /// Put one pebble on directed link `lid` at `now`, charging
    /// bandwidth. Under a fault plan, delay spikes multiply the jittered
    /// delay, and a transfer overlapping a down interval is lost: the
    /// sender times out at the expected arrival tick and retries after
    /// exponential backoff ([`RetryPolicy`](crate::faults::RetryPolicy));
    /// failed attempts still consume slots.
    #[inline(always)]
    fn transmit<B: Backend, T: Tracer>(
        &self,
        b: &mut B,
        tr: &mut T,
        now: u64,
        lid: u32,
        msg: MsgKey,
        attempt: u32,
    ) -> Result<Sent, RunError> {
        let slot = b.link(lid);
        slot.traffic += 1;
        let depart = inject(slot, now, self.bw);
        tr.on_link_inject(lid, depart);
        let delay = self.plan.hot.link_delay[lid as usize];
        let base = self.plan.config.jitter.effective(delay, lid, depart);
        let Some(f) = self.frt.as_ref() else {
            return Ok(Sent::Arrives(depart + base));
        };
        let arrive = depart + base * f.spike_factor(lid, depart);
        if !f.down_overlap(lid, depart, arrive) {
            return Ok(Sent::Arrives(arrive));
        }
        let attempt = attempt + 1;
        if attempt > f.retry.max_attempts {
            return Err(RunError::RetriesExhausted {
                link: lid,
                tick: arrive,
            });
        }
        let back = f.retry.backoff(attempt);
        let lane = b.lane();
        lane.faults.retries += 1;
        lane.faults.fault_stall_ticks += arrive - now + back;
        tr.on_fault_wait(msg, arrive - now + back);
        if self.record_timing {
            lane.timeline.push(FaultMark {
                tick: arrive,
                kind: FaultMarkKind::LinkTimeout { link: lid },
            });
        }
        Ok(Sent::Retries {
            at: arrive + back,
            attempt,
        })
    }

    /// Transmit one pebble over the link leading into `Arrival { sub,
    /// hop }` (original or dynamic subscription).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn send_sub<B: Backend, T: Tracer>(
        &self,
        cr: &Crashes,
        b: &mut B,
        tr: &mut T,
        now: u64,
        sub: u32,
        hop: u16,
        step: u32,
        value: PebbleValue,
        attempt: u32,
    ) -> Result<(), RunError> {
        let hot = &self.plan.hot;
        let sid = sub as usize;
        let lid = if sid < self.n_orig_subs {
            hot.sub_links[hot.sub_link_off[sid] as usize + hop as usize - 1]
        } else {
            cr.dyn_subs[sid - self.n_orig_subs].links[hop as usize - 1]
        };
        let l = lid as usize;
        match self.transmit(b, tr, now, lid, MsgKey::Sub { sub, step }, attempt)? {
            Sent::Arrives(at) => {
                let ev = Ev::Arrival {
                    sub,
                    hop,
                    step,
                    value,
                };
                b.push(at, hot.link_dst[l], ev);
            }
            Sent::Retries { at, attempt } => {
                let ev = Ev::Resend {
                    sub,
                    hop,
                    step,
                    value,
                    attempt,
                };
                b.push(at, hot.link_src[l], ev);
            }
        }
        Ok(())
    }

    /// Transmit one pebble over the multicast tree edge into `node`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn send_tree<B: Backend, T: Tracer>(
        &self,
        b: &mut B,
        tr: &mut T,
        now: u64,
        tree: u32,
        node: u32,
        step: u32,
        value: PebbleValue,
        attempt: u32,
    ) -> Result<(), RunError> {
        let hot = &self.plan.hot;
        let lid = hot.tree_edge_lid[tree as usize][node as usize];
        let l = lid as usize;
        match self.transmit(b, tr, now, lid, MsgKey::Tree { tree, step }, attempt)? {
            Sent::Arrives(at) => {
                let ev = Ev::TreeHop {
                    tree,
                    node,
                    step,
                    value,
                };
                b.push(at, hot.link_dst[l], ev);
            }
            Sent::Retries { at, attempt } => {
                let ev = Ev::TreeResend {
                    tree,
                    node,
                    step,
                    value,
                    attempt,
                };
                b.push(at, hot.link_src[l], ev);
            }
        }
        Ok(())
    }

    /// Processor `proc` crashes at `tick`: forfeit its uncomputed pebbles,
    /// fail if a column lost its last copy, and re-subscribe every
    /// consumer it was serving to the nearest surviving holder of the same
    /// database (the paper's redundancy, exploited for recovery),
    /// backfilling the pebbles each consumer may still be missing.
    pub(crate) fn crash<B: Backend, T: Tracer>(
        &self,
        cr: &mut Crashes,
        b: &mut B,
        tr: &mut T,
        tick: u64,
        proc: NodeId,
    ) -> Result<(), RunError> {
        let (plan, hot) = (self.plan, &self.plan.hot);
        let f = self.frt.as_ref().expect("crash implies fault plan");
        let p = proc as usize;
        if cr.crashed[p] {
            return Ok(());
        }
        cr.crashed[p] = true;
        tr.on_crash(proc);
        let pt = &hot.procs[p];
        // Forfeit this processor's uncomputed pebbles — its pending
        // ComputeDone (if any) is dropped by the crash guard, so the
        // in-flight pebble is forfeited too.
        let forfeited: u64 = b
            .proc(p)
            .next_step
            .iter()
            .map(|&ns| (self.steps + 1 - ns) as u64)
            .sum();
        let lane = b.lane();
        lane.forfeited += forfeited;
        lane.faults.crashed_procs += 1;
        lane.faults.lost_copies += pt.cells.len() as u32;
        if self.record_timing {
            lane.timeline.push(FaultMark {
                tick,
                kind: FaultMarkKind::Crash { proc },
            });
        }

        // A column whose every copy is gone is unrecoverable.
        for &c in &pt.cells {
            if plan
                .assign
                .holders(c)
                .iter()
                .all(|&q| cr.crashed[q as usize])
            {
                return Err(RunError::ColumnLost { cell: c, tick });
            }
        }

        let mut orphans: Vec<(u32, NodeId, u32)> = Vec::new();
        match &plan.routes {
            Routes::Unicast(rt) => {
                for (sid, sub) in rt.subs.iter().enumerate() {
                    if sub.source == proc && !cr.crashed[sub.dest as usize] {
                        orphans.push((sub.cell, sub.dest, hot.sub_dest_dep[sid]));
                    }
                }
            }
            Routes::Multicast(mt) => {
                for (tid, t) in mt.trees.iter().enumerate() {
                    if t.source != proc {
                        continue;
                    }
                    for (v, &del) in t.deliver.iter().enumerate() {
                        if del && !cr.crashed[t.nodes[v] as usize] {
                            orphans.push((t.cell, t.nodes[v], hot.tree_deliver_dep[tid][v]));
                        }
                    }
                }
            }
        }
        for ds in &cr.dyn_subs {
            if ds.source == proc && !cr.crashed[ds.dest as usize] {
                orphans.push((ds.cell, ds.dest, ds.dest_dep));
            }
        }
        if !orphans.is_empty() && cr.dyn_out.is_empty() {
            cr.dyn_out = vec![Vec::new(); *hot.copy_off.last().unwrap() as usize];
        }

        // One Dijkstra per distinct consumer (consumer-rooted: the host is
        // undirected, so the reversed path serves holder → consumer).
        let mut sp_cache: HashMap<NodeId, overlap_net::paths::PathResult> = HashMap::new();
        for (cell, dest, dest_dep) in orphans {
            let sp = sp_cache
                .entry(dest)
                .or_insert_with(|| dijkstra(&plan.host, dest));
            let best = plan
                .assign
                .holders(cell)
                .iter()
                .copied()
                .filter(|&q| !cr.crashed[q as usize])
                .min_by_key(|&q| (sp.dist[q as usize], q))
                .expect("surviving holder checked above");
            let Some(mut path) = sp.path_to(best) else {
                return Err(RunError::NoRouteToHolder {
                    cell,
                    holder: best,
                    consumer: dest,
                    tick,
                });
            };
            path.reverse();
            let links: Vec<u32> = path.windows(2).map(|w| f.link_ids[&(w[0], w[1])]).collect();
            let nhops = links.len() as u64;
            let pos = hot.procs[best as usize]
                .cells
                .binary_search(&cell)
                .expect("holder holds cell");
            let src_cid = hot.copy_off[best as usize] as usize + pos;
            let sid = (self.n_orig_subs + cr.dyn_subs.len()) as u32;
            let computed = b.proc(best as usize).next_step[pos] - 1;
            cr.dyn_subs.push(DynSub {
                cell,
                source: best,
                dest,
                dest_dep,
                links,
            });
            cr.dyn_out[src_cid].push(sid);
            tr.on_reroute(sid, best, pos as u32);
            let lane = b.lane();
            lane.faults.rerouted_subscriptions += 1;
            if self.record_timing {
                lane.timeline.push(FaultMark {
                    tick,
                    kind: FaultMarkKind::Reroute { cell, to: best },
                });
            }
            // Backfill every pebble the consumer may still be missing,
            // from its contiguous watermark up to the new source's
            // progress; later pebbles flow via the dynamic route as the
            // source computes them. Duplicate deliveries are idempotent.
            let w = b.proc(dest as usize).dep_watermark[dest_dep as usize];
            for s2 in (w + 1)..=computed {
                let value = b.proc(best as usize).history[pos * self.stride + s2 as usize];
                let lane = b.lane();
                lane.messages += 1;
                lane.pebble_hops += nhops;
                self.send_sub(cr, b, tr, tick, sid, 1, s2, value, 0)?;
            }
        }
        Ok(())
    }

    /// Crashes scheduled beyond the last pebble still destroy their
    /// processor's databases: the surviving set depends only on the fault
    /// plan, never on an engine's timing model, so every engine reports
    /// identical copies even when their makespans straddle a crash tick.
    /// No work is left to forfeit and the run already completed, so a
    /// late crash cannot retroactively make a column unrecoverable.
    pub(crate) fn late_crashes<T: Tracer>(&self, cr: &mut Crashes, lane: &mut Lane, tr: &mut T) {
        for (at, proc) in self.crash_schedule() {
            let p = proc as usize;
            if cr.crashed[p] {
                continue;
            }
            cr.crashed[p] = true;
            tr.on_crash(proc);
            lane.faults.crashed_procs += 1;
            lane.faults.lost_copies += self.plan.hot.procs[p].cells.len() as u32;
            if self.record_timing {
                lane.timeline.push(FaultMark {
                    tick: at,
                    kind: FaultMarkKind::Crash { proc },
                });
            }
        }
    }

    /// Collect the outcome of a completed run: one copy record per
    /// surviving database copy (crashed processors' copies are lost) and
    /// the run statistics. `state` maps a processor to its run state,
    /// `traffic` yields each directed link's pebble count.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn outcome<'s>(
        &self,
        cr: &Crashes,
        state: impl Fn(usize) -> &'s ProcState,
        traffic: impl Iterator<Item = u64>,
        lane: Lane,
        events_processed: u64,
        peak_queue_depth: u64,
        queue_clamped_pushes: u64,
    ) -> RunOutcome {
        let plan = self.plan;
        let steps = self.steps;
        let mut copies = Vec::with_capacity(plan.assign.total_copies());
        let mut timing = self.record_timing.then(TimingTrace::default);
        let mut mem = MemStats::default();
        for (p, pt) in plan.hot.procs.iter().enumerate() {
            let st = state(p);
            if let Some(m) = &st.mem {
                mem.evictions += m.evictions;
                mem.reloads += m.reloads;
                mem.reload_ticks += m.reload_ticks;
            }
            if self.frt.is_some() && cr.crashed[p] {
                continue;
            }
            for (i, &c) in pt.cells.iter().enumerate() {
                copies.push(CopyRecord {
                    cell: c,
                    proc: p as NodeId,
                    value_fold: st.value_fold[i],
                    db_digest: st.dbs[i].digest(),
                    update_fold: st.update_fold[i],
                    finished_at: st.finished_at[i],
                });
                if let Some(t) = timing.as_mut() {
                    t.ticks.push(st.times[i].clone());
                }
            }
        }
        if let Some(t) = timing.as_mut() {
            t.fault_timeline = lane.timeline;
        }
        let (mut busiest, mut active_sum, mut active) = (0u64, 0u64, 0u64);
        for t in traffic {
            busiest = busiest.max(t);
            if t > 0 {
                active_sum += t;
                active += 1;
            }
        }
        let makespan = lane.makespan;
        let stats = RunStats {
            guest_cells: plan.guest.num_cells(),
            guest_steps: steps,
            host_procs: plan.host.num_nodes(),
            makespan,
            slowdown: if steps == 0 {
                0.0
            } else {
                makespan as f64 / steps as f64
            },
            total_compute: self.total_compute() - lane.forfeited,
            guest_work: plan.guest.total_work(),
            redundancy: plan.assign.redundancy(),
            load: plan.assign.load(),
            active_procs: plan.assign.active_procs(),
            messages: lane.messages,
            pebble_hops: lane.pebble_hops,
            subscriptions: plan.routes.num_subscriptions(),
            bandwidth_per_link: self.bw as u32,
            busiest_link_pebbles: busiest,
            mean_link_pebbles: if active == 0 {
                0.0
            } else {
                active_sum as f64 / active as f64
            },
            events_processed,
            peak_queue_depth,
            queue_clamped_pushes,
            faults: lane.faults,
            stalls: None,
            mem,
        };
        RunOutcome {
            stats,
            copies,
            timing,
            trace: None,
        }
    }
}
