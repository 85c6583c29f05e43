//! Sharded conservative-parallel event engine.
//!
//! Partitions the host graph of a lowered [`ExecPlan`] into per-core
//! shards, gives each shard its own event queues, and synchronizes with
//! conservative bounded time windows: the minimum effective delay over
//! cross-shard directed links is the lookahead `L`, so a window
//! `[W, W+L)` can run on every shard in parallel without ever receiving
//! a cross-shard event inside the window — any pebble a shard sends
//! across the cut departs no earlier than its current tick and takes at
//! least `L` ticks, landing at or beyond the window end. Cross-shard
//! deliveries become horizon-bounded messages drained at the window
//! barrier.
//!
//! The engine is **bit-identical** to the sequential event engine
//! ([`Engine::run`](crate::Engine::run)) on every plan — faults,
//! multicast, jitter, heterogeneous compute costs — for a given
//! `(plan, threads, partition)` triple, independent of thread
//! scheduling. That includes `RunStats::peak_queue_depth`: each window
//! log records how many children every event pushed, and the barrier
//! merge replays the global pop order with those counts to reconstruct
//! the sequential engine's single-queue depth exactly. How:
//!
//! * Every event carries a key `(tick, prio, j)` reproducing the
//!   sequential engine's `(tick, push-sequence)` order: `prio` is the
//!   seed index for seed events, or `n_seeds + g` for an event pushed by
//!   the parent with global processing index `g`; `j` numbers the pushes
//!   of one parent. Within a tick the sequential queue pops in push
//!   order, and push order is exactly (parent processing position, push
//!   index).
//! * Each shard keeps two queues: `resolved` (a min-heap of events whose
//!   key is fully known — seeds, barrier-drained messages) and `fresh`
//!   (a FIFO-per-tick calendar of events pushed *during* the current
//!   window, keyed provisionally by their parent's window-log entry).
//!   Within one tick every resolved event precedes every fresh event —
//!   resolved parents were processed in earlier windows, so their
//!   processing index is smaller — which makes the two-queue pop rule
//!   (earliest tick, resolved first on ties) exact.
//! * At the barrier the per-shard window logs are merged in global
//!   order, each entry is assigned its dense global processing index,
//!   leftover fresh events and cross-shard messages have their keys
//!   resolved against the log, and stats deltas from events the
//!   sequential engine would never have processed (those after the run's
//!   final completion, or after a fatal error) are subtracted.
//!
//! Crashes are processed sequentially at barriers: windows never span a
//! crash tick, so re-subscription (which rewires global routing state)
//! happens while the main thread owns every shard. See DESIGN.md §13
//! for the full protocol and the safety argument.
//!
//! The event rules themselves are not written here: window events run
//! through the same handlers as the sequential engine (the crate-private
//! `rules` module), over a per-shard backend that routes pushes to the
//! shard's fresh queue or cross-shard outbox and logs what the barrier
//! may have to undo. Seeding and crashes run through those handlers too,
//! over a barrier backend that reaches every shard.

use crate::calendar::CalendarQueue;
use crate::engine::{Jitter, RunError, RunOutcome};
use crate::faults::FaultMark;
use crate::plan::ExecPlan;
use crate::rules::{Backend, Crashes, Ev, Lane, LinkSlot, ProcState, Rules};
use crate::trace::NoopTracer;
use overlap_net::NodeId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::mpsc::channel;
use std::sync::Arc;

/// Heuristic used to map host processors to shards. Both are pure
/// functions of `(plan, shard count)`, so results are reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Partition {
    /// Greedy min-cut over link delays (Kruskal-style): merge endpoints
    /// of low-delay links first under a balanced size cap, so the links
    /// left crossing shards are the high-delay ones — maximizing the
    /// conservative lookahead and with it the window size.
    #[default]
    DelayCut,
    /// Fixed `proc % shards` assignment; ignores the topology. Useful as
    /// a determinism cross-check and a worst-case baseline.
    RoundRobin,
}

/// Smallest delay `Jitter::effective` can produce for a base-`d` link,
/// over all ticks and phases.
fn min_effective(jitter: Jitter, d: u64) -> u64 {
    match jitter {
        Jitter::None => d,
        Jitter::Periodic { amplitude_pct, .. } => {
            let amp = (d as i128 * amplitude_pct.min(100) as i128) / 100;
            ((d as i128 - amp).max(1)) as u64
        }
    }
}

/// Assign each host processor a shard in `0..nshards`.
pub(crate) fn partition_procs(plan: &ExecPlan<'_>, nshards: usize, how: Partition) -> Vec<u32> {
    let n = plan.host.num_nodes() as usize;
    if nshards <= 1 {
        return vec![0; n];
    }
    match how {
        Partition::RoundRobin => (0..n).map(|p| (p % nshards) as u32).collect(),
        Partition::DelayCut => {
            // Kruskal under a size cap: union endpoints of cheap links
            // first so expensive links end up on the cut.
            let hot = &plan.hot;
            let cap = n.div_ceil(nshards);
            let mut parent: Vec<u32> = (0..n as u32).collect();
            let mut size: Vec<u32> = vec![1; n];
            fn find(parent: &mut [u32], x: u32) -> u32 {
                let mut r = x;
                while parent[r as usize] != r {
                    r = parent[r as usize];
                }
                let mut c = x;
                while parent[c as usize] != r {
                    let nx = parent[c as usize];
                    parent[c as usize] = r;
                    c = nx;
                }
                r
            }
            // Undirected link i has directed ids 2i (a→b) and 2i+1 (b→a).
            let nlinks = hot.link_delay.len() / 2;
            let mut order: Vec<u32> = (0..nlinks as u32).collect();
            order.sort_by_key(|&i| {
                let l = i as usize;
                (hot.link_delay[2 * l].min(hot.link_delay[2 * l + 1]), i)
            });
            for i in order {
                let l = i as usize;
                let (a, b) = (hot.link_src[2 * l], hot.link_dst[2 * l]);
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                if ra != rb && (size[ra as usize] + size[rb as usize]) as usize <= cap {
                    // Deterministic union: smaller root id wins.
                    let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                    parent[hi as usize] = lo;
                    size[lo as usize] += size[hi as usize];
                }
            }
            // Components, largest first (ties: smallest member), packed
            // into the currently lightest bin (ties: lowest bin id).
            let mut members: HashMap<u32, Vec<u32>> = HashMap::new();
            for p in 0..n as u32 {
                let r = find(&mut parent, p);
                members.entry(r).or_default().push(p);
            }
            let mut comps: Vec<Vec<u32>> = members.into_values().collect();
            comps.sort_by_key(|c| (Reverse(c.len()), c[0]));
            let mut load = vec![0usize; nshards];
            let mut shard_of = vec![0u32; n];
            for comp in comps {
                let bin = (0..nshards).min_by_key(|&b| (load[b], b)).unwrap();
                load[bin] += comp.len();
                for p in comp {
                    shard_of[p as usize] = bin as u32;
                }
            }
            shard_of
        }
    }
}

/// Total event order key: `(tick, prio, j)` — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EvKey {
    tick: u64,
    prio: u64,
    j: u32,
}

/// A fully-keyed event in a shard's `resolved` heap.
struct RItem {
    key: EvKey,
    ev: Ev,
}

impl PartialEq for RItem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for RItem {}
impl PartialOrd for RItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// An event pushed during the current window whose final key is not yet
/// known: its parent is entry `pidx` of this window's log.
struct FreshEv {
    pidx: u32,
    j: u32,
    ev: Ev,
}

/// A cross-shard event, keyed like [`FreshEv`] against the *sender's*
/// window log; resolved and delivered at the barrier.
struct OutMsg {
    tick: u64,
    pidx: u32,
    j: u32,
    ev: Ev,
}

/// Per-window log of processed events: everything the barrier needs to
/// merge shards into the global order and to un-count events the
/// sequential engine would never have processed. Columnar; `link_ids`
/// and the shard lane's fault marks are CSR per entry.
#[derive(Default)]
struct WinLog {
    tick: Vec<u64>,
    /// Key prio, or `u64::MAX` when the event was fresh (parent is this
    /// window's entry `key_pidx`).
    key_prio: Vec<u64>,
    key_pidx: Vec<u32>,
    key_j: Vec<u32>,
    /// Did this event complete a pebble (decrement `remaining`)?
    completed: Vec<bool>,
    /// Events this entry pushed (children). The barrier replays the
    /// global pop order with these counts to reconstruct the sequential
    /// engine's single-queue depth: `len += children - 1` per event.
    children: Vec<u32>,
    /// Global prio (`n_seeds + processing index`), assigned at merge.
    gprio: Vec<u64>,
    /// Lane deltas to subtract if the entry is dropped at the cut.
    d_hops: Vec<u64>,
    d_retries: Vec<u64>,
    d_stall: Vec<u64>,
    link_off: Vec<u32>,
    /// Links charged by the entries' sends, in order (pushed by
    /// [`Window::link`]).
    link_ids: Vec<u32>,
    /// Offsets into the shard lane's `timeline`.
    mark_off: Vec<u32>,
}

/// The lane counters an entry may have to give back at the cut, read
/// before and after processing it.
#[derive(Clone, Copy)]
struct LaneMark {
    completed: u64,
    hops: u64,
    retries: u64,
    stall: u64,
}

impl LaneMark {
    fn of(l: &Lane) -> Self {
        Self {
            completed: l.completed,
            hops: l.pebble_hops,
            retries: l.faults.retries,
            stall: l.faults.fault_stall_ticks,
        }
    }
}

impl WinLog {
    fn new() -> Self {
        let mut l = WinLog::default();
        l.link_off.push(0);
        l.mark_off.push(0);
        l
    }

    fn len(&self) -> usize {
        self.tick.len()
    }

    /// Log a processed event: its tick and key `(prio, pidx, j)`, the
    /// children it pushed, and what it charged to `lane` since `before`.
    fn push(
        &mut self,
        tick: u64,
        key: (u64, u32, u32),
        children: u32,
        before: LaneMark,
        lane: &Lane,
    ) {
        let after = LaneMark::of(lane);
        self.tick.push(tick);
        self.key_prio.push(key.0);
        self.key_pidx.push(key.1);
        self.key_j.push(key.2);
        self.completed.push(after.completed != before.completed);
        self.children.push(children);
        self.gprio.push(u64::MAX);
        self.d_hops.push(after.hops - before.hops);
        self.d_retries.push(after.retries - before.retries);
        self.d_stall.push(after.stall - before.stall);
        self.link_off.push(self.link_ids.len() as u32);
        self.mark_off.push(lane.timeline.len() as u32);
    }

    /// Empty every column, keeping the capacity for the next window.
    fn clear(&mut self) {
        self.tick.clear();
        self.key_prio.clear();
        self.key_pidx.clear();
        self.key_j.clear();
        self.completed.clear();
        self.children.clear();
        self.gprio.clear();
        self.d_hops.clear();
        self.d_retries.clear();
        self.d_stall.clear();
        self.link_off.clear();
        self.link_off.push(0);
        self.link_ids.clear();
        self.mark_off.clear();
        self.mark_off.push(0);
    }
}

/// One shard: a disjoint set of processors plus everything needed to run
/// their events. Boxed and shipped to a worker thread per window.
struct ShardState {
    id: u32,
    resolved: BinaryHeap<Reverse<RItem>>,
    fresh: CalendarQueue<FreshEv>,
    /// Per owned processor (dense local index, ascending global id).
    state: Vec<ProcState>,
    /// Full-size link table; a slot is only ever touched by the shard
    /// owning the link's source processor, so shards never conflict.
    link_slots: Vec<LinkSlot>,
    /// Run-long counters, summed at finalization. The fault marks of the
    /// current window live in `lane.timeline` until the barrier splices
    /// them into the global timeline.
    lane: Lane,
    // Window products, consumed at the barrier.
    log: WinLog,
    outbox: Vec<Vec<OutMsg>>,
    /// First error this window: `(log entry, error)`. The shard stops at
    /// it; the barrier decides whether the sequential engine would have
    /// reached it.
    err: Option<(u32, RunError)>,
}

/// Immutable per-run context shared by every worker.
struct Env<'p, 'a> {
    rules: Rules<'p, 'a>,
    shard_of: Vec<u32>,
    local_of: Vec<u32>,
}

/// The in-window side of the event rules: the shard's own processors and
/// link slots, children pushed to `fresh` (same shard) or the outbox
/// (other shard) keyed against log entry `entry`, and every charged link
/// logged so the barrier can undo it.
struct Window<'s, 'e, 'p, 'a> {
    sh: &'s mut ShardState,
    env: &'e Env<'p, 'a>,
    entry: u32,
    /// Children pushed so far.
    j: u32,
}

impl Backend for Window<'_, '_, '_, '_> {
    #[inline]
    fn proc(&mut self, p: usize) -> &mut ProcState {
        &mut self.sh.state[self.env.local_of[p] as usize]
    }

    #[inline]
    fn link(&mut self, lid: u32) -> &mut LinkSlot {
        self.sh.log.link_ids.push(lid);
        &mut self.sh.link_slots[lid as usize]
    }

    #[inline]
    fn push(&mut self, tick: u64, owner: NodeId, ev: Ev) {
        let (pidx, j) = (self.entry, self.j);
        self.j += 1;
        let target = self.env.shard_of[owner as usize];
        if target == self.sh.id {
            self.sh.fresh.push(tick, FreshEv { pidx, j, ev });
        } else {
            self.sh.outbox[target as usize].push(OutMsg { tick, pidx, j, ev });
        }
    }

    #[inline]
    fn lane(&mut self) -> &mut Lane {
        &mut self.sh.lane
    }
}

/// The barrier side of the event rules (seeding and crashes), run on the
/// main thread while it owns every shard: processors and link slots
/// resolve to their owning shard, children go straight into their
/// owner's resolved heap under key `(tick, prio, j)`, and counters are
/// charged to the run-global `lane`.
struct Barrier<'s, 'e, 'p, 'a> {
    slots: &'s mut [Option<Box<ShardState>>],
    env: &'e Env<'p, 'a>,
    lane: &'s mut Lane,
    prio: u64,
    /// Children pushed so far.
    j: u32,
}

impl Barrier<'_, '_, '_, '_> {
    fn shard(&mut self, p: NodeId) -> &mut ShardState {
        self.slots[self.env.shard_of[p as usize] as usize]
            .as_mut()
            .unwrap()
    }
}

impl Backend for Barrier<'_, '_, '_, '_> {
    fn proc(&mut self, p: usize) -> &mut ProcState {
        let lp = self.env.local_of[p] as usize;
        &mut self.shard(p as NodeId).state[lp]
    }

    fn link(&mut self, lid: u32) -> &mut LinkSlot {
        let src = self.env.rules.plan.hot.link_src[lid as usize];
        &mut self.shard(src).link_slots[lid as usize]
    }

    fn push(&mut self, tick: u64, owner: NodeId, ev: Ev) {
        let key = EvKey {
            tick,
            prio: self.prio,
            j: self.j,
        };
        self.j += 1;
        self.shard(owner).resolved.push(Reverse(RItem { key, ev }));
    }

    fn lane(&mut self) -> &mut Lane {
        self.lane
    }
}

/// Run one shard's window `[*, w_end)`: pop the earliest-keyed event
/// (resolved first on tick ties — see module docs for why that is the
/// exact global order) and process it, logging every entry. Stops early
/// at the shard's first error; the barrier decides its fate.
fn run_window(env: &Env<'_, '_>, sh: &mut ShardState, cr: &Crashes, w_end: u64) {
    loop {
        let rt = sh.resolved.peek().map(|Reverse(r)| r.key.tick);
        let ft = sh.fresh.peek_tick();
        let use_resolved = match (rt, ft) {
            (None, None) => return,
            (Some(a), Some(b)) => a <= b,
            (Some(_), None) => true,
            (None, Some(_)) => false,
        };
        let tick = if use_resolved {
            rt.unwrap()
        } else {
            ft.unwrap()
        };
        if tick >= w_end {
            return;
        }
        let (key, ev) = if use_resolved {
            let Reverse(item) = sh.resolved.pop().unwrap();
            ((item.key.prio, 0, item.key.j), item.ev)
        } else {
            let (_, f) = sh.fresh.pop().unwrap();
            ((u64::MAX, f.pidx, f.j), f.ev)
        };
        let entry = sh.log.len() as u32;
        let before = LaneMark::of(&sh.lane);
        let mut b = Window {
            sh: &mut *sh,
            env,
            entry,
            j: 0,
        };
        let res = env.rules.handle(cr, &mut b, &mut NoopTracer, tick, ev);
        let children = b.j;
        sh.log.push(tick, key, children, before, &sh.lane);
        if let Err(e) = res {
            sh.err = Some((entry, e));
            return;
        }
    }
}

/// A crash scheduled at seed time, processed at its barrier.
#[derive(Clone, Copy)]
struct PendingCrash {
    tick: u64,
    proc: u32,
}

/// What the barrier merge concluded.
struct MergeOut {
    /// Error the sequential engine would have hit (at the earliest
    /// global position, and only if not past the final completion).
    err: Option<RunError>,
    /// `remaining` hit zero inside this window.
    cut: bool,
    completions: u64,
    kept_events: u64,
    /// Earliest tick among dropped (post-completion) entries.
    dropped_min_tick: Option<u64>,
}

/// Merge the shards' window logs into the global event order, assign
/// global processing indices, splice kept fault marks into the timeline,
/// and un-count everything past the run's final completion.
///
/// `qlen`/`peak` carry the reconstructed single-queue depth across
/// windows: the sequential engine pops one event (`len -= 1`) and pushes
/// its children one by one (peak checked after each push), so per kept
/// event the depth maximum is `len - 1 + children` — replayed here in the
/// exact global pop order. Dropped (post-cut) entries would only have
/// been pops and never raise the peak.
fn merge_windows(
    slots: &mut [Option<Box<ShardState>>],
    n_seeds: u64,
    gpos: &mut u64,
    r_start: u64,
    timeline: &mut Vec<FaultMark>,
    qlen: &mut u64,
    peak: &mut u64,
) -> MergeOut {
    let nshards = slots.len();
    // Build the global visit order tick by tick. Each shard's same-tick
    // run is already key-ascending, and every same-tick parent reference
    // points at a strictly earlier tick (all delays and costs are ≥ 1
    // whenever nshards > 1), so prios resolve as we go. With one shard
    // the log order *is* the global order — no sort, which also keeps
    // zero-delay plans (forced to one shard) exact.
    let mut order: Vec<(u32, u32)> = Vec::new();
    {
        let mut cursors = vec![0usize; nshards];
        let mut cand: Vec<(u64, u32, u32, u32)> = Vec::new(); // (prio, j, shard, idx)
        loop {
            let mut t = u64::MAX;
            for (s, cur) in cursors.iter().enumerate() {
                let log = &slots[s].as_ref().unwrap().log;
                if *cur < log.len() {
                    t = t.min(log.tick[*cur]);
                }
            }
            if t == u64::MAX {
                break;
            }
            cand.clear();
            for (s, cur) in cursors.iter_mut().enumerate() {
                let log = &slots[s].as_ref().unwrap().log;
                while *cur < log.len() && log.tick[*cur] == t {
                    let i = *cur;
                    let prio = if log.key_prio[i] != u64::MAX {
                        log.key_prio[i]
                    } else {
                        log.gprio[log.key_pidx[i] as usize]
                    };
                    cand.push((prio, log.key_j[i], s as u32, i as u32));
                    *cur += 1;
                }
            }
            if nshards > 1 {
                cand.sort_unstable();
            }
            for &(_, _, s, i) in &cand {
                slots[s as usize].as_mut().unwrap().log.gprio[i as usize] = n_seeds + *gpos;
                *gpos += 1;
                order.push((s, i));
            }
        }
    }

    let mut out = MergeOut {
        err: None,
        cut: false,
        completions: 0,
        kept_events: 0,
        dropped_min_tick: None,
    };
    for &(s, i) in &order {
        let sh = slots[s as usize].as_mut().unwrap();
        let i = i as usize;
        if !out.cut {
            if let Some((eidx, e)) = &sh.err {
                if *eidx as usize == i {
                    out.err = Some(e.clone());
                    return out;
                }
            }
            out.kept_events += 1;
            *qlen -= 1;
            let c = sh.log.children[i] as u64;
            if c > 0 {
                *qlen += c;
                if *qlen > *peak {
                    *peak = *qlen;
                }
            }
            let lo = sh.log.mark_off[i] as usize;
            let hi = sh.log.mark_off[i + 1] as usize;
            timeline.extend_from_slice(&sh.lane.timeline[lo..hi]);
            if sh.log.completed[i] {
                out.completions += 1;
                if out.completions == r_start {
                    out.cut = true;
                }
            }
        } else {
            // The sequential engine stopped before this event: undo its
            // externally-visible side effects. (Completions past the cut
            // are impossible — `remaining` already hit zero.)
            debug_assert!(!sh.log.completed[i]);
            if out.dropped_min_tick.is_none() {
                out.dropped_min_tick = Some(sh.log.tick[i]);
            }
            sh.lane.pebble_hops -= sh.log.d_hops[i];
            sh.lane.faults.retries -= sh.log.d_retries[i];
            sh.lane.faults.fault_stall_ticks -= sh.log.d_stall[i];
            let lo = sh.log.link_off[i] as usize;
            let hi = sh.log.link_off[i + 1] as usize;
            for k in lo..hi {
                sh.link_slots[sh.log.link_ids[k] as usize].traffic -= 1;
            }
        }
    }
    out
}

/// Earliest pending tick across every queue the run still owes events
/// to: shard heaps, fresh leftovers, unexchanged outboxes, and the
/// crash schedule.
fn pending_min(
    slots: &mut [Option<Box<ShardState>>],
    crash_list: &[PendingCrash],
    crash_cur: usize,
) -> Option<u64> {
    let mut m = u64::MAX;
    for slot in slots.iter_mut() {
        let sh = slot.as_mut().unwrap();
        if let Some(Reverse(r)) = sh.resolved.peek() {
            m = m.min(r.key.tick);
        }
        if let Some(t) = sh.fresh.peek_tick() {
            m = m.min(t);
        }
        for ob in &sh.outbox {
            for msg in ob {
                m = m.min(msg.tick);
            }
        }
    }
    if crash_cur < crash_list.len() {
        m = m.min(crash_list[crash_cur].tick);
    }
    (m != u64::MAX).then_some(m)
}

/// A window job shipped to a worker thread.
struct Job {
    sh: Box<ShardState>,
    ro: Arc<Crashes>,
    w_end: u64,
}

/// Run `plan` on the sharded engine with the default
/// [`Partition::DelayCut`] heuristic. Bit-identical to
/// [`Engine::run`](crate::Engine::run), including `peak_queue_depth`
/// (the barrier merge replays the global pop order and reconstructs the
/// sequential single-queue depth from per-event child counts).
pub fn run_sharded(plan: &ExecPlan<'_>, threads: usize) -> Result<RunOutcome, RunError> {
    run_sharded_controlled(plan, threads, Partition::DelayCut, None)
}

/// [`run_sharded`] with an explicit partition heuristic.
pub fn run_sharded_with(
    plan: &ExecPlan<'_>,
    threads: usize,
    how: Partition,
) -> Result<RunOutcome, RunError> {
    run_sharded_controlled(plan, threads, how, None)
}

/// [`run_sharded_with`] under a cooperative [`RunControl`]: the
/// coordinator observes the control at every window barrier (workers are
/// idle there, so pausing holds the whole engine with all state intact,
/// and cancelling unwinds cleanly through the scoped threads).
///
/// [`RunControl`]: crate::control::RunControl
pub fn run_sharded_controlled(
    plan: &ExecPlan<'_>,
    threads: usize,
    how: Partition,
    control: Option<&crate::control::RunControl>,
) -> Result<RunOutcome, RunError> {
    let hot = &plan.hot;
    let n = plan.host.num_nodes() as usize;
    let rules = Rules::new(plan, plan.faults.as_ref(), plan.compute_costs.as_deref())?;
    let jitter = plan.config.jitter;
    let max_ticks = plan.config.max_ticks;

    // A zero-delay link allows same-tick parent→child chains, which the
    // tick-batched barrier merge cannot order; collapse to one shard
    // (whole run = one window, log order = global order, still exact).
    let mut nshards = threads.clamp(1, n.max(1));
    if hot
        .link_delay
        .iter()
        .any(|&d| min_effective(jitter, d) == 0)
    {
        nshards = 1;
    }
    let shard_of = partition_procs(plan, nshards, how);
    let mut local_of = vec![0u32; n];
    let mut shard_procs: Vec<Vec<u32>> = vec![Vec::new(); nshards];
    for p in 0..n {
        let s = shard_of[p] as usize;
        local_of[p] = shard_procs[s].len() as u32;
        shard_procs[s].push(p as u32);
    }

    // Conservative lookahead: minimum effective delay over cross-shard
    // directed links. Every cross-shard event departs at or after the
    // sender's current tick and arrives ≥ lookahead later, so a window
    // bounded by W + lookahead is safe. No cross links ⇒ unbounded.
    let mut lookahead = u64::MAX;
    for l in 0..hot.link_delay.len() {
        if shard_of[hot.link_src[l] as usize] != shard_of[hot.link_dst[l] as usize] {
            lookahead = lookahead.min(min_effective(jitter, hot.link_delay[l]));
        }
    }
    debug_assert!(nshards == 1 || lookahead >= 1);

    let mut slots: Vec<Option<Box<ShardState>>> = shard_procs
        .iter()
        .enumerate()
        .map(|(sid, procs)| {
            Some(Box::new(ShardState {
                id: sid as u32,
                resolved: BinaryHeap::new(),
                fresh: CalendarQueue::new(),
                state: procs
                    .iter()
                    .map(|&p| rules.proc_state(p as usize))
                    .collect(),
                link_slots: vec![LinkSlot::default(); hot.link_delay.len()],
                lane: rules.lane(),
                log: WinLog::new(),
                outbox: (0..nshards).map(|_| Vec::new()).collect(),
                err: None,
            }))
        })
        .collect();

    // Crashes run at barriers, so they live in a main-thread list, not in
    // shard queues.
    let mut crash_list: Vec<PendingCrash> = rules
        .crash_schedule()
        .map(|(tick, proc)| PendingCrash { tick, proc })
        .collect();
    crash_list.sort_by_key(|c| c.tick); // stable: proc order within a tick

    let env = Env {
        rules,
        shard_of,
        local_of,
    };
    let mut ro: Arc<Crashes> = Arc::new(env.rules.crashes());
    // Run-global counters: seeding, crashes, and (at the end) every
    // shard's lane. Its timeline is the run's fault timeline.
    let mut glane = env.rules.lane();

    // Seed in the sequential push order: the crashes were pushed first,
    // then each processor's initial pebble in processor order, keyed
    // `(tick, n_crashes, j)` so they sort after the crashes and in push
    // order among themselves.
    let n_crashes = crash_list.len() as u64;
    let mut b = Barrier {
        slots: &mut slots,
        env: &env,
        lane: &mut glane,
        prio: n_crashes,
        j: 0,
    };
    env.rules.seed(&mut b, &mut NoopTracer);
    let n_seeds = n_crashes + b.j as u64;

    std::thread::scope(|scope| -> Result<RunOutcome, RunError> {
        // Persistent workers for shards 1..; shard 0 runs on this thread
        // (it has to wait for the barrier anyway).
        let mut job_tx = Vec::new();
        let (done_tx, done_rx) = channel::<(usize, Box<ShardState>)>();
        let env_ref = &env;
        for wid in 1..nshards {
            let (tx, rx) = channel::<Job>();
            job_tx.push(tx);
            let done = done_tx.clone();
            scope.spawn(move || {
                while let Ok(mut job) = rx.recv() {
                    run_window(env_ref, &mut job.sh, &job.ro, job.w_end);
                    if done.send((wid, job.sh)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(done_tx);

        let mut crash_cur = 0usize;
        let total = env.rules.total_compute();
        // Pebbles computed by the merged (kept) window entries.
        let mut completed = 0u64;
        let mut gpos: u64 = 0;
        let mut events_processed: u64 = 0;
        // Reconstructed sequential queue depth: seeding pushes `n_seeds`
        // events before the first pop, so both start there.
        let mut qlen: u64 = n_seeds;
        let mut peak: u64 = qlen;

        loop {
            if let Some(ctl) = control {
                ctl.checkpoint(events_processed)?;
            }
            let next = pending_min(&mut slots, &crash_list, crash_cur);
            let remaining = total - completed - glane.forfeited;
            if remaining == 0 {
                // Like the sequential pop: a next event past the tick
                // cap errors before the `remaining == 0` break fires.
                if let Some(nt) = next {
                    if nt > max_ticks {
                        return Err(RunError::TickLimit(max_ticks));
                    }
                }
                break;
            }
            let Some(nt) = next else {
                let makespan = slots
                    .iter()
                    .map(|s| s.as_ref().unwrap().lane.makespan)
                    .max()
                    .unwrap_or(0);
                return Err(RunError::Deadlock {
                    tick: makespan,
                    remaining,
                });
            };
            if nt > max_ticks {
                return Err(RunError::TickLimit(max_ticks));
            }

            // Crash phase: crashes at the earliest pending tick run
            // sequentially before any same-tick compute/arrival event,
            // exactly like their first-in-tick position in the
            // sequential queue.
            if crash_cur < crash_list.len() && crash_list[crash_cur].tick == nt {
                while crash_cur < crash_list.len()
                    && crash_list[crash_cur].tick == nt
                    && total - completed - glane.forfeited > 0
                {
                    let c = crash_list[crash_cur];
                    crash_cur += 1;
                    // The crash is one sequential queue pop with its own
                    // global processing index; its backfill sends are its
                    // children, and the depth maximum occurs after the
                    // last push.
                    events_processed += 1;
                    qlen -= 1;
                    let mut b = Barrier {
                        slots: &mut slots,
                        env: &env,
                        lane: &mut glane,
                        prio: n_seeds + gpos,
                        j: 0,
                    };
                    gpos += 1;
                    let snap = Arc::make_mut(&mut ro);
                    env.rules
                        .crash(snap, &mut b, &mut NoopTracer, c.tick, c.proc)?;
                    qlen += b.j as u64;
                    peak = peak.max(qlen);
                }
                continue;
            }

            // Window [nt, w_end): bounded by the lookahead, the next
            // crash (windows never span one), and the tick cap.
            let mut w_end = nt.saturating_add(lookahead);
            if crash_cur < crash_list.len() {
                w_end = w_end.min(crash_list[crash_cur].tick);
            }
            w_end = w_end.min(max_ticks.saturating_add(1));
            debug_assert!(w_end > nt);

            // The previous barrier drained every fresh queue but left its
            // cursor at the last drained tick; rewind so this window's
            // pushes land at their true ticks instead of being clamped.
            for slot in slots.iter_mut() {
                slot.as_mut().unwrap().fresh.reset_cursor(nt);
            }

            let r_start = remaining;
            if nshards == 1 {
                let sh = slots[0].as_mut().unwrap();
                run_window(&env, sh, &ro, w_end);
            } else {
                for wid in 1..nshards {
                    let sh = slots[wid].take().unwrap();
                    job_tx[wid - 1]
                        .send(Job {
                            sh,
                            ro: Arc::clone(&ro),
                            w_end,
                        })
                        .expect("worker alive");
                }
                run_window(&env, slots[0].as_mut().unwrap(), &ro, w_end);
                for _ in 1..nshards {
                    let (wid, sh) = done_rx.recv().expect("worker alive");
                    slots[wid] = Some(sh);
                }
            }

            // ---- barrier ----
            let m = merge_windows(
                &mut slots,
                n_seeds,
                &mut gpos,
                r_start,
                &mut glane.timeline,
                &mut qlen,
                &mut peak,
            );
            if let Some(e) = m.err {
                return Err(e);
            }
            events_processed += m.kept_events;
            completed += m.completions;

            if m.cut {
                debug_assert_eq!(total - completed - glane.forfeited, 0);
                let nx = match m.dropped_min_tick {
                    Some(t) => Some(t),
                    None => pending_min(&mut slots, &crash_list, crash_cur),
                };
                if let Some(t) = nx {
                    if t > max_ticks {
                        return Err(RunError::TickLimit(max_ticks));
                    }
                }
                break;
            }

            // Drain fresh leftovers (now fully keyed via the merged log)
            // and exchange cross-shard messages.
            let mut inbound: Vec<(usize, RItem)> = Vec::new();
            for slot in slots.iter_mut() {
                let sh = slot.as_mut().unwrap();
                while let Some((t, fe)) = sh.fresh.pop() {
                    let prio = sh.log.gprio[fe.pidx as usize];
                    debug_assert_ne!(prio, u64::MAX);
                    sh.resolved.push(Reverse(RItem {
                        key: EvKey {
                            tick: t,
                            prio,
                            j: fe.j,
                        },
                        ev: fe.ev,
                    }));
                }
                for (tgt, ob) in sh.outbox.iter_mut().enumerate() {
                    for msg in ob.drain(..) {
                        let prio = sh.log.gprio[msg.pidx as usize];
                        debug_assert_ne!(prio, u64::MAX);
                        inbound.push((
                            tgt,
                            RItem {
                                key: EvKey {
                                    tick: msg.tick,
                                    prio,
                                    j: msg.j,
                                },
                                ev: msg.ev,
                            },
                        ));
                    }
                }
            }
            for (tgt, item) in inbound {
                slots[tgt].as_mut().unwrap().resolved.push(Reverse(item));
            }
            for slot in slots.iter_mut() {
                let sh = slot.as_mut().unwrap();
                sh.log.clear();
                sh.lane.timeline.clear();
            }
        }

        // ---- finalize ----
        env.rules
            .late_crashes(Arc::make_mut(&mut ro), &mut glane, &mut NoopTracer);
        let shards: Vec<&ShardState> = slots.iter().map(|s| s.as_deref().unwrap()).collect();
        let mut clamped = 0u64;
        for sh in &shards {
            clamped += sh.fresh.clamped();
            glane.absorb(&sh.lane);
        }
        let traffic = (0..hot.link_delay.len()).map(|l| {
            shards
                .iter()
                .map(|sh| sh.link_slots[l].traffic)
                .sum::<u64>()
        });
        let state = |p: usize| &shards[env.shard_of[p] as usize].state[env.local_of[p] as usize];
        Ok(env
            .rules
            .outcome(&ro, state, traffic, glane, events_processed, peak, clamped))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use crate::bandwidth::BandwidthMode;
    use crate::engine::{Engine, EngineConfig};
    use crate::faults::FaultPlan;
    use overlap_model::{GuestSpec, ProgramKind};
    use overlap_net::topology::linear_array;
    use overlap_net::{DelayModel, HostGraph};

    fn golden_scenario() -> (GuestSpec, HostGraph, Assignment, EngineConfig) {
        let guest = GuestSpec::array(9, ProgramKind::KvWorkload, 5, 12);
        let mut host = HostGraph::new("sharded-golden", 4);
        host.add_link(0, 1, 3);
        host.add_link(1, 2, 5);
        host.add_link(2, 3, 2);
        host.add_link(0, 2, 7);
        let assign = Assignment::from_cells_of(
            4,
            9,
            vec![vec![0, 1, 2], vec![2, 3, 4], vec![4, 5, 6, 7], vec![7, 8]],
        );
        let config = EngineConfig {
            bandwidth: BandwidthMode::Fixed(2),
            record_timing: true,
            jitter: Jitter::Periodic {
                amplitude_pct: 40,
                period: 8,
            },
            ..Default::default()
        };
        (guest, host, assign, config)
    }

    fn assert_matches_sequential(plan: &ExecPlan<'_>) {
        let seq = Engine::from_plan(plan).run();
        for threads in [1, 2, 3, 8] {
            for how in [Partition::DelayCut, Partition::RoundRobin] {
                let got = run_sharded_with(plan, threads, how);
                match (&seq, &got) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a, b, "threads={threads} how={how:?}");
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "threads={threads} how={how:?}"),
                    _ => panic!(
                        "divergent outcome threads={threads} how={how:?}: {seq:?} vs {got:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn matches_sequential_on_golden_scenario() {
        let (guest, host, assign, config) = golden_scenario();
        let plan = ExecPlan::build(&guest, &host, &assign, config).unwrap();
        assert_matches_sequential(&plan);
    }

    #[test]
    fn matches_sequential_multicast_with_costs() {
        let (guest, host, assign, mut config) = golden_scenario();
        config.multicast = true;
        let plan = ExecPlan::build(&guest, &host, &assign, config)
            .unwrap()
            .with_compute_costs(vec![1, 3, 2, 1]);
        assert_matches_sequential(&plan);
    }

    #[test]
    fn matches_sequential_under_faults() {
        let (guest, host, assign, config) = golden_scenario();
        let faults = FaultPlan::new()
            .link_down(1, 2, 10, 40)
            .delay_spike(0, 1, 5, 60, 3)
            .crash(3, 55);
        let plan = ExecPlan::build(&guest, &host, &assign, config)
            .unwrap()
            .with_faults(faults)
            .unwrap();
        assert_matches_sequential(&plan);
    }

    #[test]
    fn matches_sequential_on_larger_line() {
        let guest = GuestSpec::array(24, ProgramKind::Relaxation, 3, 20);
        let host = linear_array(6, DelayModel::uniform(1, 7), 5);
        let assign = Assignment::blocked(6, 24);
        let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
        assert_matches_sequential(&plan);
    }

    #[test]
    fn partition_is_balanced_and_deterministic() {
        let guest = GuestSpec::array(16, ProgramKind::StencilSum, 1, 4);
        let host = linear_array(8, DelayModel::uniform(1, 9), 3);
        let assign = Assignment::blocked(8, 16);
        let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
        for how in [Partition::DelayCut, Partition::RoundRobin] {
            let a = partition_procs(&plan, 4, how);
            let b = partition_procs(&plan, 4, how);
            assert_eq!(a, b);
            let mut counts = vec![0usize; 4];
            for &s in &a {
                counts[s as usize] += 1;
            }
            assert!(counts.iter().all(|&c| c == 2), "{how:?}: {counts:?}");
        }
    }
}
