//! The greedy dependency-driven execution engine.
//!
//! Executes a guest computation on a host NOW under a database
//! [`Assignment`], cycle-accurately:
//!
//! * Each host processor computes **one pebble per tick**. Within one
//!   processor, each held column's pebbles are computed in step order
//!   (database updates must be applied in order, §2); among ready pebbles
//!   the lowest `(step, cell)` wins.
//! * A pebble `(c, t)` is ready on `p` once every dependency `(c', t−1)` is
//!   locally known — computed by `p` itself, delivered by a subscription,
//!   or a virtual boundary/initial value.
//! * On completion, the pebble is streamed to every subscriber of its
//!   column over the fixed route; each link holds `bw` injections per tick
//!   (pipelined), so `P` pebbles cross a delay-`d` link in
//!   `d + ⌈P/bw⌉ − 1` ticks — the paper's bandwidth law.
//! * The run ends when every holder has computed all `T` steps of all its
//!   columns. The makespan is the last compute-completion tick.
//!
//! The engine is deterministic: events fire in ascending tick order, ties
//! in push order ([`CalendarQueue`]'s FIFO-within-a-tick contract, which
//! reproduces the original `(tick, sequence-number)` heap order exactly —
//! `engine_classic` keeps that heap implementation as the oracle).
//!
//! # Hot-path layout
//!
//! All identity resolution is interned into dense index tables when the
//! [`ExecPlan`] is lowered: per-(processor, cell) dependency gather and
//! readiness-check lists, per-subscription link-id arrays, per-tree-edge
//! link ids, and per-copy outbound route lists. The steady-state loop
//! performs no `HashMap` probes, no `Dep` matching, and no allocation:
//! event payloads live inline in the calendar buckets (recycled as the
//! ring wraps), per-copy value/receive histories are flat arrays indexed
//! by `copy × (steps + 1) + step`, and the dependency gather reuses one
//! scratch buffer. See DESIGN.md § Engine internals.

use crate::assignment::Assignment;
use crate::bandwidth::BandwidthMode;
use crate::calendar::CalendarQueue;
use crate::control::RunControl;
use crate::faults::{FaultMark, FaultMarkKind, FaultPlan, FaultRt};
use crate::plan::{DepSrc, ExecPlan, ProcTables, Routes, SUB_BIT};
use crate::routing::RoutingTable;
use crate::stats::{FaultStats, RunStats};
use crate::trace::{MsgKey, NoopTracer, ReadyCause, StallTracer, TraceConfig, TraceReport, Tracer};
use overlap_model::{fold64, Db, GuestSpec, PebbleValue, ProgramRef};
use overlap_net::paths::dijkstra;
use overlap_net::{HostGraph, NodeId};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Deterministic time-varying link-delay jitter: NOW latencies fluctuate
/// (congestion, re-routing); the model's correctness is timing-independent
/// but the makespan is not. The effective delay of a link at injection
/// tick `t` is `d · (1 + amplitude · wave(t))` where `wave` is a
/// square-ish ±1 oscillation with the given period, phase-shifted per
/// link — fully deterministic, so runs remain reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Jitter {
    /// Fixed delays (the paper's model).
    None,
    /// Periodic fluctuation by ±`amplitude_pct` percent.
    Periodic {
        /// Amplitude in percent of the base delay (≤ 100).
        amplitude_pct: u8,
        /// Oscillation period in ticks (≥ 1).
        period: u32,
    },
}

impl Jitter {
    /// Effective delay of a base-`d` link (id `lid`) entered at tick `t`.
    pub fn effective(&self, d: u64, lid: u32, t: u64) -> u64 {
        match *self {
            Jitter::None => d,
            Jitter::Periodic {
                amplitude_pct,
                period,
            } => {
                let period = period.max(1) as u64;
                // phase-shift links so they don't all spike together
                let phase = (t / period + lid as u64 * 7) % 4;
                let amp = (d as i128 * amplitude_pct.min(100) as i128) / 100;
                let delta: i128 = match phase {
                    1 => amp,
                    3 => -amp,
                    _ => 0,
                };
                ((d as i128 + delta).max(1)) as u64
            }
        }
    }
}

/// Per-processor memory budget on database copies — the red-blue pebbling
/// mode. Each processor keeps at most `budget` of its copies in fast
/// memory; starting a compute on a non-resident copy first *evicts* the
/// least-recently-used resident copy and charges `reload_cost` extra ticks
/// to re-materialize the database (values are never altered — the budget
/// is pure timing and accounting, so validation and cross-engine
/// bit-identity hold unchanged). Counters land in
/// [`RunStats::mem`](crate::stats::RunStats::mem).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemBudget {
    /// Database copies that fit in fast memory per processor (a budget of
    /// 0 is clamped to 1 — a processor must hold the copy it computes on).
    pub budget: u32,
    /// Extra ticks charged per reload of an evicted copy.
    pub reload_cost: u32,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Link bandwidth model (default: the paper's `log n`).
    pub bandwidth: BandwidthMode,
    /// Safety cap on simulated ticks; exceeded ⇒ [`RunError::TickLimit`].
    pub max_ticks: u64,
    /// Record the completion tick of every pebble on every copy
    /// (`RunOutcome::timing`); costs one u64 per computed pebble.
    pub record_timing: bool,
    /// Distribute columns over shortest-path multicast trees instead of
    /// per-subscriber unicast routes (each pebble crosses every tree link
    /// once, duplicating at branch points).
    pub multicast: bool,
    /// Time-varying link-delay jitter.
    pub jitter: Jitter,
    /// Per-processor memory budget on database copies (`None` = unbounded,
    /// the paper's model).
    #[serde(default)]
    pub mem: Option<MemBudget>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            bandwidth: BandwidthMode::LogN,
            max_ticks: 1 << 42,
            record_timing: false,
            multicast: false,
            jitter: Jitter::None,
            mem: None,
        }
    }
}

/// Why a run could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Some guest cells have no database copy anywhere.
    IncompleteAssignment(Vec<u32>),
    /// The tick cap was exceeded.
    TickLimit(u64),
    /// No event can fire yet work remains (should be impossible for a
    /// complete assignment; kept as a defensive diagnostic).
    Deadlock {
        /// Tick at which the queue drained.
        tick: u64,
        /// Pebbles still uncomputed.
        remaining: u64,
    },
    /// A transfer exhausted its retry budget on a downed link
    /// (see `FaultPlan` / `RetryPolicy`).
    RetriesExhausted {
        /// Directed link id of the downed link.
        link: u32,
        /// Tick of the final timeout.
        tick: u64,
    },
    /// A processor crash left a guest column with no surviving database
    /// copy — unrecoverable without redundancy.
    ColumnLost {
        /// The orphaned guest column.
        cell: u32,
        /// Tick of the fatal crash.
        tick: u64,
    },
    /// A routing table references a host link that does not exist
    /// (malformed route; previously a panic in `lockstep::round_cost`).
    /// Also reported when a fault plan names a link absent from the host
    /// (previously a panic in fault-plan lowering).
    MissingLink {
        /// Claimed link source.
        from: NodeId,
        /// Claimed link destination.
        to: NodeId,
    },
    /// A fault plan names a processor the host does not have.
    NoSuchProcessor {
        /// The named processor.
        proc: NodeId,
        /// Number of processors the host actually has.
        procs: u32,
    },
    /// Crash recovery found a surviving holder for an orphaned consumer,
    /// but the host graph has no path between them (disconnected host
    /// with the only same-component copies destroyed). Previously a panic
    /// (`expect("connected host")`) in all three fault-capable engines.
    NoRouteToHolder {
        /// The guest column being re-subscribed.
        cell: u32,
        /// The surviving holder picked for the re-subscription.
        holder: NodeId,
        /// The consumer left without a reachable source.
        consumer: NodeId,
        /// Tick of the crash being recovered from.
        tick: u64,
    },
    /// The run was cancelled through its [`RunControl`] — no outcome was
    /// produced and no simulation state escaped the engine.
    ///
    /// [`RunControl`]: crate::control::RunControl
    Cancelled {
        /// Dispatch units (events/ticks/rounds/windows) completed when the
        /// cancellation was observed.
        at: u64,
    },
    /// The plan carries a feature this engine does not implement (e.g. a
    /// memory budget on the lockstep engine). The builder's validation
    /// matrix catches these at `build()`; engines also check at entry so a
    /// hand-built plan fails cleanly instead of asserting mid-run.
    UnsupportedFeature {
        /// Engine that rejected the plan.
        engine: &'static str,
        /// The unsupported plan feature.
        feature: &'static str,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::IncompleteAssignment(cells) => {
                write!(f, "assignment misses holders for {} cells", cells.len())
            }
            RunError::TickLimit(t) => write!(f, "tick limit {t} exceeded"),
            RunError::Deadlock { tick, remaining } => {
                write!(f, "deadlock at tick {tick} with {remaining} pebbles left")
            }
            RunError::RetriesExhausted { link, tick } => {
                write!(f, "retries exhausted on downed link {link} at tick {tick}")
            }
            RunError::ColumnLost { cell, tick } => {
                write!(f, "column {cell} lost every database copy at tick {tick}")
            }
            RunError::MissingLink { from, to } => {
                write!(f, "route uses non-existent host link {from} -> {to}")
            }
            RunError::NoSuchProcessor { proc, procs } => {
                write!(
                    f,
                    "fault plan names processor {proc}, but the host has only {procs}"
                )
            }
            RunError::NoRouteToHolder {
                cell,
                holder,
                consumer,
                tick,
            } => {
                write!(
                    f,
                    "no host path from surviving holder {holder} of column {cell} \
                     to consumer {consumer} after crash at tick {tick}"
                )
            }
            RunError::Cancelled { at } => {
                write!(f, "run cancelled after {at} dispatch units")
            }
            RunError::UnsupportedFeature { engine, feature } => {
                write!(f, "the {engine} engine does not support {feature}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Per-copy audit record used by the validator: one entry per
/// (column, holder) pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CopyRecord {
    /// Guest column.
    pub cell: u32,
    /// Holder processor.
    pub proc: NodeId,
    /// Order-sensitive fold of the computed pebble values, steps `1..=T`.
    pub value_fold: u64,
    /// Digest of the final database contents of this copy.
    pub db_digest: u64,
    /// Order-sensitive fold of the applied update log.
    pub update_fold: u64,
    /// Tick at which this copy finished its last step.
    pub finished_at: u64,
}

/// Per-copy pebble completion ticks, aligned with `RunOutcome::copies`:
/// `ticks[i][t-1]` = tick at which copy `i` computed its step `t`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimingTrace {
    /// Completion ticks per copy per step.
    pub ticks: Vec<Vec<u64>>,
    /// Fault and recovery events in tick order (timeouts, crashes,
    /// re-subscriptions). Empty for fault-free runs.
    pub fault_timeline: Vec<FaultMark>,
}

impl TimingTrace {
    /// Completion time of guest row `t` (1-based): the tick by which
    /// **every** copy has computed step `t` — the quantity Theorem 1's
    /// deadlines `s_t^{(k)}` bound.
    ///
    /// Returns `None` for `t == 0` (row 0 is the initial values, never
    /// computed), for a `t` beyond what any copy has recorded, and for an
    /// empty trace — previously these silently reported `0`, which reads
    /// as "completed instantly".
    pub fn row_completion(&self, t: u32) -> Option<u64> {
        if t == 0 {
            return None;
        }
        self.ticks
            .iter()
            .filter_map(|c| c.get(t as usize - 1))
            .copied()
            .max()
    }

    /// Fraction of `[0, makespan)` each processor spent computing, given
    /// the copy records. Pass the run's `compute_costs` (if any) so a
    /// pebble on processor `p` is weighted by its `cost_of(p)` ticks —
    /// without the weight, slow processors look mostly idle even when they
    /// never stop computing.
    ///
    /// The busy estimate is `pebbles × nominal cost`, so a cost table that
    /// overstates the run's actual costs can push the ratio past 1; values
    /// are clamped to 1.0. For exact accounting use a traced run's
    /// [`StallBreakdown`](crate::trace::StallBreakdown) instead.
    ///
    /// # Panics
    ///
    /// Panics if `copies` is not aligned with this trace (one record per
    /// `ticks` row), if a record references a processor `≥ procs`, or if
    /// `costs` covers fewer than `procs` processors — each of these
    /// previously produced an unchecked index or silently wrong ratios.
    pub fn utilization(
        &self,
        copies: &[CopyRecord],
        procs: u32,
        makespan: u64,
        costs: Option<&[u32]>,
    ) -> Vec<f64> {
        assert_eq!(
            self.ticks.len(),
            copies.len(),
            "timing trace has {} copies but {} copy records were passed",
            self.ticks.len(),
            copies.len()
        );
        if let Some(cs) = costs {
            assert!(
                cs.len() >= procs as usize,
                "compute-cost table covers {} processors, utilization asked for {}",
                cs.len(),
                procs
            );
        }
        let mut busy = vec![0u64; procs as usize];
        for (i, c) in copies.iter().enumerate() {
            let p = c.proc as usize;
            assert!(
                p < procs as usize,
                "copy record references processor {}, but only {} were passed",
                p,
                procs
            );
            let w = costs.map_or(1, |cs| cs[p] as u64);
            busy[p] += self.ticks[i].len() as u64 * w;
        }
        busy.iter()
            .map(|&b| {
                if makespan == 0 {
                    0.0
                } else {
                    (b as f64 / makespan as f64).min(1.0)
                }
            })
            .collect()
    }
}

/// A completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Aggregate statistics.
    pub stats: RunStats,
    /// One record per database copy, for validation.
    pub copies: Vec<CopyRecord>,
    /// Pebble completion ticks when `record_timing` was set.
    pub timing: Option<TimingTrace>,
    /// Stall-attribution report when the run was traced
    /// ([`Engine::run_traced`]); `None` otherwise.
    pub trace: Option<TraceReport>,
}

/// Event payload, stored inline in the calendar buckets. Shared with the
/// sharded engine ([`crate::sharded`]), which schedules the exact same
/// events per shard.
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
    Crash { proc: NodeId },
}

/// Mutable per-processor run state. Step-indexed arrays are flat with
/// stride `steps + 1` (index 0 = initial value). Shared with the sharded
/// engine, which owns a disjoint subset of these per shard.
pub(crate) struct ProcState {
    /// Next step (1-based) to compute per held cell; `T+1` = done.
    pub(crate) next_step: Vec<u32>,
    /// Value history per held cell: `history[i·stride + s]`.
    pub(crate) history: Vec<PebbleValue>,
    /// Database copy per held cell.
    pub(crate) dbs: Vec<Db>,
    /// Value/update folds per held cell (validator food).
    pub(crate) value_fold: Vec<u64>,
    pub(crate) update_fold: Vec<u64>,
    pub(crate) finished_at: Vec<u64>,
    /// Per held cell: completion tick per step (only when timing).
    pub(crate) times: Vec<Vec<u64>>,
    /// Receive buffers per dependency column: `dep_values[k·stride + s]`.
    pub(crate) dep_values: Vec<PebbleValue>,
    pub(crate) dep_have: Vec<bool>,
    /// Highest contiguous step received per dependency column.
    pub(crate) dep_watermark: Vec<u32>,
    /// Ready-pebble queue: `(step, own_idx)` min-heap; at most one entry
    /// per held cell (its next step).
    pub(crate) ready: BinaryHeap<Reverse<(u32, u32)>>,
    /// Whether each held cell currently sits in `ready` or is being
    /// computed.
    pub(crate) queued: Vec<bool>,
    /// Processor is computing until the pending `ComputeDone` fires.
    pub(crate) busy: bool,
}

impl ProcState {
    /// Fresh state for the processor described by `pt`, exactly as the
    /// sequential engine seeds it (initial values at step 0, dependency
    /// step 0 pre-delivered). Factored out so the sharded engine starts
    /// from bit-identical state.
    pub(crate) fn seed(
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
        }
    }
}

/// Directed-link injection bookkeeping for pipelined bandwidth.
#[derive(Clone, Copy, Default)]
pub(crate) struct LinkSlot {
    tick: u64,
    count: u32,
}

/// Deterministic per-processor LRU over database copies, driven by the
/// compute schedule (touched once per compute *start*, in schedule order).
/// Shared by the event and sharded engines; because the sharded
/// engine replays the sequential per-processor compute order exactly, the
/// LRU evolves bit-identically there too. Cloneable so the sharded engine
/// can snapshot it at window barriers.
#[derive(Clone)]
pub(crate) struct MemLru {
    cap: usize,
    reload: u64,
    resident: Vec<bool>,
    last_use: Vec<u64>,
    clock: u64,
    pub(crate) evictions: u64,
    pub(crate) reloads: u64,
    pub(crate) reload_ticks: u64,
}

impl MemLru {
    /// Seed residency: the first `budget` copies in held-cell order are
    /// resident with ascending use stamps (so stamps are always unique and
    /// the eviction choice is total-ordered).
    pub(crate) fn new(num_cells: usize, budget: u32, reload_cost: u32) -> Self {
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
    pub(crate) fn touch(&mut self, i: usize) -> u64 {
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

/// Sum LRU counters over processors into the run's [`MemStats`].
pub(crate) fn mem_stats_of(lrus: Option<&[MemLru]>) -> crate::stats::MemStats {
    let mut out = crate::stats::MemStats::default();
    if let Some(ms) = lrus {
        for m in ms {
            out.evictions += m.evictions;
            out.reloads += m.reloads;
            out.reload_ticks += m.reload_ticks;
        }
    }
    out
}

/// Is held cell `i` ready to compute its next step? Pure table walk over
/// the interned check list — no hashing, no `Dep` matching.
#[inline]
pub(crate) fn is_ready(pt: &ProcTables, st: &ProcState, i: usize, steps: u32) -> bool {
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
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_enqueue<T: Tracer>(
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

/// Store a delivered pebble, advance the column watermark, and unblock the
/// held cells waiting on it. `msg` identifies the delivering message for
/// stall attribution.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn deliver<T: Tracer>(
    pt: &ProcTables,
    st: &mut ProcState,
    k: usize,
    step: u32,
    value: PebbleValue,
    steps: u32,
    stride: usize,
    proc: NodeId,
    tick: u64,
    msg: MsgKey,
    tracer: &mut T,
) {
    let base = k * stride;
    st.dep_values[base + step as usize] = value;
    st.dep_have[base + step as usize] = true;
    while (st.dep_watermark[k] as usize) < steps as usize
        && st.dep_have[base + st.dep_watermark[k] as usize + 1]
    {
        st.dep_watermark[k] += 1;
    }
    for idx in pt.dep_dep_off[k] as usize..pt.dep_dep_off[k + 1] as usize {
        let j = pt.dep_dependents[idx] as usize;
        try_enqueue(
            pt,
            st,
            j,
            steps,
            proc,
            tick,
            ReadyCause::Delivered(msg),
            tracer,
        );
    }
}

/// The simulator: executes a guest under a database assignment on a host
/// NOW, cycle-accurately (see the module docs for the exact semantics).
///
/// All lowering lives in [`ExecPlan`]: [`Engine::new`] builds a private
/// plan for one-shot runs, while [`Engine::from_plan`] borrows a shared
/// one so sweeps amortize the lowering across repeats, engines, and fault
/// variants.
pub struct Engine<'a> {
    /// The lowered plan, or the lowering error reported when the engine
    /// runs (incomplete assignment).
    plan: Result<PlanRef<'a>, RunError>,
    /// Processor count, kept for cost-table validation.
    nprocs: u32,
    /// Ticks per pebble per processor (default all 1): models NOWs that
    /// mix workstation generations. Beyond the paper's unit-speed model.
    /// Overrides the plan's cost table when set.
    compute_costs: Option<Vec<u32>>,
    /// Deterministic fault schedule; `None` or an empty plan takes the
    /// fault-free fast path (bit-identical to the plain engine).
    /// Overrides the plan's fault schedule when set.
    faults: Option<FaultPlan>,
    /// Cooperative pause/cancel control, observed every
    /// [`CHECK_EVERY`](crate::control::CHECK_EVERY) events.
    control: Option<&'a RunControl>,
}

/// An owned or borrowed execution plan (boxed when owned: the lowered
/// tables are large, and `Engine` moves by value through the builder).
enum PlanRef<'a> {
    Owned(Box<ExecPlan<'a>>),
    Shared(&'a ExecPlan<'a>),
}

impl<'a> PlanRef<'a> {
    fn get(&self) -> &ExecPlan<'a> {
        match self {
            PlanRef::Owned(p) => p,
            PlanRef::Shared(p) => p,
        }
    }
}

/// A runtime re-subscription created when a holder crashed: `source`
/// streams `cell` to `dest` over `links` (directed link ids in route
/// order), delivering into the consumer's dependency slot `dest_dep`.
/// `Clone` because the sharded engine snapshots these per window.
#[derive(Clone)]
pub(crate) struct DynSub {
    pub(crate) cell: u32,
    pub(crate) source: NodeId,
    pub(crate) dest: NodeId,
    pub(crate) dest_dep: u32,
    pub(crate) links: Vec<u32>,
}

impl<'a> Engine<'a> {
    /// Create an engine, lowering a private [`ExecPlan`]. When the
    /// assignment misses cells the error is deferred: `run` reports
    /// [`RunError::IncompleteAssignment`].
    pub fn new(
        guest: &'a GuestSpec,
        host: &'a HostGraph,
        assign: &'a Assignment,
        config: EngineConfig,
    ) -> Self {
        Self {
            plan: ExecPlan::build(guest, host, assign, config).map(|p| PlanRef::Owned(Box::new(p))),
            nprocs: host.num_nodes(),
            compute_costs: None,
            faults: None,
            control: None,
        }
    }

    /// Execute a pre-lowered plan. The plan's compute costs and fault
    /// schedule apply unless overridden on this engine, so one plan can be
    /// shared across repeats, engines, and fault variants.
    pub fn from_plan(plan: &'a ExecPlan<'a>) -> Self {
        Self {
            nprocs: plan.host().num_nodes(),
            plan: Ok(PlanRef::Shared(plan)),
            compute_costs: None,
            faults: None,
            control: None,
        }
    }

    /// Give each processor its own compute cost (ticks per pebble, ≥ 1).
    /// Models heterogeneous workstation speeds — an extension beyond the
    /// paper's unit-speed processors.
    pub fn with_compute_costs(mut self, costs: Vec<u32>) -> Self {
        assert_eq!(costs.len() as u32, self.nprocs);
        assert!(costs.iter().all(|&c| c >= 1), "costs must be ≥ 1");
        self.compute_costs = Some(costs);
        self
    }

    /// Inject a deterministic fault plan (link outages, delay spikes,
    /// processor crashes) with graceful degradation: timed-out transfers
    /// are retried with exponential backoff, and subscriptions whose
    /// holder crashed are rerouted to the nearest surviving copy. An
    /// empty plan leaves the run bit-identical to a fault-free engine.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attach a cooperative [`RunControl`]: the dispatch loop honours
    /// pause/resume and returns [`RunError::Cancelled`] on cancel, checked
    /// every [`CHECK_EVERY`](crate::control::CHECK_EVERY) events. Control
    /// never perturbs the schedule — a paused-and-resumed run is
    /// bit-identical to an uninterrupted one.
    pub fn with_control(mut self, control: &'a RunControl) -> Self {
        self.control = Some(control);
        self
    }

    /// Access the unicast routing table (for reporting). `None` when the
    /// assignment is incomplete or the engine runs in multicast mode.
    pub fn routing(&self) -> Option<&RoutingTable> {
        self.plan.as_ref().ok().and_then(|p| p.get().routing())
    }

    /// Execute the simulation.
    pub fn run(&self) -> Result<RunOutcome, RunError> {
        self.run_with_tracer(&mut NoopTracer)
    }

    /// Execute the simulation with stall attribution: every tick of every
    /// copy's lifetime is attributed to compute / dependency / bandwidth /
    /// db-order / fault / drain (see [`crate::trace`]). The outcome's
    /// `stats.stalls` and `trace` are populated; the event schedule — and
    /// therefore every other stat — is identical to an untraced [`run`].
    ///
    /// [`run`]: Engine::run
    pub fn run_traced(&self, cfg: TraceConfig) -> Result<RunOutcome, RunError> {
        let plan = match &self.plan {
            Ok(p) => p.get(),
            Err(e) => return Err(e.clone()),
        };
        // The stall tracer's per-copy conservation law assumes every pebble
        // of processor `p` takes exactly `cost_of(p)` ticks; memory-budget
        // reload penalties and per-task costs break that invariant, so
        // traced runs reject them (the builder's validation matrix reports
        // the same error at build()).
        if plan.config.mem.is_some() {
            return Err(RunError::UnsupportedFeature {
                engine: "event (traced)",
                feature: "memory budget",
            });
        }
        if plan.guest.has_nonunit_task_costs() || !plan.guest.is_static() {
            return Err(RunError::UnsupportedFeature {
                engine: "event (traced)",
                feature: "non-uniform task graph",
            });
        }
        let hot = &plan.hot;
        let cid_of = |proc: NodeId, cell: u32| -> u32 {
            let p = proc as usize;
            let pos = hot.procs[p]
                .cells
                .binary_search(&cell)
                .expect("route source holds its cell");
            hot.copy_off[p] + pos as u32
        };
        let (sub_src, tree_src) = match &plan.routes {
            Routes::Unicast(rt) => (
                rt.subs.iter().map(|s| cid_of(s.source, s.cell)).collect(),
                Vec::new(),
            ),
            Routes::Multicast(mt) => (
                Vec::new(),
                mt.trees.iter().map(|t| cid_of(t.source, t.cell)).collect(),
            ),
        };
        let mut tracer = StallTracer::new(
            cfg,
            plan.guest.steps,
            hot.copy_off.clone(),
            sub_src,
            tree_src,
            hot.link_delay.len(),
        );
        let mut out = self.run_with_tracer(&mut tracer)?;
        let report = tracer.finish(out.stats.makespan);
        out.stats.stalls = Some(report.totals);
        out.trace = Some(report);
        Ok(out)
    }

    /// Execute the simulation, reporting dispatch-loop events to `tracer`.
    /// [`NoopTracer`]'s hooks are empty `#[inline]` defaults, so the
    /// monomorphized untraced engine schedules bit-identical events to the
    /// pre-tracing engine (pinned by the golden determinism tests).
    pub fn run_with_tracer<T: Tracer>(&self, tracer: &mut T) -> Result<RunOutcome, RunError> {
        let plan = match &self.plan {
            Ok(p) => p.get(),
            Err(e) => return Err(e.clone()),
        };
        let routing = &plan.routes;
        let hot = &plan.hot;
        let n = plan.host.num_nodes();
        let steps = plan.guest.steps;
        let stride = steps as usize + 1;
        let program: ProgramRef = plan.guest.program.instantiate();
        let boundary = plan.guest.boundary();
        let bw = plan.config.bandwidth.per_tick(n) as u64;
        let record_timing = plan.config.record_timing;
        let kind = program.db_kind();

        // ---- per-processor mutable state ----
        let mut state: Vec<ProcState> = hot
            .procs
            .iter()
            .map(|pt| ProcState::seed(pt, plan, stride, kind))
            .collect();

        // ---- link slots for bandwidth accounting ----
        let mut link_slots: Vec<LinkSlot> = vec![LinkSlot::default(); hot.link_delay.len()];
        let mut link_traffic: Vec<u64> = vec![0; hot.link_delay.len()];

        // ---- fault runtime (compiled only for a non-empty plan, so the
        // fault-free path schedules the exact same events in the exact
        // same order as an engine without a plan) ----
        let frt: Option<FaultRt> = match self.faults.as_ref().or(plan.faults.as_ref()) {
            Some(fp) if !fp.is_empty() => Some(FaultRt::build(fp, &plan.host)?),
            _ => None,
        };
        let n_orig_subs = hot.sub_link_off.len() - 1;
        let mut crashed: Vec<bool> = vec![false; if frt.is_some() { n as usize } else { 0 }];
        let mut dyn_subs: Vec<DynSub> = Vec::new();
        // Dynamic outbound routes per copy id (allocated on first crash).
        let mut dyn_out: Vec<Vec<u32>> = Vec::new();
        let mut fstats = FaultStats::default();
        let mut fault_timeline: Vec<FaultMark> = Vec::new();
        let mut total_forfeited = 0u64;

        // ---- event queue ----
        let mut queue: CalendarQueue<Ev> = CalendarQueue::new();
        let mut peak_queue: usize = 0;
        macro_rules! sched {
            ($tick:expr, $ev:expr) => {{
                queue.push($tick, $ev);
                let l = queue.len();
                if l > peak_queue {
                    peak_queue = l;
                }
            }};
        }

        // Transmit one pebble over the link leading into `Arrival { sub,
        // hop }` (original or dynamic subscription), charging bandwidth.
        // Under a fault plan: delay spikes multiply the jittered delay, and
        // a transfer overlapping a down interval is lost — the sender times
        // out at the expected arrival tick and retries after exponential
        // backoff ([`RetryPolicy`]); failed attempts still consume slots.
        macro_rules! send_sub_hop {
            ($now:expr, $sid:expr, $hop:expr, $step:expr, $value:expr, $attempt:expr) => {{
                let sid = $sid as usize;
                let lid = if sid < n_orig_subs {
                    hot.sub_links[hot.sub_link_off[sid] as usize + $hop as usize - 1]
                } else {
                    dyn_subs[sid - n_orig_subs].links[$hop as usize - 1]
                };
                link_traffic[lid as usize] += 1;
                let depart = inject(&mut link_slots[lid as usize], $now, bw);
                tracer.on_link_inject(lid, depart);
                let base = plan
                    .config
                    .jitter
                    .effective(hot.link_delay[lid as usize], lid, depart);
                match frt.as_ref() {
                    None => sched!(
                        depart + base,
                        Ev::Arrival {
                            sub: $sid,
                            hop: $hop,
                            step: $step,
                            value: $value,
                        }
                    ),
                    Some(f) => {
                        let arrive = depart + base * f.spike_factor(lid, depart);
                        if !f.down_overlap(lid, depart, arrive) {
                            sched!(
                                arrive,
                                Ev::Arrival {
                                    sub: $sid,
                                    hop: $hop,
                                    step: $step,
                                    value: $value,
                                }
                            );
                        } else {
                            let attempt = $attempt + 1;
                            if attempt > f.retry.max_attempts {
                                return Err(RunError::RetriesExhausted {
                                    link: lid,
                                    tick: arrive,
                                });
                            }
                            let back = f.retry.backoff(attempt);
                            fstats.retries += 1;
                            fstats.fault_stall_ticks += arrive - $now + back;
                            tracer.on_fault_wait(
                                MsgKey::Sub {
                                    sub: $sid,
                                    step: $step,
                                },
                                arrive - $now + back,
                            );
                            if record_timing {
                                fault_timeline.push(FaultMark {
                                    tick: arrive,
                                    kind: FaultMarkKind::LinkTimeout { link: lid },
                                });
                            }
                            sched!(
                                arrive + back,
                                Ev::Resend {
                                    sub: $sid,
                                    hop: $hop,
                                    step: $step,
                                    value: $value,
                                    attempt,
                                }
                            );
                        }
                    }
                }
            }};
        }

        // Same transmit logic for the multicast tree edge into `node`.
        macro_rules! send_tree_hop {
            ($now:expr, $tid:expr, $node:expr, $step:expr, $value:expr, $attempt:expr) => {{
                let lid = hot.tree_edge_lid[$tid as usize][$node as usize];
                link_traffic[lid as usize] += 1;
                let depart = inject(&mut link_slots[lid as usize], $now, bw);
                tracer.on_link_inject(lid, depart);
                let base = plan
                    .config
                    .jitter
                    .effective(hot.link_delay[lid as usize], lid, depart);
                match frt.as_ref() {
                    None => sched!(
                        depart + base,
                        Ev::TreeHop {
                            tree: $tid,
                            node: $node,
                            step: $step,
                            value: $value,
                        }
                    ),
                    Some(f) => {
                        let arrive = depart + base * f.spike_factor(lid, depart);
                        if !f.down_overlap(lid, depart, arrive) {
                            sched!(
                                arrive,
                                Ev::TreeHop {
                                    tree: $tid,
                                    node: $node,
                                    step: $step,
                                    value: $value,
                                }
                            );
                        } else {
                            let attempt = $attempt + 1;
                            if attempt > f.retry.max_attempts {
                                return Err(RunError::RetriesExhausted {
                                    link: lid,
                                    tick: arrive,
                                });
                            }
                            let back = f.retry.backoff(attempt);
                            fstats.retries += 1;
                            fstats.fault_stall_ticks += arrive - $now + back;
                            tracer.on_fault_wait(
                                MsgKey::Tree {
                                    tree: $tid,
                                    step: $step,
                                },
                                arrive - $now + back,
                            );
                            if record_timing {
                                fault_timeline.push(FaultMark {
                                    tick: arrive,
                                    kind: FaultMarkKind::LinkTimeout { link: lid },
                                });
                            }
                            sched!(
                                arrive + back,
                                Ev::TreeResend {
                                    tree: $tid,
                                    node: $node,
                                    step: $step,
                                    value: $value,
                                    attempt,
                                }
                            );
                        }
                    }
                }
            }};
        }

        // Crash events go in first, so at their tick they pop before any
        // same-tick compute completion or arrival (FIFO within a tick):
        // a pebble finishing exactly at the crash tick does not complete.
        if let Some(f) = frt.as_ref() {
            for (p, &at) in f.crash_at.iter().enumerate() {
                if at != u64::MAX {
                    sched!(at, Ev::Crash { proc: p as NodeId });
                }
            }
        }

        let mut remaining: u64 = hot
            .procs
            .iter()
            .map(|pt| pt.cells.len() as u64 * steps as u64)
            .sum();
        let total_compute = remaining;
        let mut makespan = 0u64;
        let mut messages = 0u64;
        let mut pebble_hops = 0u64;
        let mut events_processed = 0u64;

        let costs = self
            .compute_costs
            .as_deref()
            .or(plan.compute_costs.as_deref());
        let cost_of = |p: usize| -> u64 { costs.map(|c| c[p] as u64).unwrap_or(1) };

        // Task-graph extensions: per-task cost multipliers, relay slots,
        // and the per-processor memory budget. All three are `false`/`None`
        // for grid guests, so the static path is unchanged.
        let has_task_costs = plan.guest.has_nonunit_task_costs();
        let has_relays = plan.guest.graph.is_some();
        let mut mem: Option<Vec<MemLru>> = plan.config.mem.map(|m| {
            hot.procs
                .iter()
                .map(|pt| MemLru::new(pt.cells.len(), m.budget, m.reload_cost))
                .collect()
        });
        // Ticks to compute held cell `j` of processor `p` starting now:
        // processor speed × task cost, plus the memory-budget reload
        // penalty (which also advances the LRU — call once per start).
        macro_rules! compute_dur {
            ($p:expr, $j:expr, $st:expr) => {{
                let jj = $j as usize;
                let mut d = cost_of($p);
                if has_task_costs {
                    d *= plan
                        .guest
                        .task_cost(hot.procs[$p].cells[jj], $st.next_step[jj])
                        as u64;
                }
                if let Some(ms) = mem.as_mut() {
                    d += ms[$p].touch(jj);
                }
                d
            }};
        }

        // Seed: enqueue every initially-ready pebble and start processors.
        for (p, (pt, st)) in hot.procs.iter().zip(state.iter_mut()).enumerate() {
            for i in 0..pt.cells.len() {
                try_enqueue(pt, st, i, steps, p as NodeId, 0, ReadyCause::Local, tracer);
            }
            if let Some(Reverse((_s, i))) = st.ready.pop() {
                st.busy = true;
                tracer.on_start(p as NodeId, i, _s, 0);
                let d = compute_dur!(p, i, st);
                sched!(
                    d,
                    Ev::ComputeDone {
                        proc: p as NodeId,
                        own_idx: i,
                    }
                );
            }
        }

        let mut deps_buf: Vec<PebbleValue> = Vec::with_capacity(plan.guest.max_deps());

        // ---- main loop ----
        while let Some((tick, ev)) = queue.pop() {
            if tick > plan.config.max_ticks {
                return Err(RunError::TickLimit(plan.config.max_ticks));
            }
            if remaining == 0 {
                break;
            }
            events_processed += 1;
            if events_processed.is_multiple_of(crate::control::CHECK_EVERY) {
                if let Some(ctl) = self.control {
                    ctl.checkpoint(events_processed)?;
                }
            }
            match ev {
                Ev::ComputeDone { proc, own_idx } => {
                    let p = proc as usize;
                    // A crashed processor's in-flight pebble never
                    // completes (its work was forfeited at crash time).
                    if frt.is_some() && crashed[p] {
                        continue;
                    }
                    let i = own_idx as usize;
                    let pt = &hot.procs[p];
                    let (cell, s) = (pt.cells[i], state[p].next_step[i]);
                    debug_assert!(s <= steps);
                    // Gather dependency values at step s-1 via the
                    // interned source table.
                    deps_buf.clear();
                    {
                        let st = &state[p];
                        let sm1 = s as usize - 1;
                        for &src in pt.gather_at(i, s) {
                            deps_buf.push(match src {
                                DepSrc::Boundary { side, offset } => {
                                    boundary.value(side, offset, s)
                                }
                                DepSrc::Own(j) => st.history[j as usize * stride + sm1],
                                DepSrc::Sub(k) => {
                                    debug_assert!(st.dep_have[k as usize * stride + sm1]);
                                    st.dep_values[k as usize * stride + sm1]
                                }
                            });
                        }
                    }
                    let (v, u) = if has_relays && plan.guest.is_relay(cell, s) {
                        // Relay slots repeat the lane's previous value and
                        // leave the database untouched; DbUpdate::None still
                        // folds into the update log (as in the reference).
                        (deps_buf[0], overlap_model::DbUpdate::None)
                    } else {
                        program.compute(cell, s, &state[p].dbs[i], &deps_buf)
                    };
                    {
                        let st = &mut state[p];
                        st.dbs[i].apply(&u);
                        st.history[i * stride + s as usize] = v;
                        st.value_fold[i] = fold64(st.value_fold[i], v);
                        st.update_fold[i] = fold64(st.update_fold[i], u.digest());
                        st.next_step[i] = s + 1;
                        st.queued[i] = false;
                        st.busy = false;
                        if record_timing {
                            st.times[i].push(tick);
                        }
                        if s == steps {
                            st.finished_at[i] = tick;
                        }
                    }
                    tracer.on_compute_done(proc, own_idx, s, tick);
                    remaining -= 1;
                    makespan = makespan.max(tick);

                    // Stream to subscribers: the per-copy route list holds
                    // exactly this column's routes, in classic scan order.
                    let cid = hot.copy_off[p] as usize + i;
                    let routes =
                        &hot.out_ids[hot.out_off[cid] as usize..hot.out_off[cid + 1] as usize];
                    match routing {
                        Routes::Unicast(_) => {
                            for &sid in routes {
                                messages += 1;
                                let llo = hot.sub_link_off[sid as usize] as usize;
                                let lhi = hot.sub_link_off[sid as usize + 1] as usize;
                                pebble_hops += (lhi - llo) as u64;
                                send_sub_hop!(tick, sid, 1u16, s, v, 0u32);
                            }
                        }
                        Routes::Multicast(mt) => {
                            for &tid in routes {
                                messages += 1;
                                let tree = &mt.trees[tid as usize];
                                for &child in &tree.children[tree.root as usize] {
                                    pebble_hops += 1;
                                    send_tree_hop!(tick, tid, child, s, v, 0u32);
                                }
                            }
                        }
                    }
                    // Stream to re-subscribed consumers (crash recovery).
                    if !dyn_out.is_empty() {
                        for &dsid in &dyn_out[cid] {
                            messages += 1;
                            pebble_hops += dyn_subs[dsid as usize - n_orig_subs].links.len() as u64;
                            send_sub_hop!(tick, dsid, 1u16, s, v, 0u32);
                        }
                    }

                    // Unblock: this column's next step, then the held
                    // dependents — walked in place, no scratch list.
                    {
                        let st = &mut state[p];
                        try_enqueue(pt, st, i, steps, proc, tick, ReadyCause::Local, tracer);
                        for idx in pt.own_dep_off[i] as usize..pt.own_dep_off[i + 1] as usize {
                            let j = pt.own_dependents[idx] as usize;
                            try_enqueue(pt, st, j, steps, proc, tick, ReadyCause::Local, tracer);
                        }
                        if !st.busy {
                            if let Some(Reverse((_s, j))) = st.ready.pop() {
                                st.busy = true;
                                tracer.on_start(proc, j, _s, tick);
                                let d = compute_dur!(p, j, st);
                                sched!(tick + d, Ev::ComputeDone { proc, own_idx: j });
                            }
                        }
                    }
                }
                Ev::Arrival {
                    sub,
                    hop,
                    step,
                    value,
                } => {
                    let sid = sub as usize;
                    let (nlinks, dest, dep) = if sid < n_orig_subs {
                        let llo = hot.sub_link_off[sid] as usize;
                        let lhi = hot.sub_link_off[sid + 1] as usize;
                        (
                            lhi - llo,
                            hot.sub_dest[sid] as usize,
                            hot.sub_dest_dep[sid] as usize,
                        )
                    } else {
                        let ds = &dyn_subs[sid - n_orig_subs];
                        (ds.links.len(), ds.dest as usize, ds.dest_dep as usize)
                    };
                    if (hop as usize) < nlinks {
                        // Forward along the route (intermediate processors
                        // store-and-forward even if crashed: the fabric
                        // outlives the workstation's compute).
                        send_sub_hop!(tick, sub, hop + 1, step, value, 0u32);
                    } else if !(frt.is_some() && crashed[dest]) {
                        // Delivery at the consumer.
                        let p = dest;
                        let pt = &hot.procs[p];
                        let st = &mut state[p];
                        deliver(
                            pt,
                            st,
                            dep,
                            step,
                            value,
                            steps,
                            stride,
                            p as NodeId,
                            tick,
                            MsgKey::Sub { sub, step },
                            tracer,
                        );
                        if !st.busy {
                            if let Some(Reverse((_s2, j))) = st.ready.pop() {
                                st.busy = true;
                                tracer.on_start(p as NodeId, j, _s2, tick);
                                let d = compute_dur!(p, j, st);
                                sched!(
                                    tick + d,
                                    Ev::ComputeDone {
                                        proc: p as NodeId,
                                        own_idx: j,
                                    }
                                );
                            }
                        }
                    }
                }
                Ev::TreeHop {
                    tree,
                    node,
                    step,
                    value,
                } => {
                    let Routes::Multicast(mt) = routing else {
                        unreachable!("tree hop in unicast mode");
                    };
                    let t = &mt.trees[tree as usize];
                    // Forward to children (store-and-forward survives a
                    // crash of the intermediate workstation).
                    for &child in &t.children[node as usize] {
                        pebble_hops += 1;
                        send_tree_hop!(tick, tree, child, step, value, 0u32);
                    }
                    // Deliver locally if this node subscribes.
                    let kdep = hot.tree_deliver_dep[tree as usize][node as usize];
                    if kdep != u32::MAX {
                        let p = t.nodes[node as usize] as usize;
                        if !(frt.is_some() && crashed[p]) {
                            let pt = &hot.procs[p];
                            let st = &mut state[p];
                            deliver(
                                pt,
                                st,
                                kdep as usize,
                                step,
                                value,
                                steps,
                                stride,
                                p as NodeId,
                                tick,
                                MsgKey::Tree { tree, step },
                                tracer,
                            );
                            if !st.busy {
                                if let Some(Reverse((_s2, j))) = st.ready.pop() {
                                    st.busy = true;
                                    tracer.on_start(p as NodeId, j, _s2, tick);
                                    let d = compute_dur!(p, j, st);
                                    sched!(
                                        tick + d,
                                        Ev::ComputeDone {
                                            proc: p as NodeId,
                                            own_idx: j,
                                        }
                                    );
                                }
                            }
                        }
                    }
                }
                Ev::Resend {
                    sub,
                    hop,
                    step,
                    value,
                    attempt,
                } => {
                    send_sub_hop!(tick, sub, hop, step, value, attempt);
                }
                Ev::TreeResend {
                    tree,
                    node,
                    step,
                    value,
                    attempt,
                } => {
                    send_tree_hop!(tick, tree, node, step, value, attempt);
                }
                Ev::Crash { proc } => {
                    let p = proc as usize;
                    let f = frt.as_ref().expect("crash event implies fault plan");
                    if crashed[p] {
                        continue;
                    }
                    crashed[p] = true;
                    tracer.on_crash(proc);
                    fstats.crashed_procs += 1;
                    let pt = &hot.procs[p];
                    fstats.lost_copies += pt.cells.len() as u32;
                    if record_timing {
                        fault_timeline.push(FaultMark {
                            tick,
                            kind: FaultMarkKind::Crash { proc },
                        });
                    }
                    // Forfeit this processor's uncomputed pebbles — its
                    // pending ComputeDone (if any) is dropped by the crash
                    // guard, so subtract the in-flight pebble too.
                    let forfeited: u64 = state[p]
                        .next_step
                        .iter()
                        .map(|&ns| (steps + 1 - ns) as u64)
                        .sum();
                    remaining -= forfeited;
                    total_forfeited += forfeited;

                    // A column whose every copy is gone is unrecoverable.
                    for &c in &pt.cells {
                        let alive = plan.assign.holders(c).iter().any(|&q| !crashed[q as usize]);
                        if !alive {
                            return Err(RunError::ColumnLost { cell: c, tick });
                        }
                    }

                    // Graceful degradation: every consumer this processor
                    // was serving re-subscribes to the nearest surviving
                    // holder of the same database (the paper's redundancy,
                    // exploited for recovery).
                    let mut orphans: Vec<(u32, NodeId, u32)> = Vec::new();
                    match routing {
                        Routes::Unicast(rt) => {
                            for (sid, sub) in rt.subs.iter().enumerate() {
                                if sub.source == proc && !crashed[sub.dest as usize] {
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
                                    if del && !crashed[t.nodes[v] as usize] {
                                        orphans.push((
                                            t.cell,
                                            t.nodes[v],
                                            hot.tree_deliver_dep[tid][v],
                                        ));
                                    }
                                }
                            }
                        }
                    }
                    for ds in &dyn_subs {
                        if ds.source == proc && !crashed[ds.dest as usize] {
                            orphans.push((ds.cell, ds.dest, ds.dest_dep));
                        }
                    }

                    if !orphans.is_empty() && dyn_out.is_empty() {
                        dyn_out = vec![Vec::new(); *hot.copy_off.last().unwrap() as usize];
                    }
                    // One Dijkstra per distinct consumer (consumer-rooted:
                    // the host is undirected, so the reversed path serves
                    // holder → consumer).
                    let mut sp_cache: HashMap<NodeId, overlap_net::paths::PathResult> =
                        HashMap::new();
                    for (cell, dest, dest_dep) in orphans {
                        let sp = sp_cache
                            .entry(dest)
                            .or_insert_with(|| dijkstra(&plan.host, dest));
                        let best = plan
                            .assign
                            .holders(cell)
                            .iter()
                            .copied()
                            .filter(|&q| !crashed[q as usize])
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
                        let links: Vec<u32> =
                            path.windows(2).map(|w| f.link_ids[&(w[0], w[1])]).collect();
                        let nhops = links.len() as u64;
                        let src_pt = &hot.procs[best as usize];
                        let pos = src_pt
                            .cells
                            .binary_search(&cell)
                            .expect("holder holds cell");
                        let src_cid = hot.copy_off[best as usize] as usize + pos;
                        let sid = (n_orig_subs + dyn_subs.len()) as u32;
                        let computed = state[best as usize].next_step[pos] - 1;
                        dyn_subs.push(DynSub {
                            cell,
                            source: best,
                            dest,
                            dest_dep,
                            links,
                        });
                        dyn_out[src_cid].push(sid);
                        tracer.on_reroute(sid, best, pos as u32);
                        fstats.rerouted_subscriptions += 1;
                        if record_timing {
                            fault_timeline.push(FaultMark {
                                tick,
                                kind: FaultMarkKind::Reroute { cell, to: best },
                            });
                        }
                        // Backfill every pebble the consumer may still be
                        // missing, from its contiguous watermark up to the
                        // new source's progress; later pebbles flow via the
                        // dynamic route as the source computes them.
                        // Duplicate deliveries are idempotent.
                        let w = state[dest as usize].dep_watermark[dest_dep as usize];
                        for s2 in (w + 1)..=computed {
                            let value = state[best as usize].history[pos * stride + s2 as usize];
                            messages += 1;
                            pebble_hops += nhops;
                            send_sub_hop!(tick, sid, 1u16, s2, value, 0u32);
                        }
                    }
                }
            }
        }

        if remaining > 0 {
            return Err(RunError::Deadlock {
                tick: makespan,
                remaining,
            });
        }

        // Crashes scheduled beyond the last pebble still destroy their
        // processor's databases: the surviving set depends only on the
        // fault plan, never on an engine's timing model, so the event,
        // sharded and classic engines report identical copies even when
        // their makespans straddle a crash tick. No work is left to
        // forfeit and the run already completed, so a late crash cannot
        // retroactively make a column unrecoverable.
        if let Some(f) = frt.as_ref() {
            for (p, &at) in f.crash_at.iter().enumerate() {
                if at != u64::MAX && !crashed[p] {
                    crashed[p] = true;
                    tracer.on_crash(p as NodeId);
                    fstats.crashed_procs += 1;
                    fstats.lost_copies += hot.procs[p].cells.len() as u32;
                    if record_timing {
                        fault_timeline.push(FaultMark {
                            tick: at,
                            kind: FaultMarkKind::Crash { proc: p as NodeId },
                        });
                    }
                }
            }
        }

        // ---- collect outcome (crashed processors' copies are lost) ----
        let mut copies = Vec::with_capacity(plan.assign.total_copies());
        let mut timing = record_timing.then(TimingTrace::default);
        for (p, (st, pt)) in state.iter().zip(&hot.procs).enumerate() {
            if frt.is_some() && crashed[p] {
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
            t.fault_timeline = fault_timeline;
        }
        let stats = RunStats {
            guest_cells: plan.guest.num_cells(),
            guest_steps: steps,
            host_procs: n,
            makespan,
            slowdown: if steps == 0 {
                0.0
            } else {
                makespan as f64 / steps as f64
            },
            total_compute: total_compute - total_forfeited,
            guest_work: plan.guest.total_work(),
            redundancy: plan.assign.redundancy(),
            load: plan.assign.load(),
            active_procs: plan.assign.active_procs(),
            messages,
            pebble_hops,
            subscriptions: routing.num_subscriptions(),
            bandwidth_per_link: bw as u32,
            busiest_link_pebbles: link_traffic.iter().copied().max().unwrap_or(0),
            mean_link_pebbles: {
                let active: Vec<u64> = link_traffic.iter().copied().filter(|&t| t > 0).collect();
                if active.is_empty() {
                    0.0
                } else {
                    active.iter().sum::<u64>() as f64 / active.len() as f64
                }
            },
            events_processed,
            peak_queue_depth: peak_queue as u64,
            queue_clamped_pushes: queue.clamped(),
            faults: fstats,
            stalls: None,
            mem: mem_stats_of(mem.as_deref()),
        };
        Ok(RunOutcome {
            stats,
            copies,
            timing,
            trace: None,
        })
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine_classic::run_classic;
    use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;

    fn run(
        guest: &GuestSpec,
        host: &HostGraph,
        assign: &Assignment,
        bandwidth: BandwidthMode,
    ) -> RunOutcome {
        let cfg = EngineConfig {
            bandwidth,
            ..Default::default()
        };
        Engine::new(guest, host, assign, cfg).run().expect("run ok")
    }

    fn check_against_reference(guest: &GuestSpec, out: &RunOutcome) {
        let trace = ReferenceRun::execute(guest);
        for c in &out.copies {
            // Reconstruct the reference fold for this column.
            let mut vf = 0xF01Du64;
            for t in 1..=guest.steps {
                vf = fold64(vf, trace.grid.get(overlap_model::PebbleId::new(c.cell, t)));
            }
            assert_eq!(
                c.value_fold, vf,
                "values of column {} on proc {}",
                c.cell, c.proc
            );
            assert_eq!(
                c.db_digest, trace.final_db_digest[c.cell as usize],
                "db of column {} on proc {}",
                c.cell, c.proc
            );
            assert_eq!(
                c.update_fold, trace.update_log_digest[c.cell as usize],
                "updates of column {} on proc {}",
                c.cell, c.proc
            );
        }
    }

    #[test]
    fn single_processor_runs_sequentially() {
        let guest = GuestSpec::array(4, ProgramKind::KvWorkload, 3, 5);
        let host = linear_array(1, DelayModel::constant(1), 0);
        let assign = Assignment::blocked(1, 4);
        let out = run(&guest, &host, &assign, BandwidthMode::Fixed(1));
        // 20 pebbles at 1/tick: makespan exactly 20.
        assert_eq!(out.stats.makespan, 20);
        assert_eq!(out.stats.slowdown, 4.0);
        check_against_reference(&guest, &out);
    }

    #[test]
    fn unit_delay_host_line_matches_guest_speed() {
        // Host = guest-sized line with unit delays, load 1: the simulation
        // is the guest itself. Communication of each boundary pebble takes
        // 1 tick, computation 1 tick: slowdown ≈ 2 (compute+exchange).
        let guest = GuestSpec::array(8, ProgramKind::Relaxation, 1, 16);
        let host = linear_array(8, DelayModel::constant(1), 0);
        let assign = Assignment::blocked(8, 8);
        let out = run(&guest, &host, &assign, BandwidthMode::Fixed(1));
        check_against_reference(&guest, &out);
        assert!(
            out.stats.slowdown <= 3.0,
            "slowdown {} too high for unit-delay host",
            out.stats.slowdown
        );
    }

    #[test]
    fn all_programs_validate_on_multiproc_hosts() {
        for pk in [
            ProgramKind::StencilSum,
            ProgramKind::RuleAutomaton { db_size: 8 },
            ProgramKind::KvWorkload,
            ProgramKind::Relaxation,
        ] {
            let guest = GuestSpec::array(12, pk, 5, 10);
            let host = linear_array(4, DelayModel::uniform(1, 6), 9);
            let assign = Assignment::blocked(4, 12);
            let out = run(&guest, &host, &assign, BandwidthMode::LogN);
            check_against_reference(&guest, &out);
        }
    }

    #[test]
    fn ring_guest_validates() {
        let guest = GuestSpec::ring(10, ProgramKind::KvWorkload, 2, 8);
        let host = linear_array(5, DelayModel::constant(2), 0);
        // fold the ring: slot j = {j, 9-j}
        let fold = overlap_model::ring_fold(10);
        let cells_of = fold.slots.clone();
        let assign = Assignment::from_cells_of(5, 10, cells_of);
        let out = run(&guest, &host, &assign, BandwidthMode::LogN);
        check_against_reference(&guest, &out);
    }

    #[test]
    fn mesh_guest_validates() {
        let guest = GuestSpec::mesh(6, 4, ProgramKind::RuleAutomaton { db_size: 4 }, 8, 6);
        let host = linear_array(3, DelayModel::constant(3), 0);
        // two mesh columns (strips) per host processor
        let strips = overlap_model::mesh_columns(6, 4);
        let mut cells_of = vec![Vec::new(); 3];
        for (x, cells) in strips.slots.iter().enumerate() {
            cells_of[x / 2].extend_from_slice(cells);
        }
        let assign = Assignment::from_cells_of(3, 24, cells_of);
        let out = run(&guest, &host, &assign, BandwidthMode::LogN);
        check_against_reference(&guest, &out);
    }

    #[test]
    fn redundant_copies_all_validate() {
        // Overlapping assignment: middle cells held twice.
        let guest = GuestSpec::array(8, ProgramKind::KvWorkload, 11, 12);
        let host = linear_array(2, DelayModel::constant(10), 0);
        let assign =
            Assignment::from_cells_of(2, 8, vec![vec![0, 1, 2, 3, 4], vec![3, 4, 5, 6, 7]]);
        let out = run(&guest, &host, &assign, BandwidthMode::LogN);
        assert_eq!(out.copies.len(), 10);
        check_against_reference(&guest, &out);
    }

    #[test]
    fn redundancy_hides_latency_on_high_delay_link() {
        // Two processors joined by a delay-64 link, 8-column guest.
        // Blocked (no redundancy): every step each side waits ~64 ticks for
        // the boundary column. With a 2-column overlap the engine can run
        // ahead; slowdown must drop substantially.
        let guest = GuestSpec::array(8, ProgramKind::Relaxation, 4, 64);
        let host = linear_array(2, DelayModel::constant(64), 0);
        let blocked = Assignment::blocked(2, 8);
        let overlapped =
            Assignment::from_cells_of(2, 8, vec![vec![0, 1, 2, 3, 4, 5], vec![2, 3, 4, 5, 6, 7]]);
        let out_b = run(&guest, &host, &blocked, BandwidthMode::LogN);
        let out_o = run(&guest, &host, &overlapped, BandwidthMode::LogN);
        check_against_reference(&guest, &out_b);
        check_against_reference(&guest, &out_o);
        assert!(
            out_o.stats.slowdown < 0.55 * out_b.stats.slowdown,
            "overlap {} vs blocked {}",
            out_o.stats.slowdown,
            out_b.stats.slowdown
        );
    }

    #[test]
    fn incomplete_assignment_is_rejected() {
        let guest = GuestSpec::array(4, ProgramKind::StencilSum, 0, 2);
        let host = linear_array(2, DelayModel::constant(1), 0);
        let assign = Assignment::from_cells_of(2, 4, vec![vec![0, 1], vec![3]]);
        let err = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .run()
            .unwrap_err();
        assert_eq!(err, RunError::IncompleteAssignment(vec![2]));
    }

    #[test]
    fn makespan_reflects_link_delay_for_blocked_assignment() {
        // Two procs, delay-d link, one column each, T steps: each step of
        // column 1 needs column 0's previous pebble and vice versa; the
        // critical path pays d per step: makespan ≥ T·d (roughly).
        let d = 32;
        let t = 8;
        let guest = GuestSpec::array(2, ProgramKind::StencilSum, 0, t);
        let host = linear_array(2, DelayModel::constant(d), 0);
        let assign = Assignment::blocked(2, 2);
        let out = run(&guest, &host, &assign, BandwidthMode::LogN);
        assert!(
            out.stats.makespan >= (t as u64 - 1) * d,
            "makespan {} < {}",
            out.stats.makespan,
            (t as u64 - 1) * d
        );
        check_against_reference(&guest, &out);
    }

    #[test]
    fn bandwidth_one_serializes_messages() {
        // One source column feeding a consumer over a single link; with
        // bw=1 the T pebbles serialize: arrival of pebble T at ≥ T ticks
        // after the first. We detect it through a larger makespan vs LogN.
        let guest = GuestSpec::array(6, ProgramKind::StencilSum, 3, 40);
        let host = linear_array(2, DelayModel::constant(2), 0);
        let assign = Assignment::blocked(2, 6);
        let fast = run(&guest, &host, &assign, BandwidthMode::Fixed(8));
        let slow = run(&guest, &host, &assign, BandwidthMode::Fixed(1));
        assert!(slow.stats.makespan >= fast.stats.makespan);
        check_against_reference(&guest, &slow);
    }

    #[test]
    fn engine_is_deterministic() {
        let guest = GuestSpec::array(16, ProgramKind::KvWorkload, 7, 20);
        let host = linear_array(4, DelayModel::uniform(1, 20), 3);
        let assign = Assignment::from_cells_of(
            4,
            16,
            vec![
                vec![0, 1, 2, 3, 4, 5],
                vec![4, 5, 6, 7, 8],
                vec![8, 9, 10, 11, 12],
                vec![12, 13, 14, 15],
            ],
        );
        let a = run(&guest, &host, &assign, BandwidthMode::LogN);
        let b = run(&guest, &host, &assign, BandwidthMode::LogN);
        assert_eq!(a.stats.makespan, b.stats.makespan);
        assert_eq!(a.copies, b.copies);
    }

    #[test]
    fn zero_steps_guest_completes_instantly() {
        let guest = GuestSpec::array(4, ProgramKind::StencilSum, 0, 0);
        let host = linear_array(2, DelayModel::constant(5), 0);
        let assign = Assignment::blocked(2, 4);
        let out = run(&guest, &host, &assign, BandwidthMode::LogN);
        assert_eq!(out.stats.makespan, 0);
        assert_eq!(out.stats.total_compute, 0);
    }

    #[test]
    fn timing_trace_records_every_pebble_in_order() {
        let guest = GuestSpec::array(6, ProgramKind::Relaxation, 2, 8);
        let host = linear_array(3, DelayModel::constant(4), 0);
        let assign = Assignment::blocked(3, 6);
        let cfg = EngineConfig {
            record_timing: true,
            ..Default::default()
        };
        let out = Engine::new(&guest, &host, &assign, cfg).run().unwrap();
        let timing = out.timing.as_ref().expect("timing recorded");
        assert_eq!(timing.ticks.len(), out.copies.len());
        for ticks in &timing.ticks {
            assert_eq!(ticks.len(), 8);
            // steps complete in increasing tick order per copy
            for w in ticks.windows(2) {
                assert!(w[0] < w[1], "{ticks:?}");
            }
        }
        // Row completion is monotone and row T matches the makespan.
        let mut last = 0;
        for t in 1..=8 {
            let rc = timing.row_completion(t).expect("row in range");
            assert!(rc >= last);
            last = rc;
        }
        assert_eq!(timing.row_completion(8), Some(out.stats.makespan));
        // Row 0 (initial values) and rows past T are not completions.
        assert_eq!(timing.row_completion(0), None);
        assert_eq!(timing.row_completion(9), None);
        assert_eq!(TimingTrace::default().row_completion(1), None);
        // Utilization is within (0, 1] for active processors.
        let util = timing.utilization(&out.copies, 3, out.stats.makespan, None);
        assert!(util.iter().all(|&u| u > 0.0 && u <= 1.0), "{util:?}");
    }

    #[test]
    #[should_panic(expected = "compute-cost table covers")]
    fn utilization_rejects_short_cost_table() {
        let guest = GuestSpec::array(2, ProgramKind::KvWorkload, 3, 4);
        let host = linear_array(2, DelayModel::constant(1), 0);
        let assign = Assignment::blocked(2, 2);
        let cfg = EngineConfig {
            record_timing: true,
            ..Default::default()
        };
        let out = Engine::new(&guest, &host, &assign, cfg).run().unwrap();
        let timing = out.timing.as_ref().unwrap();
        // One-entry cost table for a two-processor host: formerly an
        // unchecked index panic, now a clear error.
        timing.utilization(&out.copies, 2, out.stats.makespan, Some(&[1u32]));
    }

    #[test]
    #[should_panic(expected = "copy records were passed")]
    fn utilization_rejects_misaligned_copy_records() {
        let guest = GuestSpec::array(2, ProgramKind::KvWorkload, 3, 4);
        let host = linear_array(2, DelayModel::constant(1), 0);
        let assign = Assignment::blocked(2, 2);
        let cfg = EngineConfig {
            record_timing: true,
            ..Default::default()
        };
        let out = Engine::new(&guest, &host, &assign, cfg).run().unwrap();
        let timing = out.timing.as_ref().unwrap();
        timing.utilization(&out.copies[..1], 2, out.stats.makespan, None);
    }

    #[test]
    fn utilization_clamps_overstated_costs() {
        // A cost table that overstates the run's actual per-pebble cost
        // would push busy time past the makespan; the ratio is clamped.
        let guest = GuestSpec::array(2, ProgramKind::KvWorkload, 3, 6);
        let host = linear_array(2, DelayModel::constant(1), 0);
        let assign = Assignment::blocked(2, 2);
        let cfg = EngineConfig {
            record_timing: true,
            ..Default::default()
        };
        let out = Engine::new(&guest, &host, &assign, cfg).run().unwrap();
        let timing = out.timing.as_ref().unwrap();
        let util = timing.utilization(&out.copies, 2, out.stats.makespan, Some(&[1000, 1000]));
        assert!(util.iter().all(|&u| u <= 1.0), "{util:?}");
    }

    #[test]
    fn utilization_weights_heterogeneous_costs() {
        // One column per proc; proc 1 computes at cost 4. Unweighted, its
        // busy time would be T ticks out of a ≥ 4T makespan (≤ 25%); the
        // cost-weighted utilization counts 4T busy ticks.
        let guest = GuestSpec::array(2, ProgramKind::KvWorkload, 3, 10);
        let host = linear_array(2, DelayModel::constant(1), 0);
        let assign = Assignment::blocked(2, 2);
        let cfg = EngineConfig {
            record_timing: true,
            ..Default::default()
        };
        let costs = vec![1u32, 4u32];
        let out = Engine::new(&guest, &host, &assign, cfg)
            .with_compute_costs(costs.clone())
            .run()
            .unwrap();
        let timing = out.timing.as_ref().unwrap();
        let weighted = timing.utilization(&out.copies, 2, out.stats.makespan, Some(&costs));
        let unweighted = timing.utilization(&out.copies, 2, out.stats.makespan, None);
        // The slow processor is never idle between its pebbles: weighted
        // utilization must be exactly 4× the naive count, and high.
        assert!((weighted[1] - 4.0 * unweighted[1]).abs() < 1e-12);
        assert!(
            weighted[1] > 0.9,
            "slow proc looks idle: weighted {weighted:?}, unweighted {unweighted:?}"
        );
        assert_eq!(weighted[0], unweighted[0]);
    }

    /// Conservation invariant of a traced run: every copy's categories
    /// exactly partition `[0, makespan)`.
    fn assert_conserved(out: &RunOutcome) {
        let report = out.trace.as_ref().expect("traced run has a report");
        let stalls = out.stats.stalls.expect("traced run has stall totals");
        assert_eq!(stalls, report.totals);
        assert_eq!(report.makespan, out.stats.makespan);
        assert_eq!(report.per_copy.len(), out.copies.len());
        for (b, c) in report.per_copy.iter().zip(&out.copies) {
            assert_eq!(
                b.total(),
                out.stats.makespan,
                "copy of column {} on proc {}: {b:?}",
                c.cell,
                c.proc
            );
        }
        assert_eq!(stalls.total(), out.stats.makespan * out.copies.len() as u64);
    }

    #[test]
    fn traced_run_is_schedule_identical_and_conserves() {
        let guest = GuestSpec::array(8, ProgramKind::Relaxation, 4, 12);
        let host = linear_array(4, DelayModel::uniform(2, 8), 5);
        let assign = Assignment::from_cells_of(
            4,
            8,
            vec![
                vec![0, 1, 2],
                vec![1, 2, 3, 4],
                vec![3, 4, 5, 6],
                vec![5, 6, 7],
            ],
        );
        let cfg = EngineConfig::default();
        let eng = Engine::new(&guest, &host, &assign, cfg);
        let plain = eng.run().unwrap();
        let traced = eng.run_traced(TraceConfig::default()).unwrap();
        // Tracing must not perturb the schedule: strip the trace-only
        // fields and the outcomes are identical.
        let mut stripped = traced.clone();
        stripped.stats.stalls = None;
        stripped.trace = None;
        assert_eq!(stripped, plain);
        assert_conserved(&traced);
        // This run crosses delay-≥2 links, so both dependency-shaped waits
        // and in-flight waits must show up.
        let totals = traced.stats.stalls.unwrap();
        assert!(totals.compute_ticks > 0);
        assert!(totals.stall_bandwidth > 0, "{totals:?}");
        assert_eq!(totals.stall_fault, 0);
        check_against_reference(&guest, &traced);
    }

    #[test]
    fn traced_multicast_run_conserves() {
        let guest = GuestSpec::array(6, ProgramKind::KvWorkload, 3, 10);
        let host = linear_array(3, DelayModel::constant(3), 0);
        let assign =
            Assignment::from_cells_of(3, 6, vec![vec![0, 1, 2], vec![2, 3, 4], vec![4, 5]]);
        let cfg = EngineConfig {
            multicast: true,
            ..Default::default()
        };
        let traced = Engine::new(&guest, &host, &assign, cfg)
            .run_traced(TraceConfig::default())
            .unwrap();
        assert_conserved(&traced);
        check_against_reference(&guest, &traced);
    }

    #[test]
    fn traced_fault_run_attributes_fault_ticks_and_conserves() {
        use crate::faults::FaultPlan;
        let guest = GuestSpec::array(6, ProgramKind::Relaxation, 2, 20);
        let host = linear_array(3, DelayModel::constant(2), 0);
        let assign = Assignment::blocked(3, 6);
        let cfg = EngineConfig::default();
        // Take the 1↔2 boundary link down mid-run: transfers time out and
        // retry with backoff, which the consumers feel as fault stalls.
        let plan = FaultPlan::new().link_down(1, 2, 5, 60);
        let traced = Engine::new(&guest, &host, &assign, cfg)
            .with_faults(plan)
            .run_traced(TraceConfig::default())
            .unwrap();
        assert_conserved(&traced);
        let totals = traced.stats.stalls.unwrap();
        assert!(traced.stats.faults.retries > 0, "plan must actually bite");
        assert!(totals.stall_fault > 0, "{totals:?}");
        check_against_reference(&guest, &traced);
    }

    #[test]
    fn traced_crash_run_conserves_over_survivors() {
        use crate::faults::FaultPlan;
        // Every column held twice, so a single crash is survivable.
        let guest = GuestSpec::array(6, ProgramKind::KvWorkload, 3, 16);
        let host = linear_array(3, DelayModel::constant(2), 0);
        let assign = Assignment::from_cells_of(
            3,
            6,
            vec![vec![0, 1, 2, 3], vec![2, 3, 4, 5], vec![0, 1, 4, 5]],
        );
        let cfg = EngineConfig::default();
        let clean = Engine::new(&guest, &host, &assign, cfg).run().unwrap();
        let plan = FaultPlan::new().crash(1, clean.stats.makespan / 3);
        let traced = Engine::new(&guest, &host, &assign, cfg)
            .with_faults(plan)
            .run_traced(TraceConfig::default())
            .unwrap();
        assert_eq!(traced.stats.faults.crashed_procs, 1);
        assert!(traced.stats.faults.rerouted_subscriptions > 0);
        // Crashed copies are gone from both the outcome and the report;
        // conservation holds over the survivors.
        assert_conserved(&traced);
        check_against_reference(&guest, &traced);
    }

    #[test]
    fn traced_single_processor_is_pure_compute_and_db_order() {
        // One processor, no links: nothing to wait for except the
        // in-order one-pebble-per-tick database serialization.
        let guest = GuestSpec::array(4, ProgramKind::KvWorkload, 3, 5);
        let host = linear_array(1, DelayModel::constant(1), 0);
        let assign = Assignment::blocked(1, 4);
        let traced = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .run_traced(TraceConfig::default())
            .unwrap();
        assert_conserved(&traced);
        let totals = traced.stats.stalls.unwrap();
        assert_eq!(totals.stall_bandwidth, 0, "{totals:?}");
        assert_eq!(totals.stall_fault, 0);
        assert_eq!(totals.compute_ticks, 20);
        assert!(totals.stall_db_order > 0, "{totals:?}");
    }

    #[test]
    fn timing_is_absent_by_default() {
        let guest = GuestSpec::array(4, ProgramKind::StencilSum, 0, 3);
        let host = linear_array(2, DelayModel::constant(1), 0);
        let assign = Assignment::blocked(2, 4);
        let out = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .run()
            .unwrap();
        assert!(out.timing.is_none());
    }

    #[test]
    fn batch_transit_is_observable_end_to_end() {
        // One producer column feeding one consumer over a single delay-d
        // link with bw = 2: pebble t arrives at its compute tick + d +
        // queueing; the consumer's column completes by ≈ T + d + T/bw.
        let d = 20u64;
        let t_steps = 10u32;
        let guest = GuestSpec::array(2, ProgramKind::StencilSum, 1, t_steps);
        let host = linear_array(2, DelayModel::constant(d), 0);
        let assign = Assignment::blocked(2, 2);
        let cfg = EngineConfig {
            bandwidth: BandwidthMode::Fixed(2),
            record_timing: true,
            ..Default::default()
        };
        let out = Engine::new(&guest, &host, &assign, cfg).run().unwrap();
        // Each step of the pair costs ≥ d (the dependency cycle), so the
        // makespan is ≥ (T−1)·d; and it must terminate within (T+1)·(d+2).
        assert!(out.stats.makespan >= (t_steps as u64 - 1) * d);
        assert!(out.stats.makespan <= (t_steps as u64 + 1) * (d + 2));
    }

    #[test]
    fn heterogeneous_speeds_slow_the_run_proportionally_and_validate() {
        let guest = GuestSpec::array(8, ProgramKind::KvWorkload, 3, 12);
        let host = linear_array(4, DelayModel::constant(2), 0);
        let assign = Assignment::blocked(4, 8);
        let base = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .run()
            .unwrap();
        let slowed = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .with_compute_costs(vec![1, 4, 1, 1])
            .run()
            .unwrap();
        check_against_reference(&guest, &slowed);
        // The slow processor throttles the run: makespan grows but is
        // bounded by the 4× cost on 2 cells per step plus propagation.
        assert!(slowed.stats.makespan > base.stats.makespan);
        assert!(slowed.stats.makespan <= 4 * base.stats.makespan + 16);
    }

    #[test]
    fn uniform_costs_equal_default() {
        let guest = GuestSpec::array(6, ProgramKind::Relaxation, 3, 10);
        let host = linear_array(3, DelayModel::uniform(1, 5), 1);
        let assign = Assignment::blocked(3, 6);
        let a = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .run()
            .unwrap();
        let b = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .with_compute_costs(vec![1; 3])
            .run()
            .unwrap();
        assert_eq!(a.stats.makespan, b.stats.makespan);
        assert_eq!(a.copies, b.copies);
    }

    #[test]
    #[should_panic(expected = "costs must be ≥ 1")]
    fn zero_cost_is_rejected() {
        let guest = GuestSpec::array(2, ProgramKind::StencilSum, 0, 1);
        let host = linear_array(2, DelayModel::constant(1), 0);
        let assign = Assignment::blocked(2, 2);
        let _ = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .with_compute_costs(vec![1, 0]);
    }

    #[test]
    fn multicast_mode_validates_and_reduces_traffic() {
        // A column consumed by several processors: overlapping assignment
        // where cell 4 feeds three consumers.
        let guest = GuestSpec::array(10, ProgramKind::KvWorkload, 7, 14);
        let host = linear_array(5, DelayModel::constant(3), 0);
        let assign = Assignment::from_cells_of(
            5,
            10,
            vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7], vec![8, 9]],
        );
        let uni = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .run()
            .unwrap();
        let mc_cfg = EngineConfig {
            multicast: true,
            ..Default::default()
        };
        let mc = Engine::new(&guest, &host, &assign, mc_cfg).run().unwrap();
        check_against_reference(&guest, &mc);
        // Same computed state.
        let mut a = uni.copies.clone();
        let mut b = mc.copies.clone();
        a.sort_by_key(|c| (c.cell, c.proc));
        b.sort_by_key(|c| (c.cell, c.proc));
        assert_eq!(a, b);
        // Never more link traversals than unicast.
        assert!(
            mc.stats.pebble_hops <= uni.stats.pebble_hops,
            "multicast hops {} > unicast {}",
            mc.stats.pebble_hops,
            uni.stats.pebble_hops
        );
    }

    #[test]
    fn multicast_shares_links_under_fanout() {
        // Source at one end, consumers spread along the line: unicast
        // retraverses the first link per consumer, multicast once.
        let guest = GuestSpec::array(5, ProgramKind::StencilSum, 1, 10);
        let host = linear_array(5, DelayModel::constant(2), 0);
        // cell 0 on proc 0; cells 1..5 each on their own proc, all of
        // which need cell 0? Only proc 1 needs cell 0 (line deps).
        // Instead: proc 0 holds cells 0..=2 so consumers 1,2 both need it.
        let assign = Assignment::from_cells_of(
            5,
            5,
            vec![vec![0, 1, 2], vec![1, 3], vec![2, 4], vec![3], vec![4]],
        );
        let uni = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .run()
            .unwrap();
        let mc = Engine::new(
            &guest,
            &host,
            &assign,
            EngineConfig {
                multicast: true,
                ..Default::default()
            },
        )
        .run()
        .unwrap();
        check_against_reference(&guest, &uni);
        check_against_reference(&guest, &mc);
        assert!(mc.stats.pebble_hops <= uni.stats.pebble_hops);
    }

    #[test]
    fn jitter_none_is_identity_and_effective_is_bounded() {
        assert_eq!(Jitter::None.effective(10, 0, 5), 10);
        let j = Jitter::Periodic {
            amplitude_pct: 50,
            period: 8,
        };
        for lid in 0..4 {
            for t in 0..64 {
                let e = j.effective(10, lid, t);
                assert!((5..=15).contains(&e), "lid={lid} t={t}: {e}");
            }
        }
        // amplitude 100 never drops below 1
        let j = Jitter::Periodic {
            amplitude_pct: 100,
            period: 2,
        };
        for t in 0..32 {
            assert!(j.effective(3, 1, t) >= 1);
        }
    }

    #[test]
    fn jittered_runs_validate_and_stay_near_the_baseline() {
        let guest = GuestSpec::array(16, ProgramKind::KvWorkload, 9, 24);
        let host = linear_array(4, DelayModel::constant(16), 0);
        let assign = Assignment::blocked(4, 16);
        let base = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .run()
            .unwrap();
        let cfg = EngineConfig {
            jitter: Jitter::Periodic {
                amplitude_pct: 50,
                period: 16,
            },
            ..Default::default()
        };
        let jit = Engine::new(&guest, &host, &assign, cfg).run().unwrap();
        check_against_reference(&guest, &jit);
        // ±50% delay fluctuation keeps the makespan within ±60% of base.
        let (b, j) = (base.stats.makespan as f64, jit.stats.makespan as f64);
        assert!((j - b).abs() <= 0.6 * b, "base {b} vs jittered {j}");
        // determinism under jitter
        let again = Engine::new(&guest, &host, &assign, cfg).run().unwrap();
        assert_eq!(jit.stats.makespan, again.stats.makespan);
    }

    #[test]
    fn single_cell_guest_runs() {
        // One cell, boundary deps only: pure sequential work.
        let guest = GuestSpec::array(1, ProgramKind::KvWorkload, 3, 16);
        let host = linear_array(2, DelayModel::constant(9), 0);
        let assign = Assignment::from_cells_of(2, 1, vec![vec![0], vec![]]);
        let out = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .run()
            .unwrap();
        assert_eq!(out.stats.makespan, 16);
        assert_eq!(out.stats.messages, 0);
        check_against_reference(&guest, &out);
    }

    #[test]
    fn single_host_processor_with_ring_guest() {
        let guest = GuestSpec::ring(6, ProgramKind::Relaxation, 5, 8);
        let host = linear_array(1, DelayModel::constant(1), 0);
        let assign = Assignment::all_on_one(1, 6);
        let out = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .run()
            .unwrap();
        assert_eq!(out.stats.makespan, 48);
        check_against_reference(&guest, &out);
    }

    #[test]
    fn duplicate_full_copies_still_agree() {
        // Every processor holds the whole guest: maximal redundancy, no
        // communication at all.
        let guest = GuestSpec::array(5, ProgramKind::KvWorkload, 2, 7);
        let host = linear_array(3, DelayModel::constant(1000), 0);
        let assign = Assignment::from_cells_of(
            3,
            5,
            vec![(0..5).collect(), (0..5).collect(), (0..5).collect()],
        );
        let out = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .run()
            .unwrap();
        assert_eq!(out.stats.messages, 0, "full copies need no messages");
        assert_eq!(out.stats.makespan, 35);
        check_against_reference(&guest, &out);
    }

    #[test]
    fn tick_limit_triggers() {
        let guest = GuestSpec::array(4, ProgramKind::StencilSum, 0, 100);
        let host = linear_array(2, DelayModel::constant(50), 0);
        let assign = Assignment::blocked(2, 4);
        let cfg = EngineConfig {
            bandwidth: BandwidthMode::LogN,
            max_ticks: 10,
            ..Default::default()
        };
        let err = Engine::new(&guest, &host, &assign, cfg).run().unwrap_err();
        assert!(matches!(err, RunError::TickLimit(10)));
    }

    #[test]
    fn stats_count_events_and_queue_depth() {
        let guest = GuestSpec::array(8, ProgramKind::KvWorkload, 3, 12);
        let host = linear_array(4, DelayModel::constant(5), 0);
        let assign = Assignment::blocked(4, 8);
        let out = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .run()
            .unwrap();
        // Every compute completion is an event; routed pebbles add more.
        assert!(out.stats.events_processed >= out.stats.total_compute);
        assert!(out.stats.peak_queue_depth >= 1);
    }

    /// The calendar-queue engine must reproduce the classic heap engine's
    /// outcome bit for bit, across route modes, jitter, and costs.
    #[test]
    fn matches_classic_engine_exactly() {
        let guest = GuestSpec::array(12, ProgramKind::KvWorkload, 5, 18);
        let host = linear_array(4, DelayModel::uniform(1, 9), 7);
        let assign = Assignment::from_cells_of(
            4,
            12,
            vec![
                vec![0, 1, 2, 3],
                vec![3, 4, 5, 6],
                vec![6, 7, 8, 9],
                vec![9, 10, 11],
            ],
        );
        for multicast in [false, true] {
            for jitter in [
                Jitter::None,
                Jitter::Periodic {
                    amplitude_pct: 40,
                    period: 8,
                },
            ] {
                for costs in [None, Some(vec![1u32, 3, 1, 2])] {
                    let cfg = EngineConfig {
                        multicast,
                        jitter,
                        record_timing: true,
                        ..Default::default()
                    };
                    let mut eng = Engine::new(&guest, &host, &assign, cfg);
                    if let Some(c) = costs.clone() {
                        eng = eng.with_compute_costs(c);
                    }
                    let new = eng.run().expect("calendar engine");
                    let classic = run_classic(&guest, &host, &assign, cfg, costs.as_deref())
                        .expect("classic engine");
                    assert_eq!(
                        new, classic,
                        "divergence (multicast={multicast}, jitter={jitter:?}, costs={costs:?})"
                    );
                }
            }
        }
    }
}
