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
//! The event rules themselves (compute, send, deliver, crash recovery)
//! are written once in the crate-private `rules` module and shared with
//! the [sharded engine](crate::sharded); this module owns the public
//! types and the sequential loop: one calendar queue over every
//! processor.
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
use crate::faults::{FaultMark, FaultPlan};
use crate::plan::{ExecPlan, Hot, Routes};
use crate::routing::RoutingTable;
use crate::rules::{Backend, Ev, Lane, LinkSlot, ProcState, Rules};
use crate::stats::RunStats;
use crate::trace::{NoopTracer, StallTracer, TraceConfig, TraceReport, Tracer};
use overlap_model::GuestSpec;
use overlap_net::{HostGraph, NodeId};
use serde::{Deserialize, Serialize};

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

/// The simulator: executes a guest under a database assignment on a host
/// NOW, cycle-accurately (see the module docs for the exact semantics).
///
/// All lowering lives in [`ExecPlan`]: [`Engine::new`] builds a private
/// plan for one-shot runs, while [`Engine::from_plan`] runs a
/// [`view`](ExecPlan::view) of a shared one, so sweeps amortize the
/// lowering across repeats, engines, and fault variants. Compute costs
/// and faults live on that plan alone; the `with_*` setters write them
/// into it.
pub struct Engine<'a> {
    /// The plan this engine runs, or the error reported when the engine
    /// runs (incomplete assignment, or a fault plan the host rejects).
    plan: Result<ExecPlan<'a>, RunError>,
    /// Cooperative pause/cancel control, observed every
    /// [`CHECK_EVERY`](crate::control::CHECK_EVERY) events.
    control: Option<&'a RunControl>,
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
            plan: ExecPlan::build(guest, host, assign, config),
            control: None,
        }
    }

    /// Execute a view of a pre-lowered plan: the plan's compute costs and
    /// fault schedule apply until the `with_*` setters replace them on
    /// the view, so one plan can be shared across repeats, engines, and
    /// fault variants.
    pub fn from_plan(plan: &'a ExecPlan<'_>) -> Self {
        Self {
            plan: Ok(plan.view()),
            control: None,
        }
    }

    /// Give each processor its own compute cost (ticks per pebble, ≥ 1).
    /// Models heterogeneous workstation speeds — an extension beyond the
    /// paper's unit-speed processors. See [`ExecPlan::with_compute_costs`].
    pub fn with_compute_costs(mut self, costs: Vec<u32>) -> Self {
        self.plan = self.plan.map(|p| p.with_compute_costs(costs));
        self
    }

    /// Inject a deterministic fault plan (link outages, delay spikes,
    /// processor crashes) with graceful degradation: timed-out transfers
    /// are retried with exponential backoff, and subscriptions whose
    /// holder crashed are rerouted to the nearest surviving copy. An
    /// empty plan leaves the run bit-identical to a fault-free engine.
    /// A plan naming a link or processor the host lacks makes `run`
    /// return the error of [`ExecPlan::with_faults`].
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.plan = self.plan.and_then(|p| p.with_faults(faults));
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
        self.plan.as_ref().ok().and_then(|p| p.routing())
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
        let plan = self.plan.as_ref().map_err(Clone::clone)?;
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
        let hot: &Hot = &plan.hot;
        let cid_of = |proc: NodeId, cell: u32| -> u32 {
            let p = proc as usize;
            let pos = hot.procs[p]
                .cells
                .binary_search(&cell)
                .expect("route source holds its cell");
            hot.copy_off[p] + pos as u32
        };
        let (sub_src, tree_src) = match &*plan.routes {
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
        let plan = self.plan.as_ref().map_err(Clone::clone)?;
        // The fault runtime is compiled only for a non-empty plan, so the
        // fault-free path schedules the exact same events in the exact
        // same order as an engine without a plan.
        let rules = Rules::new(plan)?;
        let mut cr = rules.crashes();
        let mut seq = Seq {
            state: (0..rules.hot.procs.len())
                .map(|p| rules.proc_state(p))
                .collect(),
            links: vec![LinkSlot::default(); rules.hot.link_delay.len()],
            queue: CalendarQueue::new(),
            peak: 0,
            lane: rules.lane(),
        };
        // Crash events go in first, so at their tick they pop before any
        // same-tick compute completion or arrival (FIFO within a tick):
        // a pebble finishing exactly at the crash tick does not complete.
        for (at, proc) in rules.crash_schedule() {
            seq.push(at, proc, Ev::Crash { proc });
        }
        rules.seed(&mut seq, tracer);

        let total = rules.total_compute();
        let max_ticks = plan.config.max_ticks;
        let mut events_processed = 0u64;
        while let Some((tick, ev)) = seq.queue.pop() {
            if tick > max_ticks {
                return Err(RunError::TickLimit(max_ticks));
            }
            if seq.lane.completed + seq.lane.forfeited == total {
                break;
            }
            events_processed += 1;
            if events_processed.is_multiple_of(crate::control::CHECK_EVERY) {
                if let Some(ctl) = self.control {
                    ctl.checkpoint(events_processed)?;
                }
            }
            match ev {
                Ev::Crash { proc } => rules.crash(&mut cr, &mut seq, tracer, tick, proc)?,
                ev => rules.handle(&cr, &mut seq, tracer, tick, ev)?,
            }
        }
        let remaining = total - seq.lane.completed - seq.lane.forfeited;
        if remaining > 0 {
            return Err(RunError::Deadlock {
                tick: seq.lane.makespan,
                remaining,
            });
        }
        rules.late_crashes(&mut cr, &mut seq.lane, tracer);
        let Seq {
            state,
            links,
            queue,
            peak,
            lane,
        } = seq;
        Ok(rules.outcome(
            &cr,
            |p| &state[p],
            links.iter().map(|l| l.traffic),
            lane,
            events_processed,
            peak as u64,
            queue.clamped(),
        ))
    }
}

/// The sequential engine's side of the event rules: every processor's
/// state in one vector, one calendar queue, and the peak queue depth
/// checked after every push.
struct Seq {
    state: Vec<ProcState>,
    links: Vec<LinkSlot>,
    queue: CalendarQueue<Ev>,
    peak: usize,
    lane: Lane,
}

impl Backend for Seq {
    #[inline]
    fn proc(&mut self, p: usize) -> &mut ProcState {
        &mut self.state[p]
    }

    #[inline]
    fn link(&mut self, lid: u32) -> &mut LinkSlot {
        &mut self.links[lid as usize]
    }

    #[inline]
    fn push(&mut self, tick: u64, _owner: NodeId, ev: Ev) {
        self.queue.push(tick, ev);
        self.peak = self.peak.max(self.queue.len());
    }

    #[inline]
    fn lane(&mut self) -> &mut Lane {
        &mut self.lane
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine_classic::run_classic;
    use overlap_model::{fold64, GuestSpec, ProgramKind, ReferenceRun};
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
    fn engine_faults_fail_like_plan_faults() {
        let guest = GuestSpec::array(8, ProgramKind::KvWorkload, 3, 6);
        let host = linear_array(4, DelayModel::uniform(1, 5), 2);
        let assign = Assignment::blocked(4, 8);
        let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
        // 0–2 is not a link of the 4-node line; processor 99 does not exist.
        for bad in [
            FaultPlan::new().link_down(0, 2, 1, 9),
            FaultPlan::new().crash(99, 5),
        ] {
            let want = plan.view().with_faults(bad.clone()).unwrap_err();
            assert!(matches!(
                want,
                RunError::MissingLink { from: 0, to: 2 }
                    | RunError::NoSuchProcessor { proc: 99, procs: 4 }
            ));
            let got = Engine::from_plan(&plan).with_faults(bad).run();
            assert_eq!(got.unwrap_err(), want);
        }
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
