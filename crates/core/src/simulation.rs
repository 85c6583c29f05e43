//! The [`Simulation`] builder — the one front door to the simulator.
//!
//! Replaces the old positional plumbing (`plan_line_placement` +
//! `Engine::new(guest, host, &assign, config)` + `validate_run`) with a
//! fluent, self-describing API:
//!
//! ```
//! use overlap_core::simulation::Simulation;
//! use overlap_core::pipeline::Strategy;
//! use overlap_model::{GuestSpec, ProgramKind};
//! use overlap_net::{topology, DelayModel};
//!
//! let host = topology::linear_array(8, DelayModel::uniform(1, 8), 5);
//! let guest = GuestSpec::array(24, ProgramKind::KvWorkload, 3, 16);
//! let report = Simulation::of(&guest)
//!     .on(&host)
//!     .strategy(Strategy::Overlap { c: 4.0 })
//!     .build()
//!     .and_then(|sim| sim.run())
//!     .unwrap();
//! assert!(report.validated);
//! ```
//!
//! `build()` performs placement planning (strategy → assignment) and
//! reports any [`Error`] early; `run()` executes on the chosen engine,
//! validates every database copy against the unit-delay reference, and
//! returns a [`SimReport`] carrying the full [`RunOutcome`]. Fault plans
//! (`.faults(..)`) inject deterministic link outages, delay spikes, and
//! processor crashes — see `overlap_sim::faults`.

use crate::error::Error;
use crate::pipeline::{plan_line_placement, SimReport, Strategy};
use overlap_model::{GuestSpec, ReferenceRun, ReferenceTrace};
use overlap_net::{Delay, HostGraph};
use overlap_sim::engine::{Engine, EngineConfig, Jitter, MemBudget, RunOutcome};
use overlap_sim::faults::FaultPlan;
use overlap_sim::validate::validate_run;
use overlap_sim::{run_lockstep, run_sharded, Assignment, BandwidthMode, ExecPlan, TraceConfig};
use serde::{Deserialize, Serialize};

/// Which execution engine runs the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EngineKind {
    /// The cycle-accurate discrete-event engine (the default; the only
    /// engine supporting multicast, jitter, and stall tracing).
    #[default]
    Event,
    /// The lockstep baseline: global rounds of `d_max`-synchronised
    /// compute-then-exchange (prior work's model).
    Lockstep,
    /// The sharded conservative-parallel event engine: the host graph is
    /// partitioned into `threads` shards, each with its own calendar
    /// queue, synchronised in bounded time windows whose width is the
    /// minimum cross-shard link delay. Bit-identical to
    /// [`Event`](EngineKind::Event) for every plan; supports everything the
    /// event engine does except stall-attribution tracing.
    Sharded {
        /// Worker-thread (= shard) count; clamped to `1..=host procs`.
        threads: usize,
    },
}

/// Entry point of the builder API: `Simulation::of(&guest)`.
pub struct Simulation;

impl Simulation {
    /// Start describing a simulation of `guest`.
    pub fn of(guest: &GuestSpec) -> SimulationBuilder<'_> {
        SimulationBuilder {
            guest,
            host: None,
            strategy: Strategy::Auto,
            assignment: None,
            config: EngineConfig::default(),
            compute_costs: None,
            faults: None,
            trace: None,
            engine: EngineKind::Event,
        }
    }
}

/// Accumulates the description of one simulation run. Finish with
/// [`build`](SimulationBuilder::build).
pub struct SimulationBuilder<'a> {
    guest: &'a GuestSpec,
    host: Option<&'a HostGraph>,
    strategy: Strategy,
    assignment: Option<Assignment>,
    config: EngineConfig,
    compute_costs: Option<Vec<u32>>,
    faults: Option<FaultPlan>,
    trace: Option<TraceConfig>,
    engine: EngineKind,
}

impl<'a> SimulationBuilder<'a> {
    /// The host NOW to simulate on (required).
    pub fn on(mut self, host: &'a HostGraph) -> Self {
        self.host = Some(host);
        self
    }

    /// Database placement strategy (default [`Strategy::Auto`]).
    /// Applies to line/ring guests; other topologies need
    /// [`assignment`](Self::assignment).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Use an explicit database assignment instead of a placement
    /// strategy (works for any guest topology).
    pub fn assignment(mut self, assignment: Assignment) -> Self {
        self.assignment = Some(assignment);
        self
    }

    /// Link bandwidth model (default: the paper's `log n`).
    pub fn bandwidth(mut self, bandwidth: BandwidthMode) -> Self {
        self.config.bandwidth = bandwidth;
        self
    }

    /// Distribute columns over multicast trees instead of per-subscriber
    /// unicast routes.
    pub fn multicast(mut self, on: bool) -> Self {
        self.config.multicast = on;
        self
    }

    /// Deterministic time-varying link-delay jitter.
    pub fn jitter(mut self, jitter: Jitter) -> Self {
        self.config.jitter = jitter;
        self
    }

    /// Cap resident database copies per processor (red–blue pebbling
    /// mode): evicted copies must be re-fetched for
    /// [`MemBudget::reload_cost`] extra ticks before the next compute.
    /// Pure timing/accounting — values are unchanged, so validation
    /// still holds. Event and sharded engines only.
    pub fn memory_budget(mut self, budget: MemBudget) -> Self {
        self.config.mem = Some(budget);
        self
    }

    /// Record per-pebble completion ticks (`RunOutcome::timing`).
    pub fn record_timing(mut self, on: bool) -> Self {
        self.config.record_timing = on;
        self
    }

    /// Safety cap on simulated ticks.
    pub fn max_ticks(mut self, max_ticks: u64) -> Self {
        self.config.max_ticks = max_ticks;
        self
    }

    /// Per-processor compute costs (ticks per pebble, ≥ 1).
    pub fn compute_costs(mut self, costs: Vec<u32>) -> Self {
        self.compute_costs = Some(costs);
        self
    }

    /// Inject a deterministic fault plan (event and sharded engines). An
    /// empty plan is bit-identical to no plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attribute every stall tick of the run to its cause — dependency,
    /// bandwidth, database-update order, faults, or post-completion drain
    /// (event engine only). The report lands in the outcome's
    /// `stats.stalls` and `trace`; the schedule itself is unchanged.
    pub fn trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }

    /// Choose the execution engine (default [`EngineKind::Event`]).
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Plan the placement and check the configuration. Returns a
    /// [`ReadySimulation`] that can be run (repeatedly).
    pub fn build(self) -> Result<ReadySimulation<'a>, Error> {
        let host = self
            .host
            .ok_or_else(|| Error::Config("no host: call .on(&host)".into()))?;
        if let Some(costs) = &self.compute_costs {
            if costs.len() as u32 != host.num_nodes() {
                return Err(Error::Config(format!(
                    "compute_costs has {} entries for a {}-node host",
                    costs.len(),
                    host.num_nodes()
                )));
            }
            if costs.contains(&0) {
                return Err(Error::Config("compute costs must be ≥ 1".into()));
            }
        }
        // A fault plan must name real links and processors of *this* host;
        // a typo'd `--faults` spec used to abort the process at lowering.
        if let Some(faults) = &self.faults {
            faults.validate(host).map_err(Error::Run)?;
        }
        // Feature × engine support matrix. Features are rejected up
        // front with `Error::Unsupported` — never silently dropped at
        // run time.
        let has_faults = self.faults.as_ref().is_some_and(|p| !p.is_empty());
        let unsupported = |engine, feature| Err(Error::Unsupported { engine, feature });
        let nonuniform_guest = self.guest.has_nonunit_task_costs() || !self.guest.is_static();
        match self.engine {
            EngineKind::Event => {
                // The stall tracer's conservation law assumes uniform
                // `cost_of(p)` pebbles; reload penalties and per-task
                // costs break it.
                if self.trace.is_some() {
                    if self.config.mem.is_some() {
                        return unsupported("event (traced)", "memory budget");
                    }
                    if nonuniform_guest {
                        return unsupported("event (traced)", "non-uniform task graph");
                    }
                }
            }
            EngineKind::Lockstep => {
                if has_faults {
                    return unsupported("lockstep", "fault injection");
                }
                if self.compute_costs.is_some() {
                    return unsupported("lockstep", "per-processor compute costs");
                }
                if self.trace.is_some() {
                    return unsupported("lockstep", "stall-attribution tracing");
                }
                if self.config.multicast {
                    return unsupported("lockstep", "multicast distribution");
                }
                // The closed-form lockstep makespan assumes unit-cost
                // pebbles with always-resident copies.
                if self.config.mem.is_some() {
                    return unsupported("lockstep", "memory budget");
                }
                if self.guest.has_nonunit_task_costs() {
                    return unsupported("lockstep", "non-unit task costs");
                }
            }
            EngineKind::Sharded { threads } => {
                // `threads: 0` used to fall through to the engine, which
                // silently clamped it to 1 — neither the "auto" the caller
                // probably meant nor an error. Reject it up front.
                if threads == 0 {
                    return Err(Error::InvalidConfig {
                        option: "threads",
                        reason: "a sharded engine needs at least one shard \
                                 (use available_parallelism for auto)"
                            .into(),
                    });
                }
                if self.trace.is_some() {
                    return unsupported("sharded", "stall-attribution tracing");
                }
            }
        }
        let (assignment, predicted_slowdown, array_delays, dilation) = match self.assignment {
            Some(a) => {
                if a.num_procs() != host.num_nodes() {
                    return Err(Error::Config(format!(
                        "assignment covers {} processors for a {}-node host",
                        a.num_procs(),
                        host.num_nodes()
                    )));
                }
                let delays: Vec<Delay> = host.links().iter().map(|l| l.delay).collect();
                (a, None, delays, 0)
            }
            None => {
                let placement = plan_line_placement(self.guest, host, self.strategy)?;
                (
                    placement.assignment,
                    placement.predicted_slowdown,
                    placement.array_delays,
                    placement.dilation,
                )
            }
        };
        Ok(ReadySimulation {
            guest: self.guest,
            host,
            assignment,
            strategy: self.strategy,
            config: self.config,
            compute_costs: self.compute_costs,
            faults: self.faults,
            trace: self.trace,
            engine: self.engine,
            predicted_slowdown,
            array_delays,
            dilation,
        })
    }
}

/// A fully planned simulation: the placement is fixed, ready to execute.
#[derive(Debug)]
pub struct ReadySimulation<'a> {
    guest: &'a GuestSpec,
    host: &'a HostGraph,
    assignment: Assignment,
    strategy: Strategy,
    config: EngineConfig,
    compute_costs: Option<Vec<u32>>,
    faults: Option<FaultPlan>,
    trace: Option<TraceConfig>,
    engine: EngineKind,
    predicted_slowdown: Option<f64>,
    array_delays: Vec<Delay>,
    dilation: u32,
}

impl ReadySimulation<'_> {
    /// The planned database assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The strategy's predicted slowdown, when it has one.
    pub fn predicted_slowdown(&self) -> Option<f64> {
        self.predicted_slowdown
    }

    /// Embedding dilation (0 when the host is a genuine path or an
    /// explicit assignment was supplied).
    pub fn dilation(&self) -> u32 {
        self.dilation
    }

    /// Lower this simulation to its executable plan: interned tables,
    /// routing, and the configured compute costs / fault plan, all
    /// compiled once. The plan can be executed repeatedly (and on
    /// different engines) via [`run_plan`](Self::run_plan) — sweeps
    /// amortise the lowering across repeats — and varied in place with
    /// [`ExecPlan::apply_delta`]: single-link delay edits, fault-plan
    /// swaps, and compute-cost overrides each yield a plan bit-identical
    /// to a fresh lowering, usually without rebuilding any table.
    pub fn build_plan(&self) -> Result<ExecPlan<'_>, Error> {
        let mut plan = ExecPlan::build(self.guest, self.host, &self.assignment, self.config)?;
        if let Some(costs) = &self.compute_costs {
            plan = plan.with_compute_costs(costs.clone());
        }
        if let Some(faults) = &self.faults {
            plan = plan.with_faults(faults.clone())?;
        }
        Ok(plan)
    }

    /// Execute an already-lowered plan on this simulation's engine.
    /// `run_raw` is exactly `build_plan` + `run_plan`; calling them
    /// separately lets sweeps lower once and run many times.
    pub fn run_plan(&self, plan: &ExecPlan) -> Result<RunOutcome, Error> {
        let out = match self.engine {
            EngineKind::Event => {
                let eng = Engine::from_plan(plan);
                match self.trace {
                    Some(cfg) => eng.run_traced(cfg)?,
                    None => eng.run()?,
                }
            }
            EngineKind::Lockstep => run_lockstep(plan)?,
            EngineKind::Sharded { threads } => run_sharded(plan, threads)?,
        };
        Ok(out)
    }

    /// Execute without validating (no reference run). Returns the raw
    /// engine outcome.
    pub fn run_raw(&self) -> Result<RunOutcome, Error> {
        let plan = self.build_plan()?;
        self.run_plan(&plan)
    }

    /// Execute and validate every database copy against the unit-delay
    /// reference.
    pub fn run(&self) -> Result<SimReport, Error> {
        let trace = ReferenceRun::execute(self.guest);
        self.run_with_trace(&trace)
    }

    /// Like [`run`](Self::run) with a precomputed reference trace (for
    /// sweeps that reuse the guest).
    pub fn run_with_trace(&self, trace: &ReferenceTrace) -> Result<SimReport, Error> {
        let outcome = self.run_raw()?;
        let errors = validate_run(trace, &outcome);
        let delays = &self.array_delays;
        let d_ave = if delays.is_empty() {
            0.0
        } else {
            delays.iter().sum::<u64>() as f64 / delays.len() as f64
        };
        Ok(SimReport {
            stats: outcome.stats,
            validated: errors.is_empty(),
            mismatches: errors.len(),
            predicted_slowdown: self.predicted_slowdown,
            strategy: self.strategy.label(),
            host: self.host.name().to_string(),
            d_ave,
            d_max: delays.iter().copied().max().unwrap_or(0),
            dilation: self.dilation,
            outcome,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_model::ProgramKind;
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;
    use overlap_sim::engine::RunError;

    fn lab() -> (GuestSpec, HostGraph) {
        (
            GuestSpec::array(16, ProgramKind::KvWorkload, 3, 12),
            linear_array(4, DelayModel::uniform(1, 6), 7),
        )
    }

    #[test]
    fn builder_runs_are_deterministic() {
        let (guest, host) = lab();
        let strategy = Strategy::Overlap { c: 4.0 };
        let run = || {
            Simulation::of(&guest)
                .on(&host)
                .strategy(strategy)
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert!(a.validated);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(a.predicted_slowdown, b.predicted_slowdown);
    }

    #[test]
    fn missing_host_is_a_config_error() {
        let (guest, _) = lab();
        let err = Simulation::of(&guest).build().unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
    }

    #[test]
    fn explicit_assignment_bypasses_strategy() {
        let (guest, host) = lab();
        let assign = Assignment::blocked(4, 16);
        let sim = Simulation::of(&guest)
            .on(&host)
            .assignment(assign.clone())
            .build()
            .unwrap();
        assert_eq!(sim.assignment().cells_of(0), assign.cells_of(0));
        assert!(sim.run().unwrap().validated);
    }

    #[test]
    fn mesh_guest_without_assignment_is_unsupported() {
        let guest = GuestSpec::mesh(4, 4, ProgramKind::StencilSum, 0, 2);
        let host = linear_array(4, DelayModel::constant(1), 0);
        let err = Simulation::of(&guest).on(&host).build().unwrap_err();
        assert!(matches!(err, Error::UnsupportedTopology));
    }

    #[test]
    fn engines_agree_on_stats() {
        let (guest, host) = lab();
        let event = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Blocked)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let sharded = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Blocked)
            .engine(EngineKind::Sharded { threads: 2 })
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(event.validated && sharded.validated);
        assert_eq!(event.stats, sharded.stats);
        let lockstep = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Blocked)
            .engine(EngineKind::Lockstep)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(lockstep.validated);
        assert!(lockstep.stats.makespan >= event.stats.makespan);
    }

    #[test]
    fn lockstep_rejects_faults_and_costs_as_unsupported() {
        let (guest, host) = lab();
        let err = Simulation::of(&guest)
            .on(&host)
            .engine(EngineKind::Lockstep)
            .faults(FaultPlan::new().link_down(0, 1, 5, 10))
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::Unsupported {
                    engine: "lockstep",
                    feature: "fault injection"
                }
            ),
            "{err}"
        );
        let err = Simulation::of(&guest)
            .on(&host)
            .engine(EngineKind::Lockstep)
            .compute_costs(vec![1, 2, 1, 1])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Unsupported { .. }), "{err}");
        // But an *empty* fault plan is fine anywhere.
        assert!(Simulation::of(&guest)
            .on(&host)
            .engine(EngineKind::Lockstep)
            .faults(FaultPlan::new())
            .build()
            .is_ok());
    }

    #[test]
    fn sharded_engine_supports_costs_and_faults() {
        let (guest, host) = lab();
        let base = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Halo { halo: 1 })
            .engine(EngineKind::Sharded { threads: 2 })
            .build()
            .unwrap()
            .run()
            .unwrap();
        let costly = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Halo { halo: 1 })
            .engine(EngineKind::Sharded { threads: 2 })
            .compute_costs(vec![1, 4, 1, 2])
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(costly.validated);
        assert!(costly.stats.makespan > base.stats.makespan);
        let faulty = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Halo { halo: 1 })
            .engine(EngineKind::Sharded { threads: 2 })
            .faults(FaultPlan::new().link_down(1, 2, 2, 40))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(faulty.validated, "degraded sharded run must validate");
        assert!(faulty.stats.faults.retries > 0);
        assert!(faulty.stats.makespan >= base.stats.makespan);
    }

    #[test]
    fn one_plan_runs_on_every_engine() {
        let (guest, host) = lab();
        let build = |kind| {
            Simulation::of(&guest)
                .on(&host)
                .strategy(Strategy::Blocked)
                .engine(kind)
                .build()
                .unwrap()
        };
        let event = build(EngineKind::Event);
        let plan = event.build_plan().unwrap();
        let ev = event.run_plan(&plan).unwrap();
        let sh = build(EngineKind::Sharded { threads: 2 })
            .run_plan(&plan)
            .unwrap();
        let lk = build(EngineKind::Lockstep).run_plan(&plan).unwrap();
        assert_eq!(ev, sh);
        assert!(lk.stats.makespan >= ev.stats.makespan);
        // Re-running the same plan is bit-identical to run_raw's fresh
        // lowering.
        let fresh = event.run_raw().unwrap();
        assert_eq!(ev.stats, fresh.stats);
        assert_eq!(ev.copies, fresh.copies);
    }

    #[test]
    fn fault_plan_flows_through_to_the_engine() {
        let (guest, host) = lab();
        let clean = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Halo { halo: 1 })
            .build()
            .unwrap()
            .run()
            .unwrap();
        let faulty = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Halo { halo: 1 })
            .faults(FaultPlan::new().link_down(1, 2, 2, 40))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(faulty.validated, "degraded run must still validate");
        assert!(faulty.stats.faults.retries > 0);
        assert!(faulty.stats.makespan >= clean.stats.makespan);
    }

    #[test]
    fn fault_plan_on_missing_link_is_rejected_at_build() {
        let (guest, host) = lab();
        // The 4-node linear array has no 0–3 link.
        let err = Simulation::of(&guest)
            .on(&host)
            .faults(FaultPlan::new().link_down(0, 3, 5, 10))
            .build()
            .unwrap_err();
        assert!(
            matches!(err, Error::Run(RunError::MissingLink { from: 0, to: 3 })),
            "{err}"
        );
        let err = Simulation::of(&guest)
            .on(&host)
            .faults(FaultPlan::new().delay_spike(2, 0, 5, 10, 3))
            .build()
            .unwrap_err();
        assert!(
            matches!(err, Error::Run(RunError::MissingLink { .. })),
            "{err}"
        );
        let err = Simulation::of(&guest)
            .on(&host)
            .faults(FaultPlan::new().crash(12, 5))
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::Run(RunError::NoSuchProcessor { proc: 12, procs: 4 })
            ),
            "{err}"
        );
    }

    #[test]
    fn run_outcome_is_carried_in_the_report() {
        let (guest, host) = lab();
        let r = Simulation::of(&guest)
            .on(&host)
            .record_timing(true)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.outcome.stats, r.stats);
        assert!(r.outcome.timing.is_some());
        assert_eq!(
            r.outcome.copies.len(),
            r.outcome.timing.unwrap().ticks.len()
        );
    }

    #[test]
    fn tick_limit_surfaces_as_run_error() {
        let (guest, host) = lab();
        let err = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Blocked)
            .max_ticks(2)
            .build()
            .unwrap()
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::Run(RunError::TickLimit(2))));
    }

    #[test]
    fn traced_builder_run_conserves_and_matches_untraced() {
        let (guest, host) = lab();
        let plain = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Overlap { c: 4.0 })
            .build()
            .unwrap()
            .run()
            .unwrap();
        let traced = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Overlap { c: 4.0 })
            .trace(TraceConfig::default())
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(traced.validated);
        // Tracing never perturbs the schedule.
        let mut stats = traced.stats;
        stats.stalls = None;
        assert_eq!(stats, plain.stats);
        // Conservation: categories partition [0, makespan) per copy.
        let totals = traced.stats.stalls.expect("traced run has stalls");
        assert_eq!(
            totals.total(),
            traced.stats.makespan * traced.outcome.copies.len() as u64
        );
        let report = traced.outcome.trace.as_ref().expect("trace report");
        assert_eq!(report.totals, totals);
    }

    #[test]
    fn sharded_zero_threads_is_invalid_config() {
        // Pinned regression: `Sharded { threads: 0 }` used to reach the
        // engine (which silently clamped it); it must be a typed
        // validation error naming the option.
        let (guest, host) = lab();
        let err = Simulation::of(&guest)
            .on(&host)
            .engine(EngineKind::Sharded { threads: 0 })
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::InvalidConfig {
                    option: "threads",
                    ..
                }
            ),
            "{err}"
        );
        // 1 is the smallest valid shard count.
        assert!(Simulation::of(&guest)
            .on(&host)
            .engine(EngineKind::Sharded { threads: 1 })
            .build()
            .is_ok());
    }

    #[test]
    fn tracing_requires_event_engine() {
        let (guest, host) = lab();
        for kind in [EngineKind::Sharded { threads: 2 }, EngineKind::Lockstep] {
            let err = Simulation::of(&guest)
                .on(&host)
                .engine(kind)
                .trace(TraceConfig::default())
                .build()
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::Unsupported {
                        feature: "stall-attribution tracing",
                        ..
                    }
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn memory_budget_validates_and_counts_reloads() {
        let (guest, host) = lab();
        let build = |mem: Option<MemBudget>| {
            let mut b = Simulation::of(&guest).on(&host).strategy(Strategy::Blocked);
            if let Some(m) = mem {
                b = b.memory_budget(m);
            }
            b.build().unwrap().run().unwrap()
        };
        let free = build(None);
        // Blocked places 4 copies per processor; a budget of 1 thrashes.
        let tight = build(Some(MemBudget {
            budget: 1,
            reload_cost: 3,
        }));
        assert!(tight.validated, "reloads are pure timing");
        assert!(tight.stats.mem.reloads > 0);
        assert!(tight.stats.mem.reload_ticks > 0);
        assert!(tight.stats.makespan > free.stats.makespan);
        assert_eq!(free.stats.mem, Default::default());
        // Sharded prices the same reloads identically.
        let sharded = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Blocked)
            .memory_budget(MemBudget {
                budget: 1,
                reload_cost: 3,
            })
            .engine(EngineKind::Sharded { threads: 2 })
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(sharded.stats.makespan, tight.stats.makespan);
        assert_eq!(sharded.stats.mem, tight.stats.mem);
    }

    #[test]
    fn memory_budget_matrix_rejections() {
        let (guest, host) = lab();
        let mem = MemBudget {
            budget: 2,
            reload_cost: 1,
        };
        let err = Simulation::of(&guest)
            .on(&host)
            .engine(EngineKind::Lockstep)
            .memory_budget(mem)
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::Unsupported {
                    engine: "lockstep",
                    feature: "memory budget"
                }
            ),
            "{err}"
        );
        let err = Simulation::of(&guest)
            .on(&host)
            .memory_budget(mem)
            .trace(TraceConfig::default())
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::Unsupported {
                    engine: "event (traced)",
                    feature: "memory budget"
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn nonuniform_dag_matrix_rejections() {
        use overlap_model::TaskGraph;
        let graph = TaskGraph::layered_random(8, 5, 2, 3, 9);
        let guest = GuestSpec::dag(graph, ProgramKind::KvWorkload, 3);
        let host = linear_array(4, DelayModel::constant(2), 0);
        let err = Simulation::of(&guest)
            .on(&host)
            .engine(EngineKind::Lockstep)
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::Unsupported {
                    engine: "lockstep",
                    feature: "non-unit task costs"
                }
            ),
            "{err}"
        );
        let err = Simulation::of(&guest)
            .on(&host)
            .trace(TraceConfig::default())
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::Unsupported {
                    engine: "event (traced)",
                    feature: "non-uniform task graph"
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn dag_guest_runs_through_the_builder_on_every_engine() {
        use overlap_model::TaskGraph;
        let guest = GuestSpec::dag(TaskGraph::wavefront(12, 8), ProgramKind::KvWorkload, 5);
        let host = linear_array(4, DelayModel::uniform(1, 5), 2);
        let mut spans = Vec::new();
        for kind in [EngineKind::Event, EngineKind::Sharded { threads: 2 }] {
            let r = Simulation::of(&guest)
                .on(&host)
                .strategy(Strategy::Blocked)
                .engine(kind)
                .build()
                .unwrap()
                .run()
                .unwrap();
            assert!(r.validated, "{kind:?}");
            spans.push(r.stats.makespan);
        }
        assert_eq!(spans[0], spans[1]);
        // Wavefront is uniform (unit costs), so lockstep runs it too.
        let lk = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Blocked)
            .engine(EngineKind::Lockstep)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(lk.validated);
        assert!(lk.stats.makespan >= spans[0]);
    }

    #[test]
    fn work_stealing_strategy_validates() {
        let (guest, host) = lab();
        let r = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::WorkStealing { chunk: 0 })
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(r.validated);
        assert_eq!(r.strategy, "work-stealing(chunk=0)");
    }

    #[test]
    fn bad_compute_costs_are_rejected() {
        let (guest, host) = lab();
        let err = Simulation::of(&guest)
            .on(&host)
            .compute_costs(vec![1, 2])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
        let err = Simulation::of(&guest)
            .on(&host)
            .compute_costs(vec![1, 0, 1, 1])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }
}
