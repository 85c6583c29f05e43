//! Serializable scenario descriptions — the wire format of the daemon.
//!
//! A [`ScenarioSpec`] captures everything a [`SimulationBuilder`] call
//! chain would configure — guest, host, placement strategy, engine,
//! engine config, compute costs, faults, tracing — as one plain-data
//! value that serializes to JSON. The daemon accepts specs over HTTP,
//! validates them through the *same* builder matrix the in-process API
//! uses (so a spec the daemon accepts behaves identically when replayed
//! locally), and keys its server-side `ExecPlan` cache on
//! [`ScenarioSpec::plan_key`], computed at admission by
//! [`ScenarioSpec::admit`] together with the placement the cache lowers
//! from on a miss.
//!
//! Plan-cache keying rule: the key covers exactly the inputs of
//! lowering — `(guest, host, assignment, config)` — and deliberately
//! *excludes* faults, compute costs, the engine kind, and tracing.
//! Fault and cost variants run on their own `ExecPlan::view` of the
//! cached plan (bit-identical to a fresh lowering, never re-lowered, and
//! never written back), every engine consumes the same plan, and tracing
//! only changes what is observed, not what is scheduled.
//!
//! [`SimulationBuilder`]: crate::simulation::SimulationBuilder

use crate::error::Error;
use crate::pipeline::Strategy;
use crate::simulation::{EngineKind, ReadySimulation, Simulation};
use overlap_model::GuestSpec;
use overlap_net::HostGraph;
use overlap_sim::engine::EngineConfig;
use overlap_sim::faults::FaultPlan;
use overlap_sim::trace::TraceConfig;
use overlap_sim::Assignment;
use serde::{Deserialize, Serialize};

/// A complete, self-contained simulation request: the serializable twin
/// of a fully configured [`SimulationBuilder`](crate::SimulationBuilder).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// The guest computation to simulate.
    pub guest: GuestSpec,
    /// The host network to simulate it on.
    pub host: HostGraph,
    /// Database placement strategy.
    pub strategy: Strategy,
    /// Which engine executes the plan.
    #[serde(default)]
    pub engine: EngineKind,
    /// Engine configuration (bandwidth, tick cap, multicast, jitter,
    /// memory budget).
    #[serde(default)]
    pub config: EngineConfig,
    /// Per-processor compute costs (ticks per pebble, ≥ 1).
    #[serde(default)]
    pub compute_costs: Option<Vec<u32>>,
    /// Deterministic fault plan.
    #[serde(default)]
    pub faults: Option<FaultPlan>,
    /// Attribute stall ticks to their causes (event engine only).
    #[serde(default)]
    pub trace: bool,
}

impl ScenarioSpec {
    /// A spec with the given guest and host and every option at its
    /// builder default: [`Strategy::Auto`], the event engine, default
    /// engine config, no costs / faults / trace.
    pub fn new(guest: GuestSpec, host: HostGraph) -> Self {
        Self {
            guest,
            host,
            strategy: Strategy::Auto,
            engine: EngineKind::default(),
            config: EngineConfig::default(),
            compute_costs: None,
            faults: None,
            trace: false,
        }
    }

    /// Plan and validate this spec through the standard builder: the
    /// full feature × engine support matrix applies (`trace` on a
    /// non-event engine, faults on lockstep, `Sharded { threads: 0 }`, …
    /// are all rejected here with the same typed errors the in-process
    /// API returns). On success the returned [`ReadySimulation`] borrows
    /// this spec and can be lowered and run repeatedly.
    pub fn ready(&self) -> Result<ReadySimulation<'_>, Error> {
        let mut b = Simulation::of(&self.guest)
            .on(&self.host)
            .strategy(self.strategy)
            .engine(self.engine);
        b = b
            .bandwidth(self.config.bandwidth)
            .max_ticks(self.config.max_ticks)
            .record_timing(self.config.record_timing)
            .multicast(self.config.multicast)
            .jitter(self.config.jitter);
        if let Some(mem) = self.config.mem {
            b = b.memory_budget(mem);
        }
        if let Some(costs) = &self.compute_costs {
            b = b.compute_costs(costs.clone());
        }
        if let Some(faults) = &self.faults {
            b = b.faults(faults.clone());
        }
        if self.trace {
            b = b.trace(TraceConfig::default());
        }
        b.build()
    }

    /// Validate without keeping the placement.
    pub fn validate(&self) -> Result<(), Error> {
        self.ready().map(|_| ())
    }

    /// The canonical plan-cache key of this scenario: the JSON encoding
    /// of `(guest, host, assignment, config)` — exactly the inputs of
    /// `ExecPlan::build`. Two specs with equal keys lower to
    /// bit-identical plans; fault / cost / engine / trace differences do
    /// not change the key (they are applied per-run, on top of the
    /// cached plan). Placement runs as part of keying, so an invalid
    /// spec fails here with the same error as [`ready`](Self::ready).
    pub fn plan_key(&self) -> Result<String, Error> {
        self.admit().map(|(key, _)| key)
    }

    /// Validate, place and key this spec in one pass: the
    /// [`plan_key`](Self::plan_key) and the assignment it was computed
    /// from, so a caller that goes on to lower the plan (the daemon, on a
    /// cache miss) does not run placement a second time.
    pub fn admit(&self) -> Result<(String, Assignment), Error> {
        let assignment = self.ready()?.assignment().clone();
        let key = overlap_sim::scenario_key(&self.guest, &self.host, &assignment, self.config);
        Ok((key, assignment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_model::ProgramKind;
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new(
            GuestSpec::array(16, ProgramKind::KvWorkload, 3, 12),
            linear_array(4, DelayModel::uniform(1, 6), 7),
        )
    }

    #[test]
    fn round_trips_through_json() {
        let mut s = spec();
        s.strategy = Strategy::Overlap { c: 4.0 };
        s.engine = EngineKind::Sharded { threads: 2 };
        let json = serde_json::to_string(&s).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn plan_key_ignores_faults_engine_and_trace() {
        let base = spec();
        let key = base.plan_key().unwrap();
        let mut varied = base.clone();
        varied.engine = EngineKind::Lockstep;
        varied.faults = Some(FaultPlan::default());
        assert_eq!(varied.plan_key().unwrap(), key);
        // …but a different guest is a different plan.
        let mut other = base.clone();
        other.guest.steps += 1;
        assert_ne!(other.plan_key().unwrap(), key);
    }

    #[test]
    fn validation_matches_the_builder_matrix() {
        let mut s = spec();
        s.engine = EngineKind::Sharded { threads: 0 };
        assert!(matches!(
            s.validate(),
            Err(Error::InvalidConfig {
                option: "threads",
                ..
            })
        ));
        let mut s = spec();
        s.trace = true;
        s.engine = EngineKind::Lockstep;
        assert!(matches!(s.validate(), Err(Error::Unsupported { .. })));
    }

    #[test]
    fn ready_spec_runs_and_validates() {
        let report = spec().ready().unwrap().run().unwrap();
        assert!(report.validated);
    }
}
