//! # overlap — automatic latency hiding for high-bandwidth networks
//!
//! A full reproduction of Andrews, Leighton, Metaxas, Zhang,
//! *"Improved Methods for Hiding Latency in High Bandwidth Networks"*
//! (SPAA 1996), as a production-quality Rust workspace.
//!
//! This facade crate re-exports the public API of the four member crates:
//!
//! * [`model`] — the guest computation model (pebbles, databases, programs,
//!   the unit-delay reference executor);
//! * [`net`] — the host network substrate (topologies, link delays,
//!   embeddings, metrics);
//! * [`sim`] — the NOW simulator: three execution engines (greedy
//!   event-driven, sharded conservative-parallel, lockstep baseline) all
//!   consuming one lowered [`ExecPlan`] (compile a placement once, run it
//!   anywhere), unicast and multicast routing, the paper's bandwidth law,
//!   link jitter, heterogeneous machine speeds, timing traces, and
//!   bit-exact validation against the unit-delay reference;
//! * [`core`] — the paper's algorithms: the OVERLAP killing/labeling tree
//!   and database assignment, the Theorem 1 schedule table, the
//!   uniform-delay √d simulation, the combined √d̄·log³n simulation,
//!   general-network / 2-D / 3-D / torus / tree emulations, the
//!   lower-bound constructions and certificates, strategy auto-selection,
//!   and the baselines.
//!
//! The `overlap-cli` binary exposes all of it from the command line, and
//! the `overlap-bench` crate regenerates every experiment (E1–E18) and
//! figure (F1–F8) recorded in `EXPERIMENTS.md`.
//!
//! ## Quickstart
//!
//! ```
//! use overlap::{topology, DelayModel, GuestSpec, Strategy, ProgramKind, Simulation};
//!
//! // A 64-cell unit-delay guest line running a KV workload for 32 steps.
//! let guest = GuestSpec::array(64, ProgramKind::KvWorkload, 42, 32);
//! // A 16-workstation host line with seeded random link delays.
//! let host = topology::linear_array(16, DelayModel::uniform(1, 9), 7);
//! // Run OVERLAP and validate against the unit-delay reference.
//! let report = Simulation::of(&guest)
//!     .on(&host)
//!     .strategy(Strategy::Overlap { c: 4.0 })
//!     .build()
//!     .and_then(|sim| sim.run())
//!     .expect("simulation must run");
//! assert!(report.validated);
//! println!("slowdown = {:.2}", report.stats.slowdown);
//! ```
//!
//! ## Fault injection
//!
//! ```
//! use overlap::{topology, DelayModel, FaultPlan, GuestSpec, ProgramKind, Simulation};
//!
//! let guest = GuestSpec::array(32, ProgramKind::StencilSum, 3, 24);
//! let host = topology::linear_array(8, DelayModel::uniform(1, 6), 5);
//! // Take a link down mid-run; in-flight transfers time out and retry
//! // with exponential backoff, and the run still validates.
//! let faults = FaultPlan::new().link_down(2, 3, 40, 90);
//! let report = Simulation::of(&guest)
//!     .on(&host)
//!     .faults(faults)
//!     .build()
//!     .and_then(|sim| sim.run())
//!     .expect("degraded run must still complete");
//! assert!(report.validated);
//! println!("retries = {}", report.stats.faults.retries);
//! ```

#![warn(missing_docs)]

pub use overlap_core as core;
pub use overlap_daemon as daemon;
pub use overlap_model as model;
pub use overlap_net as net;
pub use overlap_sim as sim;

pub use overlap_core::{
    EngineKind, Error, ScenarioSpec, SimReport, Simulation, SimulationBuilder, Strategy,
};
pub use overlap_model::{GuestSpec, GuestTopology, ProgramKind, ReferenceRun, ReferenceTrace};
pub use overlap_net::{topology, DelayModel, HostGraph};
pub use overlap_sim::{
    validate_run, AppliedDelta, Assignment, BandwidthMode, Engine, EngineConfig, ExecPlan,
    FaultPlan, FaultStats, Jitter, PlanDelta, RetryPolicy, RunError, RunOutcome, RunStats,
    StallBreakdown, TraceConfig, TraceReport,
};
