//! # overlap-sim
//!
//! A cycle-accurate discrete-event simulator for networks of workstations
//! (NOWs) executing *database-model* guest computations (SPAA'96 latency
//! hiding).
//!
//! ## Execution model
//!
//! The central abstraction is the [`Assignment`]: which host processors hold
//! a copy of which guest databases. Per the paper (§2), a processor holding
//! a copy of `b_i` is the only kind of processor that can compute pebbles of
//! column `i`, and in all of the paper's algorithms every holder computes
//! *every* pebble of its columns (redundant computation). Given an
//! assignment, the [`engine`] executes greedily:
//!
//! * a processor computes one pebble per tick, in step order per column,
//!   as soon as all dependencies are locally known;
//! * dependencies on non-held columns are satisfied by *subscriptions*:
//!   each (consumer, column) pair is served by the nearest holder over a
//!   fixed shortest-delay route ([`routing`]);
//! * links carry `bw` pebbles per tick with pipelining — `P` pebbles cross
//!   a delay-`d` link in `d + ⌈P/bw⌉ − 1` ticks ([`bandwidth`]), the
//!   paper's exact communication cost;
//! * the *makespan* is the tick at which every holder has computed every
//!   pebble of its columns; `slowdown = makespan / guest_steps`.
//!
//! Every run is [validated](validate) against the unit-delay reference
//! executor: per-column value digests and final database digests must match
//! on **every copy**.
//!
//! The paper's algorithms (OVERLAP and friends, in `overlap-core`) are
//! assignment *constructors*; their theorems' slowdown bounds are measured,
//! not assumed.

#![warn(missing_docs)]

pub mod assignment;
pub mod bandwidth;
pub mod calendar;
pub mod control;
pub mod engine;
pub mod engine_classic;
pub mod faults;
pub mod fuzz;
pub mod lockstep;
pub mod multicast;
pub mod plan;
pub mod routing;
mod rules;
pub mod sharded;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod validate;

pub use assignment::Assignment;
pub use bandwidth::BandwidthMode;
pub use control::RunControl;
pub use engine::{Engine, EngineConfig, Jitter, RunError, RunOutcome};
pub use faults::{FaultPlan, RetryPolicy};
pub use lockstep::{run_lockstep, run_lockstep_controlled};
pub use plan::{fnv1a, scenario_hash, scenario_key, AppliedDelta, ExecPlan, PlanDelta};
pub use routing::RoutingTable;
pub use sharded::{run_sharded, run_sharded_controlled, run_sharded_with, Partition};
pub use stats::{FaultStats, RunStats};
pub use trace::{MsgKey, NoopTracer, ReadyCause, StallBreakdown, TraceConfig, TraceReport, Tracer};
pub use validate::{audit_causality, validate_run};
