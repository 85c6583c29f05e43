//! Simulation-as-a-service for the OVERLAP reproduction.
//!
//! The paper's machinery exists to serve *many* guest computations over
//! a shared host network; this crate makes that literal. A [`Daemon`]
//! accepts serialized scenarios ([`overlap_core::ScenarioSpec`]), runs
//! them concurrently on a worker pool, and:
//!
//! * lowers each distinct `(guest, host, assignment, config)` **once**
//!   into an owned `ExecPlan` held in a [`PlanCache`] — fault and
//!   compute-cost variants run on their own `ExecPlan::view` of the
//!   cached plan, never re-lowered, and concurrently with each other;
//!   the cache keeps at most [`DEFAULT_CACHE_BYTES`] and evicts the least
//!   recently used plans beyond that;
//! * supports cooperative **pause / resume / cancel** per session
//!   through `overlap_sim::RunControl` checkpoints, with the guarantee
//!   that a paused-and-resumed run is bit-identical to an uninterrupted
//!   one;
//! * **streams** progress and stall-trace [`Event`]s to long-polling
//!   subscribers;
//! * **persists** completed runs as [`RunRecord`]s in a pluggable
//!   [`RunStore`] ([`MemStore`] or [`JsonlStore`]), queryable across
//!   daemon restarts by plan hash.
//!
//! Determinism contract: the same scenario submitted N times
//! concurrently produces results byte-identical to a sequential run —
//! engines are deterministic, cached plans are immutable (each run
//! writes its faults and costs into its own view), and control
//! checkpoints never perturb the schedule.
//!
//! The HTTP front end ([`serve`]) speaks minimal HTTP/1.1 over
//! `std::net` (the workspace builds offline; no async runtime), and
//! [`Client`] is the matching blocking client used by `overlap-cli`'s
//! `serve` / `submit` / `watch` / `runs` subcommands.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod daemon;
pub mod http;
pub mod store;
pub mod wire;

pub use cache::{CacheStats, PlanCache, DEFAULT_CACHE_BYTES};
pub use client::{Client, ClientError};
pub use daemon::{Daemon, DaemonConfig, Event, SessionView, Status};
pub use http::{serve, Server};
pub use store::{JsonlStore, MemStore, RunRecord, RunStore};
