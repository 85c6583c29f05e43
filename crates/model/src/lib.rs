//! # overlap-model
//!
//! The *guest* computation model from Andrews, Leighton, Metaxas and Zhang,
//! "Improved Methods for Hiding Latency in High Bandwidth Networks"
//! (SPAA 1996), Section 2 — the **database model**.
//!
//! A guest network is a linear array (or ring, or linearized 2-D mesh) of
//! `m` processors `g_1 .. g_m` with unit-delay links. Processor `g_i` owns a
//! potentially large local *database* `b_i`. At every step `t`, `g_i`
//! consults `b_i`, combines it with the *pebbles* `(i-1, t-1)`, `(i, t-1)`
//! and `(i+1, t-1)`, records the result in pebble `(i, t)`, and applies an
//! update to `b_i`. A pebble carries the computed value *and* the database
//! update it incurred — never a snapshot of a whole database, so pebbles are
//! small while databases are too large to ship across links.
//!
//! This crate provides:
//!
//! * [`PebbleId`] / [`Pebble`] — the unit of computation and communication;
//! * [`Db`] / [`DbUpdate`] — concrete database kinds with replayable updates;
//! * [`Program`] — the pluggable per-pebble computation;
//! * [`GuestSpec`] — guest shape (line with virtual boundaries, or ring);
//! * `reference` — the unit-delay ground-truth executor used to validate
//!   every host simulation in the workspace;
//! * [`transform`] — guest-to-guest transformations (ring → line with
//!   slowdown 2, 2-D mesh → column-strip line).

#![warn(missing_docs)]

pub mod boundary;
pub mod database;
pub mod guest;
pub mod pebble;
pub mod program;
pub mod reference;
pub mod taskgraph;
pub mod transform;

/// Heap bytes a `Vec` holds: its capacity, not its length, since that is
/// what the allocator handed out.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

pub use boundary::BoundaryRule;
pub use database::{fold64, mix64, Db, DbKind, DbUpdate, KvShard};
pub use guest::{Dep, DepList, GuestSpec, GuestTopology, Side};
pub use pebble::{Pebble, PebbleGrid, PebbleId, PebbleValue};
pub use program::{programs, ComputeResult, Program, ProgramKind, ProgramRef};
pub use reference::{ReferenceRun, ReferenceTrace};
pub use taskgraph::{DagBuilder, TaskGraph, TaskGraphError, TaskId};
pub use transform::{line_slots, mesh3d_slabs, mesh_columns, ring_fold, torus_fold, SlotMap};
