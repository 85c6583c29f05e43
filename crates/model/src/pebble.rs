//! Pebbles: the unit of computation and communication in the database model.
//!
//! `Pebble(i, t)` represents the computation performed by guest processor
//! (cell) `i` at guest time step `t`. In a host simulation a pebble records
//! both the computed value and the database update incurred by that
//! computation (paper, §2: "a pebble does not contain a snapshot of the
//! whole database but only the changes incurred by one computation").
//!
//! Cells are 0-based. Steps are 1-based; "step 0" denotes the initial state,
//! which every host processor knows at time 0 (initial databases and initial
//! pebble values are copied before the computation begins).

use crate::database::DbUpdate;
use serde::{Deserialize, Serialize};

/// The value computed by one pebble. Real guest programs fold whatever they
/// compute into a deterministic 64-bit word so that redundant copies can be
/// compared bit-for-bit across host processors.
pub type PebbleValue = u64;

/// Identity of a pebble: guest cell `cell` (0-based) and guest step `step`
/// (1-based; step 0 is the initial state and is never a computed pebble).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PebbleId {
    /// Guest cell (equivalently: database index), 0-based.
    pub cell: u32,
    /// Guest time step, 1-based.
    pub step: u32,
}

impl PebbleId {
    /// Create a pebble identity.
    #[inline]
    pub const fn new(cell: u32, step: u32) -> Self {
        Self { cell, step }
    }
}

/// A computed pebble: identity, value, and the database update incurred.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pebble {
    /// Which computation this is.
    pub id: PebbleId,
    /// The computed value, passed to dependent pebbles.
    pub value: PebbleValue,
    /// The change this computation made to database `b_cell`. Processors
    /// holding a copy of `b_cell` must apply these updates *in step order*
    /// before computing any later pebble of the same cell.
    pub update: DbUpdate,
}

impl Pebble {
    /// Construct a pebble.
    pub fn new(id: PebbleId, value: PebbleValue, update: DbUpdate) -> Self {
        Self { id, value, update }
    }
}

/// A dense `cells × steps` grid of pebble values, step-major. Used by the
/// reference executor and by validators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PebbleGrid {
    cells: u32,
    steps: u32,
    values: Vec<PebbleValue>,
}

impl PebbleGrid {
    /// Allocate a grid of `cells` columns by `steps` steps, zero-filled.
    pub fn new(cells: u32, steps: u32) -> Self {
        Self {
            cells,
            steps,
            values: vec![0; cells as usize * steps as usize],
        }
    }

    /// Number of guest cells.
    #[inline]
    pub fn cells(&self) -> u32 {
        self.cells
    }

    /// Number of guest steps stored.
    #[inline]
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// Heap bytes of the value array.
    pub fn heap_bytes(&self) -> usize {
        crate::vec_bytes(&self.values)
    }

    #[inline]
    fn index(&self, id: PebbleId) -> usize {
        debug_assert!(id.cell < self.cells, "cell out of range: {id:?}");
        debug_assert!(
            id.step >= 1 && id.step <= self.steps,
            "step out of range: {id:?}"
        );
        (id.step as usize - 1) * self.cells as usize + id.cell as usize
    }

    /// Read the value of a computed pebble.
    #[inline]
    pub fn get(&self, id: PebbleId) -> PebbleValue {
        self.values[self.index(id)]
    }

    /// Record the value of a computed pebble.
    #[inline]
    pub fn set(&mut self, id: PebbleId, v: PebbleValue) {
        let i = self.index(id);
        self.values[i] = v;
    }

    /// Iterate over all pebble ids in (step, cell) order.
    pub fn ids(&self) -> impl Iterator<Item = PebbleId> + '_ {
        let cells = self.cells;
        (1..=self.steps).flat_map(move |t| (0..cells).map(move |c| PebbleId::new(c, t)))
    }

    /// Total number of pebbles in the grid.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the grid holds no pebbles.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_roundtrip() {
        let mut g = PebbleGrid::new(4, 3);
        for (k, id) in g.ids().collect::<Vec<_>>().into_iter().enumerate() {
            g.set(id, k as u64 * 17 + 3);
        }
        for (k, id) in g.ids().collect::<Vec<_>>().into_iter().enumerate() {
            assert_eq!(g.get(id), k as u64 * 17 + 3);
        }
        assert_eq!(g.len(), 12);
        assert_eq!(g.cells(), 4);
        assert_eq!(g.steps(), 3);
    }

    #[test]
    fn grid_ids_are_step_major() {
        let g = PebbleGrid::new(3, 2);
        let ids: Vec<_> = g.ids().collect();
        assert_eq!(ids[0], PebbleId::new(0, 1));
        assert_eq!(ids[1], PebbleId::new(1, 1));
        assert_eq!(ids[2], PebbleId::new(2, 1));
        assert_eq!(ids[3], PebbleId::new(0, 2));
    }

    #[test]
    fn pebble_ordering_is_by_cell_then_step() {
        let a = PebbleId::new(1, 9);
        let b = PebbleId::new(2, 1);
        assert!(a < b);
    }

    #[test]
    fn grid_is_empty_only_when_degenerate() {
        assert!(PebbleGrid::new(0, 5).is_empty());
        assert!(!PebbleGrid::new(1, 1).is_empty());
    }
}
