//! Database assignments: which host processors hold copies of which guest
//! databases.
//!
//! This is the object the paper's algorithms construct ("Before the
//! simulation starts, processors p₁,…,pₙ of H decide which databases to
//! copy", §2). A processor can only compute pebbles of columns whose
//! database it holds, and the number of databases a processor holds is its
//! *load*.

use overlap_net::NodeId;
use serde::{Deserialize, Serialize};

/// An assignment of guest cells (databases) to host processors.
///
/// ```
/// use overlap_sim::Assignment;
/// // Two processors share cell 1 (a redundant copy).
/// let a = Assignment::from_cells_of(2, 3, vec![vec![0, 1], vec![1, 2]]);
/// assert_eq!(a.holders(1), &[0, 1]);
/// assert_eq!(a.load(), 2);
/// assert!(a.is_complete());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    num_procs: u32,
    num_cells: u32,
    /// `cells_of[p]` = cells held by processor `p`, sorted ascending.
    cells_of: Vec<Vec<u32>>,
    /// `holders[c]` = processors holding cell `c`, sorted ascending.
    holders: Vec<Vec<NodeId>>,
}

impl Assignment {
    /// Build from a per-processor cell list. Cells may appear on several
    /// processors (redundant copies). Panics on out-of-range ids or
    /// duplicate cells within one processor.
    pub fn from_cells_of(num_procs: u32, num_cells: u32, cells_of: Vec<Vec<u32>>) -> Self {
        assert_eq!(cells_of.len(), num_procs as usize);
        let mut holders = vec![Vec::new(); num_cells as usize];
        let mut sorted = cells_of;
        for (p, cells) in sorted.iter_mut().enumerate() {
            cells.sort_unstable();
            cells.windows(2).for_each(|w| {
                assert!(w[0] != w[1], "processor {p} holds cell {} twice", w[0]);
            });
            for &c in cells.iter() {
                assert!(c < num_cells, "cell {c} out of range on processor {p}");
                holders[c as usize].push(p as NodeId);
            }
        }
        Self {
            num_procs,
            num_cells,
            cells_of: sorted,
            holders,
        }
    }

    /// Build from a per-cell holder list.
    pub fn from_holders(num_procs: u32, num_cells: u32, holders: Vec<Vec<NodeId>>) -> Self {
        assert_eq!(holders.len(), num_cells as usize);
        let mut cells_of = vec![Vec::new(); num_procs as usize];
        for (c, hs) in holders.iter().enumerate() {
            for &p in hs {
                assert!(p < num_procs, "processor {p} out of range for cell {c}");
                cells_of[p as usize].push(c as u32);
            }
        }
        Self::from_cells_of(num_procs, num_cells, cells_of)
    }

    /// The trivial one-processor assignment (everything on processor 0) —
    /// the degenerate "no parallelism" baseline.
    pub fn all_on_one(num_procs: u32, num_cells: u32) -> Self {
        let mut cells_of = vec![Vec::new(); num_procs as usize];
        cells_of[0] = (0..num_cells).collect();
        Self::from_cells_of(num_procs, num_cells, cells_of)
    }

    /// Contiguous block partition with no redundancy: processor `p` of the
    /// first `min(num_procs, num_cells)` gets an even contiguous block.
    /// This is the classical complementary-slackness layout.
    pub fn blocked(num_procs: u32, num_cells: u32) -> Self {
        let used = num_procs.min(num_cells).max(1);
        let mut cells_of = vec![Vec::new(); num_procs as usize];
        for c in 0..num_cells {
            // even split: processor floor(c * used / num_cells)
            let p = ((c as u64 * used as u64) / num_cells as u64) as usize;
            cells_of[p].push(c);
        }
        Self::from_cells_of(num_procs, num_cells, cells_of)
    }

    /// Heap bytes the assignment owns: both per-processor and per-cell
    /// lists, by capacity.
    pub fn heap_bytes(&self) -> usize {
        crate::nested_bytes(&self.cells_of) + crate::nested_bytes(&self.holders)
    }

    /// Number of host processors.
    pub fn num_procs(&self) -> u32 {
        self.num_procs
    }

    /// Number of guest cells.
    pub fn num_cells(&self) -> u32 {
        self.num_cells
    }

    /// Cells held by processor `p` (sorted).
    pub fn cells_of(&self, p: NodeId) -> &[u32] {
        &self.cells_of[p as usize]
    }

    /// Processors holding cell `c` (sorted).
    pub fn holders(&self, c: u32) -> &[NodeId] {
        &self.holders[c as usize]
    }

    /// The *load*: maximum number of databases held by one processor (§2).
    pub fn load(&self) -> usize {
        self.cells_of.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Total database copies across all processors.
    pub fn total_copies(&self) -> usize {
        self.cells_of.iter().map(Vec::len).sum()
    }

    /// Redundancy factor: copies per cell, averaged. 1.0 = no redundancy.
    pub fn redundancy(&self) -> f64 {
        if self.num_cells == 0 {
            return 0.0;
        }
        self.total_copies() as f64 / self.num_cells as f64
    }

    /// Maximum number of copies of any single cell.
    pub fn max_copies(&self) -> usize {
        self.holders.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Every cell must have at least one holder for the simulation to be
    /// executable. Returns the uncovered cells.
    pub fn uncovered_cells(&self) -> Vec<u32> {
        self.holders
            .iter()
            .enumerate()
            .filter(|(_, h)| h.is_empty())
            .map(|(c, _)| c as u32)
            .collect()
    }

    /// True when every cell has at least one holder.
    pub fn is_complete(&self) -> bool {
        self.holders.iter().all(|h| !h.is_empty())
    }

    /// Number of processors holding at least one cell.
    pub fn active_procs(&self) -> usize {
        self.cells_of.iter().filter(|c| !c.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_between_representations() {
        let a = Assignment::from_cells_of(3, 4, vec![vec![0, 1], vec![1, 2], vec![3]]);
        let b = Assignment::from_holders(3, 4, vec![vec![0], vec![0, 1], vec![1], vec![2]]);
        assert_eq!(a, b);
    }

    #[test]
    fn load_and_redundancy() {
        let a = Assignment::from_cells_of(2, 3, vec![vec![0, 1, 2], vec![1]]);
        assert_eq!(a.load(), 3);
        assert_eq!(a.total_copies(), 4);
        assert!((a.redundancy() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.max_copies(), 2);
        assert_eq!(a.active_procs(), 2);
    }

    #[test]
    fn uncovered_cells_detected() {
        let a = Assignment::from_cells_of(2, 3, vec![vec![0], vec![2]]);
        assert_eq!(a.uncovered_cells(), vec![1]);
        assert!(!a.is_complete());
    }

    #[test]
    fn blocked_partition_is_even_and_complete() {
        let a = Assignment::blocked(4, 10);
        assert!(a.is_complete());
        assert_eq!(a.load(), 3); // 10 cells over 4 procs: 3,2,3,2 or similar
        assert_eq!(a.redundancy(), 1.0);
        // contiguity
        for p in 0..4 {
            let cells = a.cells_of(p);
            for w in cells.windows(2) {
                assert_eq!(w[1], w[0] + 1);
            }
        }
    }

    #[test]
    fn blocked_with_more_procs_than_cells() {
        let a = Assignment::blocked(8, 3);
        assert!(a.is_complete());
        assert_eq!(a.load(), 1);
        assert_eq!(a.active_procs(), 3);
    }

    #[test]
    fn all_on_one_has_full_load() {
        let a = Assignment::all_on_one(4, 6);
        assert_eq!(a.load(), 6);
        assert_eq!(a.active_procs(), 1);
        assert!(a.is_complete());
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_cell_on_processor_panics() {
        Assignment::from_cells_of(1, 2, vec![vec![1, 1]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cell_panics() {
        Assignment::from_cells_of(1, 2, vec![vec![5]]);
    }
}
