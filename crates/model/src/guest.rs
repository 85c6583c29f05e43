//! Guest network shapes and their pebble dependency structure.
//!
//! The paper's analysis centres on linear arrays and rings (§3), with 2-D
//! arrays as the main generalization (§5). All three are represented by
//! [`GuestTopology`]; dependency lists are computed on the fly (no stored
//! adjacency), so multi-million-cell guests cost nothing to describe.
//!
//! Dependencies of pebble `(cell, t)` are always at step `t-1` and are
//! returned in a *canonical order* which guest programs rely on:
//!
//! * line / ring: `[left, self, right]`
//! * 2-D mesh:    `[west, north, self, south, east]`
//!
//! A dependency is either another cell's pebble or a *virtual boundary*
//! pebble — the paper assumes boundary pebbles "are known to H at time step
//! 0" (§3.2), which we realize as a pure function of `(side, offset, step)`.

use crate::boundary::BoundaryRule;
use crate::database::DbKind;
use crate::pebble::PebbleValue;
use crate::program::ProgramKind;
use crate::taskgraph::TaskGraph;
use serde::{Deserialize, Serialize};

/// One dependency of a pebble: either the previous-step pebble of a guest
/// cell, or a virtual boundary value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dep {
    /// Pebble `(cell, t-1)`.
    Cell(u32),
    /// Virtual boundary pebble on `side` at position `offset` along that
    /// side; its value is available everywhere at time 0.
    Boundary {
        /// Which side of the guest (meaning depends on topology).
        side: Side,
        /// Position along the side (row index for mesh east/west, etc.).
        offset: u32,
    },
}

/// Sides of a guest network where virtual boundary pebbles live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Side {
    /// Left end of a line; west edge of a mesh.
    West,
    /// Right end of a line; east edge of a mesh.
    East,
    /// North edge of a mesh.
    North,
    /// South edge of a mesh.
    South,
    /// z = 0 face of a 3-D mesh.
    Up,
    /// z = d−1 face of a 3-D mesh.
    Down,
}

/// A fixed-capacity dependency list (max 7 entries: the 3-D mesh case).
#[derive(Debug, Clone, Copy)]
pub struct DepList {
    arr: [Dep; 7],
    len: u8,
}

impl DepList {
    fn new() -> Self {
        Self {
            arr: [Dep::Cell(0); 7],
            len: 0,
        }
    }

    fn push(&mut self, d: Dep) {
        self.arr[self.len as usize] = d;
        self.len += 1;
    }

    /// Dependencies in canonical order.
    pub fn as_slice(&self) -> &[Dep] {
        &self.arr[..self.len as usize]
    }

    /// Number of dependencies (3 for line/ring, 5 for mesh).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Always false: every pebble depends at least on itself.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over the dependencies.
    pub fn iter(&self) -> impl Iterator<Item = Dep> + '_ {
        self.as_slice().iter().copied()
    }
}

/// The shape of a guest network with unit-delay links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GuestTopology {
    /// Linear array of `m` cells, virtual boundary pebbles at both ends.
    Line {
        /// Number of cells.
        m: u32,
    },
    /// Ring of `m` cells (wraparound, no boundary pebbles).
    Ring {
        /// Number of cells.
        m: u32,
    },
    /// `w × h` 2-D array; cell id = `x * h + y` (column-major: a "column"
    /// `x` is the natural unit the linear-host emulation assigns).
    Mesh2D {
        /// Width (number of columns).
        w: u32,
        /// Height (number of rows).
        h: u32,
    },
    /// `w × h` 2-D torus (wraparound in both dimensions, no boundaries);
    /// cell id = `x * h + y`.
    Torus2D {
        /// Width.
        w: u32,
        /// Height.
        h: u32,
    },
    /// Complete binary tree with `levels` levels (`2^levels − 1` cells) in
    /// heap order (children of `c` are `2c+1`, `2c+2`). Pebble `(c, t)`
    /// depends on parent, self and both children at `t−1`; the root's
    /// parent and the leaves' children are virtual boundary pebbles.
    BinaryTree {
        /// Number of levels (≥ 1).
        levels: u32,
    },
    /// `w × h × d` 3-D array; cell id = `(x*h + y)*d + z`. The §5 emulation
    /// generalized to higher dimensions assigns whole `x`-slabs.
    Mesh3D {
        /// Extent in x.
        w: u32,
        /// Extent in y.
        h: u32,
        /// Extent in z.
        d: u32,
    },
    /// Marker for an arbitrary task-graph guest: the real structure lives
    /// in [`GuestSpec::graph`] (a [`TaskGraph`] in layered normal form,
    /// which isn't `Copy`). Lanes play the role of cells and layers the
    /// role of steps. Per-step structure must be read through
    /// [`GuestSpec::visit_deps`] and friends — the per-topology
    /// [`deps`](GuestTopology::deps) / [`neighbours`](GuestTopology::neighbours)
    /// accessors panic for this variant because a task graph has no
    /// step-invariant dependency list.
    Dag {
        /// Number of lanes (databases).
        dbs: u32,
        /// Number of layers (guest steps).
        layers: u32,
    },
}

impl GuestTopology {
    /// Total number of cells.
    pub fn num_cells(&self) -> u32 {
        match *self {
            GuestTopology::Line { m } | GuestTopology::Ring { m } => m,
            GuestTopology::Mesh2D { w, h } | GuestTopology::Torus2D { w, h } => w * h,
            GuestTopology::BinaryTree { levels } => (1 << levels) - 1,
            GuestTopology::Mesh3D { w, h, d } => w * h * d,
            GuestTopology::Dag { dbs, .. } => dbs,
        }
    }

    /// Dependencies of pebble `(cell, t)` in canonical order (all at step
    /// `t-1`).
    pub fn deps(&self, cell: u32) -> DepList {
        let mut out = DepList::new();
        match *self {
            GuestTopology::Dag { .. } => {
                panic!("task-graph deps are per-layer; use GuestSpec::visit_deps")
            }
            GuestTopology::Line { m } => {
                debug_assert!(cell < m);
                if cell == 0 {
                    out.push(Dep::Boundary {
                        side: Side::West,
                        offset: 0,
                    });
                } else {
                    out.push(Dep::Cell(cell - 1));
                }
                out.push(Dep::Cell(cell));
                if cell + 1 == m {
                    out.push(Dep::Boundary {
                        side: Side::East,
                        offset: 0,
                    });
                } else {
                    out.push(Dep::Cell(cell + 1));
                }
            }
            GuestTopology::Ring { m } => {
                debug_assert!(cell < m);
                out.push(Dep::Cell(if cell == 0 { m - 1 } else { cell - 1 }));
                out.push(Dep::Cell(cell));
                out.push(Dep::Cell(if cell + 1 == m { 0 } else { cell + 1 }));
            }
            GuestTopology::Mesh2D { w, h } => {
                debug_assert!(cell < w * h);
                let x = cell / h;
                let y = cell % h;
                if x == 0 {
                    out.push(Dep::Boundary {
                        side: Side::West,
                        offset: y,
                    });
                } else {
                    out.push(Dep::Cell(cell - h));
                }
                if y == 0 {
                    out.push(Dep::Boundary {
                        side: Side::North,
                        offset: x,
                    });
                } else {
                    out.push(Dep::Cell(cell - 1));
                }
                out.push(Dep::Cell(cell));
                if y + 1 == h {
                    out.push(Dep::Boundary {
                        side: Side::South,
                        offset: x,
                    });
                } else {
                    out.push(Dep::Cell(cell + 1));
                }
                if x + 1 == w {
                    out.push(Dep::Boundary {
                        side: Side::East,
                        offset: y,
                    });
                } else {
                    out.push(Dep::Cell(cell + h));
                }
            }
            GuestTopology::Torus2D { w, h } => {
                debug_assert!(cell < w * h);
                let x = cell / h;
                let y = cell % h;
                let west = if x == 0 { w - 1 } else { x - 1 };
                let east = if x + 1 == w { 0 } else { x + 1 };
                let north = if y == 0 { h - 1 } else { y - 1 };
                let south = if y + 1 == h { 0 } else { y + 1 };
                out.push(Dep::Cell(west * h + y));
                out.push(Dep::Cell(x * h + north));
                out.push(Dep::Cell(cell));
                out.push(Dep::Cell(x * h + south));
                out.push(Dep::Cell(east * h + y));
            }
            GuestTopology::BinaryTree { levels } => {
                let n = (1u32 << levels) - 1;
                debug_assert!(cell < n);
                // canonical order: [parent, self, left child, right child]
                if cell == 0 {
                    out.push(Dep::Boundary {
                        side: Side::Up,
                        offset: 0,
                    });
                } else {
                    out.push(Dep::Cell((cell - 1) / 2));
                }
                out.push(Dep::Cell(cell));
                let l = 2 * cell + 1;
                let r = 2 * cell + 2;
                if l < n {
                    out.push(Dep::Cell(l));
                } else {
                    out.push(Dep::Boundary {
                        side: Side::Down,
                        offset: 2 * cell,
                    });
                }
                if r < n {
                    out.push(Dep::Cell(r));
                } else {
                    out.push(Dep::Boundary {
                        side: Side::Down,
                        offset: 2 * cell + 1,
                    });
                }
            }
            GuestTopology::Mesh3D { w, h, d } => {
                debug_assert!(cell < w * h * d);
                let z = cell % d;
                let y = (cell / d) % h;
                let x = cell / (d * h);
                // canonical order: [W, N, U, self, D, S, E]
                if x == 0 {
                    out.push(Dep::Boundary {
                        side: Side::West,
                        offset: y * d + z,
                    });
                } else {
                    out.push(Dep::Cell(cell - h * d));
                }
                if y == 0 {
                    out.push(Dep::Boundary {
                        side: Side::North,
                        offset: x * d + z,
                    });
                } else {
                    out.push(Dep::Cell(cell - d));
                }
                if z == 0 {
                    out.push(Dep::Boundary {
                        side: Side::Up,
                        offset: x * h + y,
                    });
                } else {
                    out.push(Dep::Cell(cell - 1));
                }
                out.push(Dep::Cell(cell));
                if z + 1 == d {
                    out.push(Dep::Boundary {
                        side: Side::Down,
                        offset: x * h + y,
                    });
                } else {
                    out.push(Dep::Cell(cell + 1));
                }
                if y + 1 == h {
                    out.push(Dep::Boundary {
                        side: Side::South,
                        offset: x * d + z,
                    });
                } else {
                    out.push(Dep::Cell(cell + d));
                }
                if x + 1 == w {
                    out.push(Dep::Boundary {
                        side: Side::East,
                        offset: y * d + z,
                    });
                } else {
                    out.push(Dep::Cell(cell + h * d));
                }
            }
        }
        out
    }

    /// The set of distinct cells that cell `c`'s pebbles depend on
    /// (excluding `c` itself) — the guest adjacency.
    pub fn neighbours(&self, cell: u32) -> Vec<u32> {
        self.deps(cell)
            .iter()
            .filter_map(|d| match d {
                Dep::Cell(c) if c != cell => Some(c),
                _ => None,
            })
            .collect()
    }

    /// Maximum dependency count for this topology (3, 4, 5 or 7).
    ///
    /// # Panics
    /// For [`GuestTopology::Dag`] — the bound lives on the task graph; use
    /// [`GuestSpec::max_deps`].
    pub fn max_deps(&self) -> usize {
        match self {
            GuestTopology::Line { .. } | GuestTopology::Ring { .. } => 3,
            GuestTopology::BinaryTree { .. } => 4,
            GuestTopology::Mesh2D { .. } | GuestTopology::Torus2D { .. } => 5,
            GuestTopology::Mesh3D { .. } => 7,
            GuestTopology::Dag { .. } => {
                panic!("task-graph dep bound is per-graph; use GuestSpec::max_deps")
            }
        }
    }
}

/// A complete guest specification: shape, program, database seed, and the
/// number of unit-delay steps to simulate.
///
/// ```
/// use overlap_model::{GuestSpec, ProgramKind};
/// let g = GuestSpec::ring(16, ProgramKind::KvWorkload, 7, 10);
/// assert_eq!(g.num_cells(), 16);
/// assert_eq!(g.total_work(), 160);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuestSpec {
    /// The guest network shape.
    pub topology: GuestTopology,
    /// Which built-in program every cell runs.
    pub program: ProgramKind,
    /// Seed for initial databases, initial pebble values and boundary rule.
    pub seed: u64,
    /// Number of guest steps `T` to simulate.
    pub steps: u32,
    /// The task graph for [`GuestTopology::Dag`] guests (`None` for every
    /// other topology). Read per-step structure through
    /// [`visit_deps`](GuestSpec::visit_deps) / [`task_cost`](GuestSpec::task_cost)
    /// rather than touching this directly.
    #[serde(default)]
    pub graph: Option<TaskGraph>,
}

impl GuestSpec {
    /// A linear-array guest running `program` for `steps` steps — the
    /// paper's canonical shape. Part of the factory family
    /// `GuestSpec::{ring, array, mesh, tree, dag}` that is the one entry
    /// point to `Simulation::of()`.
    pub fn array(m: u32, program: ProgramKind, seed: u64, steps: u32) -> Self {
        Self {
            topology: GuestTopology::Line { m },
            program,
            seed,
            steps,
            graph: None,
        }
    }

    /// A ring guest.
    pub fn ring(m: u32, program: ProgramKind, seed: u64, steps: u32) -> Self {
        Self {
            topology: GuestTopology::Ring { m },
            program,
            seed,
            steps,
            graph: None,
        }
    }

    /// A `w × h` mesh guest.
    pub fn mesh(w: u32, h: u32, program: ProgramKind, seed: u64, steps: u32) -> Self {
        Self {
            topology: GuestTopology::Mesh2D { w, h },
            program,
            seed,
            steps,
            graph: None,
        }
    }

    /// A `w × h` torus guest.
    pub fn torus(w: u32, h: u32, program: ProgramKind, seed: u64, steps: u32) -> Self {
        Self {
            topology: GuestTopology::Torus2D { w, h },
            program,
            seed,
            steps,
            graph: None,
        }
    }

    /// A `w × h × d` 3-D mesh guest.
    pub fn mesh3(w: u32, h: u32, d: u32, program: ProgramKind, seed: u64, steps: u32) -> Self {
        Self {
            topology: GuestTopology::Mesh3D { w, h, d },
            program,
            seed,
            steps,
            graph: None,
        }
    }

    /// A complete binary tree guest with `levels` levels.
    pub fn tree(levels: u32, program: ProgramKind, seed: u64, steps: u32) -> Self {
        Self {
            topology: GuestTopology::BinaryTree { levels },
            program,
            seed,
            steps,
            graph: None,
        }
    }

    /// An arbitrary task-graph guest: lanes of `graph` become cells and
    /// its layers become guest steps (so `steps` is implied by the graph).
    ///
    /// ```
    /// use overlap_model::{GuestSpec, ProgramKind, TaskGraph};
    /// let g = GuestSpec::dag(TaskGraph::wavefront(8, 12), ProgramKind::StencilSum, 3);
    /// assert_eq!(g.num_cells(), 8);
    /// assert_eq!(g.steps, 12);
    /// ```
    pub fn dag(graph: TaskGraph, program: ProgramKind, seed: u64) -> Self {
        Self {
            topology: GuestTopology::Dag {
                dbs: graph.num_dbs(),
                layers: graph.layers(),
            },
            program,
            seed,
            steps: graph.layers(),
            graph: Some(graph),
        }
    }

    /// Number of cells (databases) in the guest.
    pub fn num_cells(&self) -> u32 {
        self.topology.num_cells()
    }

    /// Heap bytes the spec owns: only a task-graph guest's graph; every
    /// other topology is inline.
    pub fn heap_bytes(&self) -> usize {
        self.graph.as_ref().map_or(0, TaskGraph::heap_bytes)
    }

    /// Total guest work: one pebble per cell per step (relay slots of a
    /// task graph count — the host still computes them).
    pub fn total_work(&self) -> u64 {
        self.num_cells() as u64 * self.steps as u64
    }

    /// Does every step share one dependency list per cell? True for all
    /// grid topologies and for *uniform* task graphs, which then lower
    /// through the same static tables (bit-identical machinery). False
    /// only for non-uniform task graphs.
    pub fn is_static(&self) -> bool {
        match &self.graph {
            None => true,
            Some(g) => g.is_uniform(),
        }
    }

    /// Visit the dependencies of pebble `(cell, step)` in canonical order
    /// (all at `step - 1`). The one dependency accessor that works for
    /// every guest, task graphs included.
    pub fn visit_deps(&self, cell: u32, step: u32, mut f: impl FnMut(Dep)) {
        match &self.graph {
            None => {
                for d in self.topology.deps(cell).iter() {
                    f(d);
                }
            }
            Some(g) => {
                // Out-of-range probes (e.g. the static lowering reading
                // layer 1 of a zero-layer graph) see an empty list.
                if step >= 1 && step <= g.layers() {
                    for &d in g.deps_of(cell, step) {
                        f(d);
                    }
                }
            }
        }
    }

    /// Largest dependency-list length over all pebbles of this guest.
    pub fn max_deps(&self) -> usize {
        match &self.graph {
            None => self.topology.max_deps(),
            Some(g) => g.max_deps(),
        }
    }

    /// Compute-cost multiplier of pebble `(cell, step)`: a task of cost
    /// `k` takes `k×` the processor's per-pebble compute time. Always 1
    /// for grid guests.
    pub fn task_cost(&self, cell: u32, step: u32) -> u32 {
        match &self.graph {
            None => 1,
            Some(g) => g.cost_of(cell, step),
        }
    }

    /// Is `(cell, step)` a relay slot (pass-through: repeats the lane's
    /// previous value, no program call, no database update)? Always false
    /// for grid guests.
    pub fn is_relay(&self, cell: u32, step: u32) -> bool {
        match &self.graph {
            None => false,
            Some(g) => g.is_relay(cell, step),
        }
    }

    /// Any pebble with a compute cost above 1?
    pub fn has_nonunit_task_costs(&self) -> bool {
        self.graph.as_ref().is_some_and(|g| g.has_nonunit_costs())
    }

    /// The distinct cells whose pebbles `cell` ever reads, over all steps
    /// (sorted, excluding `cell` itself) — what routing must subscribe to.
    pub fn dep_union(&self, cell: u32) -> Vec<u32> {
        match &self.graph {
            None => {
                let mut n = self.topology.neighbours(cell);
                n.sort_unstable();
                n
            }
            Some(g) => g.dep_lanes(cell),
        }
    }

    /// The boundary rule induced by this spec's seed.
    pub fn boundary(&self) -> BoundaryRule {
        BoundaryRule::new(self.seed)
    }

    /// Initial (step 0) pebble value of a cell — known everywhere at time 0.
    pub fn initial_value(&self, cell: u32) -> PebbleValue {
        crate::database::mix64(self.seed ^ 0x1237 ^ ((cell as u64) << 20))
    }

    /// The database kind used by this guest's program.
    pub fn db_kind(&self) -> DbKind {
        self.program.instantiate().db_kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_interior_deps() {
        let t = GuestTopology::Line { m: 10 };
        let d = t.deps(5);
        assert_eq!(d.as_slice(), &[Dep::Cell(4), Dep::Cell(5), Dep::Cell(6)]);
    }

    #[test]
    fn line_edges_have_boundary_deps() {
        let t = GuestTopology::Line { m: 10 };
        let l = t.deps(0);
        assert!(matches!(
            l.as_slice()[0],
            Dep::Boundary {
                side: Side::West,
                ..
            }
        ));
        let r = t.deps(9);
        assert!(matches!(
            r.as_slice()[2],
            Dep::Boundary {
                side: Side::East,
                ..
            }
        ));
    }

    #[test]
    fn ring_wraps_with_no_boundaries() {
        let t = GuestTopology::Ring { m: 6 };
        assert_eq!(
            t.deps(0).as_slice(),
            &[Dep::Cell(5), Dep::Cell(0), Dep::Cell(1)]
        );
        assert_eq!(
            t.deps(5).as_slice(),
            &[Dep::Cell(4), Dep::Cell(5), Dep::Cell(0)]
        );
    }

    #[test]
    fn mesh_interior_has_five_deps_in_canonical_order() {
        let t = GuestTopology::Mesh2D { w: 4, h: 4 };
        // cell (x=1, y=2) => id 1*4+2 = 6
        let d = t.deps(6);
        assert_eq!(
            d.as_slice(),
            &[
                Dep::Cell(2),  // west  (x-1,y) = 0*4+2
                Dep::Cell(5),  // north (x,y-1)
                Dep::Cell(6),  // self
                Dep::Cell(7),  // south (x,y+1)
                Dep::Cell(10), // east  (x+1,y)
            ]
        );
    }

    #[test]
    fn mesh_corner_has_boundaries_on_two_sides() {
        let t = GuestTopology::Mesh2D { w: 3, h: 3 };
        let d = t.deps(0); // (0,0)
        let slice = d.as_slice();
        assert!(matches!(
            slice[0],
            Dep::Boundary {
                side: Side::West,
                offset: 0
            }
        ));
        assert!(matches!(
            slice[1],
            Dep::Boundary {
                side: Side::North,
                offset: 0
            }
        ));
        assert_eq!(slice[2], Dep::Cell(0));
        assert_eq!(slice[3], Dep::Cell(1));
        assert_eq!(slice[4], Dep::Cell(3));
    }

    #[test]
    fn neighbours_excludes_self() {
        let t = GuestTopology::Ring { m: 4 };
        let n = t.neighbours(0);
        assert_eq!(n, vec![3, 1]);
        let mesh = GuestTopology::Mesh2D { w: 3, h: 3 };
        let n = mesh.neighbours(4); // centre
        assert_eq!(n, vec![1, 3, 5, 7]);
    }

    #[test]
    fn binary_tree_deps() {
        let t = GuestTopology::BinaryTree { levels: 3 }; // 7 cells
                                                         // root: virtual parent, self, children 1 and 2
        let d = t.deps(0);
        assert!(matches!(
            d.as_slice()[0],
            Dep::Boundary { side: Side::Up, .. }
        ));
        assert_eq!(d.as_slice()[1], Dep::Cell(0));
        assert_eq!(d.as_slice()[2], Dep::Cell(1));
        assert_eq!(d.as_slice()[3], Dep::Cell(2));
        // internal node 2: parent 0, children 5, 6
        let d = t.deps(2);
        assert_eq!(d.as_slice()[0], Dep::Cell(0));
        assert_eq!(d.as_slice()[2], Dep::Cell(5));
        // leaf 6: parent 2, two virtual children
        let d = t.deps(6);
        assert_eq!(d.as_slice()[0], Dep::Cell(2));
        assert!(matches!(
            d.as_slice()[2],
            Dep::Boundary {
                side: Side::Down,
                ..
            }
        ));
        assert!(matches!(
            d.as_slice()[3],
            Dep::Boundary {
                side: Side::Down,
                ..
            }
        ));
        assert_eq!(t.num_cells(), 7);
        assert_eq!(t.max_deps(), 4);
    }

    #[test]
    fn num_cells_matches_topology() {
        assert_eq!(GuestTopology::Line { m: 7 }.num_cells(), 7);
        assert_eq!(GuestTopology::Ring { m: 7 }.num_cells(), 7);
        assert_eq!(GuestTopology::Mesh2D { w: 3, h: 5 }.num_cells(), 15);
    }

    #[test]
    fn initial_values_differ_across_cells_and_seeds() {
        let a = GuestSpec::array(8, ProgramKind::StencilSum, 1, 4);
        let b = GuestSpec::array(8, ProgramKind::StencilSum, 2, 4);
        assert_ne!(a.initial_value(0), a.initial_value(1));
        assert_ne!(a.initial_value(0), b.initial_value(0));
    }

    #[test]
    fn total_work_is_cells_times_steps() {
        let g = GuestSpec::mesh(4, 5, ProgramKind::StencilSum, 0, 10);
        assert_eq!(g.total_work(), 200);
    }

    #[test]
    fn max_deps_by_topology() {
        assert_eq!(GuestTopology::Line { m: 2 }.max_deps(), 3);
        assert_eq!(GuestTopology::Mesh2D { w: 2, h: 2 }.max_deps(), 5);
    }
}
