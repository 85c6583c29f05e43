//! Arbitrary task-graph guests in layered normal form.
//!
//! The pebble grid `(i, t)` of the paper is one instance of a dependency
//! DAG: node `(i, t)` consumes its neighbours' values at `t-1` and owns
//! database `b_i`. [`TaskGraph`] generalizes the guest to *any* DAG whose
//! nodes carry a compute cost and an owning database, normalized into a
//! **layered** form the engines can execute with the existing machinery:
//!
//! * every task sits on a *lane* (its owning database) at a *layer*
//!   (its longest-path depth), with at most one task per `(lane, layer)`;
//! * dependency edges always reference the previous layer — a value
//!   produced earlier is carried forward by **relay tasks** (cost-1
//!   pass-throughs that repeat the lane's value without touching the
//!   database);
//! * an edge whose value would be *overwritten* by an intervening task on
//!   the producer's lane is rejected as [`TaskGraphError::StaleEdge`] —
//!   the DAG must be expressible with one live value per lane.
//!
//! Lanes map onto guest cells and layers onto guest steps, so assignment,
//! routing, validation and every engine work unchanged. A graph whose
//! dependency lists are layer-invariant with unit costs and no relays is
//! *uniform*: it lowers through the exact static tables the grid guests
//! use, making "pebble grid expressed as a task graph" bit-identical to
//! the native grid guest.

use crate::database::mix64;
use crate::guest::{Dep, GuestTopology, Side};
use crate::vec_bytes;
use serde::{Deserialize, Serialize};

/// Handle of a task added to a [`DagBuilder`] (its insertion index).
pub type TaskId = u32;

/// Why a DAG could not be normalized into layered form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskGraphError {
    /// The graph has no tasks.
    Empty,
    /// Two tasks own the same database at the same longest-path layer.
    DuplicateTask {
        /// The contested lane.
        db: u32,
        /// The contested layer.
        layer: u32,
    },
    /// A consumer at `to_layer` reads `db`'s value produced at
    /// `from_layer`, but another task on that lane overwrites it in
    /// between — the edge is stale by the time relays would deliver it.
    StaleEdge {
        /// The producer's lane.
        db: u32,
        /// The producer's layer.
        from_layer: u32,
        /// The consumer's layer.
        to_layer: u32,
    },
    /// A task names a database outside `0..num_dbs`.
    BadDb {
        /// The offending database id.
        db: u32,
    },
    /// A task cost of zero (every task takes ≥ 1 tick).
    ZeroCost,
}

impl std::fmt::Display for TaskGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TaskGraphError::Empty => write!(f, "task graph has no tasks"),
            TaskGraphError::DuplicateTask { db, layer } => {
                write!(f, "two tasks own database {db} at layer {layer}")
            }
            TaskGraphError::StaleEdge {
                db,
                from_layer,
                to_layer,
            } => write!(
                f,
                "value of database {db} produced at layer {from_layer} is \
                 overwritten before its consumer at layer {to_layer}"
            ),
            TaskGraphError::BadDb { db } => write!(f, "task names database {db} out of range"),
            TaskGraphError::ZeroCost => write!(f, "task cost must be ≥ 1"),
        }
    }
}

impl std::error::Error for TaskGraphError {}

/// An arbitrary-DAG guest program in layered normal form (see the module
/// docs). Construct one with [`DagBuilder`] or a generator
/// ([`TaskGraph::pebble_grid`], [`TaskGraph::wavefront`],
/// [`TaskGraph::fork_join`], [`TaskGraph::layered_random`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskGraph {
    num_dbs: u32,
    layers: u32,
    /// CSR dependency lists, indexed `db * layers + (layer - 1)`.
    deps: Vec<Dep>,
    dep_off: Vec<u32>,
    /// Compute cost (ticks at a unit-speed processor) per task slot.
    costs: Vec<u32>,
    /// Pass-through slots: repeat the lane's previous value, no program
    /// call, no database update.
    relay: Vec<bool>,
    /// Layer-invariant deps, unit costs, no relays: lowers through the
    /// static (grid) tables.
    uniform: bool,
    max_deps: usize,
}

impl TaskGraph {
    fn slot(&self, db: u32, layer: u32) -> usize {
        debug_assert!(db < self.num_dbs && 1 <= layer && layer <= self.layers);
        db as usize * self.layers as usize + (layer as usize - 1)
    }

    /// Heap bytes the graph owns (its dependency, cost and relay tables).
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.deps)
            + vec_bytes(&self.dep_off)
            + vec_bytes(&self.costs)
            + vec_bytes(&self.relay)
    }

    /// Number of lanes (databases).
    pub fn num_dbs(&self) -> u32 {
        self.num_dbs
    }

    /// Number of layers (guest steps).
    pub fn layers(&self) -> u32 {
        self.layers
    }

    /// Dependencies of the task on lane `db` at `layer` (1-based), all
    /// referencing layer `layer - 1`.
    pub fn deps_of(&self, db: u32, layer: u32) -> &[Dep] {
        let s = self.slot(db, layer);
        &self.deps[self.dep_off[s] as usize..self.dep_off[s + 1] as usize]
    }

    /// Compute cost of the task on lane `db` at `layer`.
    pub fn cost_of(&self, db: u32, layer: u32) -> u32 {
        self.costs[self.slot(db, layer)]
    }

    /// Is the `(db, layer)` slot a relay (pass-through)?
    pub fn is_relay(&self, db: u32, layer: u32) -> bool {
        self.relay[self.slot(db, layer)]
    }

    /// Layer-invariant structure with unit costs and no relays — the graph
    /// lowers through the same static tables as a grid guest.
    pub fn is_uniform(&self) -> bool {
        self.uniform
    }

    /// Largest dependency-list length over all tasks.
    pub fn max_deps(&self) -> usize {
        self.max_deps
    }

    /// Any task with cost > 1?
    pub fn has_nonunit_costs(&self) -> bool {
        self.costs.iter().any(|&c| c > 1)
    }

    /// Sum of all task costs (relays included) — the guest's weighted work.
    pub fn total_cost(&self) -> u64 {
        self.costs.iter().map(|&c| c as u64).sum()
    }

    /// All lanes whose values lane `db` ever reads, over every layer
    /// (sorted, deduplicated, excluding `db` itself) — the lane adjacency
    /// that routing subscribes to.
    pub fn dep_lanes(&self, db: u32) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for layer in 1..=self.layers {
            for d in self.deps_of(db, layer) {
                if let Dep::Cell(c) = *d {
                    if c != db {
                        out.push(c);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn finish(
        num_dbs: u32,
        layers: u32,
        deps: Vec<Dep>,
        dep_off: Vec<u32>,
        costs: Vec<u32>,
        relay: Vec<bool>,
    ) -> Self {
        let max_deps = (0..num_dbs as usize * layers as usize)
            .map(|s| (dep_off[s + 1] - dep_off[s]) as usize)
            .max()
            .unwrap_or(0);
        let mut g = Self {
            num_dbs,
            layers,
            deps,
            dep_off,
            costs,
            relay,
            uniform: false,
            max_deps,
        };
        g.uniform = g.detect_uniform();
        g
    }

    fn detect_uniform(&self) -> bool {
        if self.layers == 0 {
            return true; // no tasks: trivially layer-invariant
        }
        if self.relay.iter().any(|&r| r) || self.costs.iter().any(|&c| c != 1) {
            return false;
        }
        for db in 0..self.num_dbs {
            let first = self.deps_of(db, 1);
            for layer in 2..=self.layers {
                if self.deps_of(db, layer) != first {
                    return false;
                }
            }
        }
        true
    }

    /// Build from a per-slot closure: `f(db, layer, &mut deps)` returns
    /// `(cost, relay)` after pushing that slot's dependencies.
    fn from_fn(
        num_dbs: u32,
        layers: u32,
        mut f: impl FnMut(u32, u32, &mut Vec<Dep>) -> (u32, bool),
    ) -> Self {
        assert!(num_dbs >= 1, "task graph needs at least one lane");
        let slots = num_dbs as usize * layers as usize;
        let mut deps = Vec::new();
        let mut dep_off = Vec::with_capacity(slots + 1);
        dep_off.push(0u32);
        let mut costs = Vec::with_capacity(slots);
        let mut relay = Vec::with_capacity(slots);
        let mut buf = Vec::new();
        for db in 0..num_dbs {
            for layer in 1..=layers {
                buf.clear();
                let (cost, rel) = f(db, layer, &mut buf);
                assert!(cost >= 1, "task cost must be ≥ 1");
                deps.extend_from_slice(&buf);
                dep_off.push(deps.len() as u32);
                costs.push(cost);
                relay.push(rel);
            }
        }
        Self::finish(num_dbs, layers, deps, dep_off, costs, relay)
    }

    /// The paper's pebble grid as a task graph: lane `i` at every layer
    /// runs a unit-cost task over `topo`'s canonical dependency list.
    /// Uniform by construction, so it lowers bit-identically to the
    /// native grid guest.
    pub fn pebble_grid(topo: &GuestTopology, layers: u32) -> Self {
        let m = topo.num_cells();
        Self::from_fn(m, layers, |db, _layer, out| {
            out.extend(topo.deps(db).iter());
            (1, false)
        })
    }

    /// A wavefront (systolic) sweep over `lanes` lanes: task `(i, t)`
    /// consumes `(i-1, t-1)` and `(i, t-1)`; lane 0 reads the west
    /// boundary. An *asymmetric* stencil no [`GuestTopology`] expresses,
    /// yet still uniform (static lowering).
    pub fn wavefront(lanes: u32, layers: u32) -> Self {
        Self::from_fn(lanes, layers, |db, _layer, out| {
            if db == 0 {
                out.push(Dep::Boundary {
                    side: Side::West,
                    offset: 0,
                });
            } else {
                out.push(Dep::Cell(db - 1));
            }
            out.push(Dep::Cell(db));
            (1, false)
        })
    }

    /// A fork-join diamond over `2^(levels-1)` lanes: `levels` fork layers
    /// splitting work outward from lane 0, then `levels - 1` join layers
    /// merging pairs back. Slots off the active frontier are relays, so
    /// the graph is non-uniform and exercises the per-layer lowering.
    pub fn fork_join(levels: u32) -> Self {
        assert!(levels >= 1);
        let lanes = 1u32 << (levels - 1);
        let layers = 2 * levels - 1;
        Self::from_fn(lanes, layers, |db, layer, out| {
            if layer <= levels {
                // Fork phase: at layer l the active lanes are the multiples
                // of `lanes >> (l-1)`; each reads its parent lane (the
                // active lane one coarser stride below).
                let stride = lanes >> (layer - 1);
                if db % stride == 0 {
                    let parent = if layer == 1 {
                        0
                    } else {
                        db - db % (stride * 2)
                    };
                    out.push(Dep::Cell(parent));
                    return (1, false);
                }
            } else {
                // Join phase: layer levels+k merges pairs at stride
                // `1 << k`; the surviving lane reads itself and its sibling.
                let k = layer - levels;
                let stride = 1u32 << k;
                if db % stride == 0 {
                    out.push(Dep::Cell(db));
                    out.push(Dep::Cell(db + stride / 2));
                    return (1, false);
                }
            }
            out.push(Dep::Cell(db));
            (1, true)
        })
    }

    /// A seeded random layered DAG: every slot is a real task reading its
    /// own lane plus up to `extra` distinct other lanes at the previous
    /// layer, with costs in `1..=max_cost`. Non-uniform whenever `extra`
    /// or `max_cost` vary anything (the fuzzer's workhorse).
    pub fn layered_random(dbs: u32, layers: u32, extra: u32, max_cost: u32, seed: u64) -> Self {
        assert!(max_cost >= 1);
        Self::from_fn(dbs, layers, |db, layer, out| {
            out.push(Dep::Cell(db));
            let mut h = mix64(seed ^ ((db as u64) << 32) ^ layer as u64);
            for k in 0..extra.min(dbs.saturating_sub(1)) {
                h = mix64(h.wrapping_add(k as u64 + 1));
                let pick = (h % dbs as u64) as u32;
                if pick != db && !out.contains(&Dep::Cell(pick)) {
                    out.push(Dep::Cell(pick));
                }
            }
            let cost = 1 + (mix64(h ^ 0xC057) % max_cost as u64) as u32;
            (cost, false)
        })
    }
}

/// Incremental builder for arbitrary DAGs. Tasks are added in topological
/// order (dependencies must already exist); [`DagBuilder::build`] assigns
/// each task its longest-path layer, pads holes with relays, and verifies
/// the one-live-value-per-lane discipline.
///
/// ```
/// use overlap_model::taskgraph::DagBuilder;
/// let mut b = DagBuilder::new(2);
/// let a = b.node(0, 1, &[]);
/// let c = b.node(1, 2, &[a]);
/// let _d = b.node(0, 1, &[a, c]);
/// let g = b.build().unwrap();
/// assert_eq!(g.layers(), 3);
/// assert!(g.is_relay(1, 1)); // lane 1 idles before its first task
/// ```
#[derive(Debug, Clone)]
pub struct DagBuilder {
    num_dbs: u32,
    /// (owning db, cost, dep task ids)
    nodes: Vec<(u32, u32, Vec<TaskId>)>,
}

impl DagBuilder {
    /// A builder over `num_dbs` lanes.
    pub fn new(num_dbs: u32) -> Self {
        Self {
            num_dbs,
            nodes: Vec::new(),
        }
    }

    /// Add a task owning database `db` with compute cost `cost`, consuming
    /// the values produced by `deps` (previously added tasks). Returns the
    /// task's id.
    ///
    /// # Panics
    /// If a dependency id has not been added yet (the builder is
    /// insertion-ordered, which makes cycles unrepresentable).
    pub fn node(&mut self, db: u32, cost: u32, deps: &[TaskId]) -> TaskId {
        let id = self.nodes.len() as TaskId;
        assert!(
            deps.iter().all(|&d| d < id),
            "dependencies must be added before their consumers"
        );
        self.nodes.push((db, cost, deps.to_vec()));
        id
    }

    /// Normalize into a [`TaskGraph`] (see the module docs for the rules).
    pub fn build(self) -> Result<TaskGraph, TaskGraphError> {
        if self.nodes.is_empty() {
            return Err(TaskGraphError::Empty);
        }
        for &(db, cost, _) in &self.nodes {
            if db >= self.num_dbs {
                return Err(TaskGraphError::BadDb { db });
            }
            if cost == 0 {
                return Err(TaskGraphError::ZeroCost);
            }
        }
        // Longest-path layering.
        let mut layer = vec![0u32; self.nodes.len()];
        for (i, (_, _, deps)) in self.nodes.iter().enumerate() {
            layer[i] = 1 + deps.iter().map(|&d| layer[d as usize]).max().unwrap_or(0);
        }
        let layers = layer.iter().copied().max().unwrap();
        // Occupancy: at most one task per (db, layer).
        let slots = self.num_dbs as usize * layers as usize;
        let mut occupant = vec![u32::MAX; slots];
        let slot = |db: u32, l: u32| db as usize * layers as usize + (l as usize - 1);
        for (i, &(db, _, _)) in self.nodes.iter().enumerate() {
            let s = slot(db, layer[i]);
            if occupant[s] != u32::MAX {
                return Err(TaskGraphError::DuplicateTask {
                    db,
                    layer: layer[i],
                });
            }
            occupant[s] = i as u32;
        }
        // Staleness: a consumer at layer L reads the relay chain of its
        // producer's lane at L-1; any intervening real task on that lane
        // would have overwritten the value.
        for (i, (_, _, deps)) in self.nodes.iter().enumerate() {
            for &d in deps {
                let (pdb, pl) = (self.nodes[d as usize].0, layer[d as usize]);
                for l in pl + 1..layer[i] {
                    if occupant[slot(pdb, l)] != u32::MAX {
                        return Err(TaskGraphError::StaleEdge {
                            db: pdb,
                            from_layer: pl,
                            to_layer: layer[i],
                        });
                    }
                }
            }
        }
        let nodes = &self.nodes;
        Ok(TaskGraph::from_fn(
            self.num_dbs,
            layers,
            |db, l, out| match occupant[slot(db, l)] {
                u32::MAX => {
                    out.push(Dep::Cell(db));
                    (1, true)
                }
                i => {
                    let (_, cost, deps) = &nodes[i as usize];
                    for &d in deps {
                        let dep = Dep::Cell(nodes[d as usize].0);
                        if !out.contains(&dep) {
                            out.push(dep);
                        }
                    }
                    if out.is_empty() {
                        // A source task: read the lane's initial value so
                        // the slot still has a well-defined gather list.
                        out.push(Dep::Cell(db));
                    }
                    (*cost, false)
                }
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pebble_grid_is_uniform_and_mirrors_topology() {
        let topo = GuestTopology::Line { m: 6 };
        let g = TaskGraph::pebble_grid(&topo, 4);
        assert!(g.is_uniform());
        assert_eq!(g.num_dbs(), 6);
        assert_eq!(g.layers(), 4);
        for c in 0..6 {
            for l in 1..=4 {
                assert_eq!(g.deps_of(c, l), topo.deps(c).as_slice());
                assert_eq!(g.cost_of(c, l), 1);
                assert!(!g.is_relay(c, l));
            }
        }
        assert_eq!(g.max_deps(), 3);
        assert_eq!(g.dep_lanes(2), vec![1, 3]);
        assert_eq!(g.total_cost(), 24);
    }

    #[test]
    fn wavefront_is_uniform_but_asymmetric() {
        let g = TaskGraph::wavefront(4, 3);
        assert!(g.is_uniform());
        assert_eq!(g.deps_of(2, 1), &[Dep::Cell(1), Dep::Cell(2)]);
        assert!(matches!(g.deps_of(0, 2)[0], Dep::Boundary { .. }));
        assert_eq!(g.dep_lanes(2), vec![1]);
    }

    #[test]
    fn fork_join_relays_pad_the_frontier() {
        let g = TaskGraph::fork_join(3); // 4 lanes, 5 layers
        assert_eq!(g.num_dbs(), 4);
        assert_eq!(g.layers(), 5);
        assert!(!g.is_uniform());
        // Layer 1: only lane 0 is active.
        assert!(!g.is_relay(0, 1));
        assert!(g.is_relay(1, 1) && g.is_relay(2, 1) && g.is_relay(3, 1));
        // Layer 2: lanes 0 and 2 fork; 2 reads its parent 0.
        assert!(!g.is_relay(2, 2));
        assert_eq!(g.deps_of(2, 2), &[Dep::Cell(0)]);
        // Layer 3 (full frontier): lane 3 reads parent 2.
        assert_eq!(g.deps_of(3, 3), &[Dep::Cell(2)]);
        // Join layers: lane 0 merges with 1, then with 2.
        assert_eq!(g.deps_of(0, 4), &[Dep::Cell(0), Dep::Cell(1)]);
        assert_eq!(g.deps_of(0, 5), &[Dep::Cell(0), Dep::Cell(2)]);
    }

    #[test]
    fn layered_random_is_deterministic_and_bounded() {
        let a = TaskGraph::layered_random(8, 5, 2, 3, 42);
        let b = TaskGraph::layered_random(8, 5, 2, 3, 42);
        assert_eq!(a, b);
        assert_ne!(a, TaskGraph::layered_random(8, 5, 2, 3, 43));
        assert!(a.max_deps() <= 3);
        assert!(a.has_nonunit_costs());
        for db in 0..8 {
            for l in 1..=5 {
                assert!(!a.is_relay(db, l));
                assert!((1..=3).contains(&a.cost_of(db, l)));
                assert_eq!(a.deps_of(db, l)[0], Dep::Cell(db));
            }
        }
    }

    #[test]
    fn builder_layers_by_longest_path() {
        let mut b = DagBuilder::new(3);
        let a = b.node(0, 1, &[]);
        let c = b.node(1, 1, &[a]);
        let d = b.node(2, 1, &[a]);
        let _e = b.node(0, 2, &[c, d]);
        let g = b.build().unwrap();
        assert_eq!(g.layers(), 3);
        assert!(!g.is_relay(0, 1) && !g.is_relay(1, 2) && !g.is_relay(2, 2));
        assert!(!g.is_relay(0, 3));
        assert_eq!(g.cost_of(0, 3), 2);
        assert_eq!(g.deps_of(0, 3), &[Dep::Cell(1), Dep::Cell(2)]);
        // Lane 0 idles at layer 2 (relay carrying a's value to e).
        assert!(g.is_relay(0, 2));
        assert_eq!(g.deps_of(0, 2), &[Dep::Cell(0)]);
    }

    #[test]
    fn builder_rejects_duplicates_and_stale_edges() {
        let mut b = DagBuilder::new(2);
        let a = b.node(0, 1, &[]);
        let _also_layer1_lane0 = b.node(0, 1, &[]);
        assert_eq!(
            b.build().unwrap_err(),
            TaskGraphError::DuplicateTask { db: 0, layer: 1 }
        );

        let mut b = DagBuilder::new(2);
        let a0 = b.node(0, 1, &[]);
        let _a1 = b.node(0, 1, &[a0]); // overwrites lane 0 at layer 2
        let via = b.node(1, 1, &[a0]);
        let _late = b.node(1, 1, &[via, a0]); // reads a0 at layer 3: stale
        assert_eq!(
            b.build().unwrap_err(),
            TaskGraphError::StaleEdge {
                db: 0,
                from_layer: 1,
                to_layer: 3
            }
        );
        let _ = a;
    }

    #[test]
    fn builder_rejects_bad_inputs() {
        assert_eq!(
            DagBuilder::new(2).build().unwrap_err(),
            TaskGraphError::Empty
        );
        let mut b = DagBuilder::new(1);
        b.node(1, 1, &[]);
        assert_eq!(b.build().unwrap_err(), TaskGraphError::BadDb { db: 1 });
        let mut b = DagBuilder::new(1);
        b.node(0, 0, &[]);
        assert_eq!(b.build().unwrap_err(), TaskGraphError::ZeroCost);
    }

    #[test]
    fn graphs_compare_structurally() {
        let g = TaskGraph::fork_join(3);
        assert_eq!(g, g.clone());
        assert_ne!(g, TaskGraph::fork_join(2));
    }
}
