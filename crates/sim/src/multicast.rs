//! Multicast column distribution.
//!
//! The default engine unicasts every pebble separately to each subscriber,
//! so a column with `k` consumers crosses shared route prefixes `k` times.
//! The paper's interval scheme effectively *multicasts*: boundary columns
//! travel each link once. This module builds, per `(source, column)`, the
//! shortest-path tree from the source to all its subscribers; a pebble
//! then crosses every tree link exactly once, duplicating only at branch
//! points. The E12d ablation measures the traffic difference.

use crate::assignment::Assignment;
use crate::routing::{by_cell_bytes, RoutingTable};
use crate::{map_bytes, nested_bytes, vec_bytes};
use overlap_model::GuestTopology;
use overlap_net::paths::dijkstra;
use overlap_net::{HostGraph, NodeId};
use std::collections::HashMap;

/// One multicast tree: all subscribers of `cell` served by `source`.
#[derive(Debug, Clone)]
pub struct MulticastTree {
    /// The column being distributed.
    pub cell: u32,
    /// The root (a holder of `cell`).
    pub source: NodeId,
    /// Children of each tree node (`children[i]` pairs with `nodes[i]`).
    pub nodes: Vec<NodeId>,
    /// Per node (indexed as in `nodes`): child node indices.
    pub children: Vec<Vec<u32>>,
    /// Per node: parent node index (`u32::MAX` for the root).
    pub parent: Vec<u32>,
    /// Node index of `source` (the tree root).
    pub root: u32,
    /// Per node: is it a delivery destination?
    pub deliver: Vec<bool>,
    /// Node index lookup.
    pub index_of: HashMap<NodeId, u32>,
}

/// All multicast trees plus the per-destination inbound map (compatible
/// with the unicast [`RoutingTable`]'s).
#[derive(Debug, Clone, Default)]
pub struct MulticastTable {
    /// The trees.
    pub trees: Vec<MulticastTree>,
    /// For each source processor: tree ids rooted there.
    pub outbound: Vec<Vec<u32>>,
    /// For each source processor, `outbound` grouped by column: sorted
    /// `(cell, tree ids)` pairs (see [`RoutingTable::outbound_by_cell`]).
    pub outbound_by_cell: Vec<Vec<(u32, Vec<u32>)>>,
    /// For each processor: `(cell, tree_id)` pairs it receives.
    pub inbound: Vec<Vec<(u32, u32)>>,
}

impl MulticastTable {
    /// Build multicast trees from the unicast routing table: subscriptions
    /// of the same `(source, cell)` are merged into one shortest-path tree
    /// (recomputed from the source, so shared prefixes are genuinely
    /// shared).
    pub fn build(host: &HostGraph, topo: &GuestTopology, assign: &Assignment) -> Self {
        Self::build_with(host, assign, |c| topo.neighbours(c))
    }

    /// Multicast analogue of [`RoutingTable::build_with`]: the dependency
    /// sets come from an arbitrary per-cell closure (the per-layer union
    /// for task-graph guests).
    pub fn build_with(
        host: &HostGraph,
        assign: &Assignment,
        dep_cells_of: impl Fn(u32) -> Vec<u32>,
    ) -> Self {
        let unicast = RoutingTable::build_with(host, assign, dep_cells_of);
        let n = host.num_nodes();
        // Group subscribers by (source, cell).
        let mut groups: HashMap<(NodeId, u32), Vec<NodeId>> = HashMap::new();
        for sub in &unicast.subs {
            groups
                .entry((sub.source, sub.cell))
                .or_default()
                .push(sub.dest);
        }
        let mut keys: Vec<(NodeId, u32)> = groups.keys().copied().collect();
        keys.sort_unstable();

        let mut trees = Vec::with_capacity(keys.len());
        let mut outbound = vec![Vec::new(); n as usize];
        let mut inbound = vec![Vec::new(); n as usize];
        // Cache Dijkstra per source.
        let mut sp_cache: HashMap<NodeId, overlap_net::paths::PathResult> = HashMap::new();
        for (source, cell) in keys {
            let dests = &groups[&(source, cell)];
            let sp = sp_cache
                .entry(source)
                .or_insert_with(|| dijkstra(host, source));
            // Union of shortest paths source → dest forms a tree (each node
            // keeps its unique Dijkstra parent).
            let mut index_of: HashMap<NodeId, u32> = HashMap::new();
            let mut nodes: Vec<NodeId> = Vec::new();
            let mut parent_of: HashMap<NodeId, NodeId> = HashMap::new();
            let add_node =
                |v: NodeId, nodes: &mut Vec<NodeId>, index_of: &mut HashMap<NodeId, u32>| {
                    if let Some(&i) = index_of.get(&v) {
                        i
                    } else {
                        let i = nodes.len() as u32;
                        nodes.push(v);
                        index_of.insert(v, i);
                        i
                    }
                };
            add_node(source, &mut nodes, &mut index_of);
            for &d in dests {
                let path = sp.path_to(d).expect("subscriber reachable");
                for w in path.windows(2) {
                    add_node(w[0], &mut nodes, &mut index_of);
                    add_node(w[1], &mut nodes, &mut index_of);
                    parent_of.entry(w[1]).or_insert(w[0]);
                }
            }
            let mut children: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
            let mut parent: Vec<u32> = vec![u32::MAX; nodes.len()];
            for (&ch, &pa) in &parent_of {
                children[index_of[&pa] as usize].push(index_of[&ch]);
                parent[index_of[&ch] as usize] = index_of[&pa];
            }
            for ch in &mut children {
                ch.sort_unstable();
            }
            let root = index_of[&source];
            let deliver: Vec<bool> = nodes.iter().map(|v| dests.contains(v)).collect();
            let tid = trees.len() as u32;
            for &d in dests {
                inbound[d as usize].push((cell, tid));
            }
            outbound[source as usize].push(tid);
            trees.push(MulticastTree {
                cell,
                source,
                nodes,
                children,
                parent,
                root,
                deliver,
                index_of,
            });
        }
        for inb in &mut inbound {
            inb.sort_unstable();
        }
        let outbound_by_cell =
            crate::routing::group_by_cell(&outbound, |tid| trees[tid as usize].cell);
        Self {
            trees,
            outbound,
            outbound_by_cell,
            inbound,
        }
    }

    /// Heap bytes of the trees (node lists, child lists, index maps) and
    /// the per-processor route lists.
    pub(crate) fn heap_bytes(&self) -> usize {
        let tree = |t: &MulticastTree| {
            vec_bytes(&t.nodes)
                + nested_bytes(&t.children)
                + vec_bytes(&t.parent)
                + vec_bytes(&t.deliver)
                + map_bytes(&t.index_of)
        };
        vec_bytes(&self.trees)
            + self.trees.iter().map(tree).sum::<usize>()
            + nested_bytes(&self.outbound)
            + by_cell_bytes(&self.outbound_by_cell)
            + nested_bytes(&self.inbound)
    }

    /// Total tree links (the per-pebble traffic; always ≤ the unicast
    /// pebble-hops for the same assignment).
    pub fn total_tree_links(&self) -> usize {
        self.trees.iter().map(|t| t.nodes.len() - 1).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;

    #[test]
    fn shared_prefixes_are_merged() {
        // Column 0 held at proc 0; consumers at procs 2 and 3 on a line:
        // unicast crosses link 0-1 and 1-2 twice; the tree crosses each
        // link once (4 hops vs 5).
        let host = linear_array(4, DelayModel::constant(1), 0);
        let topo = GuestTopology::Line { m: 4 };
        let assign = Assignment::from_cells_of(4, 4, vec![vec![0], vec![], vec![1], vec![2, 3]]);
        let mc = MulticastTable::build(&host, &topo, &assign);
        // Find the tree for (source 0, cell 0): consumers 2 (holds 1) and
        // 3 (holds 2, needs 1's neighbour... ). Check global accounting:
        let unicast = RoutingTable::build(&host, &topo, &assign);
        let unicast_hops: usize = unicast.subs.iter().map(|s| s.path.len() - 1).sum();
        assert!(
            mc.total_tree_links() <= unicast_hops,
            "multicast {} vs unicast {}",
            mc.total_tree_links(),
            unicast_hops
        );
    }

    #[test]
    fn trees_are_rooted_and_acyclic() {
        let host = linear_array(6, DelayModel::uniform(1, 5), 3);
        let topo = GuestTopology::Line { m: 12 };
        let assign = Assignment::blocked(6, 12);
        let mc = MulticastTable::build(&host, &topo, &assign);
        for t in &mc.trees {
            // Every node reachable from the root exactly once.
            let mut seen = vec![false; t.nodes.len()];
            let mut stack = vec![t.index_of[&t.source]];
            let mut count = 0;
            while let Some(i) = stack.pop() {
                assert!(!seen[i as usize], "cycle at node {i}");
                seen[i as usize] = true;
                count += 1;
                stack.extend(t.children[i as usize].iter().copied());
            }
            assert_eq!(count, t.nodes.len(), "disconnected tree");
            // At least one delivery.
            assert!(t.deliver.iter().any(|&d| d));
        }
    }

    #[test]
    fn parent_links_mirror_children() {
        let host = linear_array(6, DelayModel::uniform(1, 5), 3);
        let topo = GuestTopology::Line { m: 12 };
        let assign = Assignment::blocked(6, 12);
        let mc = MulticastTable::build(&host, &topo, &assign);
        for t in &mc.trees {
            assert_eq!(t.root, t.index_of[&t.source]);
            assert_eq!(t.parent[t.root as usize], u32::MAX);
            for (i, ch) in t.children.iter().enumerate() {
                for &c in ch {
                    assert_eq!(t.parent[c as usize], i as u32);
                }
            }
            // Every non-root node has a parent.
            for (i, &pa) in t.parent.iter().enumerate() {
                assert_eq!(pa == u32::MAX, i as u32 == t.root);
            }
        }
        // outbound_by_cell partitions outbound.
        for p in 0..6usize {
            let flat: usize = mc.outbound_by_cell[p].iter().map(|(_, v)| v.len()).sum();
            assert_eq!(flat, mc.outbound[p].len());
        }
    }

    #[test]
    fn inbound_covers_every_dependency() {
        let host = linear_array(5, DelayModel::constant(2), 0);
        let topo = GuestTopology::Line { m: 10 };
        let assign = Assignment::blocked(5, 10);
        let mc = MulticastTable::build(&host, &topo, &assign);
        let uni = RoutingTable::build(&host, &topo, &assign);
        for p in 0..5usize {
            let mut a: Vec<u32> = mc.inbound[p].iter().map(|&(c, _)| c).collect();
            let mut b: Vec<u32> = uni.inbound[p].iter().map(|&(c, _)| c).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "proc {p} dependency columns differ");
        }
    }
}
