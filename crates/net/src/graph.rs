//! Undirected host graphs with integer link delays.

use serde::{Deserialize, Serialize};

/// Host processor (workstation) identifier, 0-based and dense.
pub type NodeId = u32;

/// Link delay in simulator ticks. The guest's unit-delay links correspond to
/// delay 1.
pub type Delay = u64;

/// One undirected link of the host network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Link {
    /// One endpoint (the smaller id).
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Delay in ticks, ≥ 1.
    pub delay: Delay,
}

/// An undirected host network with per-link delays.
///
/// Parallel links and self-loops are rejected: none of the paper's
/// constructions need them, and forbidding them keeps routing tables simple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostGraph {
    name: String,
    n: u32,
    links: Vec<Link>,
    /// adjacency: for each node, (neighbour, delay) pairs.
    adj: Vec<Vec<(NodeId, Delay)>>,
}

impl HostGraph {
    /// An edgeless graph on `n` nodes.
    pub fn new(name: impl Into<String>, n: u32) -> Self {
        Self {
            name: name.into(),
            n,
            links: Vec::new(),
            adj: vec![Vec::new(); n as usize],
        }
    }

    /// Human-readable topology name (used in experiment reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Override the topology name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> u32 {
        self.n
    }

    /// Number of undirected links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Heap bytes the graph owns: its name, link list and adjacency lists,
    /// by capacity.
    pub fn heap_bytes(&self) -> usize {
        fn vec_bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        self.name.capacity()
            + vec_bytes(&self.links)
            + vec_bytes(&self.adj)
            + self.adj.iter().map(vec_bytes).sum::<usize>()
    }

    /// Add an undirected link with the given delay (≥1 enforced).
    ///
    /// # Panics
    /// On self-loops, out-of-range endpoints, duplicate links, or zero delay.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, delay: Delay) {
        assert!(a != b, "self-loop on node {a}");
        assert!(a < self.n && b < self.n, "endpoint out of range: {a}-{b}");
        assert!(delay >= 1, "zero-delay link {a}-{b}");
        assert!(
            !self.adj[a as usize].iter().any(|&(x, _)| x == b),
            "duplicate link {a}-{b}"
        );
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.links.push(Link {
            a: lo,
            b: hi,
            delay,
        });
        self.adj[a as usize].push((b, delay));
        self.adj[b as usize].push((a, delay));
    }

    /// Change the delay of an existing link (≥ 1 enforced). The link's
    /// identity — its position in [`links`](Self::links) order, and hence
    /// any directed link ids derived from it — is unchanged.
    ///
    /// # Panics
    /// If the link does not exist or the delay is zero.
    pub fn set_link_delay(&mut self, a: NodeId, b: NodeId, delay: Delay) {
        assert!(delay >= 1, "zero-delay link {a}-{b}");
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let l = self
            .links
            .iter_mut()
            .find(|l| (l.a, l.b) == (lo, hi))
            .unwrap_or_else(|| panic!("no link {a}-{b}"));
        l.delay = delay;
        for e in self.adj[a as usize].iter_mut() {
            if e.0 == b {
                e.1 = delay;
            }
        }
        for e in self.adj[b as usize].iter_mut() {
            if e.0 == a {
                e.1 = delay;
            }
        }
    }

    /// True if a link between `a` and `b` exists.
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.adj
            .get(a as usize)
            .is_some_and(|v| v.iter().any(|&(x, _)| x == b))
    }

    /// Delay of the direct link `a`-`b`, if present.
    pub fn link_delay(&self, a: NodeId, b: NodeId) -> Option<Delay> {
        self.adj[a as usize]
            .iter()
            .find(|&&(x, _)| x == b)
            .map(|&(_, d)| d)
    }

    /// All links, each undirected link exactly once.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Neighbours of `v` with link delays.
    pub fn neighbours(&self, v: NodeId) -> &[(NodeId, Delay)] {
        &self.adj[v as usize]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v as usize].len()
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// BFS connectivity check (ignoring delays).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let mut seen = vec![false; self.n as usize];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(w, _) in &self.adj[v as usize] {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == self.n
    }

    /// Render the host as a Graphviz DOT document (undirected; link delays
    /// as edge labels) for external visualization.
    pub fn to_dot(&self) -> String {
        let mut out = format!("graph \"{}\" {{\n", self.name);
        out.push_str("  node [shape=circle];\n");
        for l in &self.links {
            out.push_str(&format!("  {} -- {} [label=\"{}\"];\n", l.a, l.b, l.delay));
        }
        out.push_str("}\n");
        out
    }

    /// Rescale every link delay by `f`, keeping delays ≥ 1.
    pub fn scale_delays(&mut self, f: f64) {
        assert!(f > 0.0);
        for l in &mut self.links {
            l.delay = ((l.delay as f64 * f).round() as Delay).max(1);
        }
        for row in &mut self.adj {
            for e in row.iter_mut() {
                e.1 = ((e.1 as f64 * f).round() as Delay).max(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> HostGraph {
        let mut g = HostGraph::new("tri", 3);
        g.add_link(0, 1, 1);
        g.add_link(1, 2, 5);
        g.add_link(2, 0, 2);
        g
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_links(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.link_delay(1, 2), Some(5));
        assert_eq!(g.link_delay(2, 1), Some(5));
        assert_eq!(g.link_delay(0, 0), None);
        assert!(g.has_link(0, 2));
        assert!(g.is_connected());
    }

    #[test]
    fn links_are_canonicalized() {
        let mut g = HostGraph::new("g", 4);
        g.add_link(3, 1, 2);
        let l = g.links()[0];
        assert!(l.a < l.b);
        assert_eq!((l.a, l.b, l.delay), (1, 3, 2));
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut g = HostGraph::new("g", 4);
        g.add_link(0, 1, 1);
        g.add_link(2, 3, 1);
        assert!(!g.is_connected());
    }

    #[test]
    fn empty_and_singleton_are_connected() {
        assert!(HostGraph::new("e", 0).is_connected());
        assert!(HostGraph::new("s", 1).is_connected());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = HostGraph::new("g", 2);
        g.add_link(1, 1, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_link_panics() {
        let mut g = HostGraph::new("g", 2);
        g.add_link(0, 1, 1);
        g.add_link(1, 0, 2);
    }

    #[test]
    #[should_panic(expected = "zero-delay")]
    fn zero_delay_panics() {
        let mut g = HostGraph::new("g", 2);
        g.add_link(0, 1, 0);
    }

    #[test]
    fn dot_export_contains_every_link() {
        let g = triangle();
        let dot = g.to_dot();
        assert!(dot.starts_with("graph \"tri\""));
        assert!(dot.contains("0 -- 1 [label=\"1\"]"));
        assert!(dot.contains("1 -- 2 [label=\"5\"]"));
        assert!(dot.contains("0 -- 2 [label=\"2\"]"));
        assert_eq!(dot.matches(" -- ").count(), 3);
    }

    #[test]
    fn scale_delays_rounds_and_clamps() {
        let mut g = triangle();
        g.scale_delays(0.1);
        assert_eq!(g.link_delay(0, 1), Some(1)); // clamped up
        assert_eq!(g.link_delay(1, 2), Some(1)); // 0.5 rounds to 1
        g.scale_delays(10.0);
        assert_eq!(g.link_delay(0, 1), Some(10));
    }
}
