//! Edge-list staging for graph construction.

use crate::graph::Graph;

/// Accumulates edges with deduplication and self-loop removal, then builds
/// a [`Graph`].
///
/// All generators funnel through this type so that the `Graph` invariants
/// (no duplicates, no self-loops) hold by construction.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: u32,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices.
    pub fn new(n: u32) -> Self {
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// A builder with pre-allocated edge capacity.
    pub fn with_capacity(n: u32, m: usize) -> Self {
        Self {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of staged edges (before deduplication).
    pub fn staged_edges(&self) -> usize {
        self.edges.len()
    }

    /// Stages the undirected edge `{u, v}`. Self-loops are silently
    /// dropped; duplicates are removed at build time. Panics on
    /// out-of-range endpoints.
    pub fn add_edge(&mut self, u: u32, v: u32) {
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        if u == v {
            return;
        }
        self.edges.push(if u < v { (u, v) } else { (v, u) });
    }

    /// Builds the graph, deduplicating staged edges.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        Graph::from_edges(self.n, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loop_removal() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 0); // duplicate in other direction
        b.add_edge(2, 2); // self-loop dropped
        b.add_edge(1, 3);
        assert_eq!(b.staged_edges(), 3);
        let g = b.build();
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    fn empty_build() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
    }
}
