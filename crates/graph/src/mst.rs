//! Random spanning forests (§5.3, steps 1–2).
//!
//! The paper's near-linear decomposition heuristic draws i.i.d. uniform
//! edge weights and takes a minimum spanning forest — equivalently, a
//! spanning forest built over a uniformly shuffled edge order. We implement
//! exactly that: shuffle edges with the caller's RNG, then run Kruskal with
//! union-find.
//!
//! # Layout and determinism
//!
//! Everything is flat arrays indexed by vertex id (`u32`) or by a prefix-sum
//! offset (`usize`, like [`Graph`]'s own offsets — a `u32` sum of `2·m`
//! would wrap). The forest's adjacency is one offset array plus one
//! neighbour array, filled by counting placement in the order Kruskal
//! accepted the edges; a BFS from each not-yet-seen vertex, in increasing
//! id, orients it. The forest is therefore a function of the edge order
//! alone: the only RNG draws are the one [`SliceRandom::shuffle`] of the
//! sorted edge list, and every tree is rooted at its smallest vertex.
//! [`SpanningForest::bfs_order`] keeps the BFS queue, so bottom-up passes
//! (subtree sizes, layouts) are a reverse or forward walk over it.
//!
//! Every step — Kruskal's accept or reject, the acceptance order of a
//! vertex's neighbours, the BFS starts, the smallest-vertex roots — looks
//! at vertex ids only through their order, so relabelling the vertices
//! monotonically relabels the forest and changes nothing else. The
//! random-forest arrangement relies on it: it runs [`kruskal_forest`] on
//! the vertices an edge touches, renumbered `0..t`, and never on the
//! isolated rest, which would only be singleton roots
//! ([`random_spanning_forest`] is that path's whole-vertex-set
//! reference).

use crate::graph::Graph;
use crate::union_find::UnionFind;
use rand::seq::SliceRandom;
use rand::Rng;

/// A spanning forest: one parent pointer per vertex (`u32::MAX` for roots)
/// plus the list of roots, one per connected component.
#[derive(Debug, Clone)]
pub struct SpanningForest {
    /// `parent[v]`, `u32::MAX` when `v` is a root.
    pub parent: Vec<u32>,
    /// One root per component.
    pub roots: Vec<u32>,
    /// Every vertex once, each after its parent (the BFS discovery order
    /// of the orientation, trees one after another).
    pub bfs_order: Vec<u32>,
}

impl SpanningForest {
    /// Orients a forest by BFS: a tree is rooted at each vertex of
    /// `starts` not reached before it, and `neighbors(v)` lists `v`'s
    /// forest neighbours in the order the search should try them.
    /// `starts` must cover `0..n`.
    pub fn orient<'a>(
        n: u32,
        starts: impl Iterator<Item = u32>,
        neighbors: impl Fn(u32) -> &'a [u32],
    ) -> Self {
        // A reached vertex has a parent; a root is its own until the end,
        // so `parent` doubles as the visited set.
        let mut parent = vec![u32::MAX; n as usize];
        let mut roots = Vec::new();
        // The BFS queue of every tree, end to end.
        let mut bfs_order: Vec<u32> = Vec::with_capacity(n as usize);
        for s in starts {
            if parent[s as usize] != u32::MAX {
                continue;
            }
            roots.push(s);
            parent[s as usize] = s;
            let mut head = bfs_order.len();
            bfs_order.push(s);
            while head < bfs_order.len() {
                let u = bfs_order[head];
                head += 1;
                for &v in neighbors(u) {
                    if parent[v as usize] == u32::MAX {
                        parent[v as usize] = u;
                        bfs_order.push(v);
                    }
                }
            }
        }
        for &r in &roots {
            parent[r as usize] = u32::MAX;
        }
        debug_assert_eq!(bfs_order.len(), n as usize, "starts must cover 0..n");
        Self {
            parent,
            roots,
            bfs_order,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> u32 {
        self.parent.len() as u32
    }

    /// The forest's edges as `(parent, child)`, in BFS discovery order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.bfs_order
            .iter()
            .filter(|&&v| self.parent[v as usize] != u32::MAX)
            .map(|&v| (self.parent[v as usize], v))
    }

    /// Size of the subtree rooted at every vertex: one pass over the BFS
    /// order backwards, so every child is added to its parent before the
    /// parent is added to its own.
    pub fn subtree_sizes(&self) -> Vec<u32> {
        let mut size = vec![1u32; self.parent.len()];
        for &v in self.bfs_order.iter().rev() {
            let p = self.parent[v as usize];
            if p != u32::MAX {
                size[p as usize] += size[v as usize];
            }
        }
        size
    }
}

/// Builds a uniformly random spanning forest of `g`.
///
/// Every connected component contributes one tree; isolated vertices
/// become singleton roots.
pub fn random_spanning_forest<R: Rng>(g: &Graph, rng: &mut R) -> SpanningForest {
    let mut edges = g.edge_list();
    edges.shuffle(rng);
    kruskal_forest(g.n(), &edges)
}

/// Deterministic spanning forest over the given edge order (Kruskal on a
/// pre-sorted/shuffled list), every component rooted at its smallest
/// vertex.
pub fn kruskal_forest(n: u32, edges: &[(u32, u32)]) -> SpanningForest {
    let mut uf = UnionFind::new(n);
    let mut forest_edges = Vec::with_capacity(n.saturating_sub(1) as usize);
    let mut offsets = vec![0usize; n as usize + 1];
    for &(u, v) in edges {
        if uf.union(u, v) {
            forest_edges.push((u, v));
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
    }
    for i in 0..n as usize {
        offsets[i + 1] += offsets[i];
    }
    // Counting placement in acceptance order: a vertex's neighbours stay
    // in the order its edges were accepted, which fixes the BFS below.
    let mut next = offsets[..n as usize].to_vec();
    let mut adjacency = vec![0u32; 2 * forest_edges.len()];
    for &(u, v) in &forest_edges {
        adjacency[next[u as usize]] = v;
        next[u as usize] += 1;
        adjacency[next[v as usize]] = u;
        next[v as usize] += 1;
    }
    SpanningForest::orient(n, 0..n, |v| {
        &adjacency[offsets[v as usize]..offsets[v as usize + 1]]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn forest_spans_components() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let f = random_spanning_forest(&g, &mut rng);
        // Components: {0,1,2}, {3,4}, {5} → 2 + 1 + 0 edges.
        assert_eq!(f.edges().count(), 3);
        assert_eq!(f.roots.len(), 3);
        // Forest is acyclic and spans: per-component edge count = size - 1.
        let fg = Graph::from_edges(f.n(), &f.edges().collect::<Vec<_>>());
        let comps = crate::traversal::connected_components(&fg);
        assert_eq!(comps.count, 3);
        assert_eq!(
            f.roots,
            vec![0, 3, 5],
            "trees are rooted at their smallest vertex"
        );
    }

    #[test]
    fn parents_are_consistent() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let f = random_spanning_forest(&g, &mut rng);
        assert_eq!(f.edges().count(), 4);
        let root_count = f.parent.iter().filter(|&&p| p == u32::MAX).count();
        assert_eq!(root_count, 1);
        // Walking up from any vertex reaches the root without cycles.
        for mut v in 0..5u32 {
            let mut steps = 0;
            while f.parent[v as usize] != u32::MAX {
                v = f.parent[v as usize];
                steps += 1;
                assert!(steps <= 5, "cycle in parent pointers");
            }
            assert_eq!(v, f.roots[0]);
        }
    }

    #[test]
    fn subtree_sizes_sum() {
        let g = Graph::from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
        let f = kruskal_forest(7, &g.edge_list());
        let sizes = f.subtree_sizes();
        assert_eq!(sizes[f.roots[0] as usize], 7);
        // Each leaf has size 1.
        for v in [3u32, 4, 5, 6] {
            assert_eq!(sizes[v as usize], 1);
        }
    }

    #[test]
    fn randomness_varies_with_seed() {
        // On a cycle, different seeds should eventually drop different edges.
        let g = Graph::from_edges(8, &(0..8).map(|i| (i, (i + 1) % 8)).collect::<Vec<_>>());
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..16 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let f = random_spanning_forest(&g, &mut rng);
            let mut e: Vec<(u32, u32)> = f.edges().map(|(u, v)| (u.min(v), u.max(v))).collect();
            e.sort_unstable();
            distinct.insert(e);
        }
        assert!(
            distinct.len() > 1,
            "spanning forest never varied across seeds"
        );
    }

    #[test]
    fn empty_and_singleton() {
        let f = kruskal_forest(0, &[]);
        assert_eq!(f.roots.len(), 0);
        let f1 = kruskal_forest(1, &[]);
        assert_eq!(f1.roots, vec![0]);
        assert_eq!(f1.subtree_sizes(), vec![1]);
    }
}
