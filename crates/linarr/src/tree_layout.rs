//! Smallest-first tree layouts (§5.4).
//!
//! For a rooted tree, place the root first, then the children's subtrees
//! one after another in *increasing* subtree-size order, recursively.
//! Lemma 3 shows that under this order at least
//! `min(n−1, ⌈(x−1)(n−1)/x⌉ + 1)` edges lie within an `xΔ`-wide band
//! around the diagonal, which drives the tree bound in Table 1.
//!
//! # Layout and determinism
//!
//! The layout is a pre-order walk, so a vertex's position is its parent's
//! position plus one plus the sizes of the siblings laid out before it.
//! That makes the whole order three flat passes and no recursion or
//! stack (path-shaped trees with millions of vertices are as cheap as
//! bushy ones): child lists are one `usize` offset array plus one `u32`
//! array filled by counting placement, each list is sorted by
//! `(subtree size, id)`, and one walk over the forest's BFS order
//! (parents before children) hands every child its position. Trees go one
//! after another in the order their roots are given; the random-forest
//! arrangement passes them by `(size descending, root id)`. Both keys
//! end in a vertex id, so they are total and the order is unique.

use amd_graph::mst::SpanningForest;
use amd_graph::Graph;

/// Computes the smallest-first order of a forest given parent pointers.
///
/// Returns the vertex order (position → vertex) covering every vertex:
/// trees are laid out one after another in the order `roots` are listed.
pub fn smallest_first_order(forest: &SpanningForest) -> Vec<u32> {
    layout_trees(forest, &forest.subtree_sizes(), &forest.roots)
}

/// The smallest-first order with the trees in the order of `roots` (a
/// reordering of `forest.roots`) and `sizes` the forest's subtree sizes.
pub(crate) fn layout_trees(forest: &SpanningForest, sizes: &[u32], roots: &[u32]) -> Vec<u32> {
    let n = forest.parent.len();
    // Child lists: children of `p` are `children[offsets[p]..offsets[p + 1]]`.
    let mut offsets = vec![0usize; n + 1];
    for &p in &forest.parent {
        if p != u32::MAX {
            offsets[p as usize + 1] += 1;
        }
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut next = offsets[..n].to_vec();
    let mut children = vec![0u32; offsets[n]];
    for (v, &p) in forest.parent.iter().enumerate() {
        if p != u32::MAX {
            children[next[p as usize]] = v as u32;
            next[p as usize] += 1;
        }
    }
    for p in 0..n {
        let list = &mut children[offsets[p]..offsets[p + 1]];
        if list.len() > 1 {
            list.sort_unstable_by_key(|&c| (sizes[c as usize], c));
        }
    }
    // Positions: roots first, then every child from its parent's.
    let mut position = vec![0u32; n];
    let mut at = 0u32;
    for &r in roots {
        position[r as usize] = at;
        at += sizes[r as usize];
    }
    debug_assert_eq!(at as usize, n, "roots must list every tree once");
    for &v in &forest.bfs_order {
        let mut at = position[v as usize] + 1;
        for &c in &children[offsets[v as usize]..offsets[v as usize + 1]] {
            position[c as usize] = at;
            at += sizes[c as usize];
        }
    }
    let mut order = vec![0u32; n];
    for (v, &p) in position.iter().enumerate() {
        order[p as usize] = v as u32;
    }
    order
}

/// Smallest-first order of a tree given as a [`Graph`], rooted at `root`.
///
/// Panics if the graph is not connected (use [`smallest_first_order`] with
/// a forest for the general case).
pub fn smallest_first_order_of_tree(g: &Graph, root: u32) -> Vec<u32> {
    let forest = root_tree(g, root);
    assert_eq!(
        forest.roots.len(),
        1,
        "smallest_first_order_of_tree requires a connected tree"
    );
    smallest_first_order(&forest)
}

/// Orients a tree/forest graph into parent pointers rooted at `root` (and
/// at the smallest vertex of every other component).
pub fn root_tree(g: &Graph, root: u32) -> SpanningForest {
    SpanningForest::orient(g.n(), std::iter::once(root).chain(0..g.n()), |v| {
        g.neighbors(v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrangement::{edges_within, la_cost};
    use amd_graph::generators::{basic, random};
    use amd_sparse::Permutation;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn perm_from_order(order: Vec<u32>) -> Permutation {
        Permutation::from_order(order).unwrap()
    }

    #[test]
    fn path_layout_is_monotone() {
        let g = basic::path(8);
        let order = smallest_first_order_of_tree(&g, 0);
        assert_eq!(order, (0..8).collect::<Vec<_>>());
        let pi = perm_from_order(order);
        assert_eq!(la_cost(&g, &pi), 7);
    }

    #[test]
    fn subtrees_are_contiguous() {
        // Balanced binary tree: every subtree must occupy a contiguous
        // range of positions (the property Lemma 3's proof uses).
        let g = basic::complete_ary_tree(2, 31);
        let order = smallest_first_order_of_tree(&g, 0);
        let pi = perm_from_order(order);
        let forest = root_tree(&g, 0);
        let sizes = forest.subtree_sizes();
        for v in 0..31u32 {
            // Collect positions of the subtree of v via parent walks.
            let mut positions: Vec<u32> = (0..31u32)
                .filter(|&u| {
                    let mut x = u;
                    loop {
                        if x == v {
                            return true;
                        }
                        let p = forest.parent[x as usize];
                        if p == u32::MAX {
                            return false;
                        }
                        x = p;
                    }
                })
                .map(|u| pi.position(u))
                .collect();
            positions.sort_unstable();
            assert_eq!(positions.len() as u32, sizes[v as usize]);
            for w in positions.windows(2) {
                assert_eq!(w[1], w[0] + 1, "subtree of {v} not contiguous");
            }
        }
    }

    #[test]
    fn smallest_child_comes_first() {
        // Root 0 with children: 1 (leaf) and 2 (subtree of size 3).
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (2, 3), (2, 4)]);
        let order = smallest_first_order_of_tree(&g, 0);
        assert_eq!(order[0], 0);
        assert_eq!(order[1], 1, "leaf child must precede bigger subtree");
        assert_eq!(order[2], 2);
    }

    #[test]
    fn lemma3_band_occupancy_on_random_trees() {
        // Lemma 3: at least ⌈(x−1)(n−1)/x⌉ + 1 edges within an xΔ band.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for n in [50u32, 200, 500] {
            let g = random::random_tree(n, &mut rng);
            let delta = g.max_degree();
            let order = smallest_first_order_of_tree(&g, 0);
            let pi = perm_from_order(order);
            for x in [2u32, 3, 5] {
                let within = edges_within(&g, &pi, x * delta);
                let m = (n - 1) as u64;
                let guarantee = m.min(((x as u64 - 1) * m).div_ceil(x as u64) + 1) as usize;
                assert!(
                    within >= guarantee,
                    "n={n} x={x}: {within} < guaranteed {guarantee}"
                );
            }
        }
    }

    #[test]
    fn forest_layout_covers_all_components() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 3), (2, 4)]);
        let forest = root_tree(&g, 2);
        let order = smallest_first_order(&forest);
        assert_eq!(order.len(), 6);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
        // Component of 2 (size 3) comes first because we rooted there.
        assert_eq!(order[0], 2);
    }

    #[test]
    #[should_panic(expected = "connected tree")]
    fn tree_layout_rejects_forest() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        smallest_first_order_of_tree(&g, 0);
    }
}
