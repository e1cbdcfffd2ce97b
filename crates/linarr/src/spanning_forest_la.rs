//! Linear arrangements from random spanning forests (§5.3).
//!
//! The paper's production heuristic for graphs with hundreds of millions
//! of vertices:
//!
//! 1. draw i.i.d. uniform edge weights,
//! 2. compute a minimum spanning forest,
//! 3. lay out each tree with the smallest-first order (§5.4), trees in
//!    decreasing size order, and concatenate.
//!
//! Runs in (near) linear time and is what the evaluation uses to decompose
//! the SuiteSparse datasets.
//!
//! # Layout and determinism
//!
//! The order of the trees is `(size descending, root id)`. Vertices no
//! edge touches are singleton trees, so they come last, in ascending id,
//! and need neither a forest nor a sort: [`spanning_forest_la_of_edges`]
//! builds and lays out the forest on the touched vertices only,
//! relabelled monotonically, and appends the rest by one scan. From its
//! second level on LA-Decompose arranges a few hundred surviving edges
//! on tens of thousands of vertices; this is what keeps such a level at
//! the cost of its edges plus one pass over the vertices.

use crate::tree_layout::layout_trees;
use amd_graph::mst::{kruskal_forest, SpanningForest};
use amd_graph::Graph;
use amd_sparse::Permutation;
use rand::seq::SliceRandom;
use rand::Rng;

/// Computes the random spanning forest arrangement of `g`.
pub fn spanning_forest_la<R: Rng>(g: &Graph, rng: &mut R) -> Permutation {
    spanning_forest_la_of_edges(g.n(), g.edge_list(), rng)
}

/// [`spanning_forest_la`] of the graph on `n` vertices whose sorted edge
/// list (each edge once, `u < v`) is `edges` — what
/// [`Graph::edge_list`] returns, without building the graph.
///
/// The only RNG draws are the one shuffle of `edges`. The forest is then
/// built and laid out on the vertices an edge touches, relabelled
/// `0..t` in ascending id, and costs what they cost: the relabelling is
/// monotone, so Kruskal accepts the same edges in the same order, every
/// tree keeps its smallest vertex as root, and the `(size, id)` orders
/// of trees and children are unchanged. The untouched vertices are
/// singleton trees; `(size descending, root id)` puts them after every
/// other tree in ascending id, which is one scan.
pub fn spanning_forest_la_of_edges<R: Rng>(
    n: u32,
    mut edges: Vec<(u32, u32)>,
    rng: &mut R,
) -> Permutation {
    edges.shuffle(rng);
    const UNTOUCHED: u32 = u32::MAX;
    let mut label = vec![UNTOUCHED; n as usize];
    for &(u, v) in &edges {
        label[u as usize] = 0;
        label[v as usize] = 0;
    }
    let mut touched: Vec<u32> = Vec::new();
    for (v, l) in label.iter_mut().enumerate() {
        if *l != UNTOUCHED {
            *l = touched.len() as u32;
            touched.push(v as u32);
        }
    }
    // With every vertex touched the relabelling is the identity.
    let compact = touched.len() < n as usize;
    if compact {
        for e in &mut edges {
            *e = (label[e.0 as usize], label[e.1 as usize]);
        }
    }
    let forest = kruskal_forest(touched.len() as u32, &edges);
    let mut order = forest_order(&forest);
    if compact {
        for v in &mut order {
            *v = touched[*v as usize];
        }
        order.extend((0..n).filter(|&v| label[v as usize] == UNTOUCHED));
    }
    Permutation::from_order(order).expect("forest layout covers each vertex once")
}

/// Lays out a given forest: trees in decreasing size order (ties by
/// smaller root id), each in smallest-first order.
pub fn arrangement_of_forest(forest: &SpanningForest) -> Permutation {
    Permutation::from_order(forest_order(forest)).expect("forest layout covers each vertex once")
}

/// The vertex order of [`arrangement_of_forest`].
fn forest_order(forest: &SpanningForest) -> Vec<u32> {
    let sizes = forest.subtree_sizes();
    let mut roots = forest.roots.clone();
    roots.sort_unstable_by_key(|&r| (std::cmp::Reverse(sizes[r as usize]), r));
    layout_trees(forest, &sizes, &roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrangement::{avg_edge_length, la_cost};
    use amd_graph::generators::{basic, datasets, random};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn covers_vertices_and_orders_trees_by_size() {
        // Components of size 3 and 2 plus an isolated vertex.
        let g = Graph::from_edges(6, &[(3, 4), (0, 1), (1, 2)]);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let pi = spanning_forest_la(&g, &mut rng);
        assert_eq!(pi.len(), 6);
        // Positions 0..3 hold the size-3 component {0,1,2}.
        let first: Vec<u32> = (0..3).map(|p| pi.vertex_at(p)).collect();
        let mut sorted = first.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        // Isolated vertex 5 is last.
        assert_eq!(pi.vertex_at(5), 5);
    }

    #[test]
    fn untouched_vertices_follow_equal_size_trees_as_the_full_sort_puts_them() {
        // Paths of two and of three vertices, each between isolated
        // vertices: many trees of equal size, singleton roots on either
        // side of every one, and the arrangement of the touched vertices
        // alone must equal the one that sorts every root of a forest on
        // all the vertices.
        let n = 400u32;
        let mut edges = Vec::new();
        for base in (0..n - 8).step_by(8) {
            edges.push((base + 1, base + 2));
            edges.push((base + 4, base + 5));
            edges.push((base + 5, base + 6));
        }
        let g = Graph::from_edges(n, &edges);
        for seed in 0..8 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut reference_rng = rng.clone();
            let reference = arrangement_of_forest(&amd_graph::mst::random_spanning_forest(
                &g,
                &mut reference_rng,
            ));
            assert_eq!(
                spanning_forest_la_of_edges(n, edges.clone(), &mut rng),
                reference
            );
            // Size-3 trees, then size-2 trees, then the singletons, each
            // group by ascending root.
            let order = reference.order();
            assert_eq!(order[0], 4);
            assert_eq!(order[3 * 49], 1);
            let singletons = &order[5 * 49..];
            assert!(singletons.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(singletons[..4], [0, 3, 7, 8]);
        }
    }

    #[test]
    fn tree_input_reduces_to_smallest_first() {
        let g = basic::path(64);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let pi = spanning_forest_la(&g, &mut rng);
        // A path's spanning tree is the path itself; cost must be the
        // optimal n−1 achieved by a monotone layout... the root is random,
        // so allow the layout cost of a path rooted anywhere: ≤ 2(n−1).
        let cost = la_cost(&g, &pi);
        assert!(cost <= 2 * 63, "path layout cost {cost}");
    }

    #[test]
    fn webbase_like_average_edge_length_small() {
        // The heuristic's value proposition: short average edge length on
        // real-world-like graphs compared to a random order.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = datasets::genbank_like(5_000, &mut rng);
        let pi = spanning_forest_la(&g, &mut rng);
        let avg = avg_edge_length(&g, &pi);
        use rand::seq::SliceRandom;
        let mut rnd: Vec<u32> = (0..g.n()).collect();
        rnd.shuffle(&mut rng);
        let rnd_pi = Permutation::from_order(rnd).unwrap();
        let rnd_avg = avg_edge_length(&g, &rnd_pi);
        assert!(
            avg * 5.0 < rnd_avg,
            "forest LA avg {avg} not ≪ random {rnd_avg}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = ChaCha8Rng::seed_from_u64(7);
        let mut r2 = ChaCha8Rng::seed_from_u64(7);
        let g = random::random_tree(500, &mut ChaCha8Rng::seed_from_u64(1));
        assert_eq!(
            spanning_forest_la(&g, &mut r1),
            spanning_forest_la(&g, &mut r2)
        );
    }
}
