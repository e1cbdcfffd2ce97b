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

use crate::tree_layout::layout_trees;
use amd_graph::mst::{random_spanning_forest, SpanningForest};
use amd_graph::Graph;
use amd_sparse::Permutation;
use rand::Rng;

/// Computes the random spanning forest arrangement of `g`.
pub fn spanning_forest_la<R: Rng>(g: &Graph, rng: &mut R) -> Permutation {
    let forest = random_spanning_forest(g, rng);
    arrangement_of_forest(&forest)
}

/// Lays out a given forest: trees in decreasing size order (ties by
/// smaller root id), each in smallest-first order.
pub fn arrangement_of_forest(forest: &SpanningForest) -> Permutation {
    let sizes = forest.subtree_sizes();
    let mut roots = forest.roots.clone();
    roots.sort_unstable_by_key(|&r| (std::cmp::Reverse(sizes[r as usize]), r));
    Permutation::from_order(layout_trees(forest, &sizes, &roots))
        .expect("forest layout covers each vertex once")
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
