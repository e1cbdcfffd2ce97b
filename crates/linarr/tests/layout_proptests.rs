//! Property tests for the flat-array forest layout: on random forests
//! with isolated vertices and several components, the smallest-first
//! order places every vertex once, keeps every subtree contiguous, lists
//! children by `(subtree size, id)` and trees by `(size descending, root
//! id)`. Together the four properties determine the order uniquely, so
//! they pin the layout without a second implementation to compare with.

use amd_graph::mst::{random_spanning_forest, SpanningForest};
use amd_graph::GraphBuilder;
use amd_linarr::spanning_forest_la::arrangement_of_forest;
use amd_linarr::tree_layout::{root_tree, smallest_first_order};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A sparse random graph in which every fifth vertex is isolated and the
/// rest fall into several components, and a random spanning forest of it.
fn random_forest(n: u32, density: u32, seed: u64) -> SpanningForest {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for _ in 0..(n * density / 4) {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u % 5 != 0 && v % 5 != 0 {
            b.add_edge(u, v);
        }
    }
    random_spanning_forest(&b.build(), &mut rng)
}

/// Checks the four layout properties of `order` against `forest`, with
/// the trees expected in the order `roots`.
fn check_layout(
    forest: &SpanningForest,
    order: &[u32],
    roots: &[u32],
) -> Result<(), TestCaseError> {
    let n = forest.parent.len();
    let sizes = forest.subtree_sizes();
    // Every vertex placed once.
    prop_assert_eq!(order.len(), n);
    let mut position = vec![u32::MAX; n];
    for (p, &v) in order.iter().enumerate() {
        prop_assert!((v as usize) < n, "vertex {} out of range", v);
        prop_assert_eq!(position[v as usize], u32::MAX, "vertex {} placed twice", v);
        position[v as usize] = p as u32;
    }
    // Each subtree contiguous: every vertex lies inside the interval
    // `[position(a), position(a) + size(a))` of each of its ancestors `a`
    // (a subtree has exactly `size(a)` vertices, so inside means filling).
    for v in 0..n {
        let mut a = v;
        loop {
            let lo = position[a];
            prop_assert!(
                (lo..lo + sizes[a]).contains(&position[v]),
                "vertex {} outside the interval of its ancestor {}",
                v,
                a
            );
            match forest.parent[a] {
                u32::MAX => break,
                p => a = p as usize,
            }
        }
    }
    // Children by (size, id), packed right after their parent.
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    for v in 0..n as u32 {
        if forest.parent[v as usize] != u32::MAX {
            children[forest.parent[v as usize] as usize].push(v);
        }
    }
    for (p, list) in children.iter_mut().enumerate() {
        list.sort_unstable_by_key(|&c| position[c as usize]);
        let mut at = position[p] + 1;
        for pair in list.windows(2) {
            let key = |c: u32| (sizes[c as usize], c);
            prop_assert!(
                key(pair[0]) < key(pair[1]),
                "children of {} out of order",
                p
            );
        }
        for &c in list.iter() {
            prop_assert_eq!(position[c as usize], at);
            at += sizes[c as usize];
        }
    }
    // Trees one after another in the expected order.
    let mut at = 0;
    for &r in roots {
        prop_assert_eq!(forest.parent[r as usize], u32::MAX);
        prop_assert_eq!(position[r as usize], at);
        at += sizes[r as usize];
    }
    prop_assert_eq!(at as usize, n, "roots must account for every vertex");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The random-forest arrangement: trees by (size descending, root id).
    #[test]
    fn arrangement_of_random_forests(n in 1u32..160, density in 0u32..9, seed in any::<u64>()) {
        let forest = random_forest(n, density, seed);
        let sizes = forest.subtree_sizes();
        let mut roots = forest.roots.clone();
        roots.sort_by_key(|&r| (std::cmp::Reverse(sizes[r as usize]), r));
        for pair in roots.windows(2) {
            let key = |r: u32| (std::cmp::Reverse(sizes[r as usize]), r);
            prop_assert!(key(pair[0]) < key(pair[1]));
        }
        let pi = arrangement_of_forest(&forest);
        check_layout(&forest, pi.order(), &roots)?;
        // Kruskal roots every tree at its smallest vertex.
        for v in 0..n {
            let mut a = v;
            while forest.parent[a as usize] != u32::MAX {
                a = forest.parent[a as usize];
            }
            prop_assert!(a <= v, "tree of {} is rooted at {}", v, a);
        }
    }

    /// The plain smallest-first order keeps the trees in `roots` order,
    /// whatever vertex the first tree was rooted at.
    #[test]
    fn smallest_first_order_follows_the_roots(n in 1u32..160, density in 0u32..9, seed in any::<u64>()) {
        let forest = random_forest(n, density, seed);
        let edges: Vec<(u32, u32)> = forest.edges().collect();
        let g = amd_graph::Graph::from_edges(n, &edges);
        let rerooted = root_tree(&g, (seed % n as u64) as u32);
        prop_assert_eq!(rerooted.roots[0], (seed % n as u64) as u32);
        check_layout(&rerooted, &smallest_first_order(&rerooted), &rerooted.roots)?;
    }
}
