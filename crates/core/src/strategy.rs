//! Pluggable linear arrangement strategies for LA-Decompose.
//!
//! LA-Decompose (§5.1) is a framework parameterised by how step 2 computes
//! the arrangement of the pruned subgraph. The paper's evaluation uses the
//! random spanning forest heuristic (§5.3); the separator-based layout
//! (§5.2) gives the provable bounds; RCM and the identity are baselines
//! for the ablation benchmarks.

use amd_graph::separator::{BfsLevelSeparator, CentroidSeparator};
use amd_graph::traversal::connected_components;
use amd_graph::Graph;
use amd_linarr::{reverse_cuthill_mckee, separator_la, spanning_forest_la_of_edges};
use amd_sparse::Permutation;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Produces a linear arrangement of a (possibly disconnected) graph.
///
/// Strategies may be stateful (e.g. hold an RNG); LA-Decompose calls
/// `arrange_edges` once per level on the subgraph that remains after
/// pruning.
pub trait ArrangementStrategy {
    /// Computes an arrangement covering every vertex of `g`.
    fn arrange(&mut self, g: &Graph) -> Permutation;

    /// [`arrange`](Self::arrange) of the graph on `n` vertices whose
    /// sorted edge list (each edge once, `u < v`) is `edges`. A strategy
    /// that works on the edge list overrides this and never builds the
    /// graph; the result, and the state the strategy is left in, must be
    /// what `arrange` gives.
    fn arrange_edges(&mut self, n: u32, edges: Vec<(u32, u32)>) -> Permutation {
        self.arrange(&Graph::from_edges(n, &edges))
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// The paper's production heuristic: random spanning forest + smallest-
/// first tree layout (§5.3 + §5.4). Deterministic given the seed.
#[derive(Debug, Clone)]
pub struct RandomForestLa {
    rng: ChaCha8Rng,
}

impl RandomForestLa {
    /// Creates the strategy with a fixed seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl ArrangementStrategy for RandomForestLa {
    fn arrange(&mut self, g: &Graph) -> Permutation {
        self.arrange_edges(g.n(), g.edge_list())
    }

    fn arrange_edges(&mut self, n: u32, edges: Vec<(u32, u32)>) -> Permutation {
        spanning_forest_la_of_edges(n, edges, &mut self.rng)
    }

    fn name(&self) -> &'static str {
        "random-forest-la"
    }
}

/// Separator-LA (§5.2) with the BFS-level separator for general graphs,
/// switching to exact centroids when the graph is a forest.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeparatorLaStrategy;

impl ArrangementStrategy for SeparatorLaStrategy {
    fn arrange(&mut self, g: &Graph) -> Permutation {
        let comps = connected_components(g);
        let is_forest = g.m() + (comps.count as usize) == g.n() as usize;
        if is_forest {
            separator_la(g, &CentroidSeparator)
        } else {
            separator_la(g, &BfsLevelSeparator)
        }
    }

    fn name(&self) -> &'static str {
        "separator-la"
    }
}

/// Reverse Cuthill-McKee — the bandwidth-minimisation baseline (§3).
#[derive(Debug, Clone, Copy, Default)]
pub struct RcmLa;

impl ArrangementStrategy for RcmLa {
    fn arrange(&mut self, g: &Graph) -> Permutation {
        reverse_cuthill_mckee(g)
    }

    fn name(&self) -> &'static str {
        "rcm"
    }
}

/// The identity arrangement — the "no reordering" control for ablations.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityLa;

impl ArrangementStrategy for IdentityLa {
    fn arrange(&mut self, g: &Graph) -> Permutation {
        Permutation::identity(g.n())
    }

    fn name(&self) -> &'static str {
        "identity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amd_graph::generators::basic;
    use amd_linarr::la_cost;

    #[test]
    fn all_strategies_cover_vertices() {
        let g = basic::grid_2d(5, 5);
        let mut strategies: Vec<Box<dyn ArrangementStrategy>> = vec![
            Box::new(RandomForestLa::new(1)),
            Box::new(SeparatorLaStrategy),
            Box::new(RcmLa),
            Box::new(IdentityLa),
        ];
        for s in &mut strategies {
            let pi = s.arrange(&g);
            assert_eq!(pi.len(), 25, "{} wrong size", s.name());
        }
    }

    #[test]
    fn forest_detection_uses_centroids() {
        // On trees the separator strategy must produce the Lemma 2 cost
        // shape; smoke-test by comparing against identity on a deep tree.
        let g = basic::complete_ary_tree(2, 127);
        let mut s = SeparatorLaStrategy;
        let pi = s.arrange(&g);
        let mut id = IdentityLa;
        let idp = id.arrange(&g);
        // BFS numbering of a balanced tree is already decent; the
        // separator layout should be within a small factor either way.
        let (c1, c2) = (la_cost(&g, &pi), la_cost(&g, &idp));
        assert!(c1 > 0 && c2 > 0);
    }

    #[test]
    fn random_forest_deterministic_per_seed() {
        let g = basic::grid_2d(6, 6);
        let p1 = RandomForestLa::new(9).arrange(&g);
        let p2 = RandomForestLa::new(9).arrange(&g);
        assert_eq!(p1, p2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `arrange_edges` on a sorted edge list is `arrange` on the graph
        /// of those edges, for every strategy. The random-forest strategy
        /// (whose `arrange` is `arrange_edges` of the graph's edge list) is
        /// held against the path it replaced — a spanning forest of the
        /// whole vertex set, every root sorted — and must leave its RNG
        /// where that path does, because LA-Decompose reuses the strategy
        /// from level to level.
        #[test]
        fn arrange_edges_is_arrange_on_the_graph(
            n in 1u32..90,
            density in 0u32..6,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::{Rng, RngCore};
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // Every fourth vertex is isolated, the rest fall into
            // components of all sizes (many of them equal).
            let mut edges: Vec<(u32, u32)> = (0..n * density / 2)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .filter(|&(u, v)| u != v && u % 4 != 1 && v % 4 != 1)
                .map(|(u, v)| (u.min(v), u.max(v)))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            let g = Graph::from_edges(n, &edges);
            proptest::prop_assert_eq!(&g.edge_list(), &edges);

            let mut by_edges = RandomForestLa::new(seed);
            let mut reference = ChaCha8Rng::seed_from_u64(seed);
            let forest = amd_graph::mst::random_spanning_forest(&g, &mut reference);
            proptest::prop_assert_eq!(
                by_edges.arrange_edges(n, edges.clone()),
                amd_linarr::spanning_forest_la::arrangement_of_forest(&forest)
            );
            proptest::prop_assert_eq!(by_edges.rng.next_u64(), reference.next_u64());
            let others: [(Box<dyn ArrangementStrategy>, Box<dyn ArrangementStrategy>); 3] = [
                (Box::new(SeparatorLaStrategy), Box::new(SeparatorLaStrategy)),
                (Box::new(RcmLa), Box::new(RcmLa)),
                (Box::new(IdentityLa), Box::new(IdentityLa)),
            ];
            for (mut by_edges, mut by_graph) in others {
                proptest::prop_assert_eq!(
                    by_edges.arrange_edges(n, edges.clone()),
                    by_graph.arrange(&g),
                    "{}",
                    by_edges.name()
                );
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            RandomForestLa::new(0).name(),
            SeparatorLaStrategy.name(),
            RcmLa.name(),
            IdentityLa.name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
