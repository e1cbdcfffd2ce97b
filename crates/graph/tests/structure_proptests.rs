//! Property test for `structure_edges`: on random matrices that are not
//! symmetric — lower entries with and without their mirror, explicit
//! diagonals, rows with nothing in them — the list equals the sorted,
//! deduplicated set of `{min, max}` pairs of the off-diagonal entries,
//! and the graph built from it has exactly those edges.

use amd_graph::graph::structure_edges;
use amd_graph::Graph;
use amd_sparse::CooMatrix;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn structure_edges_is_the_symmetrised_pair_set(
        n in 1u32..60,
        density in 0u32..7,
        mirrored in 0u32..5,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut stored = BTreeSet::new();
        for _ in 0..n * density {
            let (r, c) = (rng.gen_range(0..n), rng.gen_range(0..n));
            // Every seventh row stays empty; entries may land on the
            // diagonal; one in `mirrored + 1` also gets its mirror.
            if r % 7 != 3 {
                stored.insert((r, c));
                if c % 7 != 3 && rng.gen_range(0..=mirrored) == 0 {
                    stored.insert((c, r));
                }
            }
        }
        let mut coo = CooMatrix::<f64>::new(n, n);
        for &(r, c) in &stored {
            coo.push(r, c, 1.0).unwrap();
        }
        let a = coo.to_csr();

        let expected: Vec<(u32, u32)> = stored
            .iter()
            .filter(|(r, c)| r != c)
            .map(|&(r, c)| (r.min(c), r.max(c)))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        prop_assert_eq!(&structure_edges(&a), &expected);
        prop_assert_eq!(Graph::from_matrix_structure(&a).edge_list(), expected);
    }
}
