//! Every one of the four distributed algorithms bit-matches the serial
//! iterated reference at `f64`, the one serving precision. The file and
//! its test keep the names they had when an emulated `f32` mode was
//! checked beside it.

use amd_partition::{hype_partition, HypeConfig};
use amd_sparse::{spmm, CsrMatrix, DenseMatrix};
use amd_spmm::{A15dSpmm, A2dSpmm, ArrowSpmm, DistSpmm, Hp1dSpmm};
use arrow_core::{decompose_snapshot, DecomposeConfig};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Random tree plus ring chords with small integer weights.
fn base_graph(n: u32, seed: u64) -> CsrMatrix<f64> {
    let g = amd_graph::generators::random::random_tree(n, &mut ChaCha8Rng::seed_from_u64(seed));
    let mut coo = g.to_adjacency::<f64>().to_coo();
    for v in 0..n {
        coo.push_sym(v, (v + 1) % n, ((v % 3) + 1) as f64).unwrap();
    }
    coo.to_csr()
}

/// Integer probe operand.
fn probe(n: u32, k: u32) -> DenseMatrix<f64> {
    DenseMatrix::from_fn(n, k, |r, c| (((5 * r + 3 * c) % 9) as f64) - 4.0)
}

/// All four algorithms over `a`, boxed behind the common trait.
fn algorithms(a: &CsrMatrix<f64>, seed: u64) -> Vec<Box<dyn DistSpmm>> {
    let d = decompose_snapshot(a, &DecomposeConfig::with_width(8), seed).unwrap();
    let g = amd_graph::Graph::from_matrix_structure(a);
    let part = hype_partition(
        &g,
        4,
        &HypeConfig::default(),
        &mut ChaCha8Rng::seed_from_u64(seed),
    );
    vec![
        Box::new(ArrowSpmm::new(&d).unwrap()),
        Box::new(A15dSpmm::new(a, 8, 2).unwrap()),
        Box::new(A2dSpmm::new(a, 4).unwrap()),
        Box::new(Hp1dSpmm::new(a, &part).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every algorithm answers the serial reference, bit for bit.
    #[test]
    fn all_algorithms_bit_match_reference_at_both_dtypes(
        n in 60u32..140,
        seed in 0u64..300,
        k in 1u32..5,
    ) {
        let a = base_graph(n, seed);
        let x = probe(n, k);
        let iters = 2;
        let mut want = x.clone();
        for _ in 0..iters {
            want = spmm::spmm(&a, &want).unwrap();
        }
        for alg in algorithms(&a, seed) {
            let run = alg.run(&x, iters).unwrap();
            prop_assert_eq!(&run.y, &want, "{} != serial reference", alg.name());
        }
    }
}
