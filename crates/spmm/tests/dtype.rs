//! Dtype acceptance properties across all four distributed algorithms:
//! at `f64` every algorithm must bit-match the serial iterated reference
//! (the one-rank serving path changes nothing), and at `f32` the answers
//! stay bit-exact on integer data (small integers round-trip `f32`
//! narrowing losslessly and products accumulate in `f64`). The `f32`
//! wire format must also halve every algorithm's predicted volume
//! relative to `f64` — the whole point of serving at half bandwidth.

use amd_partition::{hype_partition, HypeConfig};
use amd_sparse::{spmm, CsrMatrix, DenseMatrix, Dtype};
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

/// Integer probe operand (exact in both precisions at these magnitudes).
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

/// Rebuilds the same algorithm set at a chosen serving dtype.
fn algorithms_with_dtype(a: &CsrMatrix<f64>, seed: u64, dtype: Dtype) -> Vec<Box<dyn DistSpmm>> {
    let d = decompose_snapshot(a, &DecomposeConfig::with_width(8), seed).unwrap();
    let g = amd_graph::Graph::from_matrix_structure(a);
    let part = hype_partition(
        &g,
        4,
        &HypeConfig::default(),
        &mut ChaCha8Rng::seed_from_u64(seed),
    );
    vec![
        Box::new(ArrowSpmm::new(&d).unwrap().with_dtype(dtype)),
        Box::new(A15dSpmm::new(a, 8, 2).unwrap().with_dtype(dtype)),
        Box::new(A2dSpmm::new(a, 4).unwrap().with_dtype(dtype)),
        Box::new(Hp1dSpmm::new(a, &part).unwrap().with_dtype(dtype)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// f64 serving is the pre-fusion reference, bit for bit, for every
    /// algorithm; f32 serving matches it exactly on integer data.
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
            prop_assert_eq!(&run.y, &want, "{} (f64) != serial reference", alg.name());
        }
        for alg in algorithms_with_dtype(&a, seed, Dtype::F32) {
            let run = alg.run(&x, iters).unwrap();
            prop_assert_eq!(
                &run.y, &want,
                "{} (f32) must stay exact on integer data", alg.name()
            );
        }
    }

    /// Narrowing the wire format halves (or better) each algorithm's
    /// predicted communication volume.
    #[test]
    fn f32_halves_predicted_volume_for_every_algorithm(
        n in 60u32..140,
        seed in 0u64..300,
        k in 1u32..9,
    ) {
        let a = base_graph(n, seed);
        let wide = algorithms_with_dtype(&a, seed, Dtype::F64);
        let narrow = algorithms_with_dtype(&a, seed, Dtype::F32);
        for (w, s) in wide.iter().zip(&narrow) {
            let bw = w.predict_volume(k).max_rank_bytes;
            let bs = s.predict_volume(k).max_rank_bytes;
            if bw == 0.0 {
                prop_assert_eq!(bs, 0.0);
                continue;
            }
            prop_assert!(
                bs <= 0.5 * bw + 1e-9,
                "{}: f32 predicted {bs:.0} B vs f64 {bw:.0} B", w.name()
            );
        }
    }
}
