//! Acceptance properties of the fused serving kernels: the fused
//! active-prefix multiply must bit-match the naive three-pass reference
//! on integer data across random decompositions — cold and spliced —
//! and the `f32` lowering must stay inside its documented error bound.
//! An ignored release-mode perf gate asserts the fusion actually pays.

use amd_sparse::{ops, spmm, CooMatrix, CsrMatrix, DeltaBuilder, DenseMatrix};
use amd_spmm::reference::unfused_multiply;
use arrow_core::incremental::{decompose_snapshot_incremental, IncrementalPolicy};
use arrow_core::{
    decompose_snapshot, f32_multiply_error_bound, ArrowDecomposition, DecomposeConfig,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Integer-valued probe operand: exact in f64 (and in f32 for these
/// magnitudes), so fused and naive answers must match bit for bit.
fn probe(n: u32, k: u32, salt: u32) -> DenseMatrix<f64> {
    DenseMatrix::from_fn(n, k, |r, c| (((salt + 5 * r + 3 * c) % 9) as f64) - 4.0)
}

/// Random tree plus ring chords with small integer weights.
fn base_graph(n: u32, seed: u64) -> CsrMatrix<f64> {
    let tree = amd_graph::generators::random::random_tree(n, &mut ChaCha8Rng::seed_from_u64(seed));
    let mut coo = tree.to_adjacency::<f64>().to_coo();
    for v in 0..n {
        coo.push_sym(v, (v + 1) % n, ((v % 3) + 1) as f64).unwrap();
    }
    coo.to_csr()
}

/// The full fused-vs-naive agreement check for one decomposition: the
/// fused in-place multiply and the compiled f64 kernel must both
/// bit-match the unfused three-pass reference (which itself must match
/// a plain CSR multiply of the reconstructed operator).
fn assert_fused_agrees(d: &ArrowDecomposition, a: &CsrMatrix<f64>, k: u32) {
    let x = probe(a.rows(), k, 1);
    let naive = unfused_multiply(d, &x).unwrap();
    assert_eq!(d.multiply(&x).unwrap(), naive, "fused == naive");
    assert_eq!(
        d.compile::<f64>().multiply(&x).unwrap(),
        naive,
        "compiled f64 == naive"
    );
    assert_eq!(spmm::spmm(a, &x).unwrap(), naive, "naive == raw operator");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused active-prefix multiply bit-matches the naive reference on
    /// random decompositions over a sweep of widths and operand shapes.
    #[test]
    fn fused_bit_matches_naive_on_random_decompositions(
        n in 40u32..120,
        seed in 0u64..500,
        b_log2 in 2u32..5, // widths 4, 8, 16
        k in 1u32..7,
    ) {
        let a = base_graph(n, seed);
        let d = decompose_snapshot(&a, &DecomposeConfig::with_width(1 << b_log2), seed).unwrap();
        assert_fused_agrees(&d, &a, k);
    }

    /// Spliced decompositions (incremental refresh stacks extra levels
    /// with small active prefixes) serve through the same fused path —
    /// still bit-identical to the naive reference.
    #[test]
    fn fused_bit_matches_naive_on_spliced_decompositions(
        n in 48u32..120,
        seed in 0u64..500,
        start in 0u32..48,
        rounds in 1usize..4,
    ) {
        let cfg = DecomposeConfig::with_width(8);
        let policy = IncrementalPolicy {
            max_affected_fraction: 1.0,
            max_order: 64,
            ..Default::default()
        };
        let mut cur = base_graph(n, seed);
        let mut d = decompose_snapshot(&cur, &cfg, seed).unwrap();
        for round in 0..rounds as u32 {
            let mut delta = DeltaBuilder::<f64>::new(n, n);
            let u = (start + 3 * round) % n;
            delta.add_sym(u, (u + 2) % n, 2.0).unwrap();
            delta.add_sym((u + 5) % n, (u + 9) % n, 1.0).unwrap();
            let merged = ops::apply_delta(&cur, &delta.to_csr()).unwrap();
            let (next, _) = decompose_snapshot_incremental(
                &merged, &cfg, seed, Some(&d), Some(&delta.touched_vertices()), &policy,
            ).unwrap();
            assert_fused_agrees(&next, &merged, 3);
            cur = merged;
            d = next;
        }
    }

    /// The f32 lowering stays within the documented elementwise error
    /// bound on fractional (inexact-in-f32) data, and is bit-exact on
    /// integer data.
    #[test]
    fn f32_compiled_multiply_respects_its_error_bound(
        n in 40u32..100,
        seed in 0u64..500,
        k in 1u32..5,
    ) {
        let a = base_graph(n, seed);
        let d = decompose_snapshot(&a, &DecomposeConfig::with_width(8), seed).unwrap();
        let c32 = d.compile::<f32>();

        // Fractional operand: error bounded by the derived estimate.
        let x64 = DenseMatrix::from_fn(n, k, |r, j| 0.3 + (((r + 2 * j) % 11) as f64) * 0.7);
        let x32 = DenseMatrix::from_fn(n, k, |r, j| x64.get(r, j) as f32);
        let y32 = c32.multiply(&x32).unwrap();
        let y64 = d.multiply(&x64).unwrap();
        let bound = f32_multiply_error_bound(&d, &x64).unwrap();
        for v in 0..n {
            for j in 0..k {
                let err = (y32.get(v, j) as f64 - y64.get(v, j)).abs();
                prop_assert!(
                    err <= bound.get(v, j),
                    "({v}, {j}): err {err:e} > bound {:e}", bound.get(v, j)
                );
            }
        }

        // Integer operand: bit-exact.
        let xi = probe(n, k, 2);
        let xi32 = DenseMatrix::from_fn(n, k, |r, j| xi.get(r, j) as f32);
        let yi32 = c32.multiply(&xi32).unwrap();
        let yi64 = d.multiply(&xi).unwrap();
        for v in 0..n {
            for j in 0..k {
                prop_assert_eq!(yi32.get(v, j) as f64, yi64.get(v, j));
            }
        }
    }
}

/// CI perf gate (ignored by default; run with
/// `cargo test --release -p arrow-core --test kernels -- --ignored perf_smoke`):
/// on a banded 50k matrix with a wide operand, the fused active-prefix
/// multiply must not lose to the naive three-pass reference.
#[test]
#[ignore = "perf smoke: release-mode timing gate, run explicitly in CI"]
fn perf_smoke_fused_beats_naive() {
    let n = 50_000u32;
    let base = {
        let mut coo = CooMatrix::<f64>::new(n, n);
        for v in 0..n {
            coo.push_sym(v, (v + 1) % n, 1.0).unwrap();
            coo.push_sym(v, (v + 4) % n, 1.0).unwrap();
        }
        coo.to_csr()
    };
    let d = decompose_snapshot(&base, &DecomposeConfig::with_width(64), 21).unwrap();
    let x = probe(n, 64, 3);

    // Warm up, then take the best of a few repetitions of each path.
    let mut fused_secs = f64::INFINITY;
    let mut naive_secs = f64::INFINITY;
    let mut fused_y = None;
    let mut naive_y = None;
    for _ in 0..5 {
        let t = amd_obs::Stopwatch::start();
        naive_y = Some(unfused_multiply(&d, &x).unwrap());
        naive_secs = naive_secs.min(t.elapsed_seconds());
        let t = amd_obs::Stopwatch::start();
        fused_y = Some(d.multiply(&x).unwrap());
        fused_secs = fused_secs.min(t.elapsed_seconds());
    }
    assert_eq!(fused_y, naive_y, "fused must stay bit-identical");
    assert!(
        fused_secs <= naive_secs,
        "fused multiply ({fused_secs:.4}s) must not lose to naive ({naive_secs:.4}s)"
    );
    println!(
        "perf_smoke: n={n} k=64 naive={naive_secs:.4}s fused={fused_secs:.4}s speedup={:.2}x",
        naive_secs / fused_secs
    );
}
