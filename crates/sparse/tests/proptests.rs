//! Property-based tests for the sparse substrate.

use amd_sparse::{ops, spmm, CooMatrix, CsrMatrix, DeltaBuilder, DenseMatrix, Permutation};
use proptest::prelude::*;

/// Strategy: a random sparse matrix of shape up to 24×24 with up to 64
/// (possibly duplicated) triplets.
fn coo_strategy() -> impl Strategy<Value = CooMatrix<f64>> {
    (1u32..24, 1u32..24).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec((0..rows, 0..cols, -4.0f64..4.0), 0..64).prop_map(move |trips| {
            CooMatrix::from_triplets(rows, cols, trips).expect("in-bounds by construction")
        })
    })
}

/// Strategy: a random permutation of size n (as a shuffled order vector).
fn perm_strategy(n: u32) -> impl Strategy<Value = Permutation> {
    Just(n).prop_perturb(move |n, mut rng| {
        let mut order: Vec<u32> = (0..n).collect();
        // Fisher-Yates with proptest's rng for shrinkable determinism.
        for i in (1..order.len()).rev() {
            let j = (rng.random::<u64>() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        Permutation::from_order(order).unwrap()
    })
}

proptest! {
    #[test]
    fn coo_csr_roundtrip_preserves_sums(coo in coo_strategy()) {
        // Sum of all values must survive the conversion (duplicates merged).
        let direct: f64 = coo.entries().iter().map(|&(_, _, v)| v).sum();
        let csr = coo.to_csr();
        let via_csr: f64 = csr.values().iter().sum();
        prop_assert!((direct - via_csr).abs() < 1e-9);
        // CSR must satisfy its own invariants.
        let rebuilt = CsrMatrix::from_raw(
            csr.rows(), csr.cols(),
            csr.indptr().to_vec(), csr.indices().to_vec(), csr.values().to_vec(),
        );
        prop_assert!(rebuilt.is_ok());
    }

    #[test]
    fn add_sub_inverse(coo in coo_strategy()) {
        let a = coo.to_csr();
        let sum = ops::add(&a, &a).unwrap();
        let back = ops::sub(&sum, &a).unwrap();
        prop_assert!(back.max_abs_diff(&a).unwrap() < 1e-9);
    }

    #[test]
    fn transpose_involution(coo in coo_strategy()) {
        let a = coo.to_csr();
        prop_assert_eq!(ops::transpose(&ops::transpose(&a)), a);
    }

    #[test]
    fn symmetrize_is_symmetric(coo in coo_strategy()) {
        let a = coo.to_csr();
        if a.rows() == a.cols() {
            let s = ops::symmetrize(&a).unwrap();
            prop_assert!(ops::is_symmetric(&s));
        }
    }

    #[test]
    fn compact_is_idempotent_and_preserves_content(coo in coo_strategy()) {
        let reference = coo.to_csr().prune_zeros();
        let mut compacted = coo.clone();
        compacted.compact();
        // One compaction: same content (duplicates summed, zeros gone)…
        prop_assert!(compacted.to_csr().max_abs_diff(&reference).unwrap() < 1e-9);
        // …and a second compaction is a no-op bit for bit.
        let once = compacted.clone();
        compacted.compact();
        prop_assert_eq!(compacted, once);
    }

    #[test]
    fn delta_builder_matches_coo_accumulation(coo in coo_strategy()) {
        // Pushing the same triplet stream through the hash-keyed builder
        // and the append-only COO staging format must agree after
        // canonicalisation.
        let mut builder = DeltaBuilder::new(coo.rows(), coo.cols());
        for &(r, c, v) in coo.entries() {
            builder.add(r, c, v).unwrap();
        }
        let via_builder = builder.to_csr();
        let via_coo = coo.to_csr().prune_zeros();
        prop_assert!(via_builder.max_abs_diff(&via_coo).unwrap() < 1e-9);
        // Mass is the l1 norm of the canonical delta.
        let l1: f64 = via_builder.values().iter().map(|v| v.abs()).sum();
        prop_assert!((builder.mass() - l1).abs() < 1e-9);
    }

    #[test]
    fn apply_delta_then_subtract_roundtrips(
        (a, d) in (coo_strategy(), coo_strategy())
    ) {
        // Restrict to matching shapes by reshaping the delta onto a.
        let a = a.to_csr();
        let mut delta = CooMatrix::new(a.rows(), a.cols());
        for &(r, c, v) in d.entries() {
            delta.push(r % a.rows(), c % a.cols(), v).unwrap();
        }
        let delta = delta.to_csr();
        let merged = ops::apply_delta(&a, &delta).unwrap();
        let back = ops::sub(&merged, &delta).unwrap();
        prop_assert!(back.max_abs_diff(&a).unwrap() < 1e-9);
    }

    #[test]
    fn spmm_matches_dense_reference(coo in coo_strategy(), k in 1u32..5) {
        let a = coo.to_csr();
        let x = DenseMatrix::from_fn(a.cols(), k, |r, c| ((r * 7 + c * 3) % 5) as f64 - 2.0);
        let fast = spmm::spmm(&a, &x).unwrap();
        let slow = spmm::spmm_dense_reference(&a, &x).unwrap();
        prop_assert!(fast.max_abs_diff(&slow).unwrap() < 1e-9);
        let mut par = DenseMatrix::from_fn(a.rows(), k, |_, _| f64::NAN);
        spmm::spmm_parallel(&a, &x, &mut par).unwrap();
        prop_assert_eq!(&par, &fast);
    }

    #[test]
    fn permutation_roundtrips(n in 1u32..32) {
        let strat = perm_strategy(n);
        // materialise one permutation per case via a nested runner-free path:
        // use the strategy's value through prop_flat_map instead.
        let _ = strat; // covered by the dedicated test below
        prop_assert!(n >= 1);
    }
}

proptest! {
    #[test]
    fn matrix_market_roundtrip(coo in coo_strategy()) {
        use amd_sparse::io::{read_matrix_market, write_matrix_market};
        let a = coo.to_csr();
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let back = read_matrix_market(std::io::BufReader::new(buf.as_slice()))
            .unwrap()
            .to_csr();
        prop_assert_eq!(a, back);
    }

    #[test]
    fn damaged_matrix_market_is_an_error_or_a_matrix(
        coo in coo_strategy(),
        symmetric in any::<bool>(),
        cut in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), 0u32..256), 0..4),
    ) {
        use amd_sparse::io::{read_matrix_market, write_matrix_market};
        let mut file = Vec::new();
        write_matrix_market(&coo.to_csr(), &mut file).unwrap();
        if symmetric {
            let header = b"%%MatrixMarket matrix coordinate real ".len();
            file.splice(header..header + b"general".len(), b"symmetric".iter().copied());
        }
        // A cut past the end keeps the whole file.
        file.truncate(cut % (file.len() + 1));
        for (at, byte) in flips {
            if !file.is_empty() {
                let at = at % file.len();
                file[at] = byte as u8;
            }
        }
        // Either outcome is fine; a panic or an abort is not.
        if let Ok(coo) = read_matrix_market(std::io::BufReader::new(file.as_slice())) {
            let _ = coo.to_csr();
        }
    }

    #[test]
    fn permutation_algebra(
        (n, seed) in (2u32..32).prop_flat_map(|n| (Just(n), any::<u64>()))
    ) {
        use rand::prelude::*;
        use rand::seq::SliceRandom;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut order: Vec<u32> = (0..n).collect();
        order.shuffle(&mut rng);
        let p = Permutation::from_order(order).unwrap();

        // P ∘ P⁻¹ = id
        let id = p.compose(&p.inverse()).unwrap();
        prop_assert_eq!(id, Permutation::identity(n));

        // Symmetric reorder roundtrip on a random symmetric matrix.
        let mut coo = CooMatrix::new(n, n);
        for _ in 0..(2 * n) {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            coo.push_sym(u, v, rng.gen_range(-1.0..1.0)).unwrap();
        }
        let a = coo.to_csr();
        let b = p.apply_symmetric(&a).unwrap();
        prop_assert_eq!(a.nnz(), b.nnz());
        let back = p.inverse().apply_symmetric(&b).unwrap();
        prop_assert!(back.max_abs_diff(&a).unwrap() < 1e-12);

        // Row permutation roundtrip.
        let x = DenseMatrix::from_fn(n, 3, |r, c| (r as f64) * 10.0 + c as f64);
        let px = p.apply_rows(&x).unwrap();
        let back = p.unapply_rows(&px).unwrap();
        prop_assert_eq!(back, x);
    }

    #[test]
    fn permuted_spmm_identity(
        (n, seed) in (2u32..24).prop_flat_map(|n| (Just(n), any::<u64>()))
    ) {
        // (Pᵀ A P)(Pᵀ X) == Pᵀ (A X): the identity Algorithm 2 relies on.
        use rand::prelude::*;
        use rand::seq::SliceRandom;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut order: Vec<u32> = (0..n).collect();
        order.shuffle(&mut rng);
        let p = Permutation::from_order(order).unwrap();
        let mut coo = CooMatrix::new(n, n);
        for _ in 0..(3 * n) {
            coo.push(rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(-1.0..1.0))
                .unwrap();
        }
        let a = coo.to_csr();
        let x = DenseMatrix::from_fn(n, 2, |r, c| ((r + c) % 7) as f64);

        let pap = p.apply_symmetric(&a).unwrap();
        let px = p.apply_rows(&x).unwrap();
        let lhs = spmm::spmm(&pap, &px).unwrap();
        let rhs = p.apply_rows(&spmm::spmm(&a, &x).unwrap()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-9);
    }

    #[test]
    fn fingerprint_equal_for_equal_matrices(coo in coo_strategy()) {
        // The same content reached through different construction paths
        // (COO → CSR, CSR → COO → CSR, raw arrays) hashes identically.
        let a = coo.to_csr();
        let via_coo = a.to_coo().to_csr();
        prop_assert_eq!(a.fingerprint(), via_coo.fingerprint());
        let rebuilt = CsrMatrix::from_raw(
            a.rows(), a.cols(),
            a.indptr().to_vec(), a.indices().to_vec(), a.values().to_vec(),
        ).unwrap();
        prop_assert_eq!(a.fingerprint(), rebuilt.fingerprint());
    }

    #[test]
    fn fingerprint_changes_on_perturbation(
        (coo, seed) in coo_strategy().prop_flat_map(|c| (Just(c), any::<u64>()))
    ) {
        use rand::prelude::*;
        let a = coo.to_csr();
        if a.nnz() == 0 {
            return Ok(());
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        // Perturb one stored value: the fingerprint must move.
        let mut values = a.values().to_vec();
        let idx = rng.gen_range(0..values.len());
        values[idx] += 1.0;
        let perturbed = CsrMatrix::from_raw(
            a.rows(), a.cols(),
            a.indptr().to_vec(), a.indices().to_vec(), values,
        ).unwrap();
        prop_assert_ne!(a.fingerprint(), perturbed.fingerprint());
        // Shape changes move it too, even with identical arrays.
        let widened = CsrMatrix::from_raw(
            a.rows(), a.cols() + 1,
            a.indptr().to_vec(), a.indices().to_vec(), a.values().to_vec(),
        ).unwrap();
        prop_assert_ne!(a.fingerprint(), widened.fingerprint());
        // So does one more (empty) row over the same indices and values.
        let mut indptr = a.indptr().to_vec();
        indptr.push(a.nnz());
        let taller = CsrMatrix::from_raw(
            a.rows() + 1, a.cols(),
            indptr, a.indices().to_vec(), a.values().to_vec(),
        ).unwrap();
        prop_assert_ne!(a.fingerprint(), taller.fingerprint());
    }

    #[test]
    fn fingerprint_changes_under_permutation(
        (n, seed) in (3u32..24).prop_flat_map(|n| (Just(n), any::<u64>()))
    ) {
        use rand::prelude::*;
        use rand::seq::SliceRandom;
        // A matrix whose rows are pairwise distinct: any non-identity
        // symmetric permutation changes the content, so it must change
        // the fingerprint.
        let a = {
            let mut coo = CooMatrix::new(n, n);
            for v in 0..n {
                coo.push(v, v, v as f64 + 1.0).unwrap();
            }
            coo.push(0, n - 1, 7.5).unwrap();
            coo.to_csr()
        };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut order: Vec<u32> = (0..n).collect();
        order.shuffle(&mut rng);
        let p = Permutation::from_order(order).unwrap();
        let permuted = p.apply_symmetric(&a).unwrap();
        if permuted == a {
            return Ok(()); // drew the identity (or a symmetry of A)
        }
        prop_assert_ne!(a.fingerprint(), permuted.fingerprint());
    }

    #[test]
    fn fingerprint_moves_on_every_value_bit(
        (coo, seed) in coo_strategy().prop_flat_map(|c| (Just(c), any::<u64>()))
    ) {
        use rand::prelude::*;
        let a = coo.to_csr();
        if a.nnz() == 0 {
            return Ok(());
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let idx = rng.gen_range(0..a.nnz());
        let fp = a.fingerprint();
        let with_value = |v: f64| {
            let mut values = a.values().to_vec();
            values[idx] = v;
            CsrMatrix::from_raw(
                a.rows(), a.cols(),
                a.indptr().to_vec(), a.indices().to_vec(), values,
            ).unwrap()
        };
        for bit in 0..64 {
            let flipped = with_value(f64::from_bits(a.values()[idx].to_bits() ^ 1 << bit));
            prop_assert_ne!(fp, flipped.fingerprint(), "bit {}", bit);
        }
        // Equal under `==`, different bit patterns.
        prop_assert_ne!(with_value(0.0).fingerprint(), with_value(-0.0).fingerprint());
    }

    #[test]
    fn fingerprint_moves_when_an_entry_crosses_a_row_boundary(
        (coo, seed) in coo_strategy().prop_flat_map(|c| (Just(c), any::<u64>()))
    ) {
        use rand::prelude::*;
        let a = coo.to_csr();
        // Boundaries that can move: indptr[r] for 0 < r < rows, with an
        // entry on the side it moves away from.
        let movable: Vec<(usize, bool)> = (1..a.rows() as usize)
            .flat_map(|r| [(r, true), (r, false)])
            .filter(|&(r, up)| {
                let p = a.indptr();
                if up { p[r] < p[r + 1] } else { p[r - 1] < p[r] }
            })
            .collect();
        if movable.is_empty() {
            return Ok(());
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let (r, up) = movable[rng.gen_range(0..movable.len())];
        // Same indices and values; one boundary shifted by one entry
        // (the rows may lose sorted order, the hash does not look).
        let mut indptr = a.indptr().to_vec();
        if up { indptr[r] += 1 } else { indptr[r] -= 1 }
        let moved = CsrMatrix::from_raw_unchecked(
            a.rows(), a.cols(), indptr, a.indices().to_vec(), a.values().to_vec(),
        );
        prop_assert_ne!(a.fingerprint(), moved.fingerprint());
    }

    #[test]
    fn fingerprint_moves_on_any_single_word_of_the_stream(
        (coo, seed) in coo_strategy().prop_flat_map(|c| (Just(c), any::<u64>()))
    ) {
        use rand::prelude::*;
        // The stream is the header (`rows | cols << 32` and three
        // lengths), `indptr`, `indices` two per word, and the value
        // bits. Change one word to any other value, keeping every
        // length (so the header's length words and the rows half stay).
        let a = coo.to_csr();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        // The xor applied to the word: confined to its low half, to its
        // high half (one index of a pair, a value's sign and exponent),
        // or anywhere.
        let half = rng.gen_range(1..=u64::from(u32::MAX));
        let delta = match rng.gen_range(0..3) {
            0 => half,
            1 => half << 32,
            _ => rng.gen_range(1..=u64::MAX),
        };
        let (mut cols, mut indptr, mut indices, mut values) =
            (a.cols(), a.indptr().to_vec(), a.indices().to_vec(), a.values().to_vec());
        let index_words = a.nnz().div_ceil(2);
        let words = 1 + indptr.len() + index_words + a.nnz();
        match rng.gen_range(0..words) {
            0 => cols ^= ((delta >> 32) as u32).max(1),
            w if w <= indptr.len() => indptr[w - 1] ^= delta as usize,
            w if w <= indptr.len() + index_words => {
                let j = 2 * (w - 1 - indptr.len());
                if j + 1 < indices.len() {
                    indices[j] ^= delta as u32;
                    indices[j + 1] ^= (delta >> 32) as u32;
                } else {
                    // An odd last index: the high half is padding.
                    indices[j] ^= (delta as u32).max(1);
                }
            }
            w => {
                let j = w - 1 - indptr.len() - index_words;
                values[j] = f64::from_bits(values[j].to_bits() ^ delta);
            }
        }
        let changed = CsrMatrix::from_raw_unchecked(a.rows(), cols, indptr, indices, values);
        prop_assert_ne!(a.fingerprint(), changed.fingerprint());
    }
}

#[test]
fn empty_matrices_of_different_shapes_fingerprint_apart() {
    let mut seen = std::collections::HashMap::new();
    for rows in 0..32 {
        for cols in 0..32 {
            let fp = CsrMatrix::<f64>::zeros(rows, cols).fingerprint();
            if let Some(shape) = seen.insert(fp, (rows, cols)) {
                panic!("{rows}×{cols} and {}×{} share {fp:032x}", shape.0, shape.1);
            }
        }
    }
}

/// The strip primitive's contract, one element at a time: the output
/// element's starting value, the row's products in column order, each
/// added as it is formed, and the finish.
fn strip_reference<T: amd_sparse::Scalar>(
    a: &CsrMatrix<T>,
    x: &[T],
    k: usize,
    gather: Option<&[u32]>,
    y: &mut [T],
    finish: spmm::Finish,
) {
    for r in 0..a.rows() {
        for j in 0..k {
            let at = r as usize * k + j;
            let mut acc = if finish == spmm::Finish::Accumulate {
                y[at]
            } else {
                T::ZERO
            };
            for (&c, &v) in a.row_indices(r).iter().zip(a.row_values(r)) {
                let row = gather.map_or(c, |g| g[c as usize]) as usize;
                acc += v * x[row * k + j];
            }
            y[at] = if finish == spmm::Finish::Fold {
                y[at] + acc
            } else {
                acc
            };
        }
    }
}

/// Runs the dispatched entry and every walker body this CPU runs
/// ([`spmm::Body`]) on every width in `0..=70` and `95..=96`,
/// `127..=130` (each strip width alone and every greedy mix of 64, 32,
/// 16, 8, 4 and 1 columns), in the three finish modes, with and without
/// the gather map, and compares each with [`strip_reference`] bit for
/// bit — and a run of rows multiplied alone
/// ([`spmm::spmm_slices_rows`]) with its part of the same reference. A
/// body the CPU lacks must be refused, leaving the output as it was.
fn check_strips<T: amd_sparse::Scalar>(
    a: &CsrMatrix<T>,
    map: &[u32],
    bits: impl Fn(&[T]) -> Vec<u64>,
) -> Result<(), proptest::test_runner::TestCaseError> {
    // Non-integer, never `-0.0` (which a fold of `+0.0` would not keep).
    let value = |i: usize| T::from_f64(((i * 37 + 11) % 101) as f64 / 13.0 - 3.7);
    for k in (0..=70usize).chain(95..=96).chain(127..=130) {
        for gather in [None, Some(map)] {
            let x_rows = gather.map_or(a.cols() as usize, <[u32]>::len);
            let x: Vec<T> = (0..x_rows * k).map(value).collect();
            let y0: Vec<T> = (0..a.rows() as usize * k).map(|i| value(i + 5)).collect();
            for finish in [
                spmm::Finish::Overwrite,
                spmm::Finish::Accumulate,
                spmm::Finish::Fold,
            ] {
                let mut want = y0.clone();
                strip_reference(a, &x, k, gather, &mut want, finish);
                let mut got = y0.clone();
                spmm::spmm_slices(a, &x, k as u32, gather, &mut got, finish).unwrap();
                prop_assert_eq!(bits(&got), bits(&want), "dispatched k={} {:?}", k, finish);
                for body in spmm::Body::ALL {
                    let mut got = y0.clone();
                    let ran = spmm::spmm_slices_on(body, a, &x, k as u32, gather, &mut got, finish);
                    if !body.runs_here() {
                        prop_assert!(ran.is_err(), "{:?} ran on a CPU without it", body);
                        prop_assert_eq!(bits(&got), bits(&y0), "refused {:?} wrote", body);
                        continue;
                    }
                    ran.unwrap();
                    prop_assert_eq!(bits(&got), bits(&want), "{:?} k={} {:?}", body, k, finish);
                }
                if gather.is_none() {
                    // A run of rows alone is that part of the whole.
                    let (lo, hi) = (a.rows() / 3, a.rows() - a.rows() / 4);
                    let span = lo as usize * k..hi as usize * k;
                    let mut got = y0[span.clone()].to_vec();
                    spmm::spmm_slices_rows(a, lo..hi, &x, k as u32, &mut got, finish).unwrap();
                    prop_assert_eq!(
                        bits(&got),
                        bits(&want[span]),
                        "rows {}..{} k={} {:?}",
                        lo,
                        hi,
                        k,
                        finish
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn strip_primitive_bit_matches_the_scalar_reference(
        (coo, extra, seed) in (coo_strategy(), 0u32..4, any::<u64>())
    ) {
        use rand::prelude::*;
        use rand::seq::SliceRandom;
        // `coo_strategy` leaves rows empty and draws non-integer values.
        let a = coo.to_csr();
        // A position→vertex map onto an `x` a little taller than `a` is wide.
        let mut map: Vec<u32> = (0..a.cols() + extra).collect();
        map.shuffle(&mut rand_chacha::ChaCha8Rng::seed_from_u64(seed));
        check_strips(&a, &map, |v| v.iter().map(|x| x.to_bits()).collect())?;
        let a32 = CsrMatrix::<f32>::from_raw_unchecked(
            a.rows(),
            a.cols(),
            a.indptr().to_vec(),
            a.indices().to_vec(),
            a.values().iter().map(|&v| v as f32).collect(),
        );
        check_strips(&a32, &map, |v| v.iter().map(|x| u64::from(x.to_bits())).collect())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `spmm_parallel` on a matrix above `PARALLEL_MIN_WORK`, so that
    /// with two or more pool workers its row blocks start mid-matrix,
    /// against the one-element-at-a-time reference — not against the
    /// serial entry, which runs the same walker. Run at
    /// `AMD_EXEC_THREADS=1` and `2` (the serial fall-through and real
    /// dispatch).
    #[test]
    fn parallel_blocks_bit_match_the_scalar_reference(
        (rows, seed) in (900u32..1400, any::<u64>())
    ) {
        use rand::prelude::*;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        // An odd number of fourteenths: non-integer, so never `-0.0`.
        let value =
            |rng: &mut rand_chacha::ChaCha8Rng| (rng.gen_range(0..4000) as f64 + 0.5) / 7.0 - 285.0;
        let cols = rows + 37;
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        for r in 0..rows {
            // Every eighth row is empty; the others hold up to 100 entries.
            let count = if r % 8 == 5 { 0 } else { rng.gen_range(0..=100) };
            let mut row: Vec<u32> = (0..count).map(|_| rng.gen_range(0..cols)).collect();
            row.sort_unstable();
            row.dedup();
            indices.extend(row);
            indptr.push(indices.len());
        }
        let values: Vec<f64> = (0..indices.len()).map(|_| value(&mut rng)).collect();
        let a = CsrMatrix::from_raw(rows, cols, indptr, indices, values).unwrap();
        for k in [1u32, 3, 4, 8, 16, 17, 32, 33, 64, 96, 128] {
            let work = spmm::spmm_work(&a, k);
            prop_assert!(work >= spmm::PARALLEL_MIN_WORK, "k={} work={}", k, work);
            if amd_exec::requested_threads() > 1 {
                prop_assert!(spmm::part_count(work, spmm::PARALLEL_MIN_WORK) > 1);
            }
            let x = DenseMatrix::from_fn(cols, k, |_, _| value(&mut rng));
            let mut want = vec![0.0; rows as usize * k as usize];
            let overwrite = spmm::Finish::Overwrite;
            strip_reference(&a, x.data(), k as usize, None, &mut want, overwrite);
            // Whatever the output held is overwritten.
            let mut got = DenseMatrix::from_fn(rows, k, |_, _| value(&mut rng));
            spmm::spmm_parallel(&a, &x, &mut got).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(got.data()), bits(&want), "k={}", k);
        }
    }
}
