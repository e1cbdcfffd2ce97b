//! Timing gates for the sparse substrate (ignored by default; run in
//! release mode with
//! `cargo test --release -p amd-sparse --test perf_smoke -- --ignored perf_smoke`).

use amd_sparse::CsrMatrix;
use std::hint::black_box;
use std::time::Instant;

/// Median wall time of five runs of `f`, after one warm-up run.
fn median_of_5(mut f: impl FnMut()) -> f64 {
    f();
    let mut secs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[2]
}

/// A plain read pass over the arrays `fingerprint` hashes: sums that
/// the compiler vectorises, so it runs at the speed the memory allows.
fn plain_read(a: &CsrMatrix<f64>) -> u64 {
    let offsets = a
        .indptr()
        .iter()
        .fold(0u64, |s, &o| s.wrapping_add(o as u64));
    let indices = a
        .indices()
        .iter()
        .fold(0u64, |s, &c| s.wrapping_add(c as u64));
    let values = a
        .values()
        .iter()
        .fold(0u64, |s, &v| s.wrapping_add(v.to_bits()));
    offsets ^ indices ^ values
}

/// Fingerprinting an 8 MB+ CSR must take at most 3× a plain read pass
/// over the same arrays. A ratio, so the pace of the host cancels.
#[test]
#[ignore = "perf smoke: release-mode timing gate, run explicitly in CI"]
fn perf_smoke_fingerprint() {
    // 80 000 rows of 9 entries, spread over the columns.
    let (n, per_row) = (80_000u32, 9u32);
    let stride = n / per_row;
    let indptr: Vec<usize> = (0..=n as usize).map(|r| r * per_row as usize).collect();
    let indices: Vec<u32> = (0..n)
        .flat_map(|r| (0..per_row).map(move |k| r % stride + k * stride))
        .collect();
    let values: Vec<f64> = (0..indices.len()).map(|i| i as f64 * 0.37 - 1.5).collect();
    let a = CsrMatrix::from_raw(n, n, indptr, indices, values).unwrap();
    let bytes = a.indptr().len() * 8 + a.nnz() * (4 + 8);
    assert!(
        bytes >= 8 << 20,
        "{bytes} B is below the 8 MB the gate measures"
    );

    let read_secs = median_of_5(|| {
        black_box(plain_read(black_box(&a)));
    });
    let hash_secs = median_of_5(|| {
        black_box(black_box(&a).fingerprint());
    });
    let ratio = hash_secs / read_secs;
    println!(
        "perf_smoke: {:.1} MB read={:.3} ms fingerprint={:.3} ms ratio={ratio:.2}x",
        bytes as f64 / 1e6,
        read_secs * 1e3,
        hash_secs * 1e3,
    );
    assert!(
        ratio <= 3.0,
        "fingerprint ({:.3} ms) must stay within 3x a plain read ({:.3} ms), took {ratio:.2}x",
        hash_secs * 1e3,
        read_secs * 1e3,
    );
}
