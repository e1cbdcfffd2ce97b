//! Timing gates for the sparse substrate (ignored by default; run in
//! release mode with
//! `cargo test --release -p amd-sparse --test perf_smoke -- --ignored perf_smoke
//! --test-threads=1`: two gates timed at once on a small host disturb
//! each other).

use amd_sparse::spmm::{self, Finish};
use amd_sparse::{CsrMatrix, DenseMatrix, Dtype};
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

/// Median wall times of five runs each of `a` and `b`, taken in
/// alternation after one warm-up run of each, so that both see the same
/// phases of a shared host.
fn medians_of_5_alternating(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    a();
    b();
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let (mut ta, mut tb): (Vec<f64>, Vec<f64>) =
        (0..5).map(|_| (time(&mut a), time(&mut b))).unzip();
    ta.sort_by(f64::total_cmp);
    tb.sort_by(f64::total_cmp);
    (ta[2], tb[2])
}

/// A plain one-accumulator CSR × vector loop: what a `k = 1` multiply
/// costs with nothing but the arithmetic, summed in the same order.
fn plain_spmv(a: &CsrMatrix<f64>, x: &[f64], y: &mut [f64]) {
    let (indices, values) = (a.indices(), a.values());
    for (out, w) in y.iter_mut().zip(a.indptr().windows(2)) {
        let mut sum = 0.0;
        for i in w[0]..w[1] {
            sum += values[i] * x[indices[i] as usize];
        }
        *out = sum;
    }
}

/// A one-column multiply through `spmm_slices` must take at most 1.3×
/// the plain loop above on the 160 × 160 grid (25 600 rows of at most 4
/// entries, the shape where per-row overhead shows most). A ratio, so
/// the pace of the host cancels.
#[test]
#[ignore = "perf smoke: release-mode timing gate, run explicitly in CI"]
fn perf_smoke_spmv() {
    let side = 160u32;
    let n = side * side;
    let mut indptr = vec![0usize];
    let mut indices = Vec::new();
    for v in 0..n {
        let (r, c) = (v / side, v % side);
        // Neighbours in ascending column order: up, left, right, down.
        let up = (r > 0).then(|| v - side);
        let left = (c > 0).then(|| v - 1);
        let right = (c + 1 < side).then_some(v + 1);
        let down = (r + 1 < side).then_some(v + side);
        indices.extend([up, left, right, down].into_iter().flatten());
        indptr.push(indices.len());
    }
    let values: Vec<f64> = (0..indices.len())
        .map(|i| (i % 7) as f64 * 0.31 - 0.9)
        .collect();
    let a = CsrMatrix::from_raw(n, n, indptr, indices, values).unwrap();
    let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 / 3.0 - 1.7).collect();

    let mut want = vec![0.0; n as usize];
    let mut got = vec![f64::NAN; n as usize];
    let (plain_secs, kernel_secs) = medians_of_5_alternating(
        || plain_spmv(black_box(&a), black_box(&x), &mut want),
        || {
            spmm::spmm_slices(
                black_box(&a),
                black_box(&x),
                1,
                None,
                &mut got,
                Finish::Overwrite,
                Dtype::F64,
            )
            .unwrap()
        },
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got), bits(&want), "same sums, same order");
    let ratio = kernel_secs / plain_secs;
    println!(
        "perf_smoke: grid{side} nnz={} plain={:.1} µs spmm_slices={:.1} µs ratio={ratio:.2}x",
        a.nnz(),
        plain_secs * 1e6,
        kernel_secs * 1e6,
    );
    assert!(
        ratio <= 1.3,
        "spmm_slices at k = 1 ({:.1} µs) must stay within 1.3x a plain loop ({:.1} µs), took {ratio:.2}x",
        kernel_secs * 1e6,
        plain_secs * 1e6,
    );
}

/// The serial blocked pack the pooled [`DenseMatrix::from_columns`]
/// replaced: clear and zero-fill `storage`, then 32 rows at a time.
fn serial_pack(columns: &[&[f64]], mut storage: Vec<f64>) -> Vec<f64> {
    let (n, k) = (columns[0].len(), columns.len());
    storage.clear();
    storage.resize(n * k, 0.0);
    for r0 in (0..n).step_by(32) {
        let r1 = (r0 + 32).min(n);
        let block = &mut storage[r0 * k..r1 * k];
        for (j, column) in columns.iter().enumerate() {
            for (row, &v) in block.chunks_exact_mut(k).zip(&column[r0..r1]) {
                row[j] = v;
            }
        }
    }
    storage
}

/// The serial blocked unpack the pooled
/// [`DenseMatrix::write_columns`] replaced.
fn serial_unpack(data: &[f64], columns: &mut [&mut [f64]]) {
    let (n, k) = (columns[0].len(), columns.len());
    for r0 in (0..n).step_by(32) {
        let r1 = (r0 + 32).min(n);
        let block = &data[r0 * k..r1 * k];
        for (j, column) in columns.iter_mut().enumerate() {
            for (out, row) in column[r0..r1].iter_mut().zip(block.chunks_exact(k)) {
                *out = row[j];
            }
        }
    }
}

/// A wide batch's pack and unpack (`n = 16 384`, `k = 64`, the
/// `serve-wide` shape) through `DenseMatrix` must take at most the time
/// of the serial blocked loops above on a pool of two or more threads;
/// on one thread both run the same loop, and the ratio is only printed.
/// Both sides recycle their operand and answer storage, as the engine
/// does.
#[test]
#[ignore = "perf smoke: release-mode timing gate, run explicitly in CI"]
fn perf_smoke_transpose() {
    let (n, k) = (16_384usize, 64usize);
    let columns: Vec<Vec<f64>> = (0..k)
        .map(|c| (0..n).map(|r| (r * k + c) as f64 * 0.37 - 9.5).collect())
        .collect();
    let slices: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
    let (mut serial_storage, mut pooled_storage) = (Vec::new(), Vec::new());
    let mut serial_out = vec![vec![f64::NAN; n]; k];
    let mut pooled_out = vec![vec![f64::NAN; n]; k];
    let (serial_secs, pooled_secs) = medians_of_5_alternating(
        || {
            let packed = serial_pack(black_box(&slices), std::mem::take(&mut serial_storage));
            let mut outs: Vec<&mut [f64]> = serial_out.iter_mut().map(Vec::as_mut_slice).collect();
            serial_unpack(&packed, &mut outs);
            serial_storage = packed;
        },
        || {
            let packed = DenseMatrix::from_columns(
                n as u32,
                black_box(&slices),
                std::mem::take(&mut pooled_storage),
            )
            .unwrap();
            let mut outs: Vec<&mut [f64]> = pooled_out.iter_mut().map(Vec::as_mut_slice).collect();
            packed.write_columns(&mut outs).unwrap();
            pooled_storage = packed.into_vec();
        },
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&pooled_storage),
        bits(&serial_storage),
        "same packed bits"
    );
    assert_eq!(pooled_out, columns, "the round trip gives the columns back");
    assert_eq!(serial_out, columns);
    let threads = amd_exec::requested_threads();
    let ratio = pooled_secs / serial_secs;
    println!(
        "perf_smoke: n={n} k={k} threads={threads} serial={:.3} ms pooled={:.3} ms ratio={ratio:.2}x",
        serial_secs * 1e3,
        pooled_secs * 1e3,
    );
    if threads >= 2 {
        assert!(
            ratio <= 1.0,
            "pooled pack + unpack ({:.3} ms) must not lose to the serial loops ({:.3} ms), took {ratio:.2}x",
            pooled_secs * 1e3,
            serial_secs * 1e3,
        );
    }
}
