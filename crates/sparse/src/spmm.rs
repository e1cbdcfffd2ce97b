//! Sparse-times-dense multiplication kernels (CSRMM).
//!
//! These are the local, per-rank kernels of the paper's distributed
//! algorithms — the role played by cuSPARSE CSRMM in the original
//! evaluation. The parallel variant splits over blocks of output rows on
//! the shared `amd-exec` pool, which is the natural decomposition for
//! CSR × row-major dense; it is the kernel of the one-rank
//! (shared-memory) serving path.

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::{SparseError, SparseResult};
use crate::scalar::{Dtype, Scalar};
use rayon::prelude::*;

/// Serial `Y = A · X` for CSR `A` and dense `X`.
pub fn spmm<T: Scalar>(a: &CsrMatrix<T>, x: &DenseMatrix<T>) -> SparseResult<DenseMatrix<T>> {
    check_shapes(a, x)?;
    let mut y = DenseMatrix::zeros(a.rows(), x.cols());
    spmm_into(a, x, &mut y);
    Ok(y)
}

/// Serial `Y += A · X` into a pre-allocated output (no allocation).
pub fn spmm_acc<T: Scalar>(
    a: &CsrMatrix<T>,
    x: &DenseMatrix<T>,
    y: &mut DenseMatrix<T>,
) -> SparseResult<()> {
    check_shapes(a, x)?;
    if y.rows() != a.rows() || y.cols() != x.cols() {
        return Err(SparseError::ShapeMismatch {
            left: (a.rows(), x.cols()),
            right: (y.rows(), y.cols()),
        });
    }
    spmm_into(a, x, y);
    Ok(())
}

fn spmm_into<T: Scalar>(a: &CsrMatrix<T>, x: &DenseMatrix<T>, y: &mut DenseMatrix<T>) {
    let k = x.cols() as usize;
    for r in 0..a.rows() {
        let out = y.row_mut(r);
        for (&c, &v) in a.row_indices(r).iter().zip(a.row_values(r)) {
            let xr = x.row(c);
            for j in 0..k {
                out[j] += v * xr[j];
            }
        }
    }
}

/// Steps of serial work below which [`spmm_parallel`] stays on the
/// calling thread, in the unit of [`spmm_work`].
///
/// Derived from the dispatch cost measured on the 2-core reference host:
/// handing row blocks to the pool and joining costs about 15 µs more
/// than not doing so (2 612 entries, `k = 1`: 5 µs serial, 18 µs through
/// the pool), and the serial kernel spends about 0.4 ns per step. `2¹⁸`
/// steps are ≈ 100 µs of serial work — seven dispatches — which is where
/// the measured two-thread speed-up reaches 1.2×; at half that the pool
/// only breaks even, and below it loses.
pub const PARALLEL_MIN_WORK: usize = 1 << 18;

/// Serial cost of `A · X` for a `k`-column operand in kernel steps: every
/// stored entry costs its `k` multiply-adds plus about 8 steps of walking
/// to it (index load, `x` row lookup, loop set-up) — the fixed part is
/// why a `k = 1` multiply is far slower per flop than a `k = 64` one.
pub fn spmm_work(a: &CsrMatrix<f64>, k: u32) -> usize {
    a.nnz().saturating_mul(k as usize + 8)
}

/// Row blocks handed to each pool thread by [`spmm_parallel`]: a few, so
/// that a block of heavy rows (R-MAT hubs) is evened out by the pool's
/// dynamic claiming without paying a dispatch per row.
const BLOCKS_PER_THREAD: usize = 4;

/// `Y = A · X` at `dtype`, **overwriting** the caller's `y`, split over
/// row blocks on the shared `amd-exec` pool.
///
/// Every output row is owned by one block and summed in the order
/// [`spmm`] uses (`0`, then the row's entries in column order), so the
/// result is bit-identical to [`spmm`] at [`Dtype::F64`] and to
/// [`spmm_dtype`] at [`Dtype::F32`] — for any block count and for any
/// previous content of `y`, which lets a caller keep one output buffer
/// across multiplies instead of allocating (and first-touching) a fresh
/// one each time. Work below [`PARALLEL_MIN_WORK`] runs serially with
/// no dispatch at all.
pub fn spmm_parallel(
    a: &CsrMatrix<f64>,
    x: &DenseMatrix<f64>,
    y: &mut DenseMatrix<f64>,
    dtype: Dtype,
) -> SparseResult<()> {
    check_shapes(a, x)?;
    if y.rows() != a.rows() || y.cols() != x.cols() {
        return Err(SparseError::ShapeMismatch {
            left: (a.rows(), x.cols()),
            right: (y.rows(), y.cols()),
        });
    }
    let k = x.cols() as usize;
    let n = a.rows() as usize;
    if n == 0 || k == 0 {
        return Ok(());
    }
    let threads = if spmm_work(a, x.cols()) < PARALLEL_MIN_WORK {
        1
    } else {
        rayon::current_num_threads()
    };
    if threads <= 1 {
        fill_rows(a, x, 0, y.data_mut(), dtype);
        return Ok(());
    }
    let block_rows = n.div_ceil(threads * BLOCKS_PER_THREAD);
    y.data_mut()
        .par_chunks_mut(block_rows * k)
        .enumerate()
        .for_each(|(block, rows)| fill_rows(a, x, (block * block_rows) as u32, rows, dtype));
    Ok(())
}

/// Overwrites `rows` (whole output rows starting at row `first`) with the
/// matching rows of `A · X`.
fn fill_rows(a: &CsrMatrix<f64>, x: &DenseMatrix<f64>, first: u32, rows: &mut [f64], dtype: Dtype) {
    let k = x.cols() as usize;
    for (r, out) in (first..).zip(rows.chunks_mut(k)) {
        out.fill(0.0);
        let entries = a.row_indices(r).iter().zip(a.row_values(r));
        match dtype {
            Dtype::F64 => {
                for (&c, &v) in entries {
                    for (o, &xv) in out.iter_mut().zip(x.row(c)) {
                        *o += v * xv;
                    }
                }
            }
            Dtype::F32 => {
                for (&c, &v) in entries {
                    let v32 = v as f32;
                    for (o, &xv) in out.iter_mut().zip(x.row(c)) {
                        *o += (v32 * xv as f32) as f64;
                    }
                }
            }
        }
    }
}

/// Serial `Y += A · X` at a selectable serving precision, over `f64`
/// containers.
///
/// `Dtype::F64` is exactly [`spmm_acc`]. `Dtype::F32` emulates the
/// half-bandwidth kernel of an f32 serving rank: matrix values and gathered
/// `x` entries are narrowed to `f32` and multiplied in `f32`, while the
/// running sums stay `f64` — which is the wire format the simulated machine
/// transports between ranks, so cross-rank reduction order and precision
/// are unchanged. Each emulated product therefore carries relative error at
/// most `(1 + u)³ − 1` with `u = 2⁻²⁴` (narrow `a`, narrow `x`, round the
/// product); see the error-bound helpers in `arrow-core` for the summed
/// per-entry bound.
pub fn spmm_acc_dtype(
    a: &CsrMatrix<f64>,
    x: &DenseMatrix<f64>,
    y: &mut DenseMatrix<f64>,
    dtype: Dtype,
) -> SparseResult<()> {
    if dtype == Dtype::F64 {
        return spmm_acc(a, x, y);
    }
    check_shapes(a, x)?;
    if y.rows() != a.rows() || y.cols() != x.cols() {
        return Err(SparseError::ShapeMismatch {
            left: (a.rows(), x.cols()),
            right: (y.rows(), y.cols()),
        });
    }
    let k = x.cols() as usize;
    for r in 0..a.rows() {
        let out = y.row_mut(r);
        for (&c, &v) in a.row_indices(r).iter().zip(a.row_values(r)) {
            let v32 = v as f32;
            let xr = x.row(c);
            for j in 0..k {
                out[j] += (v32 * xr[j] as f32) as f64;
            }
        }
    }
    Ok(())
}

/// Allocating variant of [`spmm_acc_dtype`]: `Y = A · X` at `dtype`.
pub fn spmm_dtype(
    a: &CsrMatrix<f64>,
    x: &DenseMatrix<f64>,
    dtype: Dtype,
) -> SparseResult<DenseMatrix<f64>> {
    let mut y = DenseMatrix::zeros(a.rows(), x.cols());
    spmm_acc_dtype(a, x, &mut y, dtype)?;
    Ok(y)
}

/// Flop count of `A · X`: 2 · nnz(A) · k, the quantity charged to the
/// simulated compute clock by the distributed algorithms.
pub fn spmm_flops<T: Scalar>(a: &CsrMatrix<T>, k: u32) -> f64 {
    2.0 * a.nnz() as f64 * k as f64
}

/// Dense reference multiply used by tests: `O(n² k)`, only for tiny inputs.
pub fn spmm_dense_reference<T: Scalar>(
    a: &CsrMatrix<T>,
    x: &DenseMatrix<T>,
) -> SparseResult<DenseMatrix<T>> {
    check_shapes(a, x)?;
    let mut y = DenseMatrix::zeros(a.rows(), x.cols());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            let v = a.get(r, c);
            if v != T::ZERO {
                for j in 0..x.cols() {
                    let cur = y.get(r, j);
                    y.set(r, j, cur + v * x.get(c, j));
                }
            }
        }
    }
    Ok(y)
}

fn check_shapes<T: Scalar>(a: &CsrMatrix<T>, x: &DenseMatrix<T>) -> SparseResult<()> {
    if a.cols() != x.rows() {
        return Err(SparseError::ShapeMismatch {
            left: (a.rows(), a.cols()),
            right: (x.rows(), x.cols()),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn small() -> (CsrMatrix<f64>, DenseMatrix<f64>) {
        // A = [0 1; 2 3], X = [1 2; 3 4]
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 2.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        let x = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        (coo.to_csr(), x)
    }

    #[test]
    fn serial_matches_hand_computation() {
        let (a, x) = small();
        let y = spmm(&a, &x).unwrap();
        // Y = [3 4; 11 16]
        assert_eq!(y.data(), &[3.0, 4.0, 11.0, 16.0]);
    }

    #[test]
    fn parallel_matches_serial() {
        let (a, x) = small();
        let ys = spmm(&a, &x).unwrap();
        // Overwrites whatever the buffer held.
        let mut yp = DenseMatrix::from_fn(2, 2, |_, _| f64::NAN);
        spmm_parallel(&a, &x, &mut yp, Dtype::F64).unwrap();
        assert_eq!(ys, yp);
    }

    /// A matrix heavy enough to take the pool path ([`spmm_work`] above
    /// [`PARALLEL_MIN_WORK`]) with a row count that no block count
    /// divides, non-integer values, and empty rows.
    fn heavy() -> (CsrMatrix<f64>, DenseMatrix<f64>) {
        let n = 1031u32;
        let mut coo = CooMatrix::new(n, n);
        for r in (0..n).filter(|r| r % 17 != 3) {
            for d in 0..5u32 {
                let c = (r * 7 + d * 131 + 1) % n;
                coo.push(r, c, ((r + 3 * d) % 11) as f64 / 7.0 - 0.6)
                    .unwrap();
            }
        }
        let x = DenseMatrix::from_fn(n, 64, |r, c| ((r * 5 + c * 3) % 13) as f64 / 3.0 - 2.0);
        (coo.to_csr(), x)
    }

    #[test]
    fn parallel_blocks_bit_match_serial_in_both_dtypes() {
        let (a, x) = heavy();
        assert!(spmm_work(&a, x.cols()) >= PARALLEL_MIN_WORK);
        for dtype in [Dtype::F64, Dtype::F32] {
            let want = spmm_dtype(&a, &x, dtype).unwrap();
            let mut got = DenseMatrix::from_fn(a.rows(), x.cols(), |r, c| (r + c) as f64);
            spmm_parallel(&a, &x, &mut got, dtype).unwrap();
            assert_eq!(got, want, "{dtype}");
            // Reusing the buffer changes nothing.
            spmm_parallel(&a, &x, &mut got, dtype).unwrap();
            assert_eq!(got, want, "{dtype}, reused buffer");
        }
    }

    #[test]
    fn parallel_rejects_a_misshapen_output_and_accepts_empty_operands() {
        let (a, x) = small();
        let mut bad = DenseMatrix::<f64>::zeros(3, 2);
        assert!(spmm_parallel(&a, &x, &mut bad, Dtype::F64).is_err());
        let x0 = DenseMatrix::<f64>::zeros(2, 0);
        let mut y0 = DenseMatrix::<f64>::zeros(2, 0);
        spmm_parallel(&a, &x0, &mut y0, Dtype::F64).unwrap();
    }

    #[test]
    fn dense_reference_matches() {
        let (a, x) = small();
        assert_eq!(spmm(&a, &x).unwrap(), spmm_dense_reference(&a, &x).unwrap());
    }

    #[test]
    fn accumulating_variant_adds() {
        let (a, x) = small();
        let mut y = DenseMatrix::from_fn(2, 2, |_, _| 100.0);
        spmm_acc(&a, &x, &mut y).unwrap();
        assert_eq!(y.data(), &[103.0, 104.0, 111.0, 116.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (a, _) = small();
        let bad = DenseMatrix::<f64>::zeros(3, 2);
        assert!(spmm(&a, &bad).is_err());
        let mut y = DenseMatrix::<f64>::zeros(3, 2);
        let x = DenseMatrix::<f64>::zeros(2, 2);
        assert!(spmm_acc(&a, &x, &mut y).is_err());
    }

    #[test]
    fn rectangular_spmm() {
        // 2x3 sparse times 3x1 dense
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 2, 1.0).unwrap();
        coo.push(1, 0, 2.0).unwrap();
        let a = coo.to_csr();
        let x = DenseMatrix::from_vec(3, 1, vec![5.0, 6.0, 7.0]).unwrap();
        let y = spmm(&a, &x).unwrap();
        assert_eq!(y.data(), &[7.0, 10.0]);
    }

    #[test]
    fn empty_matrix_gives_zero_output() {
        let a = CsrMatrix::<f64>::zeros(4, 4);
        let x = DenseMatrix::from_fn(4, 3, |r, c| (r + c) as f64);
        let y = spmm(&a, &x).unwrap();
        assert_eq!(y.frobenius_norm(), 0.0);
    }

    #[test]
    fn flop_count() {
        let (a, _) = small();
        assert_eq!(spmm_flops(&a, 2), 2.0 * 3.0 * 2.0);
    }

    #[test]
    fn dtype_f64_is_exact_spmm() {
        let (a, x) = small();
        assert_eq!(
            spmm_dtype(&a, &x, Dtype::F64).unwrap(),
            spmm(&a, &x).unwrap()
        );
    }

    #[test]
    fn dtype_f32_exact_on_small_integers() {
        // Integer data well inside f32's 24-bit mantissa is exact.
        let (a, x) = small();
        assert_eq!(
            spmm_dtype(&a, &x, Dtype::F32).unwrap(),
            spmm(&a, &x).unwrap()
        );
    }

    #[test]
    fn dtype_f32_narrows_products() {
        // 0.1 is not representable in f32, so the emulated product must
        // differ from the f64 one — and match the hand-narrowed value.
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 0.1).unwrap();
        let a = coo.to_csr();
        let x = DenseMatrix::from_vec(1, 1, vec![0.3]).unwrap();
        let y = spmm_dtype(&a, &x, Dtype::F32).unwrap();
        assert_eq!(y.get(0, 0), (0.1f32 * 0.3f32) as f64);
        assert_ne!(y.get(0, 0), 0.1 * 0.3);
    }

    #[test]
    fn dtype_shape_mismatch_rejected() {
        let (a, _) = small();
        let bad = DenseMatrix::<f64>::zeros(3, 2);
        assert!(spmm_dtype(&a, &bad, Dtype::F32).is_err());
        let x = DenseMatrix::<f64>::zeros(2, 2);
        let mut y = DenseMatrix::<f64>::zeros(3, 2);
        assert!(spmm_acc_dtype(&a, &x, &mut y, Dtype::F32).is_err());
    }
}
