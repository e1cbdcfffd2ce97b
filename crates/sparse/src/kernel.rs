//! Fused active-prefix level kernels for the arrow decomposition multiply.
//!
//! The decomposition multiply `AX = Σᵢ P_πᵢ (Bᵢ (Pᵀ_πᵢ X))` was historically
//! executed level by level as three materialised passes — permute `X`,
//! banded SpMM, permute back — each touching `O(n·k)` memory even when the
//! level's *active prefix* (the leading `active_n` positions that can host
//! nonzeros) is tiny, as it is for spliced levels produced by incremental
//! refresh. The kernels here fuse the three passes into one:
//!
//! ```text
//! y[order[p]] += Σ_c B[p, c] · x[order[c]]      for p < active_n
//! ```
//!
//! The row gather `x[order[c]]` *is* the permutation `Pᵀ_πᵢ X`, the scatter
//! through `order[p]` *is* `P_πᵢ`, and nothing outside the active prefix is
//! read or written. The arithmetic is the crate's one row walker
//! ([`crate::spmm`]) in its gathering, [`Finish::Fold`] form, fed
//! `(row, slot)` pairs: the serial kernel walks positions `0..active_n`
//! as one contiguous run of `indptr` and sends each to the `y` row of its
//! vertex; the parallel one takes, per chunk of `y` rows, the active
//! positions of those vertices. A row's sum (at `k = 1`) or its sums for
//! up to 16 columns of `X` are built in registers across the row's
//! nonzeros and added to `y` once — there is no accumulator buffer, on the
//! heap or anywhere else, and no block width to choose.
//!
//! # Exactness
//!
//! Both kernels are **bit-identical** to the unfused three-pass reference
//! for every non-NaN input, not merely for integer data. Per output element
//! the reference computes `acc = 0; acc += v₀·x₀; acc += v₁·x₁; …` inside
//! the level SpMM and then performs one `y += acc`; the fused kernels run
//! the exact same operation sequence per element (a strip's sums start at
//! `+0.0` and are folded into `y` once). Skipping rows
//! outside the active prefix is exact because those rows are structurally
//! empty — the reference adds exactly `+0.0` there — and an IEEE-754
//! round-to-nearest accumulation seeded with `+0.0` can never produce
//! `-0.0`, so dropping the `+0.0` addition cannot flip a sign.

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::{SparseError, SparseResult};
use crate::scalar::{Dtype, Scalar};
use crate::spmm::{for_each_chunk, pairs_of, run_of, strips, Finish, Operands};

fn check_level_shapes<T: Scalar>(
    matrix: &CsrMatrix<T>,
    order: &[u32],
    active_n: u32,
    x: &DenseMatrix<T>,
    y: &DenseMatrix<T>,
) -> SparseResult<()> {
    if active_n > matrix.rows() || matrix.cols() as usize > order.len() {
        return Err(SparseError::ShapeMismatch {
            left: (matrix.rows(), matrix.cols()),
            right: (active_n, order.len() as u32),
        });
    }
    if x.rows() as usize != order.len() || y.rows() != x.rows() || y.cols() != x.cols() {
        return Err(SparseError::ShapeMismatch {
            left: (x.rows(), x.cols()),
            right: (y.rows(), y.cols()),
        });
    }
    Ok(())
}

/// Serial fused level accumulate: `y[order[p]] += Σ_c B[p, c]·x[order[c]]`
/// for every position `p` in the active prefix.
///
/// `matrix` is the level's matrix in position coordinates, `order` the
/// level arrangement's position→vertex map ([`crate::Permutation::order`]),
/// and `active_n` its active-prefix length; rows at positions `≥ active_n`
/// must be structurally empty.
pub fn fused_level_acc<T: Scalar>(
    matrix: &CsrMatrix<T>,
    order: &[u32],
    active_n: u32,
    x: &DenseMatrix<T>,
    y: &mut DenseMatrix<T>,
) -> SparseResult<()> {
    check_level_shapes(matrix, order, active_n, x, y)?;
    let k = x.cols() as usize;
    if k == 0 {
        return Ok(());
    }
    let ops = Operands {
        a: matrix,
        x: x.data(),
        k,
    };
    // Positions `0..active_n` in order, each into its vertex's row.
    let rows = run_of(matrix, 0..active_n).map(|(entries, p)| (entries, order[p] as usize));
    strips(
        ops,
        Some(order),
        rows,
        y.data_mut(),
        Finish::Fold,
        Dtype::F64,
    );
    Ok(())
}

/// Rayon-parallel fused level accumulate, splitting over output row blocks.
///
/// Identical arithmetic to [`fused_level_acc`] — each output row is owned
/// by exactly one task (positions and vertices are in bijection, so no two
/// active positions scatter to the same `y` row), and the per-row operation
/// sequence is unchanged, which keeps the parallel variant bit-identical to
/// the serial one. `positions` is the vertex→position map
/// ([`crate::Permutation::positions`]) matching `order`.
pub fn fused_level_acc_parallel<T: Scalar>(
    matrix: &CsrMatrix<T>,
    positions: &[u32],
    order: &[u32],
    active_n: u32,
    x: &DenseMatrix<T>,
    y: &mut DenseMatrix<T>,
    rows_per_chunk: usize,
) -> SparseResult<()> {
    check_level_shapes(matrix, order, active_n, x, y)?;
    if positions.len() != order.len() {
        return Err(SparseError::ShapeMismatch {
            left: (positions.len() as u32, 1),
            right: (order.len() as u32, 1),
        });
    }
    let k = x.cols() as usize;
    if k == 0 {
        return Ok(());
    }
    let ops = Operands {
        a: matrix,
        x: x.data(),
        k,
    };
    let chunk_rows = rows_per_chunk.max(1);
    for_each_chunk(y.data_mut(), chunk_rows * k, |chunk, out| {
        // Output row `at` of this chunk is the vertex at position `p`.
        let rows = positions[chunk * chunk_rows..][..out.len() / k]
            .iter()
            .zip(0..)
            .filter(|&(&p, _)| p < active_n)
            .map(|(&p, at)| (p, at));
        strips(
            ops,
            Some(order),
            pairs_of(matrix, rows),
            out,
            Finish::Fold,
            Dtype::F64,
        );
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permutation::Permutation;
    use crate::spmm;
    use crate::CooMatrix;

    /// A small "level": a banded matrix in position coordinates with an
    /// active prefix, plus a non-trivial arrangement.
    fn level(n: u32, active_n: u32) -> (CsrMatrix<f64>, Permutation) {
        let mut coo = CooMatrix::new(n, n);
        for p in 0..active_n {
            for q in p.saturating_sub(2)..(p + 3).min(active_n) {
                coo.push(p, q, ((p * 31 + q * 7) % 13) as f64 - 6.0)
                    .unwrap();
            }
        }
        let pos: Vec<u32> = (0..n).map(|v| (v * 7 + 3) % n).collect();
        (coo.to_csr(), Permutation::from_positions(pos).unwrap())
    }

    fn unfused(
        matrix: &CsrMatrix<f64>,
        perm: &Permutation,
        x: &DenseMatrix<f64>,
        y: &mut DenseMatrix<f64>,
    ) {
        let px = perm.apply_rows(x).unwrap();
        let yi = spmm::spmm(matrix, &px).unwrap();
        let back = perm.unapply_rows(&yi).unwrap();
        y.add_assign(&back).unwrap();
    }

    #[test]
    fn fused_bit_matches_unfused() {
        let (m, perm) = level(40, 17);
        // Every strip width alone and the greedy mixes of them.
        for k in [1, 3, 4, 9, 16, 29, 37] {
            let x = DenseMatrix::from_fn(40, k, |r, c| ((r * 9 + c) % 11) as f64 / 3.0 - 1.5);
            let mut want = DenseMatrix::zeros(40, k);
            unfused(&m, &perm, &x, &mut want);
            let mut got = DenseMatrix::zeros(40, k);
            fused_level_acc(&m, perm.order(), 17, &x, &mut got).unwrap();
            assert_eq!(got, want, "k={k}");
        }
    }

    #[test]
    fn parallel_bit_matches_serial() {
        let (m, perm) = level(64, 23);
        let x = DenseMatrix::from_fn(64, 5, |r, c| ((r * 5 + c) % 17) as f64 * 0.25 - 2.0);
        let mut serial = DenseMatrix::zeros(64, 5);
        fused_level_acc(&m, perm.order(), 23, &x, &mut serial).unwrap();
        for rows_per_chunk in [1, 7, 64] {
            let mut par = DenseMatrix::zeros(64, 5);
            fused_level_acc_parallel(
                &m,
                perm.positions(),
                perm.order(),
                23,
                &x,
                &mut par,
                rows_per_chunk,
            )
            .unwrap();
            assert_eq!(par, serial, "rows_per_chunk={rows_per_chunk}");
        }
    }

    #[test]
    fn accumulates_into_existing_output() {
        let (m, perm) = level(20, 20);
        let x = DenseMatrix::from_fn(20, 3, |r, c| (r + c) as f64);
        let mut y = DenseMatrix::from_fn(20, 3, |_, _| 10.0);
        let mut want = DenseMatrix::from_fn(20, 3, |_, _| 10.0);
        unfused(&m, &perm, &x, &mut want);
        fused_level_acc(&m, perm.order(), 20, &x, &mut y).unwrap();
        assert_eq!(y, want);
    }

    #[test]
    fn f32_kernel_runs() {
        let (m64, perm) = level(16, 9);
        let m = CsrMatrix::<f32>::from_raw_unchecked(
            m64.rows(),
            m64.cols(),
            m64.indptr().to_vec(),
            m64.indices().to_vec(),
            m64.values().iter().map(|&v| v as f32).collect(),
        );
        let x = DenseMatrix::<f32>::from_fn(16, 4, |r, c| (r * 4 + c) as f32);
        let mut y = DenseMatrix::<f32>::zeros(16, 4);
        fused_level_acc(&m, perm.order(), 9, &x, &mut y).unwrap();
        // Integer-valued data stays exact in f32 at this scale.
        let x64 = DenseMatrix::from_fn(16, 4, |r, c| (r * 4 + c) as f64);
        let mut want = DenseMatrix::zeros(16, 4);
        unfused(&m64, &perm, &x64, &mut want);
        for v in 0..16u32 {
            for j in 0..4u32 {
                assert_eq!(y.get(v, j) as f64, want.get(v, j));
            }
        }
    }

    #[test]
    fn zero_width_rhs_is_a_no_op() {
        let (m, perm) = level(10, 5);
        let x = DenseMatrix::<f64>::zeros(10, 0);
        let mut y = DenseMatrix::<f64>::zeros(10, 0);
        fused_level_acc(&m, perm.order(), 5, &x, &mut y).unwrap();
    }

    #[test]
    fn shape_mismatches_rejected() {
        let (m, perm) = level(12, 6);
        let x = DenseMatrix::<f64>::zeros(11, 2);
        let mut y = DenseMatrix::<f64>::zeros(11, 2);
        assert!(fused_level_acc(&m, perm.order(), 6, &x, &mut y).is_err());
        let x = DenseMatrix::<f64>::zeros(12, 2);
        let mut y = DenseMatrix::<f64>::zeros(12, 3);
        assert!(fused_level_acc(&m, perm.order(), 6, &x, &mut y).is_err());
        let mut y = DenseMatrix::<f64>::zeros(12, 2);
        assert!(fused_level_acc(&m, perm.order(), 13, &x, &mut y).is_err());
        assert!(fused_level_acc_parallel(&m, &[0; 5], perm.order(), 6, &x, &mut y, 8).is_err());
    }
}
