//! Structural matrix algebra on CSR matrices: addition, subtraction,
//! transpose, and symmetrisation.
//!
//! The decomposition validator uses these to check `Σ P_π B Pᵀ_π = A`
//! exactly (the paper's defining identity in §4).

use crate::csr::CsrMatrix;
use crate::error::{SparseError, SparseResult};
use crate::scalar::Scalar;

/// `A + B` as a new CSR matrix.
pub fn add<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> SparseResult<CsrMatrix<T>> {
    merge(a, b, |x, y| x + y, false)
}

/// `A − B` as a new CSR matrix.
pub fn sub<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> SparseResult<CsrMatrix<T>> {
    merge(a, b, |x, y| x - y, false)
}

/// Folds an additive delta into a base matrix: `A + ΔA`, with positions
/// whose sum is exactly zero dropped from the result.
///
/// This is the compaction step of the streaming layer: merging is a
/// row-wise two-pointer walk (each row's entries combine in ascending
/// column order, one addition per shared position), so for a fixed pair
/// of operands the result is deterministic — the "fixed reduction order"
/// the corrected multiply path is verified against. Dropping exact zeros
/// means a delta that removes an edge really shrinks the structure. The
/// zeros are dropped during the walk, so the result's arrays are
/// allocated once.
pub fn apply_delta<T: Scalar>(
    a: &CsrMatrix<T>,
    delta: &CsrMatrix<T>,
) -> SparseResult<CsrMatrix<T>> {
    merge(a, delta, |x, y| x + y, true)
}

/// The row-wise two-pointer walk behind [`add`], [`sub`] and
/// [`apply_delta`]; with `prune`, combined values that are exactly zero
/// are not stored.
fn merge<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    combine: impl Fn(T, T) -> T,
    prune: bool,
) -> SparseResult<CsrMatrix<T>> {
    if a.rows() != b.rows() || a.cols() != b.cols() {
        return Err(SparseError::ShapeMismatch {
            left: (a.rows(), a.cols()),
            right: (b.rows(), b.cols()),
        });
    }
    let mut indptr = Vec::with_capacity(a.rows() as usize + 1);
    let mut indices = Vec::with_capacity(a.nnz() + b.nnz());
    let mut values = Vec::with_capacity(a.nnz() + b.nnz());
    indptr.push(0usize);
    for r in 0..a.rows() {
        let (ai, av) = (a.row_indices(r), a.row_values(r));
        let (bi, bv) = (b.row_indices(r), b.row_values(r));
        let (mut x, mut y) = (0usize, 0usize);
        let mut push = |c: u32, v: T| {
            if !prune || v != T::ZERO {
                indices.push(c);
                values.push(v);
            }
        };
        while x < ai.len() || y < bi.len() {
            if y >= bi.len() || (x < ai.len() && ai[x] < bi[y]) {
                push(ai[x], combine(av[x], T::ZERO));
                x += 1;
            } else if x >= ai.len() || bi[y] < ai[x] {
                push(bi[y], combine(T::ZERO, bv[y]));
                y += 1;
            } else {
                push(ai[x], combine(av[x], bv[y]));
                x += 1;
                y += 1;
            }
        }
        indptr.push(indices.len());
    }
    Ok(CsrMatrix::from_raw_unchecked(
        a.rows(),
        a.cols(),
        indptr,
        indices,
        values,
    ))
}

/// `Aᵀ` as a new CSR matrix, `O(nnz + n)`.
pub fn transpose<T: Scalar>(a: &CsrMatrix<T>) -> CsrMatrix<T> {
    let rows = a.cols();
    let mut counts = vec![0usize; rows as usize + 1];
    for &c in a.indices() {
        counts[c as usize + 1] += 1;
    }
    for i in 0..rows as usize {
        counts[i + 1] += counts[i];
    }
    let indptr = counts.clone();
    let mut indices = vec![0u32; a.nnz()];
    let mut values = vec![T::ZERO; a.nnz()];
    let mut next = counts;
    for r in 0..a.rows() {
        for (&c, &v) in a.row_indices(r).iter().zip(a.row_values(r)) {
            let slot = next[c as usize];
            indices[slot] = r;
            values[slot] = v;
            next[c as usize] += 1;
        }
    }
    CsrMatrix::from_raw_unchecked(rows, a.rows(), indptr, indices, values)
}

/// `true` if the matrix equals its transpose structurally and numerically.
pub fn is_symmetric<T: Scalar>(a: &CsrMatrix<T>) -> bool {
    if a.rows() != a.cols() {
        return false;
    }
    transpose(a) == *a
}

/// `(A + Aᵀ)` with duplicate positions summed; produces a symmetric matrix
/// from a directed edge list.
pub fn symmetrize<T: Scalar>(a: &CsrMatrix<T>) -> SparseResult<CsrMatrix<T>> {
    add(a, &transpose(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn m(entries: &[(u32, u32, f64)], shape: (u32, u32)) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(shape.0, shape.1);
        for &(r, c, v) in entries {
            coo.push(r, c, v).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn add_disjoint_and_overlapping() {
        let a = m(&[(0, 0, 1.0), (1, 2, 2.0)], (2, 3));
        let b = m(&[(0, 1, 3.0), (1, 2, 4.0)], (2, 3));
        let s = add(&a, &b).unwrap();
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(0, 1), 3.0);
        assert_eq!(s.get(1, 2), 6.0);
        assert_eq!(s.nnz(), 3);
    }

    #[test]
    fn sub_gives_explicit_zero() {
        let a = m(&[(0, 0, 1.0)], (1, 1));
        let d = sub(&a, &a).unwrap();
        assert_eq!(d.nnz(), 1); // explicit zero retained
        assert_eq!(d.get(0, 0), 0.0);
        assert_eq!(d.prune_zeros().nnz(), 0);
    }

    #[test]
    fn shape_mismatch() {
        let a = m(&[], (2, 2));
        let b = m(&[], (3, 2));
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn transpose_rectangular() {
        let a = m(&[(0, 2, 1.0), (1, 0, 2.0)], (2, 3));
        let t = transpose(&a);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 0), 1.0);
        assert_eq!(t.get(0, 1), 2.0);
        assert_eq!(transpose(&t), a);
    }

    #[test]
    fn symmetry_detection() {
        let sym = m(&[(0, 1, 2.0), (1, 0, 2.0)], (2, 2));
        assert!(is_symmetric(&sym));
        let asym = m(&[(0, 1, 2.0)], (2, 2));
        assert!(!is_symmetric(&asym));
        let rect = m(&[], (2, 3));
        assert!(!is_symmetric(&rect));
    }

    #[test]
    fn symmetrize_directed_edges() {
        let a = m(&[(0, 1, 1.0)], (2, 2));
        let s = symmetrize(&a).unwrap();
        assert!(is_symmetric(&s));
        assert_eq!(s.get(0, 1), 1.0);
        assert_eq!(s.get(1, 0), 1.0);
    }

    #[test]
    fn apply_delta_merges_and_prunes() {
        let a = m(&[(0, 0, 1.0), (1, 2, 2.0)], (2, 3));
        // Removes (1,2), perturbs (0,0), inserts (0,1).
        let delta = m(&[(1, 2, -2.0), (0, 0, 0.5), (0, 1, 3.0)], (2, 3));
        let merged = apply_delta(&a, &delta).unwrap();
        assert_eq!(merged.nnz(), 2);
        assert_eq!(merged.get(0, 0), 1.5);
        assert_eq!(merged.get(0, 1), 3.0);
        assert_eq!(merged.get(1, 2), 0.0);
        // Empty delta is the identity.
        let empty = CsrMatrix::<f64>::zeros(2, 3);
        assert_eq!(apply_delta(&a, &empty).unwrap(), a);
        // Shape mismatch is rejected.
        assert!(apply_delta(&a, &CsrMatrix::<f64>::zeros(3, 3)).is_err());
        // Pruning during the walk stores what pruning the sum does:
        // explicit zeros on either side, a cancellation, a −0.0 sum.
        let a = m(
            &[(0, 0, 0.0), (0, 2, 1.0), (1, 1, -0.0), (1, 2, 2.0)],
            (2, 3),
        );
        let delta = m(
            &[(0, 1, 0.0), (0, 2, -1.0), (1, 0, 4.0), (1, 2, 0.25)],
            (2, 3),
        );
        let pruned = add(&a, &delta).unwrap().prune_zeros();
        assert_eq!(apply_delta(&a, &delta).unwrap(), pruned);
        assert_eq!(pruned.nnz(), 2);
    }

    #[test]
    fn transpose_empty() {
        let a = CsrMatrix::<f64>::zeros(3, 5);
        let t = transpose(&a);
        assert_eq!((t.rows(), t.cols(), t.nnz()), (5, 3, 0));
    }
}
