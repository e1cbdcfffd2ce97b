//! Compressed sparse row matrices.

use crate::error::{SparseError, SparseResult};
use crate::scalar::Scalar;

/// A sparse matrix in CSR format with sorted, unique column indices per row.
///
/// Storage is `m` in the values, `m` in the column indices, and `n + 1` row
/// offsets — exactly the accounting used by Lemma 7 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T: Scalar = f64> {
    rows: u32,
    cols: u32,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Builds from raw parts, validating all CSR invariants.
    pub fn from_raw(
        rows: u32,
        cols: u32,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<T>,
    ) -> SparseResult<Self> {
        if indptr.len() != rows as usize + 1 {
            return Err(SparseError::InvalidCsr(format!(
                "indptr length {} != rows + 1 = {}",
                indptr.len(),
                rows + 1
            )));
        }
        if indptr[0] != 0 {
            return Err(SparseError::InvalidCsr("indptr[0] != 0".into()));
        }
        if *indptr.last().unwrap() != indices.len() {
            return Err(SparseError::InvalidCsr(format!(
                "indptr[last] = {} != nnz = {}",
                indptr.last().unwrap(),
                indices.len()
            )));
        }
        if indices.len() != values.len() {
            return Err(SparseError::InvalidCsr(format!(
                "indices length {} != values length {}",
                indices.len(),
                values.len()
            )));
        }
        for w in indptr.windows(2) {
            if w[0] > w[1] {
                return Err(SparseError::InvalidCsr("indptr not monotone".into()));
            }
        }
        for r in 0..rows as usize {
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::InvalidCsr(format!(
                        "row {r} columns not strictly increasing"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last >= cols {
                    return Err(SparseError::InvalidCsr(format!(
                        "row {r} has column {last} >= cols {cols}"
                    )));
                }
            }
        }
        Ok(Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Builds from raw parts without validation.
    ///
    /// Callers must uphold the CSR invariants (used internally by
    /// conversions that construct valid structure by design).
    pub fn from_raw_unchecked(
        rows: u32,
        cols: u32,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<T>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), rows as usize + 1);
        debug_assert_eq!(indices.len(), values.len());
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// An empty `rows × cols` matrix (all zeros).
    pub fn zeros(rows: u32, cols: u32) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; rows as usize + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: u32) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n as usize).collect(),
            indices: (0..n).collect(),
            values: vec![T::ONE; n as usize],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row offset array (`rows + 1` entries).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column index array.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Value array.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Column indices of row `r`.
    #[inline]
    pub fn row_indices(&self, r: u32) -> &[u32] {
        &self.indices[self.indptr[r as usize]..self.indptr[r as usize + 1]]
    }

    /// Values of row `r`.
    #[inline]
    pub fn row_values(&self, r: u32) -> &[T] {
        &self.values[self.indptr[r as usize]..self.indptr[r as usize + 1]]
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: u32) -> usize {
        self.indptr[r as usize + 1] - self.indptr[r as usize]
    }

    /// Value at `(r, c)`, `T::ZERO` if not stored. Binary search: `O(log row_nnz)`.
    pub fn get(&self, r: u32, c: u32) -> T {
        let row = self.row_indices(r);
        match row.binary_search(&c) {
            Ok(pos) => self.row_values(r)[pos],
            Err(_) => T::ZERO,
        }
    }

    /// Mutable access to the stored value at `(r, c)`, or `None` if the
    /// position is not stored (including out-of-range coordinates). Only
    /// the value can change — the sparsity structure stays fixed — which
    /// is exactly the contract of the streaming layer's in-place patch
    /// path.
    pub fn get_mut(&mut self, r: u32, c: u32) -> Option<&mut T> {
        if r >= self.rows || c >= self.cols {
            return None;
        }
        let start = self.indptr[r as usize];
        let row = &self.indices[start..self.indptr[r as usize + 1]];
        match row.binary_search(&c) {
            Ok(pos) => Some(&mut self.values[start + pos]),
            Err(_) => None,
        }
    }

    /// Iterates over `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, T)> + '_ {
        (0..self.rows).flat_map(move |r| {
            self.row_indices(r)
                .iter()
                .zip(self.row_values(r))
                .map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Converts back to a COO builder.
    pub fn to_coo(&self) -> crate::CooMatrix<T> {
        let mut coo = crate::CooMatrix::with_capacity(self.rows, self.cols, self.nnz());
        for (r, c, v) in self.iter() {
            coo.push(r, c, v).expect("CSR indices are in bounds");
        }
        coo
    }

    /// Removes explicitly stored zeros.
    pub fn prune_zeros(&self) -> Self {
        let mut indptr = Vec::with_capacity(self.rows as usize + 1);
        let mut indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        indptr.push(0);
        for r in 0..self.rows {
            for (&c, &v) in self.row_indices(r).iter().zip(self.row_values(r)) {
                if v != T::ZERO {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Self::from_raw_unchecked(self.rows, self.cols, indptr, indices, values)
    }

    /// Number of rows that contain at least one stored entry.
    pub fn nonzero_row_count(&self) -> u32 {
        (0..self.rows).filter(|&r| self.row_nnz(r) > 0).count() as u32
    }

    /// Extracts the submatrix of rows `r0..r1` and columns `c0..c1` as a new
    /// CSR matrix of shape `(r1 - r0) × (c1 - c0)`.
    pub fn submatrix(&self, r0: u32, r1: u32, c0: u32, c1: u32) -> Self {
        assert!(r0 <= r1 && r1 <= self.rows, "row range out of bounds");
        assert!(c0 <= c1 && c1 <= self.cols, "column range out of bounds");
        let mut indptr = Vec::with_capacity((r1 - r0) as usize + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for r in r0..r1 {
            let cols = self.row_indices(r);
            // Columns are sorted: binary search the window once per row.
            let lo = cols.partition_point(|&c| c < c0);
            let hi = cols.partition_point(|&c| c < c1);
            #[allow(clippy::needless_range_loop)] // indexes two slices in lockstep
            for i in lo..hi {
                indices.push(cols[i] - c0);
                values.push(self.row_values(r)[i]);
            }
            indptr.push(indices.len());
        }
        Self::from_raw_unchecked(r1 - r0, c1 - c0, indptr, indices, values)
    }

    /// Content fingerprint: a 128-bit FNV-1a hash over the shape and the
    /// exact CSR arrays (column structure and value bit patterns).
    ///
    /// Bit-identical content hashes equal; any structural or numeric
    /// change — a permutation, a perturbed value, an added entry — changes
    /// the fingerprint (up to the 2⁻¹²⁸ collision probability of the
    /// hash). Values are compared by bit pattern, which is *stricter*
    /// than `==`: `-0.0` and `+0.0` fingerprint differently, and NaN
    /// payloads are distinguished. For the serving engine's cache that
    /// strictness errs on the safe side — the worst case is a spurious
    /// re-decomposition, never a wrong cache hit.
    pub fn fingerprint(&self) -> u128 {
        const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
        const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
        #[inline]
        fn eat(h: &mut u128, bytes: &[u8]) {
            for &b in bytes {
                *h ^= b as u128;
                *h = h.wrapping_mul(PRIME);
            }
        }
        let mut h = OFFSET;
        eat(&mut h, &self.rows.to_le_bytes());
        eat(&mut h, &self.cols.to_le_bytes());
        for &off in &self.indptr {
            eat(&mut h, &(off as u64).to_le_bytes());
        }
        for &c in &self.indices {
            eat(&mut h, &c.to_le_bytes());
        }
        for v in &self.values {
            eat(&mut h, &v.to_f64().to_bits().to_le_bytes());
        }
        h
    }

    /// Maximum absolute difference to `other` over all positions.
    ///
    /// Both matrices must have the same shape; complexity `O(nnz)`.
    pub fn max_abs_diff(&self, other: &Self) -> SparseResult<f64> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(SparseError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut max = 0.0f64;
        for r in 0..self.rows {
            let (ai, av) = (self.row_indices(r), self.row_values(r));
            let (bi, bv) = (other.row_indices(r), other.row_values(r));
            let (mut x, mut y) = (0usize, 0usize);
            while x < ai.len() || y < bi.len() {
                let d = if y >= bi.len() || (x < ai.len() && ai[x] < bi[y]) {
                    let d = av[x].to_f64().abs();
                    x += 1;
                    d
                } else if x >= ai.len() || bi[y] < ai[x] {
                    let d = bv[y].to_f64().abs();
                    y += 1;
                    d
                } else {
                    let d = (av[x].to_f64() - bv[y].to_f64()).abs();
                    x += 1;
                    y += 1;
                    d
                };
                if d > max {
                    max = d;
                }
            }
        }
        Ok(max)
    }
}

/// CSR arrays under construction, appended row by row.
///
/// For producers that already emit every row's entries in ascending
/// column order (a run of a sorted row, a monotone renumbering of one):
/// nothing is staged, sorted or merged, so what [`finish`](Self::finish)
/// returns is exactly what was pushed. Keeping the order is the caller's
/// duty (debug builds check it).
#[derive(Debug, Clone)]
pub struct CsrBuilder<T: Scalar = f64> {
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<T>,
}

impl<T: Scalar> CsrBuilder<T> {
    /// An empty builder with room for `rows` rows and `nnz` entries.
    pub fn with_capacity(rows: usize, nnz: usize) -> Self {
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0);
        Self {
            indptr,
            indices: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    /// Appends an entry to the open row.
    #[inline]
    pub fn push(&mut self, col: u32, value: T) {
        debug_assert!(
            self.indices.len() == self.indptr[self.indptr.len() - 1]
                || self.indices[self.indices.len() - 1] < col,
            "columns of a row must be pushed in ascending order"
        );
        self.indices.push(col);
        self.values.push(value);
    }

    /// Appends a run of entries (ascending columns) to the open row.
    pub fn extend(&mut self, cols: &[u32], values: &[T]) {
        debug_assert_eq!(cols.len(), values.len());
        self.indices.extend_from_slice(cols);
        self.values.extend_from_slice(values);
    }

    /// Closes the open row and opens the next.
    #[inline]
    pub fn end_row(&mut self) {
        self.indptr.push(self.indices.len());
    }

    /// The column indices pushed so far, for a renumbering that keeps
    /// every row's order (and that [`finish`](Self::finish)'s `cols`
    /// bounds).
    pub fn indices_mut(&mut self) -> &mut [u32] {
        &mut self.indices
    }

    /// The matrix of the rows closed so far, `cols` columns wide.
    pub fn finish(self, cols: u32) -> CsrMatrix<T> {
        debug_assert!(self.indices.iter().all(|&c| c < cols));
        let rows = (self.indptr.len() - 1) as u32;
        CsrMatrix::from_raw_unchecked(rows, cols, self.indptr, self.indices, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn sample() -> CsrMatrix<f64> {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        coo.push(2, 0, 3.0).unwrap();
        coo.push(2, 1, 4.0).unwrap();
        coo.to_csr()
    }

    #[test]
    fn accessors() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.get(2, 1), 4.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.nonzero_row_count(), 2);
    }

    #[test]
    fn identity_works() {
        let id = CsrMatrix::<f64>::identity(4);
        assert_eq!(id.nnz(), 4);
        for i in 0..4 {
            assert_eq!(id.get(i, i), 1.0);
        }
    }

    #[test]
    fn get_mut_patches_stored_values_only() {
        let mut m = sample();
        *m.get_mut(2, 1).unwrap() += 1.5;
        assert_eq!(m.get(2, 1), 5.5);
        assert!(
            m.get_mut(1, 1).is_none(),
            "structural zero is not patchable"
        );
        assert!(m.get_mut(3, 0).is_none(), "out-of-range row is None");
        assert!(m.get_mut(0, 3).is_none(), "out-of-range column is None");
        assert_eq!(m.nnz(), 4, "patching must not change the structure");
    }

    #[test]
    fn iter_roundtrip_via_coo() {
        let m = sample();
        let back = m.to_coo().to_csr();
        assert_eq!(m, back);
    }

    #[test]
    fn from_raw_validation() {
        // indptr wrong length
        assert!(CsrMatrix::<f64>::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // indptr non-monotone
        assert!(
            CsrMatrix::<f64>::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err()
        );
        // unsorted columns
        assert!(CsrMatrix::<f64>::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err());
        // duplicate columns
        assert!(CsrMatrix::<f64>::from_raw(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).is_err());
        // column out of range
        assert!(CsrMatrix::<f64>::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // valid
        assert!(
            CsrMatrix::<f64>::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).is_ok()
        );
    }

    #[test]
    fn submatrix_extracts_window() {
        let m = sample();
        let sub = m.submatrix(0, 2, 1, 3);
        assert_eq!(sub.rows(), 2);
        assert_eq!(sub.cols(), 2);
        assert_eq!(sub.get(0, 1), 2.0); // (0,2) shifted left by 1
        assert_eq!(sub.nnz(), 1);
    }

    #[test]
    fn submatrix_full_is_identity_op() {
        let m = sample();
        assert_eq!(m.submatrix(0, 3, 0, 3), m);
    }

    #[test]
    fn prune_zeros_drops_explicit_zeros() {
        let m = CsrMatrix::from_raw(1, 3, vec![0, 3], vec![0, 1, 2], vec![1.0, 0.0, 2.0]).unwrap();
        let p = m.prune_zeros();
        assert_eq!(p.nnz(), 2);
        assert_eq!(p.get(0, 1), 0.0);
        assert_eq!(p.get(0, 2), 2.0);
    }

    #[test]
    fn max_abs_diff_detects_differences() {
        let a = sample();
        let mut coo = a.to_coo();
        coo.push(1, 1, 0.5).unwrap();
        let b = coo.to_csr();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.5);
        assert_eq!(a.max_abs_diff(&a).unwrap(), 0.0);
    }

    #[test]
    fn max_abs_diff_shape_mismatch() {
        let a = sample();
        let b = CsrMatrix::<f64>::zeros(2, 2);
        assert!(a.max_abs_diff(&b).is_err());
    }

    #[test]
    fn builder_reproduces_a_matrix_row_by_row() {
        let mut coo = crate::CooMatrix::<f64>::new(3, 5);
        for (r, c, v) in [
            (0, 1, 1.0),
            (0, 4, 2.0),
            (2, 0, 3.0),
            (2, 2, 4.0),
            (2, 3, 5.0),
        ] {
            coo.push(r, c, v).unwrap();
        }
        let a = coo.to_csr();
        let mut b = CsrBuilder::with_capacity(3, a.nnz());
        for r in 0..3 {
            // Entry by entry for one row, as a run for the others.
            if r == 0 {
                for (&c, &v) in a.row_indices(r).iter().zip(a.row_values(r)) {
                    b.push(c, v);
                }
            } else {
                b.extend(a.row_indices(r), a.row_values(r));
            }
            b.end_row();
        }
        assert_eq!(b.clone().finish(5), a);
        // A monotone renumbering keeps the matrix valid.
        b.indices_mut().iter_mut().for_each(|c| *c *= 2);
        let spread = b.finish(10);
        assert_eq!(spread.row_indices(2), &[0, 4, 6]);
        assert_eq!(CsrBuilder::<f64>::with_capacity(0, 0).finish(4).rows(), 0);
    }
}
