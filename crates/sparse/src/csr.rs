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

    /// Content fingerprint: a 128-bit hash of the shape and the exact
    /// CSR arrays (column structure and value bit patterns), computed
    /// a 64-bit word at a time.
    ///
    /// It hashes four sections of little-endian `u64` words, in order.
    /// The persisted catalog key depends on this layout:
    ///
    /// 1. the header: `rows | cols << 32`, then `indptr.len()`,
    ///    `indices.len()` and `values.len()`;
    /// 2. `indptr`, each offset as one word;
    /// 3. `indices`, packed two per word: `indices[2j] | indices[2j+1] << 32`,
    ///    with an odd last index alone in the low half;
    /// 4. `values`, each as the bits of its `f64` widening.
    ///
    /// Word `j` of a section goes to lane `j mod 4` of four 64-bit
    /// lanes. Each lane xors the word in, multiplies by an odd
    /// constant and xor-shifts, and every step is a bijection of the
    /// lane. Two different bijective finalizers fold the lanes into
    /// the low and the high 64 bits.
    ///
    /// Guarantees: equal content hashes equal. A change confined to one
    /// word (one value, one offset, one index pair, the column count) is
    /// always detected: it moves exactly one lane, and each half of the
    /// fold is a bijection of any one lane while the other three stay
    /// fixed. Other accidental collisions are negligible. As with any
    /// non-cryptographic hash (FNV-1a included), a deliberately chosen
    /// collision is not resisted.
    ///
    /// Values are compared by bit pattern, which is *stricter* than `==`:
    /// `-0.0` and `+0.0` fingerprint differently, and NaN payloads are
    /// distinguished. For the serving engine's cache that strictness errs
    /// on the safe side: the worst case is a spurious re-decomposition,
    /// never a wrong cache hit.
    pub fn fingerprint(&self) -> u128 {
        let mut lanes = Lanes::new();
        lanes.section::<_, 1>(
            &[
                self.rows as u64 | (self.cols as u64) << 32,
                self.indptr.len() as u64,
                self.indices.len() as u64,
                self.values.len() as u64,
            ],
            |w| w[0],
        );
        lanes.section::<_, 1>(&self.indptr, |w| w[0] as u64);
        lanes.section::<_, 2>(&self.indices, |w| {
            w[0] as u64 | (w.get(1).copied().unwrap_or(0) as u64) << 32
        });
        lanes.section::<_, 1>(&self.values, |w| w[0].to_f64().to_bits());
        lanes.finish()
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

/// The four independent lanes of [`CsrMatrix::fingerprint`]. They run
/// in parallel, so the pass is bound by the multiply's throughput, not
/// by its latency.
struct Lanes([u64; 4]);

impl Lanes {
    /// Odd, so multiplying by it is a bijection of the lane.
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

    fn new() -> Self {
        // Hex digits of π: distinct seeds, so a word sequence fed to two
        // different lanes leaves two different states.
        Self([
            0x243f_6a88_85a3_08d3,
            0x1319_8a2e_0370_7344,
            0xa409_3822_299f_31d0,
            0x082e_fa98_ec4e_6c89,
        ])
    }

    /// One lane step. For a fixed state it is a bijection of the word,
    /// and for a fixed word a bijection of the state.
    #[inline(always)]
    fn absorb(lane: u64, word: u64) -> u64 {
        let x = (lane ^ word).wrapping_mul(Self::MUL);
        x ^ (x >> 32)
    }

    /// Absorbs one section, `N` items per word: word `j` (made by
    /// `word` from items `N·j ..`; the last word may get fewer) goes to
    /// lane `j mod 4`.
    #[inline]
    fn section<S, const N: usize>(&mut self, items: &[S], word: impl Fn(&[S]) -> u64) {
        let [mut a, mut b, mut c, mut d] = self.0;
        let mut quads = items.chunks_exact(4 * N);
        for q in &mut quads {
            a = Self::absorb(a, word(&q[..N]));
            b = Self::absorb(b, word(&q[N..2 * N]));
            c = Self::absorb(c, word(&q[2 * N..3 * N]));
            d = Self::absorb(d, word(&q[3 * N..]));
        }
        self.0 = [a, b, c, d];
        for (lane, w) in self.0.iter_mut().zip(quads.remainder().chunks(N)) {
            *lane = Self::absorb(*lane, word(w));
        }
    }

    /// Folds the lanes into 128 bits. Each half is a bijective
    /// finalizer of a sum in which every lane enters through a
    /// bijection, so a change to one lane moves both halves.
    fn finish(self) -> u128 {
        let [a, b, c, d] = self.0;
        // MurmurHash3's fmix64.
        let mut lo = a ^ b.rotate_left(16) ^ c.rotate_left(32) ^ d.rotate_left(48);
        lo = (lo ^ (lo >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        lo = (lo ^ (lo >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        lo ^= lo >> 33;
        // SplitMix64's finalizer.
        let mut hi = a
            .rotate_left(40)
            .wrapping_add(b.rotate_left(8))
            .wrapping_add(c.rotate_left(56))
            .wrapping_add(d.rotate_left(24));
        hi = (hi ^ (hi >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        hi = (hi ^ (hi >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        hi ^= hi >> 31;
        (hi as u128) << 64 | lo as u128
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
    fn fingerprint_is_pinned() {
        // The fingerprint is the catalog key, stored in every payload
        // header and manifest row. A change to this value strands every
        // catalog written before it, so it must come with a new payload
        // magic (the persisted format) that retires the old files.
        assert_eq!(
            sample().fingerprint(),
            0xe029_c48e_29a2_d1b4_0813_7303_f57a_300b
        );
    }

    #[test]
    fn every_single_word_change_moves_the_lanes() {
        // Streams of 0..12 words, every word, every single-bit flip and
        // a full inversion: the fold of the lanes must move each time.
        let fold = |words: &[u64]| {
            let mut lanes = Lanes::new();
            lanes.section::<_, 1>(words, |w| w[0]);
            lanes.finish()
        };
        for len in 0..12u64 {
            let words: Vec<u64> = (0..len)
                .map(|i| i.wrapping_mul(0x0123_4567_89ab_cdef))
                .collect();
            let base = fold(&words);
            for at in 0..words.len() {
                for flip in (0..64).map(|b| 1u64 << b).chain([u64::MAX]) {
                    let mut changed = words.clone();
                    changed[at] ^= flip;
                    let moved = fold(&changed);
                    assert_ne!(base as u64, moved as u64, "low half, len {len} word {at}");
                    assert_ne!(base >> 64, moved >> 64, "high half, len {len} word {at}");
                }
            }
        }
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
