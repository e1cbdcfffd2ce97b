//! Row-major dense matrices for the tall-skinny feature operands.
//!
//! The paper's feature matrix `X ∈ R^{n×k}` with `k ≪ n` is stored
//! row-major so that a block of rows (the unit every distributed algorithm
//! communicates) is contiguous and can be sent without gather/scatter
//! copies.

use crate::error::{SparseError, SparseResult};
use crate::scalar::Scalar;
use crate::spmm::{self, PARALLEL_MIN_WORK};

/// Rows per block of the column ↔ row-major transposes
/// ([`DenseMatrix::from_columns`], [`DenseMatrix::write_columns`]): a block
/// of the row-major side (32 rows × up to 64 `f64` columns = 16 KiB)
/// stays L1-resident while every column contributes one contiguous run.
/// Both passes cut the rows into parts of a multiple of this height and
/// run the parts on the shared `amd-exec` pool
/// ([`transpose_part_rows`]); a part walks its rows block by block.
const TRANSPOSE_ROWS: usize = 32;

/// Rows per part of an `n × k` transpose: one part — the pass stays on
/// the caller — below [`PARALLEL_MIN_WORK`] elements or on a one-thread
/// pool, else [`spmm::part_count`]'s share of the rows rounded up to
/// whole [`TRANSPOSE_ROWS`] blocks. Each element is copied once either
/// way, so the result does not depend on the part count.
fn transpose_part_rows(n: usize, k: usize) -> usize {
    let parts = spmm::part_count(n * k, PARALLEL_MIN_WORK);
    n.div_ceil(parts)
        .next_multiple_of(TRANSPOSE_ROWS)
        .max(TRANSPOSE_ROWS)
}

/// Packs rows `first..` of `columns` into `block` (whole rows of
/// `columns.len()` values), [`TRANSPOSE_ROWS`] rows at a time.
fn pack_rows<T: Scalar>(columns: &[&[T]], first: usize, block: &mut [T]) {
    let k = columns.len();
    let n = block.len() / k;
    for r0 in (0..n).step_by(TRANSPOSE_ROWS) {
        let r1 = (r0 + TRANSPOSE_ROWS).min(n);
        let rows = &mut block[r0 * k..r1 * k];
        for (j, column) in columns.iter().enumerate() {
            for (row, &v) in rows
                .chunks_exact_mut(k)
                .zip(&column[first + r0..first + r1])
            {
                row[j] = v;
            }
        }
    }
}

/// Writes column `j` of the row-major `block` into `columns[j]` (all
/// equally long), [`TRANSPOSE_ROWS`] rows at a time — the inverse of
/// [`pack_rows`].
fn unpack_rows<T: Scalar>(block: &[T], columns: &mut [&mut [T]]) {
    let k = columns.len();
    let n = columns[0].len();
    for r0 in (0..n).step_by(TRANSPOSE_ROWS) {
        let r1 = (r0 + TRANSPOSE_ROWS).min(n);
        let rows = &block[r0 * k..r1 * k];
        for (j, column) in columns.iter_mut().enumerate() {
            for (out, row) in column[r0..r1].iter_mut().zip(rows.chunks_exact(k)) {
                *out = row[j];
            }
        }
    }
}

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T: Scalar = f64> {
    rows: u32,
    cols: u32,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// Zero-filled `rows × cols` matrix.
    pub fn zeros(rows: u32, cols: u32) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::ZERO; rows as usize * cols as usize],
        }
    }

    /// Builds from a row-major data vector.
    pub fn from_vec(rows: u32, cols: u32, data: Vec<T>) -> SparseResult<Self> {
        if data.len() != rows as usize * cols as usize {
            return Err(SparseError::ShapeMismatch {
                left: (rows, cols),
                right: (data.len() as u32, 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: u32, cols: u32, mut f: impl FnMut(u32, u32) -> T) -> Self {
        let mut data = Vec::with_capacity(rows as usize * cols as usize);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Packs `columns` (each `rows` long) side by side: column `j` of the
    /// result is `columns[j]`. A cache-blocked transpose — the way a
    /// batch of single-column queries becomes one multi-RHS operand —
    /// run as row-block parts on the shared `amd-exec` pool (one part on
    /// the caller below [`PARALLEL_MIN_WORK`] elements), into `storage`,
    /// which is cut or grown to `rows × k` but not cleared, since every
    /// element is overwritten: a caller that packs the same shape again
    /// and again passes the previous operand's
    /// [`into_vec`](Self::into_vec) and skips the allocation and first
    /// touch of a fresh buffer (`Vec::new()` otherwise).
    pub fn from_columns(rows: u32, columns: &[&[T]], mut storage: Vec<T>) -> SparseResult<Self> {
        let n = rows as usize;
        let k = columns.len();
        if let Some(bad) = columns.iter().find(|c| c.len() != n) {
            return Err(SparseError::ShapeMismatch {
                left: (rows, k as u32),
                right: (bad.len() as u32, 1),
            });
        }
        if k == 1 {
            storage.clear();
            storage.extend_from_slice(columns[0]);
            return Self::from_vec(rows, 1, storage);
        }
        storage.resize(n * k, T::ZERO);
        if k == 0 {
            return Self::from_vec(rows, 0, storage);
        }
        let part_rows = transpose_part_rows(n, k);
        if part_rows >= n {
            pack_rows(columns, 0, &mut storage);
        } else {
            spmm::for_each_chunk(&mut storage, part_rows * k, |part, block| {
                pack_rows(columns, part * part_rows, block)
            });
        }
        Self::from_vec(rows, k as u32, storage)
    }

    /// Writes column `j` of `self` into `columns[j]` (each `rows` long)
    /// — the inverse of [`from_columns`](Self::from_columns), cut into
    /// the same row-block parts on the shared `amd-exec` pool, into
    /// storage the caller already owns: how a batch's answers go back
    /// into its queries' own vectors. One column is a single copy.
    pub fn write_columns(&self, columns: &mut [&mut [T]]) -> SparseResult<()> {
        let n = self.rows as usize;
        let k = self.cols as usize;
        let bad_len = columns.iter().map(|c| c.len()).find(|&len| len != n);
        if columns.len() != k || bad_len.is_some() {
            return Err(SparseError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (bad_len.unwrap_or(n) as u32, columns.len() as u32),
            });
        }
        if let [only] = columns {
            only.copy_from_slice(&self.data);
            return Ok(());
        }
        if k == 0 {
            return Ok(());
        }
        let part_rows = transpose_part_rows(n, k);
        // One part walks the caller's columns as they are, with no part
        // lists to build.
        if part_rows >= n {
            unpack_rows(&self.data, columns);
            return Ok(());
        }
        // Part `p` holds rows `p · part_rows..` of every column.
        let mut parts: Vec<Vec<&mut [T]>> = (0..n.div_ceil(part_rows))
            .map(|_| Vec::with_capacity(k))
            .collect();
        for column in columns.iter_mut() {
            for (part, piece) in parts.iter_mut().zip(column.chunks_mut(part_rows)) {
                part.push(piece);
            }
        }
        spmm::for_each_part(parts, |part, mut pieces| {
            unpack_rows(&self.data[part * part_rows * k..], &mut pieces)
        });
        Ok(())
    }

    /// The columns of `self`, each as a vector of its own
    /// ([`write_columns`](Self::write_columns) into fresh storage).
    pub fn to_columns(&self) -> Vec<Vec<T>> {
        let mut columns = vec![vec![T::ZERO; self.rows as usize]; self.cols as usize];
        let mut slices: Vec<&mut [T]> = columns.iter_mut().map(Vec::as_mut_slice).collect();
        self.write_columns(&mut slices)
            .expect("one column per matrix column, each one row long");
        columns
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

    /// The underlying row-major storage.
    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the underlying storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes `self` and returns the row-major storage.
    #[inline]
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: u32, c: u32) -> T {
        self.data[r as usize * self.cols as usize + c as usize]
    }

    /// Sets the element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: u32, c: u32, v: T) {
        self.data[r as usize * self.cols as usize + c as usize] = v;
    }

    /// Row `r` as a contiguous slice of length `cols`.
    #[inline]
    pub fn row(&self, r: u32) -> &[T] {
        let k = self.cols as usize;
        &self.data[r as usize * k..(r as usize + 1) * k]
    }

    /// Mutable row slice.
    #[inline]
    pub fn row_mut(&mut self, r: u32) -> &mut [T] {
        let k = self.cols as usize;
        &mut self.data[r as usize * k..(r as usize + 1) * k]
    }

    /// Contiguous block of rows `r0..r1` as a slice.
    #[inline]
    pub fn rows_slice(&self, r0: u32, r1: u32) -> &[T] {
        let k = self.cols as usize;
        &self.data[r0 as usize * k..r1 as usize * k]
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Self) -> SparseResult<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(SparseError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Applies an element-wise function (the paper's `σ`) in place.
    pub fn map_inplace(&mut self, f: impl Fn(T) -> T + Sync) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Frobenius norm (as `f64`).
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|v| v.to_f64() * v.to_f64())
            .sum::<f64>()
            .sqrt()
    }

    /// Maximum absolute element-wise difference to `other`.
    pub fn max_abs_diff(&self, other: &Self) -> SparseResult<f64> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(SparseError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max))
    }

    /// Normalises every column to unit Euclidean norm (no-op on zero
    /// columns). Used by the power-iteration example.
    #[allow(clippy::needless_range_loop)] // strided access, index loops are clearer
    pub fn normalize_columns(&mut self) {
        let k = self.cols as usize;
        let mut norms = vec![0.0f64; k];
        for r in 0..self.rows as usize {
            for c in 0..k {
                let v = self.data[r * k + c].to_f64();
                norms[c] += v * v;
            }
        }
        for n in &mut norms {
            *n = n.sqrt();
        }
        for r in 0..self.rows as usize {
            for c in 0..k {
                if norms[c] > 0.0 {
                    let v = self.data[r * k + c].to_f64() / norms[c];
                    self.data[r * k + c] = T::from_f64(v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = DenseMatrix::<f64>::zeros(3, 2);
        m.set(1, 1, 4.0);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.row(1), &[0.0, 4.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0f64; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0f64; 4]).is_ok());
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = DenseMatrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn columns_round_trip_through_the_blocked_transpose() {
        // 77 rows: two full transpose blocks and a ragged third.
        for k in [0u32, 1, 3, 64] {
            let want = DenseMatrix::from_fn(77, k, |r, c| (r * 100 + c) as f64);
            // Caller-owned storage full of other values.
            let mut columns = vec![vec![f64::NAN; 77]; k as usize];
            let mut outs: Vec<&mut [f64]> = columns.iter_mut().map(Vec::as_mut_slice).collect();
            want.write_columns(&mut outs).unwrap();
            assert_eq!(columns, want.to_columns());
            for (j, column) in columns.iter().enumerate() {
                let expect: Vec<f64> = (0..77).map(|r| want.get(r, j as u32)).collect();
                assert_eq!(column, &expect, "k={k} column {j}");
            }
            let slices: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
            // Reused storage of another shape, full of other values.
            let storage = vec![f64::NAN; 5];
            assert_eq!(
                DenseMatrix::from_columns(77, &slices, storage).unwrap(),
                want
            );
        }
        let mut short = [1.0f64, 2.0];
        assert!(DenseMatrix::from_columns(3, &[&short[..]], Vec::new()).is_err());
        let three = DenseMatrix::from_fn(3, 1, |r, _| r as f64);
        assert!(three.write_columns(&mut [&mut short[..]]).is_err());
        assert!(three.write_columns(&mut []).is_err());
    }

    #[test]
    fn pooled_transposes_match_an_element_loop_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for k in [2usize, 3, 17, 64] {
            // At or above the pool's work floor, in a row count that is
            // not a multiple of a transpose block (so of no part height).
            let n = (PARALLEL_MIN_WORK / k + 1).next_multiple_of(TRANSPOSE_ROWS) + 7;
            assert!(n * k >= PARALLEL_MIN_WORK);
            let rows = n as u32;
            let columns: Vec<Vec<f64>> = (0..k)
                .map(|c| (0..n).map(|r| (r * k + c) as f64 * 0.37 - 1e5).collect())
                .collect();
            let slices: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
            let mut want = Vec::with_capacity(n * k);
            for r in 0..n {
                want.extend(columns.iter().map(|column| column[r]));
            }
            // Recycled storage longer, shorter and as long, all NaN.
            for len in [n * k + 100, 5, n * k] {
                let packed = DenseMatrix::from_columns(rows, &slices, vec![f64::NAN; len]).unwrap();
                assert_eq!((packed.rows(), packed.cols()), (rows, k as u32));
                assert_eq!(bits(packed.data()), bits(&want), "pack, k={k}, len={len}");
            }
            let packed = DenseMatrix::from_vec(rows, k as u32, want.clone()).unwrap();
            let mut outs = vec![vec![f64::NAN; n]; k];
            let mut targets: Vec<&mut [f64]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
            packed.write_columns(&mut targets).unwrap();
            for (j, (got, column)) in outs.iter().zip(&columns).enumerate() {
                assert_eq!(bits(got), bits(column), "unpack, k={k}, column {j}");
            }
        }
    }

    #[test]
    fn add_assign_and_mismatch() {
        let mut a = DenseMatrix::from_fn(2, 2, |_, _| 1.0);
        let b = DenseMatrix::from_fn(2, 2, |_, _| 2.0);
        a.add_assign(&b).unwrap();
        assert_eq!(a.get(0, 0), 3.0);
        let c = DenseMatrix::<f64>::zeros(3, 2);
        assert!(a.add_assign(&c).is_err());
    }

    #[test]
    fn map_inplace_applies_sigma() {
        let mut a = DenseMatrix::from_fn(2, 2, |r, c| (r as f64) - (c as f64));
        a.map_inplace(|v| v.max(0.0)); // ReLU
        assert_eq!(a.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn norms() {
        let m = DenseMatrix::from_vec(2, 1, vec![3.0f64, 4.0]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        let mut n = m.clone();
        n.normalize_columns();
        assert!((n.get(0, 0) - 0.6).abs() < 1e-12);
        assert!((n.get(1, 0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_column_is_noop() {
        let mut m = DenseMatrix::<f64>::zeros(3, 2);
        m.normalize_columns();
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn max_abs_diff() {
        let a = DenseMatrix::from_fn(2, 2, |_, _| 1.0);
        let mut b = a.clone();
        b.set(1, 0, 1.25);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.25);
    }
}
