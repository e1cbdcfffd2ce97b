//! Row-major dense matrices for the tall-skinny feature operands.
//!
//! The paper's feature matrix `X ∈ R^{n×k}` with `k ≪ n` is stored
//! row-major so that a block of rows (the unit every distributed algorithm
//! communicates) is contiguous and can be sent without gather/scatter
//! copies.

use crate::error::{SparseError, SparseResult};
use crate::scalar::Scalar;

/// Rows per block of the column ↔ row-major transposes
/// ([`DenseMatrix::from_columns`], [`DenseMatrix::write_columns`]): a block
/// of the row-major side (32 rows × up to 64 `f64` columns = 16 KiB)
/// stays L1-resident while every column contributes one contiguous run.
const TRANSPOSE_ROWS: usize = 32;

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
    /// into `storage`, which is emptied and regrown as needed: a caller
    /// that packs the same shape again and again passes the previous
    /// operand's [`into_vec`](Self::into_vec) and skips the allocation
    /// and first touch of a fresh buffer (`Vec::new()` otherwise).
    pub fn from_columns(rows: u32, columns: &[&[T]], mut storage: Vec<T>) -> SparseResult<Self> {
        let n = rows as usize;
        let k = columns.len();
        if let Some(bad) = columns.iter().find(|c| c.len() != n) {
            return Err(SparseError::ShapeMismatch {
                left: (rows, k as u32),
                right: (bad.len() as u32, 1),
            });
        }
        storage.clear();
        if k == 1 {
            storage.extend_from_slice(columns[0]);
            return Self::from_vec(rows, 1, storage);
        }
        storage.resize(n * k, T::ZERO);
        for r0 in (0..n).step_by(TRANSPOSE_ROWS) {
            let r1 = (r0 + TRANSPOSE_ROWS).min(n);
            let block = &mut storage[r0 * k..r1 * k];
            for (j, column) in columns.iter().enumerate() {
                for (row, &v) in block.chunks_exact_mut(k).zip(&column[r0..r1]) {
                    row[j] = v;
                }
            }
        }
        Self::from_vec(rows, k as u32, storage)
    }

    /// Writes column `j` of `self` into `columns[j]` (each `rows` long)
    /// — the inverse of [`from_columns`](Self::from_columns), blocked the
    /// same way, into storage the caller already owns: how a batch's
    /// answers go back into its queries' own vectors. One column is a
    /// single copy.
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
        for r0 in (0..n).step_by(TRANSPOSE_ROWS) {
            let r1 = (r0 + TRANSPOSE_ROWS).min(n);
            let block = &self.data[r0 * k..r1 * k];
            for (j, column) in columns.iter_mut().enumerate() {
                for (out, row) in column[r0..r1].iter_mut().zip(block.chunks_exact(k)) {
                    *out = row[j];
                }
            }
        }
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

    /// Copies rows `r0..r1` into a new matrix.
    pub fn row_block(&self, r0: u32, r1: u32) -> Self {
        assert!(r0 <= r1 && r1 <= self.rows);
        Self {
            rows: r1 - r0,
            cols: self.cols,
            data: self.rows_slice(r0, r1).to_vec(),
        }
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
    fn row_block_copies_contiguously() {
        let m = DenseMatrix::from_fn(4, 2, |r, _| r as f64);
        let b = m.row_block(1, 3);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.data(), &[1.0, 1.0, 2.0, 2.0]);
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
