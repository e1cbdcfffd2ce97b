//! Tiled arrow matrices (Figure 2 of the paper).
//!
//! An arrow matrix `B` of width `b` is tiled into `b × b` blocks `B(i,j)`.
//! Nonzeros live in three tile families:
//!
//! * row-arm tiles `B(0,j)` for `j = 0..nb`,
//! * column-arm tiles `B(i,0)` for `i = 1..nb`,
//! * diagonal tiles `B(i,i)` for `i = 1..nb`.
//!
//! In the distributed algorithm (Algorithm 1), rank `i` owns `B(0,i)`,
//! `B(i,0)` and `B(i,i)` plus the feature-matrix slice `D(i)`. The hub
//! tile `B(0,0)` is rank 0's in the paper; `amd-spmm` splits its rows
//! over the level's ranks, each multiplying its run of this one stored
//! tile in place (no rank keeps a second copy of any row).
//!
//! # Layout and determinism
//!
//! Tiling never sorts: a CSR row's columns ascend, so the part of a row
//! that falls in one tile is a run of it, already in order, and a tile
//! receives its rows in order. [`ArrowMatrix::from_leading_block`] therefore makes a
//! count pass (entries per tile, which is also where an entry outside the
//! pattern is found) and a fill pass that appends each run to its tile's
//! CSR arrays. Every tile is a function of the input's arrays alone.

use amd_sparse::{CooMatrix, CsrBuilder, CsrMatrix, SparseError, SparseResult};

/// An arrow matrix in tiled form. Value type is `f64` (the distributed
/// pipeline's numeric type).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrowMatrix {
    n: u32,
    b: u32,
    /// `row_tiles[j]` = `B(0,j)`; `row_tiles[0]` is the top-left corner
    /// tile holding both arms' overlap and the first band block.
    row_tiles: Vec<CsrMatrix<f64>>,
    /// `col_tiles[i - 1]` = `B(i,0)` for `i ≥ 1`.
    col_tiles: Vec<CsrMatrix<f64>>,
    /// `diag_tiles[i - 1]` = `B(i,i)` for `i ≥ 1`.
    diag_tiles: Vec<CsrMatrix<f64>>,
}

impl ArrowMatrix {
    /// Builds the tiled form of the leading `n × n` block of a square CSR
    /// matrix, without copying the block out first, when the block's
    /// nonzeros all lie in the arrow pattern for width `b` (first `b`
    /// rows, first `b` columns, or a diagonal `b × b` block). Entries
    /// outside the block are not part of it and are not looked at.
    ///
    /// Returns an error if any entry of the block falls outside the
    /// pattern.
    pub fn from_leading_block(a: &CsrMatrix<f64>, n: u32, b: u32) -> SparseResult<Self> {
        if a.rows() != a.cols() {
            return Err(SparseError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (a.cols(), a.rows()),
            });
        }
        if n > a.rows() {
            return Err(SparseError::InvalidCsr(format!(
                "leading block of {n} rows requested from a matrix of {}",
                a.rows()
            )));
        }
        if b == 0 {
            return Err(SparseError::InvalidCsr(
                "arrow width must be at least 1".into(),
            ));
        }
        // A row of the block: the columns below `n` are a prefix.
        let block_row = |r: u32| {
            let cols = a.row_indices(r);
            let len = cols.partition_point(|&c| c < n);
            (&cols[..len], &a.row_values(r)[..len])
        };
        let nb = block_count(n, b);
        let tile_len = |i: u32| b.min(n - i * b);
        let arm = b.min(n);

        // Count pass. The arm rows spread over every row tile; a later
        // block row feeds its column tile and its diagonal tile only.
        let mut row_nnz = vec![0usize; nb as usize];
        let mut col_nnz = vec![0usize; nb as usize];
        let mut diag_nnz = vec![0usize; nb as usize];
        for r in 0..arm {
            for &c in block_row(r).0 {
                row_nnz[(c / b) as usize] += 1;
            }
        }
        for r in arm..n {
            let bi = r / b;
            let lo = bi * b;
            for &c in block_row(r).0 {
                if c < b {
                    col_nnz[bi as usize] += 1;
                } else if c >= lo && c - lo < b {
                    diag_nnz[bi as usize] += 1;
                } else {
                    return Err(SparseError::InvalidCsr(format!(
                        "entry ({r}, {c}) outside arrow pattern for width {b}"
                    )));
                }
            }
        }

        // Fill pass.
        let mut row_tiles: Vec<CsrBuilder> = row_nnz
            .iter()
            .map(|&nnz| CsrBuilder::with_capacity(arm as usize, nnz))
            .collect();
        for r in 0..arm {
            let (cols, vals) = block_row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let bj = c / b;
                row_tiles[bj as usize].push(c - bj * b, v);
            }
            row_tiles.iter_mut().for_each(CsrBuilder::end_row);
        }
        let mut col_tiles = Vec::with_capacity(nb as usize - 1);
        let mut diag_tiles = Vec::with_capacity(nb as usize - 1);
        for bi in 1..nb {
            let (lo, len) = (bi * b, tile_len(bi));
            let mut col = CsrBuilder::with_capacity(len as usize, col_nnz[bi as usize]);
            let mut diag = CsrBuilder::with_capacity(len as usize, diag_nnz[bi as usize]);
            for r in lo..lo + len {
                let (cols, vals) = block_row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    if c < b {
                        col.push(c, v);
                    } else {
                        diag.push(c - lo, v);
                    }
                }
                col.end_row();
                diag.end_row();
            }
            col_tiles.push(col.finish(arm));
            diag_tiles.push(diag.finish(len));
        }
        Ok(Self {
            n,
            b,
            row_tiles: (0..nb)
                .zip(row_tiles)
                .map(|(j, tile)| tile.finish(tile_len(j)))
                .collect(),
            col_tiles,
            diag_tiles,
        })
    }

    /// Matrix dimension `n`.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Arrow width / tile size `b`.
    #[inline]
    pub fn b(&self) -> u32 {
        self.b
    }

    /// Number of block rows `⌈n/b⌉`.
    #[inline]
    pub fn block_count(&self) -> u32 {
        block_count(self.n, self.b)
    }

    /// Row-arm tile `B(0,j)`.
    pub fn row_tile(&self, j: u32) -> &CsrMatrix<f64> {
        &self.row_tiles[j as usize]
    }

    /// Column-arm tile `B(i,0)` for `i ≥ 1`.
    pub fn col_tile(&self, i: u32) -> &CsrMatrix<f64> {
        assert!(i >= 1, "column tiles start at block row 1");
        &self.col_tiles[i as usize - 1]
    }

    /// Diagonal tile `B(i,i)` for `i ≥ 1` (`B(0,0)` is `row_tile(0)`).
    pub fn diag_tile(&self, i: u32) -> &CsrMatrix<f64> {
        assert!(i >= 1, "diagonal tiles start at block row 1");
        &self.diag_tiles[i as usize - 1]
    }

    /// Total stored entries across all tiles.
    pub fn nnz(&self) -> usize {
        self.row_tiles.iter().map(CsrMatrix::nnz).sum::<usize>()
            + self.col_tiles.iter().map(CsrMatrix::nnz).sum::<usize>()
            + self.diag_tiles.iter().map(CsrMatrix::nnz).sum::<usize>()
    }

    /// Number of tiles holding at least one nonzero — the quantity the
    /// §7.2 block-count comparison reports.
    pub fn nonzero_tiles(&self) -> usize {
        self.row_tiles.iter().filter(|t| t.nnz() > 0).count()
            + self.col_tiles.iter().filter(|t| t.nnz() > 0).count()
            + self.diag_tiles.iter().filter(|t| t.nnz() > 0).count()
    }

    /// Reassembles the full `n × n` CSR matrix (for validation).
    pub fn to_csr(&self) -> CsrMatrix<f64> {
        let b = self.b;
        let mut coo = CooMatrix::with_capacity(self.n, self.n, self.nnz());
        for (j, t) in self.row_tiles.iter().enumerate() {
            for (r, c, v) in t.iter() {
                coo.push(r, c + j as u32 * b, v)
                    .expect("tile entry in range");
            }
        }
        for (idx, t) in self.col_tiles.iter().enumerate() {
            let i = idx as u32 + 1;
            for (r, c, v) in t.iter() {
                // Skip duplicates with the row arm (impossible: r offset ≥ b).
                coo.push(r + i * b, c, v).expect("tile entry in range");
            }
        }
        for (idx, t) in self.diag_tiles.iter().enumerate() {
            let i = idx as u32 + 1;
            for (r, c, v) in t.iter() {
                coo.push(r + i * b, c + i * b, v)
                    .expect("tile entry in range");
            }
        }
        coo.to_csr()
    }
}

/// `⌈n/b⌉`, with a minimum of 1 so even empty matrices have a tile.
pub fn block_count(n: u32, b: u32) -> u32 {
    n.div_ceil(b).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amd_sparse::arrow_width;

    // Helper building an arrow-pattern CSR: arms of width 2 + block diag.
    fn arrow_csr(n: u32, b: u32) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        // Row arm, column arm.
        for j in 0..n {
            coo.push(0, j, (j + 1) as f64).unwrap();
            if j >= b {
                coo.push(j, 1, 0.5).unwrap();
            }
        }
        // Block-diagonal entries.
        for blk in 1..(n / b) {
            let base = blk * b;
            coo.push(base, base + 1, 2.0).unwrap();
            coo.push(base + 1, base, 2.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn roundtrip_preserves_matrix() {
        let a = arrow_csr(12, 3);
        let arrow = ArrowMatrix::from_leading_block(&a, a.rows(), 3).unwrap();
        assert_eq!(arrow.to_csr(), a);
        assert_eq!(arrow.nnz(), a.nnz());
        assert_eq!(arrow.block_count(), 4);
    }

    #[test]
    fn rejects_entries_outside_pattern() {
        let mut coo = CooMatrix::new(9, 9);
        coo.push(4, 8, 1.0).unwrap(); // blocks (1, 2): off-pattern for b=3
        let a = coo.to_csr();
        assert!(ArrowMatrix::from_leading_block(&a, a.rows(), 3).is_err());
    }

    #[test]
    fn accepts_all_arm_and_diag_positions() {
        let a = arrow_csr(12, 4);
        let arrow = ArrowMatrix::from_leading_block(&a, a.rows(), 4).unwrap();
        // Arrow width of the reassembled matrix is ≤ b by construction.
        assert!(arrow_width(&arrow.to_csr()) <= 4 + 3); // block diag ⇒ |i−j| < b
                                                        // Tile accessors.
        assert!(arrow.row_tile(0).nnz() > 0);
        assert!(arrow.col_tile(1).nnz() > 0);
        let _ = arrow.diag_tile(1);
    }

    #[test]
    fn ragged_last_tile() {
        // n = 10, b = 4 → blocks of 4, 4, 2.
        let a = arrow_csr(10, 4);
        let arrow = ArrowMatrix::from_leading_block(&a, a.rows(), 4).unwrap();
        assert_eq!(arrow.block_count(), 3);
        assert_eq!(arrow.row_tile(2).cols(), 2);
        assert_eq!(arrow.diag_tile(2).rows(), 2);
        assert_eq!(arrow.to_csr(), a);
    }

    #[test]
    fn nonzero_tile_counting() {
        let mut coo = CooMatrix::new(12, 12);
        coo.push(0, 0, 1.0).unwrap(); // tile (0,0)
        coo.push(5, 0, 1.0).unwrap(); // col tile (1,0)
        coo.push(9, 10, 1.0).unwrap(); // diag tile (3,3) with b=3? 9/3=3 ✓
        let a = coo.to_csr();
        let arrow = ArrowMatrix::from_leading_block(&a, a.rows(), 3).unwrap();
        assert_eq!(arrow.nonzero_tiles(), 3);
    }

    #[test]
    fn leading_block_equals_tiling_the_copied_block() {
        let a = arrow_csr(12, 3);
        for m in [0u32, 1, 3, 7, 9, 12] {
            let copied = a.submatrix(0, m, 0, m);
            assert_eq!(
                ArrowMatrix::from_leading_block(&a, m, 3).unwrap(),
                ArrowMatrix::from_leading_block(&copied, copied.rows(), 3).unwrap(),
                "m = {m}"
            );
        }
        assert!(ArrowMatrix::from_leading_block(&a, 13, 3).is_err());
    }

    #[test]
    fn zero_width_is_an_error_not_a_panic() {
        let a = arrow_csr(12, 3);
        assert!(matches!(
            ArrowMatrix::from_leading_block(&a, a.rows(), 0),
            Err(SparseError::InvalidCsr(_))
        ));
    }

    #[test]
    fn rectangular_input_rejected() {
        let a = CsrMatrix::<f64>::zeros(3, 4);
        assert!(ArrowMatrix::from_leading_block(&a, a.rows(), 2).is_err());
    }

    #[test]
    fn width_one_arrowhead() {
        // b = 1: classic arrowhead matrix.
        let mut coo = CooMatrix::new(5, 5);
        for j in 1..5 {
            coo.push(0, j, 1.0).unwrap();
            coo.push(j, 0, 1.0).unwrap();
            coo.push(j, j, 2.0).unwrap();
        }
        let a = coo.to_csr();
        let arrow = ArrowMatrix::from_leading_block(&a, a.rows(), 1).unwrap();
        assert_eq!(arrow.block_count(), 5);
        assert_eq!(arrow.to_csr(), a);
    }
}
