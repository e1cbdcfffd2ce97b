//! Row-block layout helpers shared by the distributed algorithms, and
//! the one driver that runs them.

use crate::traits::SpmmRun;
use amd_comm::{CostModel, Machine, RankCtx};
use amd_sparse::{DenseMatrix, SparseError, SparseResult};
use std::ops::Range;

/// Runs `program` on `p` ranks of a machine with `cost` for `iters`
/// iterations of an `n`-row operand `x`, and assembles the answer.
///
/// `block(rank)` is where the rank's block of `X`, and of `Y`, lives: the
/// rows of `x` in block order and one column range. Each rank starts from
/// its block, copied out of `x` before the program runs. The initial
/// operand distribution is not charged: all four algorithms start from
/// their natural layout, as in the paper. The program returns the rank's
/// block of `Y`, or `None` where nobody gathers it (a replica, a deeper
/// level), which the rank then drops; the host writes each returned block
/// back where `block` says it lives, so the stats contain exactly the
/// steady-state communication.
pub(crate) fn run_blocks<I, B, P>(
    x: &DenseMatrix<f64>,
    n: u32,
    p: u32,
    cost: CostModel,
    iters: u32,
    block: B,
    program: P,
) -> SparseResult<SpmmRun>
where
    I: ExactSizeIterator<Item = u32>,
    B: Fn(u32) -> (I, Range<usize>) + Sync,
    P: Fn(&mut RankCtx, Vec<f64>) -> Option<Vec<f64>> + Sync,
{
    if x.rows() != n {
        return Err(SparseError::ShapeMismatch {
            left: (n, n),
            right: (x.rows(), x.cols()),
        });
    }
    let report = Machine::new(p).with_cost(cost).run(|ctx| {
        let (rows, cols) = block(ctx.rank());
        let mut x_block = Vec::with_capacity(rows.len() * cols.len());
        for row in rows {
            x_block.extend_from_slice(&x.row(row)[cols.clone()]);
        }
        program(ctx, x_block)
    });
    let mut y = DenseMatrix::zeros(n, x.cols());
    for (rank, y_block) in (0..p).zip(&report.results) {
        let Some(y_block) = y_block else { continue };
        let (rows, cols) = block(rank);
        debug_assert_eq!(y_block.len(), rows.len() * cols.len());
        for (row, values) in rows.zip(y_block.chunks_exact(cols.len().max(1))) {
            y.row_mut(row)[cols.clone()].copy_from_slice(values);
        }
    }
    Ok(SpmmRun {
        y,
        stats: report.stats,
        iters,
    })
}

/// The half-open row range `[start, end)` of block `i` when `n` rows are
/// split into blocks of height `h` (last block ragged).
pub fn block_range(n: u32, h: u32, i: u32) -> (u32, u32) {
    let start = (i * h).min(n);
    let end = ((i + 1) * h).min(n);
    (start, end)
}

/// Number of height-`h` blocks covering `n` rows (≥ 1 even for `n = 0`).
pub fn block_count(n: u32, h: u32) -> u32 {
    n.div_ceil(h).max(1)
}

/// The block holding row `r`.
pub fn block_of(r: u32, h: u32) -> u32 {
    r / h
}

/// Splits `0..n` into `parts` nearly equal contiguous ranges.
pub fn even_ranges(n: u32, parts: u32) -> Vec<(u32, u32)> {
    (0..parts)
        .map(|i| {
            let start = (i as u64 * n as u64 / parts as u64) as u32;
            let end = ((i as u64 + 1) * n as u64 / parts as u64) as u32;
            (start, end)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_rows() {
        assert_eq!(block_range(10, 4, 0), (0, 4));
        assert_eq!(block_range(10, 4, 2), (8, 10));
        assert_eq!(block_range(10, 4, 3), (10, 10)); // out-of-range is empty
        assert_eq!(block_count(10, 4), 3);
        assert_eq!(block_count(8, 4), 2);
        assert_eq!(block_count(0, 4), 1);
        assert_eq!(block_of(9, 4), 2);
    }

    #[test]
    fn even_ranges_partition() {
        let r = even_ranges(10, 3);
        assert_eq!(r, vec![(0, 3), (3, 6), (6, 10)]);
        let total: u32 = r.iter().map(|(a, b)| b - a).sum();
        assert_eq!(total, 10);
        assert_eq!(even_ranges(2, 4).iter().filter(|(a, b)| a != b).count(), 2);
    }
}
