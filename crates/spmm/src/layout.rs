//! The one driver that runs the distributed algorithms, the work their
//! step lists carry, and the row-block layout helpers they share.

use crate::arrow::{add_rows, Fold};
use crate::traits::{apply_sigma, Sigma, SpmmRun};
use amd_comm::{execute, CostModel, Machine, Step, Work};
use amd_sparse::spmm::{self, Finish};
use amd_sparse::{CsrMatrix, DenseMatrix, Dtype, SparseError, SparseResult};
use std::ops::Range;
use std::sync::Arc;

/// A rank's buffers, by the part each plays in an iteration; every step
/// names the ones it acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Buf {
    /// The rank's block of the operand (Arrow's, with the rows it
    /// fetches): scattered into before the first iteration, gathered from
    /// after the last.
    X,
    /// Rows received from peers: a broadcast tile of `X` or `D(0)`, or
    /// HP-1D's fetched rows.
    Recv,
    /// Arrow's `D(i)`, cut from an operand that holds more rows.
    Block,
    /// A partial sum.
    Partial,
    /// The rank's block of `Y`.
    Y,
    /// Arrow's inbox: the product rows placed on the rank and the rows
    /// returned to it.
    Inbox,
}

/// How many buffers a rank has.
const BUFS: usize = Buf::Inbox as usize + 1;

/// A multiply: `y (+)= tile · x` — the rows `rows` of `tile` into the
/// same rows of `y`, `x` read through `gather` if given (a map is read
/// for whole tiles only) — on `k`-column buffers at `dtype`, finished as
/// `finish` says; an overwrite makes `y` exactly as tall as its rows end.
#[derive(Debug, Clone)]
pub(crate) struct Multiply<'a> {
    pub tile: &'a CsrMatrix<f64>,
    pub rows: Range<u32>,
    pub gather: Option<&'a [u32]>,
    pub x: Buf,
    pub y: Buf,
    pub k: u32,
    pub finish: Finish,
    pub dtype: Dtype,
}

impl<'a> Multiply<'a> {
    /// `y (+)= tile · x` over the whole tile, read directly.
    pub(crate) fn new(
        tile: &'a CsrMatrix<f64>,
        [x, y]: [Buf; 2],
        k: u32,
        finish: Finish,
        dtype: Dtype,
    ) -> Self {
        let (rows, gather) = (0..tile.rows(), None);
        Self {
            tile,
            rows,
            gather,
            x,
            y,
            k,
            finish,
            dtype,
        }
    }

    /// The multiply as a step.
    pub(crate) fn step(self) -> Step<'a, Kernel<'a>> {
        Step::Compute(Kernel::Multiply(self))
    }
}

/// The local work of an SpMM algorithm's step: a multiply, charged its
/// flops, or an uncharged step that moves or reshapes buffers.
#[derive(Debug, Clone)]
pub(crate) enum Kernel<'a> {
    Multiply(Multiply<'a>),
    /// The buffer becomes that many zeros.
    Zero(Buf, usize),
    /// The buffer keeps that many values, zeros past its own: Arrow's
    /// operand, before the rows it fetches arrive.
    Resize(Buf, usize),
    /// The second buffer becomes a copy of the first one's first values:
    /// Arrow's `D(i)`, cut from its operand.
    Head(Buf, Buf, usize),
    /// The two buffers trade places.
    Swap(Buf, Buf),
    /// The second buffer takes the first one's, which is left empty.
    Move(Buf, Buf),
    /// The run's σ on the buffer.
    Sigma(Buf),
    /// Arrow: a deeper level's rows completed in the inbox, `k` columns
    /// wide.
    Fold(&'a Fold, usize),
    /// Arrow: `Y[row] += Inbox[slot]` for each `(row, slot)`, `k` columns
    /// wide.
    Add(&'a [(u32, u32)], usize),
}

impl Work for Kernel<'_> {
    fn flops(&self) -> Option<f64> {
        let Kernel::Multiply(m) = self else {
            return None;
        };
        let (indptr, rows) = (m.tile.indptr(), &m.rows);
        let nnz = indptr[rows.end as usize] - indptr[rows.start as usize];
        Some(2.0 * nnz as f64 * m.k as f64)
    }

    /// A multiply reads `x`, and `y` unless it overwrites it from its
    /// first row, and writes `y`; an add reads the inbox and `Y` and
    /// writes `Y`; a head reads its source and writes its target; a zero
    /// only writes its buffer; every other step reads and writes each
    /// buffer it names.
    fn buffers(&self) -> Option<[u64; 2]> {
        let bit = |buf: Buf| 1 << buf as u32;
        Some(match *self {
            Kernel::Multiply(ref m) => {
                let over = m.finish == Finish::Overwrite && m.rows.start == 0;
                let y = if over { 0 } else { bit(m.y) };
                [bit(m.x) | y, bit(m.y)]
            }
            Kernel::Zero(buf, _) => [0, bit(buf)],
            Kernel::Resize(buf, _) | Kernel::Sigma(buf) => [bit(buf); 2],
            Kernel::Head(from, to, _) => [bit(from), bit(to)],
            Kernel::Swap(a, b) | Kernel::Move(a, b) => [bit(a) | bit(b); 2],
            Kernel::Fold(..) => [bit(Buf::Inbox); 2],
            Kernel::Add(..) => [bit(Buf::Inbox) | bit(Buf::Y), bit(Buf::Y)],
        })
    }
}

/// A rank's steps in one iteration.
pub(crate) type List<'a> = Vec<Step<'a, Kernel<'a>>>;

/// Every rank's steps in one iteration.
pub(crate) type Lists<'a> = Vec<List<'a>>;

/// `buf` for a step to overwrite: its own allocation unless a peer still
/// shares it, never a copy.
fn fresh(buf: &mut Arc<Vec<f64>>) -> &mut Vec<f64> {
    if Arc::get_mut(buf).is_none() {
        *buf = Arc::default();
    }
    Arc::get_mut(buf).expect("a buffer of its own")
}

impl Kernel<'_> {
    /// Does the work on a rank's buffers, under the run's `sigma`.
    fn run(&self, bufs: &mut [Arc<Vec<f64>>], sigma: Option<Sigma>) {
        let at = |buf: Buf| buf as usize;
        match self {
            Kernel::Multiply(m) => {
                let (rows, k, kk) = (m.rows.clone(), m.k, m.k as usize);
                let mut y = std::mem::take(&mut bufs[at(m.y)]);
                let y_all = match m.finish {
                    Finish::Overwrite => {
                        let y = fresh(&mut y);
                        y.resize(rows.end as usize * kk, 0.0);
                        y
                    }
                    _ => Arc::make_mut(&mut y),
                };
                let x = &bufs[at(m.x)][..];
                let done = match m.gather {
                    Some(_) => spmm::spmm_slices(m.tile, x, k, m.gather, y_all, m.finish, m.dtype),
                    None => {
                        let y = &mut y_all[rows.start as usize * kk..rows.end as usize * kk];
                        spmm::spmm_slices_rows(m.tile, rows, x, k, y, m.finish, m.dtype)
                    }
                };
                done.expect("tile shapes align");
                bufs[at(m.y)] = y;
            }
            &Kernel::Zero(buf, len) => {
                let buf = fresh(&mut bufs[at(buf)]);
                buf.clear();
                buf.resize(len, 0.0);
            }
            &Kernel::Resize(buf, len) => Arc::make_mut(&mut bufs[at(buf)]).resize(len, 0.0),
            &Kernel::Head(from, to, len) => {
                let mut head = std::mem::take(&mut bufs[at(to)]);
                let into = fresh(&mut head);
                into.clear();
                into.extend_from_slice(&bufs[at(from)][..len]);
                bufs[at(to)] = head;
            }
            &Kernel::Swap(a, b) => bufs.swap(at(a), at(b)),
            &Kernel::Move(from, to) => bufs[at(to)] = std::mem::take(&mut bufs[at(from)]),
            &Kernel::Sigma(buf) => {
                if sigma.is_some() {
                    apply_sigma(&mut Arc::make_mut(&mut bufs[at(buf)])[..], sigma);
                }
            }
            &Kernel::Fold(fold, kk) => {
                fold.complete(&mut Arc::make_mut(&mut bufs[at(Buf::Inbox)])[..], kk)
            }
            &Kernel::Add(adds, kk) => {
                let mut y = std::mem::take(&mut bufs[at(Buf::Y)]);
                let into = Arc::make_mut(&mut y);
                add_rows(into, &bufs[at(Buf::Inbox)], adds, kk);
                bufs[at(Buf::Y)] = y;
            }
        }
    }
}

/// Runs `iters` iterations of an `n`-row operand `x` under `sigma` on a
/// machine with `cost` and one rank per list of `steps` — one
/// iteration's steps of each rank, which [`execute`] runs — and assembles
/// the answer: scatter, executor, gather.
///
/// `block(rank)` is where the rank's block of `X`, and of `Y`, lives: the
/// rows of `x` in block order and one column range, and whether the host
/// gathers the rank's block of `Y` at all (not a replica's, nor a deeper
/// level's). Each rank starts with its block in [`Buf::X`], copied out of
/// `x` uncharged — all four algorithms start from their natural layout,
/// as in the paper — and its other buffers empty; the host writes each
/// gathered [`Buf::X`] back where `block` says it lives, so the stats
/// contain exactly the steady-state communication.
pub(crate) fn run_blocks<I, B>(
    x: &DenseMatrix<f64>,
    n: u32,
    steps: &[List<'_>],
    cost: CostModel,
    iters: u32,
    sigma: Option<Sigma>,
    block: B,
) -> SparseResult<SpmmRun>
where
    I: ExactSizeIterator<Item = u32>,
    B: Fn(u32) -> (I, Range<usize>, bool) + Sync,
{
    if x.rows() != n {
        return Err(SparseError::ShapeMismatch {
            left: (n, n),
            right: (x.rows(), x.cols()),
        });
    }
    let p = steps.len() as u32;
    let report = Machine::new(p).with_cost(cost).run(|ctx| {
        let (rows, cols, gathered) = block(ctx.rank());
        let mut x_block = Vec::with_capacity(rows.len() * cols.len());
        for row in rows {
            x_block.extend_from_slice(&x.row(row)[cols.clone()]);
        }
        let mut bufs: [Arc<Vec<f64>>; BUFS] = Default::default();
        bufs[Buf::X as usize] = Arc::new(x_block);
        let steps = &steps[ctx.rank() as usize];
        execute(ctx, steps, iters, &mut bufs, |work, bufs| {
            work.run(bufs, sigma)
        });
        gathered.then(|| std::mem::take(&mut bufs[Buf::X as usize]))
    });
    // No iteration answers `x` itself, so a row no rank gathers keeps
    // it; after one, such a row (under Arrow, a vertex isolated in A) is
    // zero.
    let mut y = if iters == 0 {
        x.clone()
    } else {
        DenseMatrix::zeros(n, x.cols())
    };
    for (rank, y_block) in (0..p).zip(&report.results) {
        let Some(y_block) = y_block else { continue };
        let (rows, cols, _) = block(rank);
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

/// The groups of a row-major `rows × cols` grid of ranks: the ranks of
/// each grid column, and of each grid row.
pub(crate) fn grid_groups(rows: u32, cols: u32) -> [Vec<Arc<[u32]>>; 2] {
    let col = |j| (0..rows).map(|i| i * cols + j).collect();
    let row = |i| (0..cols).map(|j| i * cols + j).collect();
    [(0..cols).map(col).collect(), (0..rows).map(row).collect()]
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
