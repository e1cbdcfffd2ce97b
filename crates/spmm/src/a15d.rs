//! The 1.5D A-stationary algorithm (§3 of the paper, after Selvitopi et
//! al. and Tripathy et al.), with the 1D algorithm as the `c = 1` special
//! case.
//!
//! Processors form a `p/c × c` grid. `A` is tiled into `p/c` row blocks ×
//! `c` column blocks, one tile per processor (stationary). `X` is split
//! into `p/c` row tiles, tile `i` replicated on the `c` processors of grid
//! row `i`. Each grid column `j` needs the `⌈(p/c)/c⌉` X-tiles covering
//! its column block; these are broadcast down the column one round at a
//! time (the [`Collective::pick`] of the tile's height, made once per run:
//! a binomial tree, or scatter + all-gather when the tile is large enough
//! for the machine's cost model), each processor accumulating
//! `A(i,j)·X_t`. A ring all-reduce across each grid row then produces
//! `Y_i` replicated exactly like the input — so iterations chain without
//! data movement. An iteration is every rank's list of those steps, in
//! the order that fills its waits ([`amd_comm::order`]), which the one
//! driver runs ([`crate::layout`]).

use crate::layout::{block_range, grid_groups, run_blocks, Buf, Kernel, List, Lists, Multiply};
use crate::traits::{CommEstimate, DistSpmm, Sigma, SpmmRun};
use amd_comm::{order, walk, Collective, CostModel, MachineStats, Plan, Step};
use amd_sparse::spmm::Finish;
use amd_sparse::{CsrMatrix, DenseMatrix, SparseError, SparseResult};

/// The paper's replication choice for the 1.5D baseline: the largest
/// divisor of `p` that is at most `⌊√p⌋` ("we use c = ⌊√p⌋ in our
/// experiments", rounded to a divisor). Shared by the bench harness and
/// the serving planner so benchmarked and served configurations match.
pub fn best_c(p: u32) -> u32 {
    let target = (p as f64).sqrt().floor() as u32;
    (1..=target.max(1))
        .rev()
        .find(|c| p.is_multiple_of(*c))
        .unwrap_or(1)
}

/// 1.5D A-stationary SpMM bound to a matrix.
pub struct A15dSpmm {
    n: u32,
    p: u32,
    c: u32,
    /// Grid rows `R = p/c`.
    grid_rows: u32,
    /// Row-block height `⌈n/R⌉` (also the X tile height).
    rb: u32,
    /// X tiles per column block `⌈R/c⌉` = rounds per iteration.
    tiles_per_col: u32,
    /// `tiles[rank]` = per-round submatrices `(tile index t, A(i, cols of t))`.
    tiles: Vec<Vec<(u32, CsrMatrix<f64>)>>,
    /// Per block height (blocks come in at most two): a tile's broadcast
    /// down a grid column and a block's ring all-reduce across a grid row.
    plans: Vec<(u32, Collective, Plan)>,
    cost: CostModel,
}

impl A15dSpmm {
    /// Prepares the stationary distribution of `a` on `p` ranks with
    /// replication factor `c`, the ranks a `(p / c) × c` grid. A `p` or `c`
    /// of zero, or a `c` that does not divide `p`, is refused with a
    /// `ShapeMismatch` of the rank count, `p × 1`, against that grid.
    pub fn new(a: &CsrMatrix<f64>, p: u32, c: u32) -> SparseResult<Self> {
        if a.rows() != a.cols() {
            return Err(SparseError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (a.cols(), a.rows()),
            });
        }
        if p == 0 || c == 0 || !p.is_multiple_of(c) {
            return Err(SparseError::ShapeMismatch {
                left: (p, 1),
                right: (p / c.max(1), c),
            });
        }
        let n = a.rows();
        let grid_rows = p / c;
        let rb = n.div_ceil(grid_rows).max(1);
        let tiles_per_col = grid_rows.div_ceil(c);
        let mut tiles = Vec::with_capacity(p as usize);
        for rank in 0..p {
            let (i, j) = (rank / c, rank % c);
            let (r0, r1) = block_range(n, rb, i);
            let mut mine = Vec::new();
            for t in (j * tiles_per_col)..((j + 1) * tiles_per_col).min(grid_rows) {
                let (c0, c1) = block_range(n, rb, t);
                if r0 < r1 && c0 < c1 {
                    mine.push((t, a.submatrix(r0, r1, c0, c1)));
                }
            }
            tiles.push(mine);
        }
        let mut plans: Vec<(u32, Collective, Plan)> = Vec::new();
        for t in 0..grid_rows {
            let (t0, t1) = block_range(n, rb, t);
            let h = t1 - t0;
            if plans.iter().all(|(seen, ..)| *seen != h) {
                let bcast = Collective::broadcast(grid_rows as usize, h as usize, None);
                plans.push((h, bcast, Plan::ring(c as usize, h as usize)));
            }
        }
        Ok(Self {
            n,
            p,
            c,
            grid_rows,
            rb,
            tiles_per_col,
            tiles,
            plans,
            cost: CostModel::default(),
        })
    }

    /// Overrides the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// The replication factor.
    pub fn c(&self) -> u32 {
        self.c
    }

    /// Which of [`Self::plans`] grid row `t`'s block takes.
    fn height(&self, t: u32) -> usize {
        let (t0, t1) = block_range(self.n, self.rb, t);
        (self.plans.iter())
            .position(|(h, ..)| *h == t1 - t0)
            .expect("every height is planned")
    }

    /// Grid column `j`'s broadcast rounds: the grid rows of the X tiles
    /// it multiplies.
    fn rounds(&self, j: u32) -> std::ops::Range<u32> {
        let tpc = self.tiles_per_col;
        (j * tpc)..((j + 1) * tpc).min(self.grid_rows)
    }

    /// Every rank's steps in one iteration on a `k`-column operand: per
    /// round `t`, the broadcast of X tile `t` down the rank's grid column
    /// from grid row `t` (the tile height's pick, made here once, on the
    /// host; tagged `t`) — the root shares its block, every other member
    /// receives the one buffer every hop reads — and the multiply of the
    /// matching stationary tile into the partial sum. The first multiply
    /// overwrites whatever the buffer held (its sums start at `+0.0`, as a
    /// zeroed buffer's would); with none, the partial sum is zero. Then the
    /// ring all-reduce of `Y_i` across its grid row (tagged past every
    /// round), which leaves `Y_i` replicated like `X` was — its
    /// row-aligned chunks keep the summation order independent of `k`, so
    /// batched runs bit-match single-column ones — and `Y_i` becomes the
    /// iterate, the iterate it replaces the next partial sum.
    pub(crate) fn steps(&self, k: u32) -> Lists<'_> {
        let (kk, [cols, rows]) = (k as usize, grid_groups(self.grid_rows, self.c));
        let picks: Vec<&Plan> = (self.plans.iter())
            .map(|(_, bcast, _)| bcast.pick(kk, &self.cost))
            .collect();
        let mut lists = Vec::with_capacity(self.p as usize);
        for (rank, tiles) in (0..self.p).zip(&self.tiles) {
            let (i, j, mut tiles) = (rank / self.c, rank % self.c, tiles.iter().peekable());
            let (mut steps, mut finish) = (Vec::new(), Finish::Overwrite);
            for t in self.rounds(j) {
                let (plan, col) = (picks[self.height(t)], &cols[j as usize]);
                let xt = if i == t { Buf::X } else { Buf::Recv };
                let (root, tag, buf) = (t as usize, t.into(), xt as usize);
                steps.push(Step::run(plan, col, root, None, kk, tag, buf));
                if let Some((_, sub)) = tiles.next_if(|(tt, _)| *tt == t && k > 0) {
                    let bufs = [xt, Buf::Partial];
                    steps.push(Multiply::new(sub, bufs, k, finish).step());
                    finish = Finish::Accumulate;
                }
            }
            if finish == Finish::Overwrite {
                let (r0, r1) = block_range(self.n, self.rb, i);
                let zero = Kernel::Zero(Buf::Partial, (r1 - r0) as usize * kk);
                steps.push(Step::Compute(zero));
            }
            let (ring, row) = (&self.plans[self.height(i)].2, &rows[i as usize]);
            let (tag, buf) = (self.grid_rows.into(), Buf::Partial as usize);
            steps.push(Step::run(ring, row, 0, None, kk, tag, buf));
            steps.push(Step::Compute(Kernel::Swap(Buf::X, Buf::Partial)));
            steps.push(Step::Compute(Kernel::Sigma(Buf::X)));
            lists.push(steps);
        }
        lists
    }

    /// [`Self::steps`] in the order that fills the ranks' waits
    /// ([`amd_comm::order`]), and the walk of one iteration of them.
    pub(crate) fn ordered(&self, k: u32) -> (Lists<'_>, (MachineStats, Vec<f64>)) {
        let mut steps = self.steps(k);
        let walked = order(&mut steps, &self.cost);
        (steps, walked)
    }

    /// [`DistSpmm::run_sigma`] of one iteration's `steps`.
    pub(crate) fn run_steps(
        &self,
        x: &DenseMatrix<f64>,
        iters: u32,
        sigma: Option<Sigma>,
        steps: &[List<'_>],
    ) -> SparseResult<SpmmRun> {
        let k = x.cols() as usize;
        // X tile i, replicated across grid row i; grid column 0's blocks
        // are gathered.
        let blocks = |rank: u32| {
            let (r0, r1) = block_range(self.n, self.rb, rank / self.c);
            (r0..r1, 0..k, rank.is_multiple_of(self.c))
        };
        run_blocks(x, self.n, steps, self.cost, iters, sigma, blocks)
    }
}

impl DistSpmm for A15dSpmm {
    fn name(&self) -> String {
        if self.c == 1 {
            format!("1D p={}", self.p)
        } else {
            format!("1.5D p={} c={}", self.p, self.c)
        }
    }

    fn ranks(&self) -> u32 {
        self.p
    }

    fn run_sigma(
        &self,
        x: &DenseMatrix<f64>,
        iters: u32,
        sigma: Option<Sigma>,
    ) -> SparseResult<SpmmRun> {
        self.run_steps(x, iters, sigma, &self.ordered(x.cols()).0)
    }

    fn dry_run(&self, k: u32, iters: u32) -> MachineStats {
        walk(&self.ordered(k).0, iters, &self.cost).0
    }

    fn predict_ranks(&self, k: u32) -> Vec<CommEstimate> {
        CommEstimate::of_walk(self.ordered(k).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::iterated_spmm;
    use amd_graph::generators::{basic, random};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check(a: &CsrMatrix<f64>, p: u32, c: u32, k: u32, iters: u32) {
        let alg = A15dSpmm::new(a, p, c).unwrap();
        let x = DenseMatrix::from_fn(a.rows(), k, |r, cc| (((r * 13 + cc * 7) % 11) as f64) - 5.0);
        let run = alg.run(&x, iters).unwrap();
        let expected = iterated_spmm(a, &x, iters).unwrap();
        let err = run.y.max_abs_diff(&expected).unwrap();
        assert!(err < 1e-6, "p={p} c={c} k={k} iters={iters}: err {err}");
    }

    #[test]
    fn matches_reference_on_grid() {
        let a: CsrMatrix<f64> = basic::grid_2d(8, 8).to_adjacency();
        check(&a, 4, 1, 3, 1);
        check(&a, 4, 2, 3, 1);
        check(&a, 8, 2, 2, 2);
        check(&a, 16, 4, 1, 1);
    }

    #[test]
    fn matches_reference_on_random_tree() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let a: CsrMatrix<f64> = random::random_tree(100, &mut rng).to_adjacency();
        check(&a, 6, 2, 4, 2);
        check(&a, 9, 3, 2, 1);
    }

    #[test]
    fn zero_column_operand_returns_empty_result() {
        // k = 0 means empty ring payloads on every rank; the run must
        // return an empty Y, not panic in the aligned all-reduce.
        let a: CsrMatrix<f64> = basic::grid_2d(6, 6).to_adjacency();
        let alg = A15dSpmm::new(&a, 4, 2).unwrap();
        let run = alg.run(&DenseMatrix::zeros(36, 0), 1).unwrap();
        assert_eq!(run.y.rows(), 36);
        assert_eq!(run.y.cols(), 0);
    }

    #[test]
    fn single_rank_degenerate() {
        let a: CsrMatrix<f64> = basic::path(10).to_adjacency();
        check(&a, 1, 1, 2, 3);
    }

    #[test]
    fn ragged_blocks() {
        // n = 13 not divisible by grid rows.
        let a: CsrMatrix<f64> = basic::cycle(13).to_adjacency();
        check(&a, 4, 2, 2, 1);
        check(&a, 8, 4, 1, 2);
    }

    #[test]
    fn more_ranks_than_rows() {
        let a: CsrMatrix<f64> = basic::path(5).to_adjacency();
        check(&a, 8, 2, 2, 1);
    }

    #[test]
    fn replication_reduces_broadcast_volume() {
        // Higher c → fewer broadcast rounds per column → less received
        // broadcast volume per rank (the O(β·nk/c) term).
        let a: CsrMatrix<f64> = basic::grid_2d(16, 16).to_adjacency();
        let x = DenseMatrix::from_fn(256, 8, |r, _| r as f64);
        let v1 = A15dSpmm::new(&a, 16, 1).unwrap().run(&x, 1).unwrap();
        let v4 = A15dSpmm::new(&a, 16, 4).unwrap().run(&x, 1).unwrap();
        assert!(
            v4.stats.max_volume() < v1.stats.max_volume(),
            "c=4 volume {} !< c=1 volume {}",
            v4.stats.max_volume(),
            v1.stats.max_volume()
        );
    }

    #[test]
    fn c_must_divide_p() {
        let a: CsrMatrix<f64> = basic::path(4).to_adjacency();
        for (p, c) in [(6, 4), (0, 1), (4, 0), (0, 0)] {
            let refused = A15dSpmm::new(&a, p, c);
            assert!(
                matches!(refused, Err(SparseError::ShapeMismatch { .. })),
                "p = {p}, c = {c}"
            );
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a: CsrMatrix<f64> = basic::path(4).to_adjacency();
        let alg = A15dSpmm::new(&a, 2, 1).unwrap();
        let x = DenseMatrix::<f64>::zeros(5, 2);
        assert!(alg.run(&x, 1).is_err());
    }
}
