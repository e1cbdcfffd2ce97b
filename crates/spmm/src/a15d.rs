//! The 1.5D A-stationary algorithm (§3 of the paper, after Selvitopi et
//! al. and Tripathy et al.), with the 1D algorithm as the `c = 1` special
//! case.
//!
//! Processors form a `p/c × c` grid. `A` is tiled into `p/c` row blocks ×
//! `c` column blocks, one tile per processor (stationary). `X` is split
//! into `p/c` row tiles, tile `i` replicated on the `c` processors of grid
//! row `i`. Each grid column `j` needs the `⌈(p/c)/c⌉` X-tiles covering
//! its column block; these are broadcast down the column one round at a
//! time (the [`Collective::pick`] of the tile's height, made once per run,
//! run by [`Group::broadcast_plan`]: a binomial tree, or scatter +
//! all-gather when the tile is large enough for the machine's cost
//! model), each processor accumulating
//! `A(i,j)·X_t`. A ring all-reduce across each grid row then produces
//! `Y_i` replicated exactly like the input — so iterations chain without
//! data movement.

use crate::layout::{block_range, run_blocks};
use crate::traits::{apply_sigma, CommEstimate, DistSpmm, Sigma, SpmmRun};
use amd_comm::{Collective, CostModel, Group, Plan, RankCtx};
use amd_sparse::spmm::{self, Finish};
use amd_sparse::{CsrMatrix, DenseMatrix, Dtype, SparseError, SparseResult};
use std::sync::Arc;

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
    dtype: Dtype,
}

impl A15dSpmm {
    /// Prepares the stationary distribution of `a` on `p` ranks with
    /// replication factor `c` (`c` must divide `p`).
    pub fn new(a: &CsrMatrix<f64>, p: u32, c: u32) -> SparseResult<Self> {
        if a.rows() != a.cols() {
            return Err(SparseError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (a.cols(), a.rows()),
            });
        }
        assert!(p >= 1 && c >= 1, "need p, c >= 1");
        assert!(
            p.is_multiple_of(c),
            "replication factor c = {c} must divide p = {p}"
        );
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
            dtype: Dtype::default(),
        })
    }

    /// Overrides the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Selects the serving precision: local tile multiplies run at
    /// `dtype` ([`spmm::spmm_slices`]) and [`predict_volume`] charges
    /// `dtype` bytes per value moved.
    ///
    /// The simulated machine still ships `f64` buffers (the narrowing is
    /// emulated value-wise), so at [`Dtype::F32`] the *accounted* volume
    /// reads 2× the prediction — the prediction reflects what a real
    /// narrowed wire costs. The broadcast's schedule is selected on the
    /// bytes the machine charges (`f64`), in the run and in the
    /// prediction alike.
    ///
    /// [`predict_volume`]: DistSpmm::predict_volume
    pub fn with_dtype(mut self, dtype: Dtype) -> Self {
        self.dtype = dtype;
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

    /// Per planned height, the broadcast a `k`-column tile takes: picked
    /// once per run or prediction, on the host.
    fn picks(&self, k: u32) -> Vec<&Plan> {
        (self.plans.iter())
            .map(|(_, bcast, _)| bcast.pick(k as usize, &self.cost))
            .collect()
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
        let k = x.cols();
        let picks = self.picks(k);
        // X tile i, replicated across grid row i.
        let blocks = |rank: u32| {
            let (r0, r1) = block_range(self.n, self.rb, rank / self.c);
            (r0..r1, 0..k as usize)
        };
        let program = |ctx: &mut RankCtx, x_block: Vec<f64>| {
            let rank = ctx.rank();
            let (i, j) = (rank / self.c, rank % self.c);
            let col_group =
                Group::new(ctx, (0..self.grid_rows).map(|gi| gi * self.c + j).collect());
            let row_group = Group::new(ctx, (0..self.c).map(|gj| i * self.c + gj).collect());
            let (r0, r1) = block_range(self.n, self.rb, i);
            let my_rows = (r1 - r0) as usize;
            let mut x_cur = Arc::new(x_block);
            // The iterate about to be replaced becomes the next partial
            // sum when no peer still reads it (a broadcast shares it).
            let mut spare: Vec<f64> = Vec::new();
            for _ in 0..iters {
                // The recycled buffer is not zeroed: the first tile
                // multiplied overwrites it (its sums start at +0.0, which
                // is what a zeroed buffer would have held).
                let mut partial = std::mem::take(&mut spare);
                partial.resize(my_rows * k as usize, 0.0);
                let mut finish = Finish::Overwrite;
                let mut tile_iter = self.tiles[rank as usize].iter();
                for t in
                    (j * self.tiles_per_col)..((j + 1) * self.tiles_per_col).min(self.grid_rows)
                {
                    // Broadcast X tile t down grid column j from grid row
                    // t: one shared buffer for the root and every relay.
                    let payload = (i == t).then(|| Arc::clone(&x_cur));
                    let plan = picks[self.height(t)];
                    let xt = col_group.broadcast_plan(ctx, t as usize, payload, plan, k as usize);
                    // Multiply the matching stationary submatrix.
                    if let Some((tt, sub)) = tile_iter.as_slice().first() {
                        if *tt == t && !xt.is_empty() && my_rows > 0 {
                            tile_iter.next();
                            spmm::spmm_slices(sub, &xt, k, None, &mut partial, finish, self.dtype)
                                .expect("stationary tile shapes align");
                            finish = Finish::Accumulate;
                            ctx.compute_flops(spmm::spmm_flops(sub, k));
                        }
                    }
                }
                if finish == Finish::Overwrite {
                    // No tile multiplied: the partial sum is zero.
                    partial.fill(0.0);
                }
                // Row-wise ring all-reduce leaves Y_i replicated like X
                // was. Row-aligned chunks keep the reduction order
                // independent of k, so batched multi-RHS runs bit-match
                // single-column runs.
                let ring = &self.plans[self.height(i)].2;
                let mut y = row_group.allreduce_plan(ctx, partial, ring, k as usize);
                apply_sigma(&mut y, sigma);
                spare =
                    Arc::try_unwrap(std::mem::replace(&mut x_cur, Arc::new(y))).unwrap_or_default();
            }
            // Grid column 0 returns the final blocks for host assembly.
            (j == 0).then(|| Arc::try_unwrap(x_cur).expect("the final iterate was never broadcast"))
        };
        run_blocks(x, self.n, self.p, self.cost, iters, blocks, program)
    }

    fn predict_ranks(&self, k: u32) -> Vec<CommEstimate> {
        let (g, kk, picks) = (self.grid_rows, k as usize, self.picks(k));
        (0..self.p)
            .map(|rank| {
                let (i, j) = (rank / self.c, rank % self.c);
                // Per-round broadcast of X tile t down grid column j from
                // grid row t, then the all-reduce of Y_i across grid row i.
                let tiles =
                    (j * self.tiles_per_col)..((j + 1) * self.tiles_per_col).min(self.grid_rows);
                let moved = tiles
                    .map(|t| picks[self.height(t)].traffic(((i + g - t) % g) as usize, kk))
                    .chain([self.plans[self.height(i)].2.traffic(j as usize, kk)]);
                let flops = (self.tiles[rank as usize].iter())
                    .map(|(_, sub)| spmm::spmm_flops(sub, k))
                    .sum();
                CommEstimate::of_rank(moved, self.dtype, flops)
            })
            .collect()
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
        let result = std::panic::catch_unwind(|| A15dSpmm::new(&a, 6, 4));
        assert!(result.is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a: CsrMatrix<f64> = basic::path(4).to_adjacency();
        let alg = A15dSpmm::new(&a, 2, 1).unwrap();
        let x = DenseMatrix::<f64>::zeros(5, 2);
        assert!(alg.run(&x, 1).is_err());
    }
}
