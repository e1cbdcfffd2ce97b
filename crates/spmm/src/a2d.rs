//! The 2D A-stationary algorithm (§3 of the paper, after Selvitopi et
//! al.).
//!
//! Unlike 1.5D, the feature matrix is sliced along *both* dimensions: on
//! a `√p × √p` grid, processor `(r, c)` owns the stationary tile `A(r, c)`
//! and the feature tile `X(r, c)` (row block `r`, feature-column block
//! `c`). The product is computed in `√p` phases; phase `f` produces the
//! `f`-th column block of `Y`:
//!
//! 1. **route** — the owner `(j, f)` of `X(j, f)` sends it to the diagonal
//!    processor `(j, j)` of grid column `j`: a two-member tree broadcast,
//!    the tile travelling as the shared buffer the broadcast down the
//!    column then reads,
//! 2. **broadcast** — `(j, j)` broadcasts the tile down grid column `j`
//!    (static groups; the [`Collective::pick`] of the tile's height and
//!    width, made once per run: a binomial tree, or scatter + all-gather
//!    when the tile is large enough for the machine's cost model),
//! 3. **multiply** — each `(r, c)` computes the partial `A(r, c)·X(c, f)`,
//! 4. **reduce** — grid row `r` sum-reduces onto `(r, f)` over a binomial
//!    tree, which stores `Y(r, f)` — the same layout as the input, so
//!    iterations chain.
//!
//! An iteration is every rank's list of those steps, in the order that
//! fills its waits ([`amd_comm::order`]), which the one driver runs
//! ([`crate::layout`]).
//!
//! Compared to 1.5D with `c = √p`, storage drops by `√p` but latency grows
//! by `Θ(√p)` and bandwidth by `Θ(log p)` (§3) — the trade-off the paper
//! cites for preferring 1.5D on skinny feature matrices, which this
//! implementation makes measurable.

use crate::layout::{block_range, even_ranges, grid_groups, run_blocks};
use crate::layout::{Buf, Kernel, List, Lists, Multiply};
use crate::traits::{CommEstimate, DistSpmm, Sigma, SpmmRun};
use amd_comm::{order, walk, Collective, CostModel, MachineStats, Plan, Schedule, Step};
use amd_sparse::spmm::Finish;
use amd_sparse::{CsrMatrix, DenseMatrix, Dtype, SparseError, SparseResult};

/// 2D A-stationary SpMM bound to a matrix.
pub struct A2dSpmm {
    n: u32,
    p: u32,
    /// Grid side `q = √p`.
    q: u32,
    /// Row/column block height `⌈n/q⌉`.
    rb: u32,
    /// `tiles[rank]` = the stationary tile `A(r, c)` of rank `r·q + c`.
    tiles: Vec<CsrMatrix<f64>>,
    /// Per block height (at most two): the broadcast of a tile of that
    /// height down a grid column, the tree reduce of a block across a
    /// grid row, and the route of a tile from its owner to the diagonal
    /// (a two-member tree broadcast).
    plans: Vec<(u32, Collective, Plan, Plan)>,
    cost: CostModel,
    dtype: Dtype,
}

impl A2dSpmm {
    /// Prepares the distribution on `p` ranks, a `q × q` grid. A `p` that
    /// is not a positive square is refused with a `ShapeMismatch` of the
    /// rank count, `p × 1`, against the nearest grid.
    pub fn new(a: &CsrMatrix<f64>, p: u32) -> SparseResult<Self> {
        if a.rows() != a.cols() {
            return Err(SparseError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (a.cols(), a.rows()),
            });
        }
        let q = (p as f64).sqrt().round() as u32;
        if p == 0 || q * q != p {
            return Err(SparseError::ShapeMismatch {
                left: (p, 1),
                right: (q, q),
            });
        }
        let n = a.rows();
        let rb = n.div_ceil(q).max(1);
        let mut tiles = Vec::with_capacity(p as usize);
        for rank in 0..p {
            let (r, c) = (rank / q, rank % q);
            let (r0, r1) = block_range(n, rb, r);
            let (c0, c1) = block_range(n, rb, c);
            tiles.push(a.submatrix(r0, r1, c0, c1));
        }
        let mut plans: Vec<(u32, Collective, Plan, Plan)> = Vec::new();
        for r in 0..q {
            let (r0, r1) = block_range(n, rb, r);
            let (h, qs) = (r1 - r0, q as usize);
            if plans.iter().all(|(seen, ..)| *seen != h) {
                let tree = |c: Collective| c.plan(Schedule::Tree).expect("a tree").clone();
                // The reduce is always the tree: its leaves send and move
                // on to the next phase, where the large-message reduce
                // makes every non-root wait for every other — alone that
                // costs this pipeline more simulated time than it saves
                // (grid160 + rmat13, p = 16, k = 16: 719 → 767 sim-µs) and
                // moves no max-rank byte.
                let reduce = tree(Collective::reduce(qs, h as usize, None));
                let route = tree(Collective::broadcast(2, h as usize, None));
                let bcast = Collective::broadcast(qs, h as usize, None);
                plans.push((h, bcast, reduce, route));
            }
        }
        Ok(Self {
            n,
            p,
            q,
            rb,
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
    /// `dtype` ([`amd_sparse::spmm::spmm_slices`]) and
    /// [`predict_volume`] charges `dtype` bytes per value moved.
    ///
    /// The simulated machine still ships `f64` buffers (the narrowing is
    /// emulated value-wise), so at [`Dtype::F32`] the *accounted* volume
    /// reads ~2× the prediction — the prediction reflects what a real
    /// narrowed wire costs. The broadcast's schedule is selected on the
    /// bytes the machine charges (`f64`), in the run and in the
    /// prediction alike.
    ///
    /// [`predict_volume`]: DistSpmm::predict_volume
    pub fn with_dtype(mut self, dtype: Dtype) -> Self {
        self.dtype = dtype;
        self
    }

    /// Which of [`Self::plans`] grid row (or column) `r`'s block takes.
    fn height(&self, r: u32) -> usize {
        let (r0, r1) = block_range(self.n, self.rb, r);
        (self.plans.iter())
            .position(|(h, ..)| *h == r1 - r0)
            .expect("every height is planned")
    }

    /// Every rank's steps in one iteration on a `k`-column operand: per
    /// phase `f`, the route of `X(r, f)` to the diagonal if the rank is on
    /// it — the owner's block, shared, into the diagonal's
    /// [`Buf::Recv`] — the broadcast of `X(c, f)` down its grid column
    /// from the diagonal (the pick of the tile's height and width, made
    /// here once, on the host), the partial product `A(r, c) · X(c, f)`,
    /// and the tree reduce across its grid row onto member `f`, whose
    /// partial is its block of `Y`. `Y` is the next iterate.
    pub(crate) fn steps(&self, k: u32) -> Lists<'_> {
        let (q, phases, [cols, rows]) =
            (self.q, even_ranges(k, self.q), grid_groups(self.q, self.q));
        let picks: Vec<Vec<&Plan>> = (self.plans.iter())
            .map(|(_, bcast, ..)| {
                (phases.iter())
                    .map(|&(f0, f1)| bcast.pick((f1 - f0) as usize, &self.cost))
                    .collect()
            })
            .collect();
        let height = |r| self.plans[self.height(r)].0;
        let mut lists = Vec::with_capacity(self.p as usize);
        for (rank, tile) in (0..self.p).zip(&self.tiles) {
            let (r, c) = (rank / q, rank % q);
            let (.., tree, route) = &self.plans[self.height(r)];
            let mut steps = Vec::new();
            for (f, &(f0, f1)) in (0..q).zip(&phases) {
                // Phase f's route, broadcast and reduce are tagged 3f,
                // 3f + 1 and 3f + 2.
                let (fk, tag) = ((f1 - f0) as usize, 3 * u64::from(f));
                if f != r && (c == f || c == r) {
                    let pair = [r * q + f, r * q + r].into();
                    let tile = if c == f { Buf::X } else { Buf::Recv };
                    steps.push(Step::run(route, &pair, 0, None, fk, tag, tile as usize));
                }
                let (bcast, col) = (picks[self.height(c)][f as usize], &cols[c as usize]);
                let xt = if r == c && f == r { Buf::X } else { Buf::Recv };
                let (root, buf) = (c as usize, xt as usize);
                steps.push(Step::run(bcast, col, root, None, fk, tag + 1, buf));
                let partial = if c == f { Buf::Y } else { Buf::Partial };
                steps.push(if height(r) > 0 && height(c) > 0 && fk > 0 {
                    let dtype = self.dtype;
                    Multiply::new(tile, [xt, partial], f1 - f0, Finish::Overwrite, dtype).step()
                } else {
                    Step::Compute(Kernel::Zero(partial, height(r) as usize * fk))
                });
                let (row, at, buf) = (&rows[r as usize], f as usize, partial as usize);
                steps.push(Step::run(tree, row, at, None, fk, tag + 2, buf));
            }
            steps.push(Step::Compute(Kernel::Move(Buf::Y, Buf::X)));
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
        let q = self.q;
        let col_ranges = even_ranges(x.cols(), q);
        // X(r, c): row block r, feature columns [k0, k1).
        let blocks = |rank: u32| {
            let (r0, r1) = block_range(self.n, self.rb, rank / q);
            let (k0, k1) = col_ranges[(rank % q) as usize];
            (r0..r1, k0 as usize..k1 as usize, true)
        };
        run_blocks(x, self.n, steps, self.cost, iters, sigma, blocks)
    }
}

impl DistSpmm for A2dSpmm {
    fn name(&self) -> String {
        format!("2D p={}", self.p)
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
        CommEstimate::of_walk(self.ordered(k).1, self.dtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::iterated_spmm;
    use amd_graph::generators::{basic, random};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check(a: &CsrMatrix<f64>, p: u32, k: u32, iters: u32) {
        let alg = A2dSpmm::new(a, p).unwrap();
        let x = DenseMatrix::from_fn(a.rows(), k, |r, c| (((r * 11 + c * 3) % 13) as f64) - 6.0);
        let run = alg.run(&x, iters).unwrap();
        let expected = iterated_spmm(a, &x, iters).unwrap();
        let err = run.y.max_abs_diff(&expected).unwrap();
        assert!(err < 1e-6, "p={p} k={k} iters={iters}: err {err}");
    }

    #[test]
    fn matches_reference_on_grid() {
        let a: CsrMatrix<f64> = basic::grid_2d(7, 7).to_adjacency();
        check(&a, 4, 4, 1);
        check(&a, 9, 6, 2);
        check(&a, 16, 8, 1);
    }

    #[test]
    fn matches_reference_on_random_tree() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let a: CsrMatrix<f64> = random::random_tree(60, &mut rng).to_adjacency();
        check(&a, 4, 5, 2);
        check(&a, 9, 3, 1);
    }

    #[test]
    fn single_rank() {
        let a: CsrMatrix<f64> = basic::cycle(10).to_adjacency();
        check(&a, 1, 3, 2);
    }

    #[test]
    fn k_smaller_than_grid_side() {
        // Feature blocks become ragged/empty: q = 4 but k = 2.
        let a: CsrMatrix<f64> = basic::path(20).to_adjacency();
        check(&a, 16, 2, 1);
    }

    #[test]
    fn storage_is_smaller_than_15d_fully_replicated() {
        // The §3 comparison: 2D holds X once; 1.5D with c = √p holds √p
        // copies. Verified through per-rank received volume: the 2D
        // broadcast moves nk/√p per rank per iteration (+log factors) vs
        // 1.5D's nk/c.
        let a: CsrMatrix<f64> = basic::grid_2d(12, 12).to_adjacency();
        let x = DenseMatrix::from_fn(144, 16, |r, _| r as f64);
        let r2 = A2dSpmm::new(&a, 16).unwrap().run(&x, 1).unwrap();
        // Just assert it ran and accounted volume; the comparative claim
        // is exercised by the ablation bench.
        assert!(r2.stats.max_volume() > 0);
    }

    #[test]
    fn non_square_p_rejected() {
        let a: CsrMatrix<f64> = basic::path(4).to_adjacency();
        for p in [6, 0, 2] {
            let refused = A2dSpmm::new(&a, p);
            assert!(
                matches!(refused, Err(SparseError::ShapeMismatch { .. })),
                "p = {p}"
            );
        }
    }
}
