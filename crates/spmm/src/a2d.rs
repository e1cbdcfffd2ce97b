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
//!    processor `(j, j)` of grid column `j`,
//! 2. **broadcast** — `(j, j)` broadcasts the tile down grid column `j`
//!    (static groups; the [`Collective::pick`] of the tile's height and
//!    width, made once per run, run by [`Group::broadcast_plan`]: a
//!    binomial tree, or scatter + all-gather when the tile is large enough
//!    for the machine's cost model),
//! 3. **multiply** — each `(r, c)` computes the partial `A(r, c)·X(c, f)`,
//! 4. **reduce** — grid row `r` sum-reduces onto `(r, f)` over a binomial
//!    tree, which stores `Y(r, f)` — the same layout as the input, so
//!    iterations chain.
//!
//! Compared to 1.5D with `c = √p`, storage drops by `√p` but latency grows
//! by `Θ(√p)` and bandwidth by `Θ(log p)` (§3) — the trade-off the paper
//! cites for preferring 1.5D on skinny feature matrices, which this
//! implementation makes measurable.

use crate::layout::{block_range, even_ranges};
use crate::traits::{apply_sigma, CommEstimate, DistSpmm, Sigma, SpmmRun};
use amd_comm::{Collective, CostModel, Group, Machine, Plan, Schedule};
use amd_sparse::spmm::{self, Finish};
use amd_sparse::{CsrMatrix, DenseMatrix, Dtype, SparseError, SparseResult};
use std::sync::Arc;

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
    /// height down a grid column, and the tree reduce of a block across a
    /// grid row.
    plans: Vec<(u32, Collective, Plan)>,
    cost: CostModel,
    dtype: Dtype,
}

impl A2dSpmm {
    /// Prepares the distribution on `p` ranks; `p` must be a perfect
    /// square.
    pub fn new(a: &CsrMatrix<f64>, p: u32) -> SparseResult<Self> {
        if a.rows() != a.cols() {
            return Err(SparseError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (a.cols(), a.rows()),
            });
        }
        let q = (p as f64).sqrt().round() as u32;
        assert!(
            q * q == p,
            "2D A-stationary needs a square rank count, got {p}"
        );
        let n = a.rows();
        let rb = n.div_ceil(q).max(1);
        let mut tiles = Vec::with_capacity(p as usize);
        for rank in 0..p {
            let (r, c) = (rank / q, rank % q);
            let (r0, r1) = block_range(n, rb, r);
            let (c0, c1) = block_range(n, rb, c);
            tiles.push(a.submatrix(r0, r1, c0, c1));
        }
        let mut plans: Vec<(u32, Collective, Plan)> = Vec::new();
        for r in 0..q {
            let (r0, r1) = block_range(n, rb, r);
            let (h, qs) = (r1 - r0, q as usize);
            if plans.iter().all(|(seen, ..)| *seen != h) {
                let reduce = Collective::reduce(qs, h as usize, None);
                let tree = reduce.plan(Schedule::Tree).expect("a tree").clone();
                plans.push((h, Collective::broadcast(qs, h as usize, None), tree));
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
    /// `dtype` ([`spmm::spmm_slices`]) and [`predict_volume`] charges
    /// `dtype` bytes per value moved.
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

    /// Per planned height, per phase of a `k`-column operand, the
    /// broadcast the phase's tile takes: picked once per run or
    /// prediction, on the host.
    fn picks(&self, k: u32) -> Vec<Vec<&Plan>> {
        let phases = even_ranges(k, self.q);
        (self.plans.iter())
            .map(|(_, bcast, _)| {
                (phases.iter())
                    .map(|&(f0, f1)| bcast.pick((f1 - f0) as usize, &self.cost))
                    .collect()
            })
            .collect()
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
        if x.rows() != self.n {
            return Err(SparseError::ShapeMismatch {
                left: (self.n, self.n),
                right: (x.rows(), x.cols()),
            });
        }
        let k = x.cols();
        let q = self.q;
        let col_ranges = even_ranges(k, q);
        let picks = self.picks(k);
        let machine = Machine::new(self.p).with_cost(self.cost);
        let report = machine.run(|ctx| {
            let rank = ctx.rank();
            let (r, c) = (rank / q, rank % q);
            // Static groups: member index = grid row (column group) or
            // grid column (row group).
            let col_group = Group::new(ctx, (0..q).map(|i| i * q + c).collect());
            let row_group = Group::new(ctx, (0..q).map(|j| r * q + j).collect());
            let (r0, r1) = block_range(self.n, self.rb, r);
            let my_rows = (r1 - r0) as usize;
            let (k0, k1) = col_ranges[c as usize];
            // X(r, c): row block r, feature columns [k0, k1).
            let mut x_cur: Vec<f64> = {
                let mut buf = Vec::with_capacity(my_rows * (k1 - k0) as usize);
                for row in r0..r1 {
                    buf.extend_from_slice(&x.row(row)[k0 as usize..k1 as usize]);
                }
                buf
            };
            let a_tile = &self.tiles[rank as usize];
            for iter in 0..iters {
                let mut y_mine: Vec<f64> = Vec::new();
                for f in 0..q {
                    let (f0, f1) = col_ranges[f as usize];
                    let fk = f1 - f0;
                    let tag = ((iter as u64) << 8) | f as u64;
                    // 1. Route X(r, f) (if I own it) to the diagonal of
                    //    grid column r; receive on the diagonal. The tile
                    //    is used once per iteration, in this phase, so it
                    //    moves into the shared buffer every hop reads.
                    let mine = (c == f).then(|| Arc::new(std::mem::take(&mut x_cur)));
                    let bcast_payload: Option<Arc<Vec<f64>>> = if r == c {
                        mine.or_else(|| Some(ctx.recv(r * q + f, tag)))
                    } else {
                        if let Some(tile) = mine {
                            ctx.send(r * q + r, tag, tile);
                        }
                        None
                    };
                    // 2. Broadcast X(c, f) down grid column c from the
                    //    diagonal member (index c).
                    let plan = picks[self.height(c)][f as usize];
                    let xt =
                        col_group.broadcast_plan(ctx, c as usize, bcast_payload, plan, fk as usize);
                    // 3. Partial product A(r, c) · X(c, f).
                    let mut partial = vec![0.0; my_rows * fk as usize];
                    if my_rows > 0 && !xt.is_empty() && fk > 0 {
                        ctx.compute_flops(spmm::spmm_flops(a_tile, fk));
                        spmm::spmm_slices(
                            a_tile,
                            &xt,
                            fk,
                            None,
                            &mut partial,
                            Finish::Overwrite,
                            self.dtype,
                        )
                        .expect("2D tile shapes align");
                    }
                    // 4. Reduce across the grid row onto member f. Always the
                    //    tree: its leaves send and move on to the next
                    //    phase, where the large-message reduce makes every
                    //    non-root wait for every other — alone that costs
                    //    this pipeline more simulated time than it saves
                    //    (grid160 + rmat13, p = 16, k = 16: 719 → 767
                    //    sim-µs) and moves no max-rank byte.
                    let tree = &self.plans[self.height(r)].2;
                    let reduced =
                        row_group.reduce_plan(ctx, f as usize, partial, tree, fk as usize);
                    if c == f {
                        y_mine = reduced.expect("member f holds the phase result");
                    }
                }
                x_cur = y_mine;
                apply_sigma(&mut x_cur, sigma);
            }
            x_cur
        });
        // Assemble Y from the (r, c) tiles.
        let mut y = DenseMatrix::zeros(self.n, k);
        for rank in 0..self.p {
            let (r, c) = (rank / q, rank % q);
            let (r0, r1) = block_range(self.n, self.rb, r);
            let (k0, k1) = col_ranges[c as usize];
            let w = (k1 - k0) as usize;
            let block = &report.results[rank as usize];
            debug_assert_eq!(block.len(), (r1 - r0) as usize * w);
            for (i, row) in (r0..r1).enumerate() {
                y.row_mut(row)[k0 as usize..k1 as usize]
                    .copy_from_slice(&block[i * w..(i + 1) * w]);
            }
        }
        Ok(SpmmRun {
            y,
            stats: report.stats,
            iters,
        })
    }

    fn predict_ranks(&self, k: u32) -> Vec<CommEstimate> {
        let q = self.q;
        let (col_ranges, picks) = (even_ranges(k, q), self.picks(k));
        // Collectives are charged per element moved: 8 bytes a value on
        // the machine, `dtype` bytes on a `dtype` wire.
        let scale = self.dtype.bytes() as f64 / 8.0;
        let mut ranks = Vec::with_capacity(self.p as usize);
        for rank in 0..self.p {
            let (r, c) = (rank / q, rank % q);
            let (r0, r1) = block_range(self.n, self.rb, r);
            let my_rows = (r1 - r0) as f64;
            let mut bytes = 0.0;
            let mut msgs = 0.0;
            let mut flops = 0.0;
            for f in 0..q {
                let (f0, f1) = col_ranges[f as usize];
                let fk = (f1 - f0) as usize;
                let fkb = self.dtype.bytes() as f64 * fk as f64;
                // 1. Route X(r, f) to the diagonal of grid column r.
                if c == f && r != c {
                    bytes += my_rows * fkb;
                    msgs += 1.0;
                }
                if r == c && c != f {
                    bytes += my_rows * fkb;
                    msgs += 1.0;
                }
                // 2. Broadcast X(c, f) down grid column c from the
                //    diagonal member (group index c), and 4. reduce across
                //    the grid row onto member f (the tree).
                let bcast = picks[self.height(c)][f as usize];
                let tree = &self.plans[self.height(r)].2;
                let moved = [
                    bcast.traffic(((r + q - c) % q) as usize, fk),
                    tree.traffic(((c + q - f) % q) as usize, fk),
                ];
                for moved in moved {
                    bytes += moved.bytes() as f64 * scale;
                    msgs += moved.msgs() as f64;
                }
                // 3. Partial product A(r, c) · X(c, f).
                flops += spmm::spmm_flops(&self.tiles[rank as usize], f1 - f0);
            }
            ranks.push(CommEstimate {
                max_rank_bytes: bytes,
                max_rank_messages: msgs,
                max_rank_flops: flops,
            });
        }
        ranks
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
    #[should_panic(expected = "square rank count")]
    fn non_square_p_rejected() {
        let a: CsrMatrix<f64> = basic::path(4).to_adjacency();
        let _ = A2dSpmm::new(&a, 6);
    }
}
