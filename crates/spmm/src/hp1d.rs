//! HP-1D: the 1D hypergraph-partitioning baseline (§7.1, after Kaya et
//! al.'s PETSc-style SpMV variant lifted to SpMM).
//!
//! The matrix is symmetrically permuted so that each part's rows are
//! contiguous, then split row-wise. One iteration per rank:
//!
//! 1. send the locally-owned X rows other ranks need: the sending half of
//!    one [`Plan::routes`] over the machine, built once from every part's
//!    external rows,
//! 2. compute the *local* SpMM (columns within the own range) — this
//!    overlaps with the incoming transfers,
//! 3. receive the remote rows (the plan's receiving half, each into its
//!    compact external index) and compute the *non-local* SpMM.
//!
//! The fetched row set of a part is exactly the partition's "external
//! rows" metric; on star-heavy graphs it degenerates to nearly all of `X`
//! for the hub's part, which is the scaling failure the paper reports.
//!
//! An iteration is every rank's list of those steps, in the order that
//! fills its waits ([`amd_comm::order`]), which the one driver runs
//! ([`crate::layout`]); where the receive sits in a rank's list is where
//! the rank waits for its rows.

use crate::layout::{run_blocks, Buf, Kernel, List, Lists, Multiply};
use crate::traits::{CommEstimate, DistSpmm, Sigma, SpmmRun};
use amd_comm::{order, walk, CostModel, Dir, MachineStats, Plan, Step};
use amd_partition::Partition;
use amd_sparse::spmm::Finish;
use amd_sparse::{
    CsrBuilder, CsrMatrix, DenseMatrix, Dtype, Permutation, SparseError, SparseResult,
};
use std::sync::Arc;

/// HP-1D SpMM bound to a matrix and a partition.
pub struct Hp1dSpmm {
    n: u32,
    p: u32,
    /// Permutation sorting vertices by part.
    pi: Permutation,
    /// Part row ranges in permuted coordinates: rank i owns `[starts[i], starts[i+1])`.
    starts: Vec<u32>,
    /// Local submatrix per rank (columns inside the own range, shifted).
    a_local: Vec<CsrMatrix<f64>>,
    /// External submatrix per rank (columns renumbered to the fetch list).
    a_ext: Vec<CsrMatrix<f64>>,
    /// Per rank: how many external rows it fetches.
    externals: Vec<u32>,
    /// Every owner's rows, from its block to each fetcher's compact
    /// external index.
    fetch: Plan,
    cost: CostModel,
    dtype: Dtype,
}

impl Hp1dSpmm {
    /// Prepares the distribution of `a` over the parts of `partition`
    /// (one rank per part).
    pub fn new(a: &CsrMatrix<f64>, partition: &Partition) -> SparseResult<Self> {
        if a.rows() != a.cols() {
            return Err(SparseError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (a.cols(), a.rows()),
            });
        }
        let n = a.rows();
        if partition.n() != n {
            return Err(SparseError::ShapeMismatch {
                left: (n, n),
                right: (partition.n(), partition.n()),
            });
        }
        let p = partition.parts;
        let pi = partition.to_permutation();
        let sizes = partition.sizes();
        let mut starts = Vec::with_capacity(p as usize + 1);
        starts.push(0u32);
        for s in &sizes {
            starts.push(starts.last().unwrap() + s);
        }
        let owner_of = |row: u32| -> u32 { (starts.partition_point(|&s| s <= row) - 1) as u32 };
        let mut a_local = Vec::with_capacity(p as usize);
        let mut a_ext = Vec::with_capacity(p as usize);
        let mut externals = Vec::with_capacity(p as usize);
        // Fetches by owner: each owner's come by fetcher and row, so the
        // routes arrive already in the order they are sorted into.
        let mut moves = vec![Vec::new(); p as usize];
        // Each rank's two blocks are written straight into CSR arrays:
        // a permuted row, once sorted by column, is a run of local
        // columns between two runs of external ones, and the compact
        // numbering of external columns is monotone, so both blocks'
        // rows come out in column order.
        // (permuted column, index within the row of `A`) in one word, so a
        // row is sorted on plain integers and its values are gathered
        // afterwards.
        let mut keys: Vec<u64> = Vec::new();
        // Compact index of a permuted column in the current rank's fetch
        // list; `u32::MAX` while the rank has not met the column.
        let mut fetch_index = vec![u32::MAX; n as usize];
        for rank in 0..p {
            let (s, e) = (starts[rank as usize], starts[rank as usize + 1]);
            let rows = (e - s) as usize;
            let mut local = CsrBuilder::with_capacity(rows, 0);
            let mut ext = CsrBuilder::with_capacity(rows, 0);
            let mut ext_cols: Vec<u32> = Vec::new();
            for q in s..e {
                let v = pi.vertex_at(q);
                let (cols, vals) = (a.row_indices(v), a.row_values(v));
                keys.clear();
                keys.extend(
                    cols.iter()
                        .zip(0u64..)
                        .map(|(&c, i)| (pi.position(c) as u64) << 32 | i),
                );
                keys.sort_unstable();
                for &key in &keys {
                    let (c, val) = ((key >> 32) as u32, vals[key as u32 as usize]);
                    if (s..e).contains(&c) {
                        local.push(c - s, val);
                    } else {
                        if fetch_index[c as usize] == u32::MAX {
                            fetch_index[c as usize] = 0;
                            ext_cols.push(c);
                        }
                        ext.push(c, val);
                    }
                }
                local.end_row();
                ext.end_row();
            }
            // Distinct external columns, ascending (= grouped by owner,
            // because parts are contiguous in permuted coordinates).
            ext_cols.sort_unstable();
            for (i, &c) in (0..).zip(&ext_cols) {
                fetch_index[c as usize] = i;
                let o = owner_of(c);
                moves[o as usize].push((o, rank, c - starts[o as usize], i));
            }
            for c in ext.indices_mut() {
                *c = fetch_index[*c as usize];
            }
            for &c in &ext_cols {
                fetch_index[c as usize] = u32::MAX;
            }
            a_local.push(local.finish(e - s));
            a_ext.push(ext.finish(ext_cols.len().max(1) as u32));
            externals.push(ext_cols.len() as u32);
        }
        Ok(Self {
            n,
            p,
            pi,
            starts,
            a_local,
            a_ext,
            externals,
            fetch: Plan::routes(p as usize, moves.concat()),
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
    /// narrowed wire costs.
    ///
    /// [`predict_volume`]: DistSpmm::predict_volume
    pub fn with_dtype(mut self, dtype: Dtype) -> Self {
        self.dtype = dtype;
        self
    }

    /// Largest per-rank external fetch (rows of X), the partition-quality
    /// bottleneck.
    pub fn max_external_rows(&self) -> usize {
        self.externals.iter().max().map_or(0, |&rows| rows as usize)
    }

    /// [`DistSpmm::run_sigma`] of one iteration's `steps`.
    pub(crate) fn run_steps(
        &self,
        x: &DenseMatrix<f64>,
        iters: u32,
        sigma: Option<Sigma>,
        steps: &[List<'_>],
    ) -> SparseResult<SpmmRun> {
        let (starts, cols) = (&self.starts, 0..x.cols() as usize);
        let blocks = |rank: u32| {
            let rows = starts[rank as usize]..starts[rank as usize + 1];
            (rows.map(|q| self.pi.vertex_at(q)), cols.clone(), true)
        };
        run_blocks(x, self.n, steps, self.cost, iters, sigma, blocks)
    }

    /// Every rank's steps in one iteration on a `k`-column operand: make
    /// room for the external rows, serve the rows others fetch (sends never
    /// block), the local multiply, which overlaps with the transfers,
    /// receive the external rows (ascending owner = ascending compact
    /// index), and the non-local multiply if there are any. The product is
    /// the next iterate, and the iterate it replaces the next product's
    /// buffer.
    pub(crate) fn steps(&self, k: u32) -> Lists<'_> {
        let (world, kk): (Arc<[u32]>, _) = ((0..self.p).collect(), k as usize);
        let fetch = |dir, buf| Step::run(&self.fetch, &world, 0, Some(dir), kk, 0, buf as usize);
        let multiply = |tile, x, finish| Multiply::new(tile, [x, Buf::Y], k, finish, self.dtype);
        (0..self.p as usize)
            .map(|rank| {
                let externals = self.externals[rank] as usize;
                let mut steps = vec![
                    Step::Compute(Kernel::Resize(Buf::Recv, externals * kk)),
                    fetch(Dir::Send, Buf::X),
                    multiply(&self.a_local[rank], Buf::X, Finish::Overwrite).step(),
                    fetch(Dir::Recv, Buf::Recv),
                ];
                if externals > 0 && k > 0 {
                    let ext = multiply(&self.a_ext[rank], Buf::Recv, Finish::Accumulate);
                    steps.push(ext.step());
                }
                steps.push(Step::Compute(Kernel::Swap(Buf::X, Buf::Y)));
                steps.push(Step::Compute(Kernel::Sigma(Buf::X)));
                steps
            })
            .collect()
    }

    /// [`Self::steps`] in the order that fills the ranks' waits
    /// ([`amd_comm::order`]), and the walk of one iteration of them.
    pub(crate) fn ordered(&self, k: u32) -> (Lists<'_>, (MachineStats, Vec<f64>)) {
        let mut steps = self.steps(k);
        let walked = order(&mut steps, &self.cost);
        (steps, walked)
    }
}

impl DistSpmm for Hp1dSpmm {
    fn name(&self) -> String {
        format!("HP-1D p={}", self.p)
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
    use amd_graph::generators::{basic, datasets};
    use amd_partition::{block_partition, hype_partition, HypeConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check(a: &CsrMatrix<f64>, partition: &Partition, k: u32, iters: u32) {
        let alg = Hp1dSpmm::new(a, partition).unwrap();
        let x = DenseMatrix::from_fn(a.rows(), k, |r, c| (((r + c) % 5) as f64) - 2.0);
        let run = alg.run(&x, iters).unwrap();
        let expected = iterated_spmm(a, &x, iters).unwrap();
        let err = run.y.max_abs_diff(&expected).unwrap();
        assert!(err < 1e-6, "err {err}");
    }

    #[test]
    fn matches_reference_with_block_partition() {
        let a: CsrMatrix<f64> = basic::grid_2d(6, 6).to_adjacency();
        check(&a, &block_partition(36, 4), 3, 1);
        check(&a, &block_partition(36, 5), 2, 2);
    }

    #[test]
    fn matches_reference_with_hype_partition() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = datasets::genbank_like(400, &mut rng);
        let a: CsrMatrix<f64> = g.to_adjacency();
        let part = hype_partition(&g, 6, &HypeConfig::default(), &mut rng);
        check(&a, &part, 4, 2);
    }

    #[test]
    fn single_part() {
        let a: CsrMatrix<f64> = basic::cycle(12).to_adjacency();
        check(&a, &block_partition(12, 1), 2, 2);
    }

    #[test]
    fn star_graph_fetch_bottleneck() {
        // The hub's part must fetch (or serve) nearly everything.
        let g = basic::star(128);
        let a: CsrMatrix<f64> = g.to_adjacency();
        let part = block_partition(128, 4);
        let alg = Hp1dSpmm::new(&a, &part).unwrap();
        assert!(
            alg.max_external_rows() >= 96,
            "external rows {} below star bound",
            alg.max_external_rows()
        );
        check(&a, &part, 2, 1);
    }

    #[test]
    fn good_partition_beats_random_partition_volume() {
        let g = basic::grid_2d(16, 16);
        let a: CsrMatrix<f64> = g.to_adjacency();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let hype = hype_partition(&g, 8, &HypeConfig::default(), &mut rng);
        let rand = amd_partition::random_partition(256, 8, &mut rng);
        let x = DenseMatrix::from_fn(256, 4, |r, _| r as f64);
        let vh = Hp1dSpmm::new(&a, &hype).unwrap().run(&x, 1).unwrap();
        let vr = Hp1dSpmm::new(&a, &rand).unwrap().run(&x, 1).unwrap();
        assert!(
            vh.stats.max_volume() < vr.stats.max_volume(),
            "hype volume {} !< random volume {}",
            vh.stats.max_volume(),
            vr.stats.max_volume()
        );
    }

    #[test]
    fn partition_of_another_size_is_an_error_not_a_panic() {
        let a: CsrMatrix<f64> = basic::path(6).to_adjacency();
        assert!(matches!(
            Hp1dSpmm::new(&a, &block_partition(7, 2)),
            Err(SparseError::ShapeMismatch {
                left: (6, 6),
                right: (7, 7)
            })
        ));
    }

    /// The step list is the rank's program, so reordering a rank's work
    /// is an edit of its list: one rank's fetch receive moved ahead of its
    /// local multiply, and nothing else. The answer does not move by a bit,
    /// the run is charged what the walk of the moved list says, and the
    /// rank now waits for its rows before it multiplies, so its clock
    /// moves.
    #[test]
    fn a_fetch_receive_moved_in_the_list_moves_only_the_clock() {
        let a: CsrMatrix<f64> = basic::grid_2d(12, 12).to_adjacency();
        let alg = Hp1dSpmm::new(&a, &block_partition(144, 4)).unwrap();
        let x = DenseMatrix::from_fn(144, 3, |r, c| ((r * 7 + c * 5) % 13) as f64 / 3.0 - 2.0);
        // Rank 3's rows leave rank 2 in its second send, after rank 3's
        // own send is done.
        let (rank, steps) = (3, alg.steps(3));
        let mut moved = steps.clone();
        let list = &mut moved[rank];
        let recv = (list.iter())
            .position(|step| matches!(step, Step::Run(run) if run.dir == Some(Dir::Recv)))
            .unwrap();
        let local = (list.iter())
            .position(|step| matches!(step, Step::Compute(Kernel::Multiply(_))))
            .unwrap();
        assert_eq!(
            local + 1,
            recv,
            "the local multiply comes before the receive"
        );
        list.swap(local, recv);
        let [before, after] = [&steps, &moved].map(|steps| alg.run_steps(&x, 2, None, steps));
        let (before, after) = (before.unwrap(), after.unwrap());
        let bits = |y: &DenseMatrix<f64>| y.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&before.y), bits(&after.y));
        assert_eq!(after.stats.ranks, walk(&moved, 2, &alg.cost).0.ranks);
        assert_eq!(before.stats.ranks, walk(&steps, 2, &alg.cost).0.ranks);
        let clock = |run: &SpmmRun| run.stats.ranks[rank].sim_time;
        assert!(
            clock(&after) > clock(&before),
            "the rank's clock did not move"
        );
    }

    #[test]
    fn empty_part_handled() {
        // A partition where one part gets no vertices.
        let assign = vec![0, 0, 2, 2, 2, 0];
        let part = Partition::new(assign, 3);
        let a: CsrMatrix<f64> = basic::path(6).to_adjacency();
        check(&a, &part, 2, 1);
    }
}
