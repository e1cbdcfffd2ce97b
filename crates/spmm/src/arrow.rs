//! Distributed SpMM through an arrow matrix decomposition
//! (§4.1, Algorithms 1 and 2 of the paper).
//!
//! Ranks are grouped per arrow matrix: level `j` with `active_n_j` active
//! positions gets `⌈active_n_j / b⌉` consecutive ranks; rank `i` of a
//! level holds the tiles `B(0,i)`, `B(i,0)`, `B(i,i)`, the feature block
//! `D(i)` (Figure 2) and a run of rows of the hub tile `B(0,0)` (step 2).
//! One multiply iteration:
//!
//! 1. **Forward propagation** — level `j` ships its X rows to level `j+1`
//!    through the permutation `π_{j+1} ∘ π_j⁻¹`, chained down the levels
//!    (only the shrinking active prefix travels),
//! 2. **Arrow multiply** (Algorithm 1) per level: broadcast `D(0)` within
//!    the level, reduce the row-arm partials to the level's rank 0, and
//!    compute `C(i) = B(i,0)·D(0) + B(i,i)·D(i)` locally. Both collectives
//!    go through [`Group::broadcast_rows`] / [`Group::reduce_sum_rows`],
//!    which pick a schedule per call from the machine's cost model, the
//!    block's size and the ranks' **supports**, fixed when the plan is
//!    built ([`ArrowSpmm::supports`]): rank `i` reads only the rows
//!    `Sᵢ = colsupp B(i,0) ∪ colsupp B(0,0)[runᵢ]` of `D(0)`, and its
//!    partial is non-zero only on `Rᵢ = rowsupp B(0,i) ∪ rowsupp
//!    B(0,0)[runᵢ]`. §6 of the paper prices both collectives as a dense
//!    `b × k` block; on the binomial tree or the large-message schedule
//!    they are, and on the large schedules a rank moves about four blocks
//!    per level whatever the level's width (the level root two) — the
//!    constant the paper's volume claim is about; over trees the root
//!    and the tree's inner ranks moved `2⌈log₂ nb⌉`. The sparse schedule
//!    ships each rank only `Sᵢ` and `Rᵢ`, one message each way, and is
//!    taken when it is no slower and its busiest rank (the root) moves no
//!    more bytes and messages than the dense pick's: on a planar input a
//!    level-0 non-root reads about 1 % of `D(0)` (grid160 at
//!    `b = 1 600`), on R-MAT nearly all of it and the level stays dense.
//!    All three reduces sum in one order, so an answer does not depend on
//!    which ran,
//!
//!    **Who multiplies the hub tile.** Algorithm 1 gives `B(0,0)` to the
//!    level's rank 0 alone. LA-Decompose puts the highest-degree vertices
//!    first, so on a skewed input that one tile holds a third of the
//!    matrix and rank 0 computes for the whole iteration while the others
//!    wait in the reduce. Here rank `i`'s partial is
//!    `B(0,i)·D(i) + B(0,0)[rows of i]·D(0)`: the rows of the hub tile are
//!    split over the level's ranks ([`ArrowSpmm::hub_runs`]). It costs no
//!    message — after the broadcast every rank holds `D(0)`, and the
//!    reduction sums whatever the ranks put in their partials, so the
//!    rows arrive at the root with the sum that already runs.
//!
//!    *The rule.* The reduce cannot start before the slowest rank's
//!    pre-reduce work; the column-arm and diagonal multiplies run after a
//!    rank has left the reduce; the root waits for the reduce anyway. So
//!    the hub's entries are water-filled over the loads `own₀ = 0`,
//!    `ownᵢ = nnz B(0,i) + maxⱼ (nnz B(j,0) + nnz B(j,j))` — the root
//!    starts below the others by the longest post-reduce tail, which it
//!    would wait for regardless: with `T` the smallest level such that
//!    `Σᵢ max(0, T − ownᵢ) ≥ nnz B(0,0)`, rank `i`'s quota is `T − ownᵢ`,
//!    and the runs are cut in rank order at the row boundaries nearest to
//!    the running sum of the quotas. A hub tile that fits under the
//!    root's quota stays whole with the root and the level runs exactly
//!    as Algorithm 1 has it (grids, MAWI-, OSM- and GenBank-like inputs).
//!    Balancing each rank's *total* entries instead tops up ranks whose
//!    light compute hides a heavy reduce entry, and slows those inputs.
//!
//!    *What the rule may read.* Entry counts of the level's tiles, fixed
//!    when the plan is built — not `k`, the cost model or the dtype. A
//!    row of `C(0)` is then summed in one association whatever the
//!    operand width, which the serving engine's batching relies on
//!    (column `j` of a batched run bit-matches its single-column run on
//!    non-integer data too),
//! 3. **Backward aggregation** — partial results flow back `j → j−1`,
//!    summed into the coarser level's blocks, leaving `Y` distributed on
//!    level 0 exactly like the input X (§6.1: the iterate stays in `π₀`
//!    order, so iterations chain with no extra movement).

use crate::layout::{block_count, block_range};
use crate::traits::{apply_sigma, CommEstimate, DistSpmm, Sigma, SpmmRun};
use amd_comm::{
    broadcast_cost, broadcast_schedule, reduce_cost, reduce_schedule, CostModel, Group, Machine,
    RankCtx, Schedule,
};
use amd_sparse::spmm::{self, Finish};
use amd_sparse::{DenseMatrix, Dtype, SparseError, SparseResult};
use arrow_core::{ArrowDecomposition, ArrowMatrix};
use std::ops::Range;
use std::sync::Arc;

/// Route table entry: rows this rank ships to (or accepts from) one peer.
/// Sender and receiver hold mirrored routes built from the same position
/// pairs, so `local_rows` orders agree on both sides.
#[derive(Debug, Clone, Default)]
struct Route {
    /// Destination (forward) or source (backward) machine rank.
    peer: u32,
    /// Local row indices within this rank's block, in transfer order.
    local_rows: Vec<u32>,
}

/// Per-rank plan for one level.
#[derive(Debug, Clone, Default)]
struct RankPlan {
    /// Forward X sends to the next level.
    fwd_sends: Vec<Route>,
    /// Forward X receives from the previous level (peer = source).
    fwd_recvs: Vec<Route>,
    /// Backward Y sends to the previous level.
    bwd_sends: Vec<Route>,
    /// Backward Y receives from the next level.
    bwd_recvs: Vec<Route>,
}

/// Static description of one level's rank block.
#[derive(Debug, Clone)]
struct LevelPlan {
    /// First machine rank of the level.
    offset: u32,
    /// Number of ranks (= block rows) of the level.
    nb: u32,
    /// Active positions of the level.
    active_n: u32,
    /// The level's tiled arrow matrix.
    arrow: ArrowMatrix,
    /// Local rank `i` multiplies rows `hub_cuts[i]..hub_cuts[i + 1]` of
    /// the hub tile `B(0,0)` ([`hub_cuts`]).
    hub_cuts: Vec<u32>,
    /// Per local rank, the support of the level's broadcast: the rows of
    /// `D(0)` its tiles read, `colsupp B(i,0) ∪ colsupp B(0,0)[run i]`
    /// ([`supports`]; the root's is empty).
    reads: Vec<Vec<u32>>,
    /// Per local rank, the support of the level's reduce: the rows of its
    /// partial that can be non-zero, `rowsupp B(0,i) ∪ rowsupp
    /// B(0,0)[run i]` (the root's is empty).
    writes: Vec<Vec<u32>>,
    /// Per local rank: routing tables.
    rank_plans: Vec<RankPlan>,
}

impl LevelPlan {
    /// Height of `D(0)`: the rows the level's broadcast and reduction
    /// move (Algorithm 1).
    fn d0_rows(&self) -> u32 {
        let (z0, z1) = block_range(self.active_n, self.arrow.b(), 0);
        z1 - z0
    }

    /// The rows of `B(0,0)` local rank `i` multiplies.
    fn hub_run(&self, i: u32) -> Range<u32> {
        self.hub_cuts[i as usize]..self.hub_cuts[i as usize + 1]
    }

    /// Flops of local rank `i`'s share of `B(0,0) · D(0)`.
    fn hub_flops(&self, i: u32, k: u32) -> f64 {
        let indptr = self.arrow.row_tile(0).indptr();
        let run = self.hub_run(i);
        2.0 * (indptr[run.end as usize] - indptr[run.start as usize]) as f64 * k as f64
    }
}

/// Splits the rows of the hub tile `B(0,0)` over the level's ranks:
/// `cuts[i]..cuts[i + 1]` is rank `i`'s run (see the [module docs](self)
/// for the rule). Reads entry counts and nothing else.
fn hub_cuts(arrow: &ArrowMatrix) -> Vec<u32> {
    let nb = arrow.block_count();
    let hub = arrow.row_tile(0);
    let (rows, total) = (hub.rows(), hub.nnz());
    // What a rank multiplies before the reduce besides its share; every
    // non-root is lifted by the longest post-reduce multiply of the level.
    let tail = (1..nb)
        .map(|j| arrow.col_tile(j).nnz() + arrow.diag_tile(j).nnz())
        .max()
        .unwrap_or(0);
    let own: Vec<usize> = std::iter::once(0)
        .chain((1..nb).map(|i| arrow.row_tile(i).nnz() + tail))
        .collect();
    // The water level: the smallest one whose room holds the hub.
    let mut sorted = own.clone();
    sorted.sort_unstable();
    let (mut water, mut filled) = (0, 0);
    for (m, &load) in sorted.iter().enumerate() {
        if m > 0 && water <= load {
            break;
        }
        filled += load;
        water = (total + filled).div_ceil(m + 1);
    }
    // Quotas handed out in rank order; each cut is the row boundary
    // nearest to the quotas so far, so rounding does not pile up.
    let indptr = hub.indptr();
    let mut cuts = Vec::with_capacity(nb as usize + 1);
    cuts.push(0);
    let mut quota = 0;
    for load in own {
        quota = total.min(quota + water.saturating_sub(load));
        let above = indptr.partition_point(|&e| e < quota);
        let cut = if above > 0 && quota - indptr[above - 1] <= indptr[above] - quota {
            above - 1
        } else {
            above
        };
        // Whoever takes the last entry takes the empty rows behind it.
        cuts.push(if indptr[cut] == total {
            rows
        } else {
            cut as u32
        });
    }
    debug_assert!(cuts.windows(2).all(|w| w[0] <= w[1]) && cuts[nb as usize] == rows);
    cuts
}

/// The supports of a level's broadcast and reduce, per local rank in
/// block order ([`LevelPlan::reads`], [`LevelPlan::writes`]): one pass
/// over each non-root's column-arm tile and hub run, marking the rows of
/// `D(0)` they read in one array stamped with the rank, and one over the
/// row lengths of its row-arm tile and hub run.
fn supports(arrow: &ArrowMatrix, hub_cuts: &[u32]) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let hub = arrow.row_tile(0);
    let d0_rows = hub.rows();
    let mut stamp = vec![0u32; d0_rows as usize];
    let (mut reads, mut writes) = (vec![Vec::new()], vec![Vec::new()]);
    for i in 1..arrow.block_count() {
        let run = hub_cuts[i as usize]..hub_cuts[i as usize + 1];
        let hub_run =
            &hub.indices()[hub.indptr()[run.start as usize]..hub.indptr()[run.end as usize]];
        for &c in arrow.col_tile(i).indices().iter().chain(hub_run) {
            stamp[c as usize] = i;
        }
        reads.push((0..d0_rows).filter(|&c| stamp[c as usize] == i).collect());
        let row_tile = arrow.row_tile(i);
        writes.push(
            (0..d0_rows)
                .filter(|&r| row_tile.row_nnz(r) > 0 || (run.contains(&r) && hub.row_nnz(r) > 0))
                .collect(),
        );
    }
    (reads, writes)
}

/// Arrow decomposition SpMM bound to a decomposition.
pub struct ArrowSpmm {
    n: u32,
    b: u32,
    total_ranks: u32,
    levels: Vec<LevelPlan>,
    /// Vertex at position `p` of level 0 (`π₀⁻¹`), for X scatter/Y gather.
    level0_vertices: Vec<u32>,
    cost: CostModel,
    dtype: Dtype,
}

impl ArrowSpmm {
    /// Plans the distribution of a decomposition (rank counts, tiles,
    /// routing tables).
    pub fn new(d: &ArrowDecomposition) -> SparseResult<Self> {
        let n = d.n();
        let b = d.b();
        if d.order() == 0 {
            return Err(SparseError::InvalidCsr(
                "cannot distribute an empty decomposition".into(),
            ));
        }
        // Rank ranges per level.
        let mut levels: Vec<LevelPlan> = Vec::with_capacity(d.order());
        let mut offset = 0u32;
        for level in d.levels() {
            let nb = block_count(level.active_n, b);
            let arrow = level.to_arrow(b)?;
            let hub_cuts = hub_cuts(&arrow);
            let (reads, writes) = supports(&arrow, &hub_cuts);
            levels.push(LevelPlan {
                offset,
                nb,
                active_n: level.active_n,
                arrow,
                hub_cuts,
                reads,
                writes,
                rank_plans: vec![RankPlan::default(); nb as usize],
            });
            offset += nb;
        }
        let total_ranks = offset;

        // Routing tables: active position q of level t (vertex v) draws
        // its X from — and returns its Y through — the *deepest earlier
        // level where v is still active*. In a nested decomposition
        // (LA-Decompose output, whose active sets shrink monotonically)
        // that is always level t-1, the chained §6.1 layout. A spliced
        // decomposition ([`decompose_snapshot_incremental`]) is not
        // nested: the re-decomposed region is lifted to the deepest
        // levels, so a vertex can re-enter the active prefix after
        // leaving it, and its X must be routed from further up the
        // chain. Route content, not level adjacency, drives the
        // send/recv loops, so the cross-level hops need no special
        // casing there. The precondition — every vertex active at a
        // level after the first is active at an earlier one — holds for
        // everything LA-Decompose and the splice return: a splice that
        // would break it (the delta attached a vertex no level held)
        // falls back cold, `FallbackReason::Unroutable`. The error
        // below is for decompositions assembled elsewhere.
        //
        // [`decompose_snapshot_incremental`]: arrow_core::incremental::decompose_snapshot_incremental
        for t in 1..d.order() {
            let pi_t = &d.levels()[t].perm;
            let (active_t, off_t) = (levels[t].active_n, levels[t].offset);
            // (src_level, src_rank, dst_rank, src_row, dst_row).
            let mut pairs: Vec<(usize, u32, u32, u32, u32)> = Vec::new();
            for q in 0..active_t {
                let v = pi_t.vertex_at(q);
                let Some(s) = (0..t)
                    .rev()
                    .find(|&lv| d.levels()[lv].perm.position(v) < levels[lv].active_n)
                else {
                    return Err(SparseError::InvalidCsr(format!(
                        "vertex {v} is active at level {t} but at no earlier \
                         level; the decomposition cannot be distributed"
                    )));
                };
                let p = d.levels()[s].perm.position(v);
                let src = levels[s].offset + p / b;
                let dst = off_t + q / b;
                pairs.push((s, src, dst, p % b, q % b));
            }
            pairs.sort_unstable_by_key(|&(_, src, dst, sr, dr)| (src, dst, sr, dr));
            let mut idx = 0;
            while idx < pairs.len() {
                let (s, src, dst, _, _) = pairs[idx];
                let off_s = levels[s].offset;
                let mut local_rows = Vec::new();
                let mut peer_rows = Vec::new();
                while idx < pairs.len() && pairs[idx].1 == src && pairs[idx].2 == dst {
                    local_rows.push(pairs[idx].3);
                    peer_rows.push(pairs[idx].4);
                    idx += 1;
                }
                // Forward: src (level s) sends to dst (level t).
                levels[s].rank_plans[(src - off_s) as usize]
                    .fwd_sends
                    .push(Route {
                        peer: dst,
                        local_rows: local_rows.clone(),
                    });
                levels[t].rank_plans[(dst - off_t) as usize]
                    .fwd_recvs
                    .push(Route {
                        peer: src,
                        local_rows: peer_rows.clone(),
                    });
                // Backward: dst (level t) sends Y back to src (level s).
                levels[t].rank_plans[(dst - off_t) as usize]
                    .bwd_sends
                    .push(Route {
                        peer: src,
                        local_rows: peer_rows,
                    });
                levels[s].rank_plans[(src - off_s) as usize]
                    .bwd_recvs
                    .push(Route {
                        peer: dst,
                        local_rows,
                    });
            }
        }
        let level0_vertices: Vec<u32> = (0..n).map(|p| d.levels()[0].perm.vertex_at(p)).collect();
        Ok(Self {
            n,
            b,
            total_ranks,
            levels,
            level0_vertices,
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
    /// narrowed wire costs. The collectives' schedules are selected on
    /// the bytes the machine charges (`f64`), in the run and in the
    /// prediction alike, so an `F32` plan predicts the messages the run
    /// will send and exactly half its bytes.
    ///
    /// [`predict_volume`]: DistSpmm::predict_volume
    pub fn with_dtype(mut self, dtype: Dtype) -> Self {
        self.dtype = dtype;
        self
    }

    /// Arrow width.
    pub fn b(&self) -> u32 {
        self.b
    }

    /// Per level, per rank of the level in block order: the rows of the
    /// hub tile `B(0,0)` the rank multiplies. A level's runs are
    /// contiguous, in rank order, and cover `0..` the height of `D(0)`.
    pub fn hub_runs(&self) -> Vec<Vec<Range<u32>>> {
        self.levels
            .iter()
            .map(|level| (0..level.nb).map(|i| level.hub_run(i)).collect())
            .collect()
    }

    /// Per level: the supports its broadcast and its reduce are given,
    /// each per rank of the level in block order (the root's empty) — the
    /// rows of `D(0)` a rank reads, and the rows of its partial that can
    /// be non-zero.
    pub fn supports(&self) -> Vec<[&[Vec<u32>]; 2]> {
        self.levels
            .iter()
            .map(|level| [level.reads.as_slice(), level.writes.as_slice()])
            .collect()
    }

    /// Per level: the schedules its broadcast and its reduce take on a
    /// `k`-column operand.
    pub fn schedules(&self, k: u32) -> Vec<[Schedule; 2]> {
        self.levels
            .iter()
            .map(|level| {
                let (nb, rows, k) = (level.nb as usize, level.d0_rows() as usize, k as usize);
                [
                    broadcast_schedule(nb, rows, k, &self.cost, Some(&level.reads)),
                    reduce_schedule(nb, rows, k, &self.cost, Some(&level.writes)),
                ]
            })
            .collect()
    }

    /// Locates the level and local index of a machine rank.
    fn locate(&self, rank: u32) -> (usize, u32) {
        for (j, l) in self.levels.iter().enumerate() {
            if rank < l.offset + l.nb {
                return (j, rank - l.offset);
            }
        }
        unreachable!("rank {rank} beyond total {}", self.total_ranks)
    }
}

/// One level's Algorithm 1: multiply the arrow matrix with the
/// block-distributed `D`, consuming this rank's `D(i)` block and
/// returning its `C(i)` block. `group` is the level's ranks in block
/// order, so this rank is its member `i`. Tiles multiply the received
/// and owned buffers where they lie ([`spmm::spmm_slices`]). A non-root
/// leaves its `D(i)` buffer in `spare` for its next call's partial.
fn arrow_multiply(
    ctx: &mut RankCtx,
    group: &Group,
    level: &LevelPlan,
    d_block: Vec<f64>,
    k: u32,
    dtype: Dtype,
    spare: &mut Vec<f64>,
) -> Vec<f64> {
    let my_i = group.my_idx() as u32;
    let (r0, r1) = block_range(level.active_n, level.arrow.b(), my_i);
    let my_rows = (r1 - r0) as usize;
    debug_assert_eq!(d_block.len(), my_rows * k as usize);

    // Broadcast D(0) from the level's first rank (Algorithm 1, line 1):
    // shared, so the root, every relay and every receiver read one
    // buffer — or, on the sparse schedule, only the rows the rank reads.
    let d_block = Arc::new(d_block);
    let d0_rows = level.d0_rows();
    let d0 = group.broadcast_rows(
        ctx,
        0,
        (my_i == 0).then(|| Arc::clone(&d_block)),
        d0_rows as usize,
        k as usize,
        Some(&level.reads),
    );

    // Row-arm partial B(0,i) · D(i) (line 2). The root's row-arm tile is
    // the hub tile, which the level shares: every rank adds the rows of
    // B(0,0) · D(0) it was planned into its partial, and the reduction
    // (line 3) carries them to the root with the rest. The root adds its
    // run into zeros; a non-root's row-arm multiply overwrites every row
    // (an empty one with +0.0), so its buffer is recycled, not zeroed.
    let partial_len = (d0_rows * k) as usize;
    let mut partial0 = if my_i == 0 {
        vec![0.0; partial_len]
    } else {
        let mut partial = std::mem::take(spare);
        partial.resize(partial_len, 0.0);
        let row_tile = level.arrow.row_tile(my_i);
        ctx.compute_flops(spmm::spmm_flops(row_tile, k));
        spmm::spmm_slices(
            row_tile,
            &d_block,
            k,
            None,
            &mut partial,
            Finish::Overwrite,
            dtype,
        )
        .expect("row tile shapes align");
        partial
    };
    let run = level.hub_run(my_i);
    ctx.compute_flops(level.hub_flops(my_i, k));
    spmm::spmm_slices_rows(
        level.arrow.row_tile(0),
        run.clone(),
        &d0,
        k,
        &mut partial0[(run.start * k) as usize..(run.end * k) as usize],
        Finish::Accumulate,
        dtype,
    )
    .expect("hub tile shapes align");
    let reduced = group.reduce_sum_rows(ctx, 0, partial0, k as usize, Some(&level.writes));

    // C(i) (lines 4–6).
    if my_i == 0 {
        reduced.expect("rank 0 of the level holds the reduction")
    } else {
        let mut c = vec![0.0; my_rows * k as usize];
        let col_tile = level.arrow.col_tile(my_i);
        ctx.compute_flops(spmm::spmm_flops(col_tile, k));
        spmm::spmm_slices(col_tile, &d0, k, None, &mut c, Finish::Overwrite, dtype)
            .expect("column tile shapes align");
        let diag_tile = level.arrow.diag_tile(my_i);
        ctx.compute_flops(spmm::spmm_flops(diag_tile, k));
        spmm::spmm_slices(
            diag_tile,
            &d_block,
            k,
            None,
            &mut c,
            Finish::Accumulate,
            dtype,
        )
        .expect("diagonal tile shapes align");
        // Only the root's D(i) is broadcast; a non-root's is its own.
        *spare = Arc::try_unwrap(d_block).unwrap_or_default();
        c
    }
}

impl DistSpmm for ArrowSpmm {
    fn name(&self) -> String {
        format!("Arrow b={} l={}", self.b, self.levels.len())
    }

    fn ranks(&self) -> u32 {
        self.total_ranks
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
        let kk = k as usize;
        let l = self.levels.len();
        let machine = Machine::new(self.total_ranks).with_cost(self.cost);
        let report = machine.run(|ctx| {
            let rank = ctx.rank();
            let (j, my_i) = self.locate(rank);
            let level = &self.levels[j];
            let plan = &level.rank_plans[my_i as usize];
            let group = Group::new(ctx, (level.offset..level.offset + level.nb).collect());
            let (r0, r1) = block_range(level.active_n, self.b, my_i);
            let my_rows = (r1 - r0) as usize;
            // Level 0 starts with its X block (initial layout, free);
            // other levels start empty and are filled by propagation.
            let mut x_block: Vec<f64> = if j == 0 {
                let mut buf = Vec::with_capacity(my_rows * kk);
                for p in r0..r1 {
                    buf.extend_from_slice(x.row(self.level0_vertices[p as usize]));
                }
                buf
            } else {
                vec![0.0; my_rows * kk]
            };
            let mut spare = Vec::new();
            for iter in 0..iters {
                let base_tag = (iter as u64) << 8;
                // 1. Forward propagation j → j+1 (Algorithm 2, lines 1–5).
                if j > 0 {
                    for route in &plan.fwd_recvs {
                        let buf: Vec<f64> = ctx.recv(route.peer, base_tag | 1);
                        for (idx, &row) in route.local_rows.iter().enumerate() {
                            x_block[row as usize * kk..(row as usize + 1) * kk]
                                .copy_from_slice(&buf[idx * kk..(idx + 1) * kk]);
                        }
                    }
                }
                if j + 1 < l {
                    for route in &plan.fwd_sends {
                        let mut buf = Vec::with_capacity(route.local_rows.len() * kk);
                        for &row in &route.local_rows {
                            buf.extend_from_slice(
                                &x_block[row as usize * kk..(row as usize + 1) * kk],
                            );
                        }
                        ctx.send(route.peer, base_tag | 1, buf);
                    }
                }
                // 2. Per-level arrow multiply (Algorithm 1).
                let mut y_block =
                    arrow_multiply(ctx, &group, level, x_block, k, self.dtype, &mut spare);
                // 3. Backward aggregation j+1 → j (Algorithm 2, lines 7–12).
                if j + 1 < l {
                    for route in &plan.bwd_recvs {
                        let buf: Vec<f64> = ctx.recv(route.peer, base_tag | 2);
                        for (idx, &row) in route.local_rows.iter().enumerate() {
                            for col in 0..kk {
                                y_block[row as usize * kk + col] += buf[idx * kk + col];
                            }
                        }
                    }
                }
                if j > 0 {
                    for route in &plan.bwd_sends {
                        let mut buf = Vec::with_capacity(route.local_rows.len() * kk);
                        for &row in &route.local_rows {
                            buf.extend_from_slice(
                                &y_block[row as usize * kk..(row as usize + 1) * kk],
                            );
                        }
                        ctx.send(route.peer, base_tag | 2, buf);
                    }
                }
                x_block = y_block;
                // σ acts on the complete Y, which lives on level 0 after
                // aggregation; deeper levels are overwritten by the next
                // forward propagation.
                if j == 0 {
                    apply_sigma(&mut x_block, sigma);
                }
            }
            if j == 0 {
                x_block
            } else {
                Vec::new()
            }
        });
        // Assemble Y: level 0 blocks hold positions 0..active_0; rows of
        // vertices isolated in A are zero.
        let mut y = DenseMatrix::zeros(self.n, k);
        let level0 = &self.levels[0];
        for i in 0..level0.nb {
            let (r0, r1) = block_range(level0.active_n, self.b, i);
            let block = &report.results[(level0.offset + i) as usize];
            for (offset, p) in (r0..r1).enumerate() {
                let v = self.level0_vertices[p as usize];
                y.row_mut(v)
                    .copy_from_slice(&block[offset * kk..(offset + 1) * kk]);
            }
        }
        Ok(SpmmRun {
            y,
            stats: report.stats,
            iters,
        })
    }

    fn predict_ranks(&self, k: u32) -> Vec<CommEstimate> {
        let kb = self.dtype.bytes() as f64 * k as f64;
        // The collectives are charged per element moved: what the machine
        // moves at 8 bytes a value, a `dtype` wire moves at `dtype` bytes.
        let scale = self.dtype.bytes() as f64 / 8.0;
        // Levels hold consecutive ranks, in level order.
        let mut ranks = Vec::with_capacity(self.total_ranks as usize);
        for level in &self.levels {
            let (nb, d0_rows) = (level.nb as usize, level.d0_rows() as usize);
            // Broadcast of D(0) from, and reduction of the row-arm
            // partials to, the level root: the closed forms of the
            // schedule each call will select, on the same supports.
            let bcast = broadcast_cost(nb, d0_rows, k as usize, &self.cost, Some(&level.reads));
            let reduce = reduce_cost(nb, d0_rows, k as usize, &self.cost, Some(&level.writes));
            for (i, plan) in level.rank_plans.iter().enumerate() {
                let mut bytes = 0.0;
                let mut msgs = 0.0;
                // Point-to-point propagation/aggregation routes: exact.
                for route in plan
                    .fwd_sends
                    .iter()
                    .chain(&plan.fwd_recvs)
                    .chain(&plan.bwd_sends)
                    .chain(&plan.bwd_recvs)
                {
                    bytes += route.local_rows.len() as f64 * kb;
                    msgs += 1.0;
                }
                for moved in [bcast[i], reduce[i]] {
                    bytes += moved.bytes() as f64 * scale;
                    msgs += moved.msgs() as f64;
                }
                // Local tile multiplies (Algorithm 1, lines 2–6): the
                // rank's share of the hub tile and its own three.
                let mut flops = level.hub_flops(i as u32, k);
                if i > 0 {
                    flops += spmm::spmm_flops(level.arrow.row_tile(i as u32), k);
                    flops += spmm::spmm_flops(level.arrow.col_tile(i as u32), k);
                    flops += spmm::spmm_flops(level.arrow.diag_tile(i as u32), k);
                }
                ranks.push(CommEstimate {
                    max_rank_bytes: bytes,
                    max_rank_messages: msgs,
                    max_rank_flops: flops,
                });
            }
        }
        ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::iterated_spmm;
    use amd_graph::generators::{basic, datasets, random};
    use amd_sparse::CsrMatrix;
    use arrow_core::{la_decompose, DecomposeConfig, RandomForestLa};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn decompose(a: &CsrMatrix<f64>, b: u32, seed: u64) -> ArrowDecomposition {
        la_decompose(
            a,
            &DecomposeConfig::with_width(b),
            &mut RandomForestLa::new(seed),
        )
        .unwrap()
    }

    fn check(a: &CsrMatrix<f64>, b: u32, k: u32, iters: u32) -> SpmmRun {
        let d = decompose(a, b, 42);
        assert_eq!(d.validate(a).unwrap(), 0.0);
        let alg = ArrowSpmm::new(&d).unwrap();
        let x = DenseMatrix::from_fn(a.rows(), k, |r, c| (((r * 5 + c * 3) % 9) as f64) - 4.0);
        let run = alg.run(&x, iters).unwrap();
        let expected = iterated_spmm(a, &x, iters).unwrap();
        let err = run.y.max_abs_diff(&expected).unwrap();
        assert!(err < 1e-6, "b={b} k={k} iters={iters}: err {err}");
        run
    }

    /// Regression: a *spliced* decomposition (incremental refresh) is
    /// not nested — the lifted region levels sit below prior levels
    /// whose active prefix already dropped the region's vertices, so
    /// their X must route from further up the chain than level t-1.
    /// The old adjacent-level-only routing silently served wrong
    /// answers here (the operator sum validates exactly either way).
    #[test]
    fn spliced_non_nested_decomposition_stays_exact() {
        use arrow_core::decompose_snapshot;
        use arrow_core::incremental::{decompose_snapshot_incremental, IncrementalPolicy};
        let n = 64u32;
        let mut coo = amd_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            coo.push(i, (i + 1) % n, 1.0).unwrap();
            coo.push((i + 1) % n, i, 1.0).unwrap();
        }
        for (r, c) in [
            (62u32, 16u32),
            (31, 23),
            (4, 20),
            (8, 53),
            (1, 33),
            (13, 25),
        ] {
            coo.push(r, c, 1.0).unwrap();
        }
        let a = coo.to_csr();
        let cfg = DecomposeConfig::with_width(16);
        let prior = decompose_snapshot(&a, &cfg, 42).unwrap();
        let mut patch = amd_sparse::CooMatrix::new(n, n);
        patch.push(4, 13, 1.0).unwrap();
        let merged = amd_sparse::ops::apply_delta(&a, &patch.to_csr()).unwrap();
        let (d, outcome) = decompose_snapshot_incremental(
            &merged,
            &cfg,
            42,
            Some(&prior),
            Some(&[4, 13]),
            &IncrementalPolicy::default(),
        )
        .unwrap();
        assert!(outcome.incremental, "delta must take the splice path");
        assert_eq!(d.validate(&merged).unwrap(), 0.0);
        // The spliced chain must genuinely be non-nested, or this test
        // no longer regression-covers the cross-level routes.
        let non_nested = (1..d.order()).any(|t| {
            let lvl = &d.levels()[t];
            let prev = &d.levels()[t - 1];
            (0..lvl.active_n)
                .map(|q| lvl.perm.vertex_at(q))
                .any(|v| prev.perm.position(v) >= prev.active_n)
        });
        assert!(non_nested, "splice produced a nested chain; repro decayed");
        let alg = ArrowSpmm::new(&d).unwrap();
        let x = DenseMatrix::from_fn(n, 1, |r, _| (((3 * r) % 11) as f64) - 5.0);
        let run = alg.run(&x, 2).unwrap();
        let want = iterated_spmm(&merged, &x, 2).unwrap();
        assert_eq!(
            run.y.max_abs_diff(&want).unwrap(),
            0.0,
            "distributed multiply on the spliced decomposition must be exact"
        );
    }

    #[test]
    fn star_single_level() {
        let a: CsrMatrix<f64> = basic::star(60).to_adjacency();
        let run = check(&a, 8, 3, 1);
        assert!(run.ranks_used() >= 1);
    }

    #[test]
    fn path_multi_block() {
        let a: CsrMatrix<f64> = basic::path(50).to_adjacency();
        check(&a, 8, 2, 2);
    }

    #[test]
    fn random_tree_multi_level() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a: CsrMatrix<f64> = random::random_tree(400, &mut rng).to_adjacency();
        let run = check(&a, 32, 4, 2);
        assert!(run.stats.ranks.len() >= 4, "expected several ranks");
    }

    #[test]
    fn dataset_graphs_match_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for kind in [datasets::DatasetKind::Mawi, datasets::DatasetKind::GenBank] {
            let g = kind.generate(800, &mut rng);
            let a: CsrMatrix<f64> = g.to_adjacency();
            check(&a, 64, 2, 2);
        }
    }

    #[test]
    fn values_and_diagonal_preserved() {
        let mut coo = amd_sparse::CooMatrix::new(30, 30);
        for v in 0..30u32 {
            coo.push(v, v, 0.5 + v as f64).unwrap();
        }
        for v in 1..30u32 {
            coo.push_sym(0, v, 1.0 / v as f64).unwrap();
        }
        coo.push_sym(7, 8, 3.0).unwrap();
        let a = coo.to_csr();
        check(&a, 4, 3, 2);
    }

    #[test]
    fn iterates_chain_correctly() {
        // 3 iterations through a multi-level decomposition.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = datasets::genbank_like(500, &mut rng);
        let a: CsrMatrix<f64> = g.to_adjacency();
        check(&a, 32, 2, 3);
    }

    #[test]
    fn k1_vector_case() {
        let a: CsrMatrix<f64> = basic::cycle(40).to_adjacency();
        check(&a, 8, 1, 2);
    }

    #[test]
    fn f32_dtype_halves_predicted_bytes_and_stays_exact_on_integers() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let a: CsrMatrix<f64> = random::random_tree(300, &mut rng).to_adjacency();
        let d = decompose(&a, 16, 42);
        let alg64 = ArrowSpmm::new(&d).unwrap();
        let alg32 = ArrowSpmm::new(&d)
            .unwrap()
            .with_dtype(amd_sparse::Dtype::F32);
        let est64 = alg64.predict_volume(4);
        let est32 = alg32.predict_volume(4);
        assert_eq!(est32.max_rank_bytes, est64.max_rank_bytes / 2.0);
        assert_eq!(est32.max_rank_messages, est64.max_rank_messages);
        // Integer data inside the f32 mantissa: the emulated f32 local
        // multiplies are exact, so both precisions agree bit-for-bit.
        let x = DenseMatrix::from_fn(300, 4, |r, c| (((r * 5 + c * 3) % 9) as f64) - 4.0);
        let y64 = alg64.run(&x, 2).unwrap().y;
        let y32 = alg32.run(&x, 2).unwrap().y;
        assert_eq!(y64, y32);
    }

    #[test]
    fn empty_decomposition_rejected() {
        let a = CsrMatrix::<f64>::zeros(4, 4);
        let d = la_decompose(
            &a,
            &DecomposeConfig::with_width(2),
            &mut RandomForestLa::new(1),
        )
        .unwrap();
        assert!(ArrowSpmm::new(&d).is_err());
    }

    impl SpmmRun {
        fn ranks_used(&self) -> usize {
            self.stats.ranks.len()
        }
    }
}
