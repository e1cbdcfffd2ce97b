//! Distributed SpMM through an arrow matrix decomposition
//! (§4.1, Algorithms 1 and 2 of the paper).
//!
//! Level `j` with `active_n_j` active positions gets `⌈active_n_j / b⌉`
//! consecutive ranks; rank `i` of a level holds the tiles `B(0,i)`,
//! `B(i,0)`, `B(i,i)`, the feature block `D(i)` (Figure 2) and a run of
//! rows of the hub tile `B(0,0)`. One multiply iteration:
//!
//! 1. **Forward propagation** (Algorithm 2): each rank of a level `t ≥ 1`
//!    receives its rows point to point from the ranks that *hold* them —
//!    its block `D(i)`, and under the direct feed also the rows of `D(0)`
//!    it reads ([below](#who-feeds-a-deeper-level)).
//! 2. **Arrow multiply** (Algorithm 1): broadcast `D(0)` within the level,
//!    reduce the row-arm partials to the level's rank 0, and compute
//!    `C(i) = B(i,0)·D(0) + B(i,i)·D(i)`. A directly fed level runs the
//!    same multiplies with no collective. Rank `i` reads only the rows
//!    `Sᵢ = colsupp B(i,0) ∪ colsupp B(0,0)[runᵢ]` of `D(0)` and its
//!    partial is non-zero only on `Rᵢ = rowsupp B(0,i) ∪ rowsupp
//!    B(0,0)[runᵢ]` ([`ArrowSpmm::supports`]), and the collectives pick a
//!    plan per call from those supports ([`Collective`]): the sparse one
//!    ships each rank only `Sᵢ` and `Rᵢ` (a level-0 non-root of grid160 at
//!    `b = 1 600` reads about 1 % of `D(0)`), the dense ones the `b × k`
//!    block §6 prices — on the large schedules about four blocks a rank,
//!    whatever the level's width. All reduces sum in one order.
//!
//!    **Who multiplies the hub tile.** On a skewed input `B(0,0)` holds a
//!    third of the matrix, so its rows are split over the level's ranks
//!    ([`ArrowSpmm::hub_runs`]) at no message cost: every rank holds
//!    `D(0)` after the broadcast and the reduce sums whatever the partials
//!    hold. The entries are water-filled over the loads `own₀ = 0`,
//!    `ownᵢ = nnz B(0,i) + maxⱼ (nnz B(j,0) + nnz B(j,j))` (the root waits
//!    for the reduce anyway, and the post-reduce tails run after it), and
//!    cut in rank order at the row boundaries nearest the running quota.
//!    A hub that fits under the root's quota stays whole with the root,
//!    as Algorithm 1 has it (grids, MAWI-, OSM- and GenBank-like inputs).
//!    The rule reads entry counts only — not `k`, the cost model or the
//!    dtype — so a row of `C(0)` is summed in one association whatever
//!    the operand width, which the engine's batching relies on.
//! 3. **Backward aggregation** (Algorithm 2): each rank of a level `t ≥ 1`
//!    returns its rows to their holders, which add them into their blocks
//!    (under the direct feed the partials of `D(0)` too, summed there),
//!    leaving `Y` on level 0 laid out like `X` (§6.1), so iterations chain.
//!
//! # Who feeds a deeper level
//!
//! A row's holder is the deepest earlier level where its vertex is active
//! (`plan_routes`). Under [`Feed::Relay`], Algorithm 1 as written, a
//! deeper level's root receives all of `D(0)`, broadcasts it, and returns
//! `C(0)` after the reduce; on grid160 at `k = 16` that made a level-1
//! root the busiest rank (655 616 B). Under [`Feed::Direct`] no deeper
//! level runs a collective: each rank receives exactly the rows it reads
//! from their holders and returns its rows there, and a holder completes
//! each row of the level's `D(0)` it holds (`Fold`) in the root-last
//! order every reduce sums in ([`fold_nonroots`]), a member that did not
//! ship the row entering as a literal `+0.0` — so answers are bit for bit
//! the same whichever feed ran.
//!
//! Routes and collectives are one kind of step list: `ArrowSpmm::new`
//! builds every level's candidate collective plans and both feeds'
//! forward and backward routes ([`Plan::routes`]) once, the one
//! interpreter in `amd_comm` runs them, and the traffic the feed choice,
//! [`ArrowSpmm::schedules`] and `predict_ranks` read is counted from the
//! same steps. The direct feed is taken when its busiest rank moves no
//! more bytes and no more messages than under the relay, and fewer of
//! one: the grids take it; the R-MAT tenants of the serving benchmark
//! keep the relay, where it would add 1–13 % to the busiest rank.

use crate::layout::{block_count, block_range};
use crate::traits::{apply_sigma, CommEstimate, DistSpmm, Sigma, SpmmRun};
use amd_comm::{
    fold_nonroots, Collective, CostModel, Dir, Group, Machine, Plan, RankCtx, Schedule,
};
use amd_sparse::spmm::{self, Finish};
use amd_sparse::{DenseMatrix, Dtype, SparseError, SparseResult};
use arrow_core::{ArrowDecomposition, ArrowMatrix};
use std::ops::Range;
use std::sync::Arc;

/// How the levels below the first are fed and drained (see the
/// [module docs](self#who-feeds-a-deeper-level)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// Algorithm 1 as the paper has it: a deeper level's root receives all
    /// of `D(0)`, broadcasts it, and gathers the partials back.
    Relay,
    /// A deeper level's ranks receive the rows they read from the ranks
    /// that hold them and return their rows there, with no collective.
    Direct,
}

/// One feed's point-to-point steps — forward the rows each rank reads,
/// backward the rows it returns — and how each rank completes its block
/// from what deeper levels return.
///
/// A rank names its rows in one index space: with `h` its block's height,
/// row `r < h` is row `r` of its block — of `D(i)` forward, of `C(i)`
/// backward — and `h + r` is row `r` of `D(0)` forward and of its partial
/// backward, which only a non-root of a directly fed level moves. A
/// directly fed root's block *is* `D(0)`, and what it returns is its
/// partial. A received backward row lands in an inbox slot.
struct Routes {
    fwd: Plan,
    bwd: Plan,
    /// Per machine rank.
    ranks: Vec<RankPlan>,
}

/// How one rank completes its block from its inbox.
#[derive(Debug, Clone, Default)]
struct RankPlan {
    /// Inbox height: the folds' rows first, then the received ones.
    slots: u32,
    /// The rows of deeper levels' `D(0)` this rank completes, deepest
    /// level first.
    folds: Vec<Fold>,
    /// `(row, slot)`: row `row` of the block gains inbox slot `slot`.
    adds: Vec<(u32, u32)>,
}

/// The rows of one directly fed level's `D(0)` that a holder completes:
/// the reduction its root would have summed, then what deeper levels
/// return for them — the relay's association, row by row.
#[derive(Debug, Clone)]
struct Fold {
    level: usize,
    /// Ranks of the level.
    members: u32,
    /// The rows' inbox slots.
    nodes: Range<u32>,
    /// `(row, member, slot)`: member `member`'s part of the fold's row
    /// `row` (counted from `nodes.start`) arrived in inbox slot `slot`.
    /// A member that sent none has `+0.0` there.
    parts: Vec<(u32, u32, u32)>,
    /// `(node, slot)`: inbox slot `node` gains slot `slot`.
    adds: Vec<(u32, u32)>,
}

impl Fold {
    /// `x_root + (c₁ + c₂ + c₄ + …)` per row, in the root-last order of
    /// every reduce in `amd_comm`, then the deeper levels' rows on top.
    fn complete(&self, inbox: &mut [f64], kk: usize) {
        let len = self.nodes.len() * kk;
        let mut pieces = vec![vec![0.0; len]; self.members as usize];
        for &(row, member, slot) in &self.parts {
            let (row, slot) = (row as usize * kk, slot as usize * kk);
            pieces[member as usize][row..row + kk].copy_from_slice(&inbox[slot..slot + kk]);
        }
        let (root, nonroots) = pieces.split_first_mut().expect("a level has a root");
        if !nonroots.is_empty() {
            let nonroots: Vec<&[f64]> = nonroots.iter().map(Vec::as_slice).collect();
            let folded = fold_nonroots(&nonroots, self.members as usize);
            for (a, b) in root.iter_mut().zip(&folded) {
                *a += b;
            }
        }
        let first = self.nodes.start as usize * kk;
        inbox[first..first + len].copy_from_slice(root);
        add_slots(inbox, &self.adds, kk);
    }
}

/// `into[row] += inbox[slot]` for each `(row, slot)`.
fn add_rows(into: &mut [f64], inbox: &[f64], adds: &[(u32, u32)], kk: usize) {
    for &(row, slot) in adds {
        let (row, slot) = (row as usize * kk, slot as usize * kk);
        for (a, b) in into[row..row + kk].iter_mut().zip(&inbox[slot..slot + kk]) {
            *a += b;
        }
    }
}

/// [`add_rows`] within one buffer.
fn add_slots(inbox: &mut [f64], adds: &[(u32, u32)], kk: usize) {
    for &(node, slot) in adds {
        let (node, slot) = (node as usize * kk, slot as usize * kk);
        for c in 0..kk {
            inbox[node + c] += inbox[slot + c];
        }
    }
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
    /// ([`supports`]; the root's, which the collectives do not read, is
    /// its hub run's alone).
    reads: Vec<Vec<u32>>,
    /// Per local rank, the support of the level's reduce: the rows of its
    /// partial that can be non-zero, `rowsupp B(0,i) ∪ rowsupp
    /// B(0,0)[run i]` (the root's is its hub run's alone).
    writes: Vec<Vec<u32>>,
    /// The plans the level's broadcast of `D(0)` and reduce of the
    /// partials can take, on those supports.
    bcast: Collective,
    reduce: Collective,
}

impl LevelPlan {
    /// Height of `D(0)`: the rows the level's broadcast and reduction
    /// move (Algorithm 1).
    fn d0_rows(&self) -> u32 {
        self.height(0)
    }

    /// The rows of `B(0,0)` local rank `i` multiplies.
    fn hub_run(&self, i: u32) -> Range<u32> {
        self.hub_cuts[i as usize]..self.hub_cuts[i as usize + 1]
    }

    /// Height of local rank `i`'s block.
    fn height(&self, i: u32) -> u32 {
        let (r0, r1) = block_range(self.active_n, self.arrow.b(), i);
        r1 - r0
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
/// over each rank's column-arm tile and hub run, marking the rows of
/// `D(0)` they read in one array stamped with the rank, and one over the
/// row lengths of its row-arm tile and hub run. The root's arms are the
/// hub tile itself, so its supports are its run's.
fn supports(arrow: &ArrowMatrix, hub_cuts: &[u32]) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let hub = arrow.row_tile(0);
    let d0_rows = hub.rows();
    let mut stamp = vec![u32::MAX; d0_rows as usize];
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for i in 0..arrow.block_count() {
        let run = hub_cuts[i as usize]..hub_cuts[i as usize + 1];
        let hub_run =
            &hub.indices()[hub.indptr()[run.start as usize]..hub.indptr()[run.end as usize]];
        let arms = (i > 0).then(|| (arrow.col_tile(i), arrow.row_tile(i)));
        let col_arm = arms.map_or(&[][..], |(col_tile, _)| col_tile.indices());
        for &c in col_arm.iter().chain(hub_run) {
            stamp[c as usize] = i;
        }
        reads.push((0..d0_rows).filter(|&c| stamp[c as usize] == i).collect());
        writes.push(
            (0..d0_rows)
                .filter(|&r| {
                    arms.is_some_and(|(_, row_tile)| row_tile.row_nnz(r) > 0)
                        || (run.contains(&r) && hub.row_nnz(r) > 0)
                })
                .collect(),
        );
    }
    (reads, writes)
}

/// Where a returned row goes at the rank that holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// A row of the holder's block.
    Row(u32),
    /// Row `pos` of level `level`'s `D(0)`, which the holder completes.
    Node(usize, u32),
}

impl RankPlan {
    /// A fresh inbox slot.
    fn slot(&mut self) -> u32 {
        self.slots += 1;
        self.slots - 1
    }

    /// Adds inbox slot `slot` into `into` once it is complete; `node` is
    /// where each folded row sits ([`plan_routes`]). A row gains at most
    /// one returned row: a vertex's next active level is its only child.
    fn gain(&mut self, into: Target, slot: u32, node: &[Vec<u32>]) {
        match into {
            Target::Row(row) => self.adds.push((row, slot)),
            Target::Node(s, p) => fold_of(&mut self.folds, s)
                .adds
                .push((node[s][p as usize], slot)),
        }
    }
}

/// A feed's forward and backward moves ([`plan_routes`]).
type Moves = [Vec<(u32, u32, u32, u32)>; 2];

/// Both feeds' routes, indexed by [`Feed`]: forward moves `(holder,
/// reader, holder row, reader row)` and backward moves `(sender, holder,
/// sender row, inbox slot)`, each slot taken as its move is planned.
///
/// Active position `q` of level `t ≥ 1` (vertex `v`) has two homes. Its
/// *relay home* is the deepest earlier level where `v` is active. In a
/// nested decomposition (LA-Decompose output, whose active sets shrink
/// monotonically) that is always level `t − 1`, the chained §6.1 layout. A
/// spliced decomposition ([`decompose_snapshot_incremental`]) is not
/// nested: the re-decomposed region is lifted to the deepest levels, so a
/// vertex can re-enter the active prefix after leaving it, and its X must
/// be routed from further up the chain. Route content, not level
/// adjacency, drives the send/recv loops, so the cross-level hops need no
/// special casing there. Its *direct home* is the deepest earlier level
/// where `v` is active outside the block of a deeper level's root —
/// level 0 holds every block — because under the direct feed no such
/// root holds `D(0)`. The homes differ only where `v` sits in some deeper
/// level's block 0, and the relay home's row is then a row the direct
/// home completes ([`Fold`]).
///
/// The precondition — every vertex active at a level after the first is
/// active at an earlier one — holds for everything LA-Decompose and the
/// splice return: a splice that would break it (the delta attached a
/// vertex no level held) falls back cold, `FallbackReason::Unroutable`.
/// The error below is for decompositions assembled elsewhere.
///
/// [`decompose_snapshot_incremental`]: arrow_core::incremental::decompose_snapshot_incremental
fn plan_routes(d: &ArrowDecomposition, levels: &[LevelPlan]) -> SparseResult<[Routes; 2]> {
    let b = d.b();
    let rank = |s: usize, p: u32| levels[s].offset + p / b;
    let total = levels.last().map_or(0, |l| (l.offset + l.nb) as usize);
    let mut plans = [
        vec![RankPlan::default(); total],
        vec![RankPlan::default(); total],
    ];
    let [mut relay, mut direct]: [Moves; 2] = Default::default();
    // node[t][q]: the inbox slot of row q of level t's D(0) at its direct
    // home, where it is folded.
    let mut node = vec![Vec::new(); levels.len()];
    for (t, level) in levels.iter().enumerate().skip(1) {
        let pi_t = &d.levels()[t].perm;
        // [relay home, direct home] of each position, as (level, position).
        let homes = (0..level.active_n)
            .map(|q| {
                let v = pi_t.vertex_at(q);
                let mut relay = None;
                for s in (0..t).rev() {
                    let p = d.levels()[s].perm.position(v);
                    if p < levels[s].active_n {
                        let relay = *relay.get_or_insert((s, p));
                        if s == 0 || p >= b {
                            return Ok([relay, (s, p)]);
                        }
                    }
                }
                Err(SparseError::InvalidCsr(format!(
                    "vertex {v} is active at level {t} but at no earlier \
                     level; the decomposition cannot be distributed"
                )))
            })
            .collect::<SparseResult<Vec<_>>>()?;
        for (q, &[(s, p), (sd, pd)]) in (0..).zip(&homes) {
            relay[0].push((rank(s, p), rank(t, q), p % b, q % b));
            let home = &mut plans[Feed::Relay as usize][rank(s, p) as usize];
            let slot = home.slot();
            home.adds.push((p % b, slot));
            relay[1].push((rank(t, q), rank(s, p), q % b, slot));
            // Where the returned row goes: the relay home's row, which the
            // direct home holds in its block or folds as a row of D(0).
            let into = if (s, p) == (sd, pd) {
                Target::Row(pd % b)
            } else {
                Target::Node(s, p)
            };
            let holder = rank(sd, pd);
            let plan = &mut plans[Feed::Direct as usize][holder as usize];
            if q < level.d0_rows() {
                // Folded at its direct home, from the members' parts below;
                // a level's rows take consecutive slots there.
                if plan.folds.last().is_none_or(|f| f.level != t) {
                    plan.folds.push(Fold {
                        level: t,
                        members: level.nb,
                        nodes: plan.slots..plan.slots,
                        parts: Vec::new(),
                        adds: Vec::new(),
                    });
                }
                plan.folds.last_mut().expect("pushed above").nodes.end += 1;
                node[t].push(plan.slots);
                plan.gain(into, plan.slots, &node);
                plan.slots += 1;
            } else {
                direct[0].push((holder, rank(t, q), pd % b, q % b));
                let slot = plan.slot();
                plan.gain(into, slot, &node);
                direct[1].push((rank(t, q), holder, q % b, slot));
            }
        }
        // Each member's reads of D(0) and its partial's rows, from and to
        // the rows' direct homes. The root's block is D(0) itself.
        for i in 0..level.nb {
            let at = if i == 0 { 0 } else { level.height(i) };
            let member = level.offset + i;
            for &r in &level.reads[i as usize] {
                let (sd, pd) = homes[r as usize][1];
                direct[0].push((rank(sd, pd), member, pd % b, at + r));
            }
            for &r in &level.writes[i as usize] {
                let (sd, pd) = homes[r as usize][1];
                let holder = &mut plans[Feed::Direct as usize][rank(sd, pd) as usize];
                let slot = holder.slot();
                let fold = fold_of(&mut holder.folds, t);
                fold.parts
                    .push((node[t][r as usize] - fold.nodes.start, i, slot));
                direct[1].push((member, rank(sd, pd), at + r, slot));
            }
        }
    }
    let routes = |mut ranks: Vec<RankPlan>, [fwd, bwd]: Moves| {
        ranks.iter_mut().for_each(|plan| plan.folds.reverse());
        let (fwd, bwd) = (Plan::routes(total, fwd), Plan::routes(total, bwd));
        Routes { fwd, bwd, ranks }
    };
    let [relay_ranks, direct_ranks] = plans;
    Ok([routes(relay_ranks, relay), routes(direct_ranks, direct)])
}

/// The fold of `level`'s rows among a holder's.
fn fold_of(folds: &mut [Fold], level: usize) -> &mut Fold {
    folds
        .iter_mut()
        .find(|f| f.level == level)
        .expect("a row is folded where its parts and children are sent")
}

/// Arrow decomposition SpMM bound to a decomposition.
pub struct ArrowSpmm {
    n: u32,
    b: u32,
    total_ranks: u32,
    levels: Vec<LevelPlan>,
    /// Per [`Feed`]: its routes ([`plan_routes`]).
    feeds: [Routes; 2],
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
            let (r0, r1) = block_range(level.active_n, b, 0);
            let rows = (r1 - r0) as usize;
            levels.push(LevelPlan {
                bcast: Collective::broadcast(nb as usize, rows, Some(&reads)),
                reduce: Collective::reduce(nb as usize, rows, Some(&writes)),
                offset,
                nb,
                active_n: level.active_n,
                arrow,
                hub_cuts,
                reads,
                writes,
            });
            offset += nb;
        }
        let total_ranks = offset;
        let feeds = plan_routes(d, &levels)?;
        let level0_vertices: Vec<u32> = (0..n).map(|p| d.levels()[0].perm.vertex_at(p)).collect();
        Ok(Self {
            n,
            b,
            total_ranks,
            levels,
            feeds,
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
    /// `dtype` bytes per value moved. The machine still ships (and the
    /// plans are picked on) `f64` buffers, so an `F32` plan predicts the
    /// messages the run sends and exactly half its accounted bytes.
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
    /// each per rank of the level in block order — the rows of `D(0)` a
    /// rank reads, and the rows of its partial that can be non-zero. The
    /// root's are its hub run's, which only the direct feed moves.
    pub fn supports(&self) -> Vec<[&[Vec<u32>]; 2]> {
        self.levels
            .iter()
            .map(|level| [level.reads.as_slice(), level.writes.as_slice()])
            .collect()
    }

    /// Per level that runs its collectives on a `k`-column operand —
    /// level 0, and every level under [`Feed::Relay`] — the schedules its
    /// broadcast and its reduce take.
    pub fn schedules(&self, k: u32) -> Vec<[Schedule; 2]> {
        let picked = |c: &Collective| c.pick(k as usize, &self.cost).schedule();
        (self.relayed(self.feed(k)).iter())
            .map(|level| [&level.bcast, &level.reduce].map(|c| picked(c).expect("a rooted plan")))
            .collect()
    }

    /// The feed a `k`-column operand takes: [`Feed::Direct`] when its
    /// busiest rank moves no more bytes and no more messages than the
    /// relay's and fewer of one, judged from every rank's exact traffic at
    /// the machine's `f64` width (as [`amd_comm`]'s collectives pick a
    /// schedule); [`Feed::Relay`] otherwise.
    pub fn feed(&self, k: u32) -> Feed {
        let busiest = |feed| {
            self.moved(k, feed)
                .into_iter()
                .fold((0, 0), |(bytes, msgs), (b, m)| (bytes.max(b), msgs.max(m)))
        };
        let (relay, direct) = (busiest(Feed::Relay), busiest(Feed::Direct));
        if direct.0 <= relay.0 && direct.1 <= relay.1 && direct != relay {
            Feed::Direct
        } else {
            Feed::Relay
        }
    }

    /// The levels that run Algorithm 1's collectives under `feed`.
    fn relayed(&self, feed: Feed) -> &[LevelPlan] {
        match feed {
            Feed::Relay => &self.levels,
            Feed::Direct => &self.levels[..1],
        }
    }

    /// What each machine rank moves in one iteration under `feed` on a
    /// `k`-column operand, at 8 bytes a value: `(bytes, messages)`,
    /// counted from the cached plans — the feed's routes and the plan each
    /// level's collectives pick.
    fn moved(&self, k: u32, feed: Feed) -> Vec<(u64, u64)> {
        let (routes, kk) = (&self.feeds[feed as usize], k as usize);
        let mut ranks = vec![(0u64, 0u64); self.total_ranks as usize];
        let mut charge = |rank: usize, t: amd_comm::Traffic| {
            ranks[rank].0 += t.bytes();
            ranks[rank].1 += t.msgs();
        };
        for r in 0..self.total_ranks as usize {
            charge(r, routes.fwd.traffic(r, kk));
            charge(r, routes.bwd.traffic(r, kk));
        }
        for level in self.relayed(feed) {
            for c in [&level.bcast, &level.reduce] {
                let plan = c.pick(kk, &self.cost);
                for i in 0..level.nb as usize {
                    charge(level.offset as usize + i, plan.traffic(i, kk));
                }
            }
        }
        ranks
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
    debug_assert_eq!(d_block.len(), (level.height(my_i) * k) as usize);

    // Broadcast D(0) from the level's first rank (Algorithm 1, line 1):
    // shared, so the root, every relay and every receiver read one
    // buffer — or, on the sparse schedule, only the rows the rank reads.
    let d_block = Arc::new(d_block);
    let root_block = (my_i == 0).then(|| Arc::clone(&d_block));
    let bcast = level.bcast.pick(k as usize, ctx.cost());
    let d0 = group.broadcast_plan(ctx, 0, root_block, bcast, k as usize);
    let partial = partial(ctx, level, my_i, &d_block, &d0, k, dtype, spare);
    let reduce = level.reduce.pick(k as usize, ctx.cost());
    let reduced = group.reduce_plan(ctx, 0, partial, reduce, k as usize);

    // C(i) (lines 4–6).
    if my_i == 0 {
        reduced.expect("rank 0 of the level holds the reduction")
    } else {
        let c = block_product(ctx, level, my_i, &d_block, &d0, k, dtype);
        // Only the root's D(i) is broadcast; a non-root's is its own.
        *spare = Arc::try_unwrap(d_block).unwrap_or_default();
        c
    }
}

/// Rank `i`'s partial of `C(0)` (Algorithm 1, line 2): its row-arm
/// product `B(0,i) · D(i)` and its run of the hub tile's `B(0,0) · D(0)`.
/// The root's row-arm tile is the hub tile, which the level shares: every
/// rank adds the rows of `B(0,0) · D(0)` it was planned into its partial,
/// and the reduction (line 3) carries them to the root with the rest. The
/// root adds its run into zeros; a non-root's row-arm multiply overwrites
/// every row (an empty one with `+0.0`), so it fills `spare`, unzeroed.
#[allow(clippy::too_many_arguments)]
fn partial(
    ctx: &mut RankCtx,
    level: &LevelPlan,
    my_i: u32,
    d_block: &[f64],
    d0: &[f64],
    k: u32,
    dtype: Dtype,
    spare: &mut Vec<f64>,
) -> Vec<f64> {
    let len = (level.d0_rows() * k) as usize;
    let mut partial = if my_i == 0 {
        vec![0.0; len]
    } else {
        let mut partial = std::mem::take(spare);
        partial.resize(len, 0.0);
        let row_tile = level.arrow.row_tile(my_i);
        ctx.compute_flops(spmm::spmm_flops(row_tile, k));
        spmm::spmm_slices(
            row_tile,
            d_block,
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
        d0,
        k,
        &mut partial[(run.start * k) as usize..(run.end * k) as usize],
        Finish::Accumulate,
        dtype,
    )
    .expect("hub tile shapes align");
    partial
}

/// A non-root's `C(i) = B(i,0) · D(0) + B(i,i) · D(i)` (Algorithm 1,
/// lines 4–6).
fn block_product(
    ctx: &mut RankCtx,
    level: &LevelPlan,
    my_i: u32,
    d_block: &[f64],
    d0: &[f64],
    k: u32,
    dtype: Dtype,
) -> Vec<f64> {
    let mut c = vec![0.0; d_block.len()];
    let col_tile = level.arrow.col_tile(my_i);
    ctx.compute_flops(spmm::spmm_flops(col_tile, k));
    spmm::spmm_slices(col_tile, d0, k, None, &mut c, Finish::Overwrite, dtype)
        .expect("column tile shapes align");
    let diag_tile = level.arrow.diag_tile(my_i);
    ctx.compute_flops(spmm::spmm_flops(diag_tile, k));
    spmm::spmm_slices(
        diag_tile,
        d_block,
        k,
        None,
        &mut c,
        Finish::Accumulate,
        dtype,
    )
    .expect("diagonal tile shapes align");
    c
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
        self.run_feed(x, iters, sigma, self.feed(x.cols()))
    }

    fn predict_ranks(&self, k: u32) -> Vec<CommEstimate> {
        // What the machine moves at 8 bytes a value, a `dtype` wire moves
        // at `dtype` bytes.
        let scale = self.dtype.bytes() as f64 / 8.0;
        let traffic = self.moved(k, self.feed(k));
        // Levels hold consecutive ranks, in level order.
        let flops = self.levels.iter().flat_map(|level| {
            (0..level.nb).map(move |i| {
                // Local tile multiplies (Algorithm 1, lines 2–6): the
                // rank's share of the hub tile and its own three.
                let mut flops = level.hub_flops(i, k);
                if i > 0 {
                    flops += spmm::spmm_flops(level.arrow.row_tile(i), k);
                    flops += spmm::spmm_flops(level.arrow.col_tile(i), k);
                    flops += spmm::spmm_flops(level.arrow.diag_tile(i), k);
                }
                flops
            })
        });
        traffic
            .into_iter()
            .zip(flops)
            .map(|((bytes, msgs), flops)| CommEstimate {
                max_rank_bytes: bytes as f64 * scale,
                max_rank_messages: msgs as f64,
                max_rank_flops: flops,
            })
            .collect()
    }
}

impl ArrowSpmm {
    /// [`DistSpmm::run_sigma`] under `feed`, whichever it is.
    fn run_feed(
        &self,
        x: &DenseMatrix<f64>,
        iters: u32,
        sigma: Option<Sigma>,
        feed: Feed,
    ) -> SparseResult<SpmmRun> {
        if x.rows() != self.n {
            return Err(SparseError::ShapeMismatch {
                left: (self.n, self.n),
                right: (x.rows(), x.cols()),
            });
        }
        let k = x.cols();
        let kk = k as usize;
        let machine = Machine::new(self.total_ranks).with_cost(self.cost);
        let report = machine.run(|ctx| {
            let rank = ctx.rank();
            let (j, my_i) = self.locate(rank);
            let level = &self.levels[j];
            let routes = &self.feeds[feed as usize];
            let plan = &routes.ranks[rank as usize];
            let direct = feed == Feed::Direct && j > 0;
            let group = Group::new(ctx, (level.offset..level.offset + level.nb).collect());
            let world = Group::world(ctx);
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
            // A directly fed non-root's rows of D(0): only those it reads
            // are ever written or read.
            let mut d0 = if direct && my_i > 0 {
                vec![0.0; (level.d0_rows() * k) as usize]
            } else {
                Vec::new()
            };
            let mut spare = Vec::new();
            for iter in 0..iters {
                let base_tag = (iter as u64) << 8;
                // 1. Forward propagation (Algorithm 2, lines 1–5).
                for dir in [Dir::Recv, Dir::Send] {
                    let bufs = (&mut x_block, &mut d0);
                    world.exchange(ctx, base_tag | 1, &routes.fwd, dir, bufs, kk);
                }
                // 2. Per-level arrow multiply (Algorithm 1).
                // Directly fed, the same multiplies with no collective: a
                // non-root returns C(i) and its partial, the root (whose
                // block is the rows of D(0) its hub run reads) its partial.
                let dtype = self.dtype;
                let (mut y_block, mut partial) = match (direct, my_i) {
                    (false, _) => {
                        let c = arrow_multiply(ctx, &group, level, x_block, k, dtype, &mut spare);
                        (c, Vec::new())
                    }
                    (true, 0) => {
                        let p = partial(ctx, level, 0, &x_block, &x_block, k, dtype, &mut spare);
                        (p, Vec::new())
                    }
                    (true, _) => {
                        let p = partial(ctx, level, my_i, &x_block, &d0, k, dtype, &mut spare);
                        (block_product(ctx, level, my_i, &x_block, &d0, k, dtype), p)
                    }
                };
                // 3. Backward aggregation (Algorithm 2, lines 7–12): the
                // deeper levels' rows land in the inbox, the folds complete
                // the rows of D(0) this rank holds, and the block gains
                // each row's returns in level order.
                let (bwd, tag) = (&routes.bwd, base_tag | 2);
                let mut inbox = vec![0.0; plan.slots as usize * kk];
                world.exchange(ctx, tag, bwd, Dir::Recv, (&mut inbox, &mut Vec::new()), kk);
                for fold in &plan.folds {
                    fold.complete(&mut inbox, kk);
                }
                add_rows(&mut y_block, &inbox, &plan.adds, kk);
                world.exchange(ctx, tag, bwd, Dir::Send, (&mut y_block, &mut partial), kk);
                if direct {
                    spare = partial;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::iterated_spmm;
    use amd_graph::generators::{basic, datasets, random};
    use amd_sparse::CsrMatrix;
    use arrow_core::{la_decompose, ArrowLevel, DecomposeConfig, RandomForestLa};
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

    /// A *spliced* decomposition (incremental refresh) of a 64-cycle with
    /// chords, and the merged matrix it decomposes. It is not nested —
    /// the lifted region levels sit below prior levels whose active
    /// prefix already dropped the region's vertices, so their X must
    /// route from further up the chain than level t-1.
    fn spliced() -> (CsrMatrix<f64>, ArrowDecomposition) {
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
        (merged, d)
    }

    /// Regression: the old adjacent-level-only routing silently served
    /// wrong answers on a spliced decomposition (the operator sum
    /// validates exactly either way).
    #[test]
    fn spliced_non_nested_decomposition_stays_exact() {
        let (merged, d) = spliced();
        let n = merged.rows();
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

    /// Runs `d`'s plan for `a` under both feeds on non-integer data and
    /// holds them to one answer, bit for bit, and to the product. Returns
    /// whether the direct feed adds a deeper level's row into a row of
    /// some level's `D(0)` — a vertex of block 0 of level `t` that is
    /// active at `t + 1` — which the holder must do before it adds the row
    /// into its own block, as the relay's root did.
    fn feeds_agree(a: &CsrMatrix<f64>, d: &ArrowDecomposition, k: u32) -> bool {
        let alg = ArrowSpmm::new(d).unwrap();
        let x = DenseMatrix::from_fn(a.rows(), k, |r, c| {
            ((r * 7 + c * 13) % 31) as f64 / 7.0 - 1.9
        });
        let [relay, direct] =
            [Feed::Relay, Feed::Direct].map(|feed| alg.run_feed(&x, 2, None, feed).unwrap().y);
        let bits = |y: &DenseMatrix<f64>| y.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&relay), bits(&direct), "{} at k = {k}", alg.name());
        let want = iterated_spmm(a, &x, 2).unwrap();
        let scale = want.data().iter().fold(1.0f64, |m, v| m.max(v.abs()));
        assert!(direct.max_abs_diff(&want).unwrap() <= 1e-12 * scale);
        alg.feeds[Feed::Direct as usize]
            .ranks
            .iter()
            .flat_map(|plan| &plan.folds)
            .any(|fold| !fold.adds.is_empty())
    }

    /// The direct feed sums every row in the relay's association, so the
    /// feed a plan takes never shows in an answer: grid, OSM-, GenBank-,
    /// MAWI-like and R-MAT inputs at two widths and four operand widths,
    /// the spliced chain, whose rows come from further up than the level
    /// before, and the hand-built one whose holders fold a deeper level's
    /// row into a row of `D(0)`.
    #[test]
    fn both_feeds_give_one_answer_bit_for_bit() {
        use amd_graph::generators::rmat;
        let seeded = ChaCha8Rng::seed_from_u64;
        let inputs: [CsrMatrix<f64>; 5] = [
            basic::grid_2d(24, 24).to_adjacency(),
            datasets::osm_like(600, &mut seeded(6)).to_adjacency(),
            datasets::genbank_like(600, &mut seeded(5)).to_adjacency(),
            datasets::mawi_like(600, &mut seeded(77)).to_adjacency(),
            rmat::rmat(9, 8, rmat::RmatParams::graph500(), &mut seeded(13)).to_adjacency(),
        ];
        for a in &inputs {
            for parts in [8, 16] {
                let d = decompose(a, a.rows() / parts, 1);
                for k in [1, 6, 16, 64] {
                    feeds_agree(a, &d, k);
                }
            }
        }
        let (spliced_a, spliced_d) = spliced();
        let (hubs_a, hubs_d) = reentering_hubs();
        for k in [1, 6, 16, 64] {
            feeds_agree(&spliced_a, &spliced_d, k);
            assert!(feeds_agree(&hubs_a, &hubs_d, k));
        }
    }

    /// A decomposition assembled by hand in which vertices of level 1's
    /// block 0 are active at level 2, in its block 0 and in its block 1,
    /// so the direct feed's holder must add level 2's rows into level 1's
    /// `D(0)` rows before it adds those into its own block. LA-Decompose
    /// never returns one (a block-0 vertex's edges all lie in its level's
    /// arms), but nothing in the plan may rely on that.
    fn reentering_hubs() -> (CsrMatrix<f64>, ArrowDecomposition) {
        use amd_sparse::{CooMatrix, Permutation};
        let (n, b) = (48u32, 8u32);
        // Level 1 places vertex (29·p + 5) mod 48 at position p, 24 of
        // them active. Level 2's 16 active positions take level 1's
        // positions 12..16 and 0..4 (its block 0), then 4..8, two
        // vertices inactive at level 1, and two of its block 2.
        let order1: Vec<u32> = (0..n).map(|p| (p * 29 + 5) % n).collect();
        let front: Vec<u32> = [12..16, 0..8, 30..32, 16..18]
            .into_iter()
            .flatten()
            .map(|p| order1[p])
            .collect();
        let order2: Vec<u32> = front
            .iter()
            .copied()
            .chain(order1.iter().copied().filter(|v| !front.contains(v)))
            .collect();
        let level = |order: Vec<u32>, active_n: u32, salt: u32| {
            // Entries of the arrow pattern: a column of block 0, one of the
            // row's own block, and for a row of block 0 one anywhere.
            let mut coo = CooMatrix::new(n, n);
            for r in 0..active_n {
                let own = (r / b) * b;
                let mut cols = vec![
                    (r * 5 + salt) % b,
                    own + (r * 3 + 1) % b.min(active_n - own),
                ];
                if r < b {
                    cols.push((r * 11 + 7 + salt) % active_n);
                }
                for c in cols {
                    let v = ((r * 7 + c * 3 + salt) % 13) as f64 / 7.0 - 0.9;
                    coo.push(r, c, v).unwrap();
                }
            }
            ArrowLevel {
                perm: Permutation::from_order(order).unwrap(),
                matrix: coo.to_csr(),
                active_n,
            }
        };
        let d = ArrowDecomposition::new(
            n,
            b,
            vec![
                level((0..n).collect(), n, 0),
                level(order1, 24, 1),
                level(order2, 16, 2),
            ],
        );
        (d.reconstruct().unwrap(), d)
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
