//! Distributed SpMM through an arrow matrix decomposition
//! (§4.1, Algorithms 1 and 2 of the paper).
//!
//! Level `j` with `active_n_j` active positions gets `⌈active_n_j / b⌉`
//! consecutive ranks; rank `i` of a level holds the tiles `B(0,i)`,
//! `B(i,0)`, `B(i,i)`, the feature block `D(i)` (Figure 2) and a run of
//! rows of the hub tile `B(0,0)`. One multiply iteration:
//!
//! 1. **Forward propagation** (Algorithm 2): every rank receives the rows
//!    of `X` it multiplies with point to point, from the ranks that hold
//!    them ([below](#who-feeds-a-deeper-level)). A level-0 rank sends its
//!    rows before its own multiply and receives after it; a deeper rank
//!    receives, then passes rows on.
//! 2. **Arrow multiply** (Algorithm 1), on level 0 and, relayed, on every
//!    level: broadcast `D(0)` within the level, reduce the row-arm partials
//!    to the level's rank 0, and compute `C(i) = B(i,0)·D(0) + B(i,i)·D(i)`.
//!    Rank `i` reads only the rows
//!    `Sᵢ = colsupp B(i,0) ∪ colsupp B(0,0)[runᵢ]` of `D(0)` and its
//!    partial is non-zero only on `Rᵢ = rowsupp B(0,i) ∪ rowsupp
//!    B(0,0)[runᵢ]` ([`ArrowSpmm::supports`]), and each run picks the
//!    level's plans once from those supports ([`Collective`]): the sparse one
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
//! 3. **Backward aggregation** (Algorithm 2): every row of a deeper level
//!    is completed and returned to where the row it adds into is
//!    completed, leaving `Y` on level 0 laid out like `X` (§6.1), so
//!    iterations chain.
//!
//! # Who feeds a deeper level
//!
//! [`Feed::Relay`] is Algorithm 1 as written (`plan_relay`): every level
//! runs the collectives, a deeper level's ranks receive their blocks from
//! the ranks that hold their rows and return `C(i)` there, and its root
//! broadcasts `D(0)` and gathers the partials. On grid160 at `k = 16` that
//! makes a level-1 root the busiest rank (669 440 B).
//!
//! The other two feeds are one rule over a **placement map**
//! (`plan_placed`). A deeper level's *product rows* are its block rows —
//! the column tile's entries, then the diagonal tile's — and each member's
//! piece of each row of its `D(0)` — the row-arm tile's entries, then the
//! hub run's. The map sends every product row to a rank, and the rest
//! follows from it:
//!
//! - A rank holds the `X` row of every block row placed on it. If the row
//!   is not already there, the rank fetches it from the rank that holds
//!   the vertex at the row's direct home (`homes`).
//! - A rank fetches every other `X` row its products read once per vertex,
//!   from the rank that holds it.
//! - A result goes where its relay parent is completed: the parent row's
//!   rank, or, for a row of `D(0)`, the fold at the rank that holds its
//!   `X` row. Folds run deepest level first.
//!
//! The two maps:
//!
//! - [`Feed::Direct`] places each row on its own level's rank, member `i`'s
//!   piece on member `i`. No deeper level runs a collective, but every
//!   block makes a round trip: on grid160 a level-1 non-root is the
//!   busiest rank (574 464 B in 30 messages), 409 600 B of it its own
//!   block's.
//! - [`Feed::Gather`] places each row on the level-0 rank that holds its
//!   vertex, so no deeper rank moves or multiplies anything, and a deeper
//!   block's rows spread over level 0. On grid160 the busiest rank falls
//!   to 95 360 B in 16 messages.
//!
//! Answers are bit for bit the same whichever feed runs. Every row is
//! summed in the association the relay gives it,
//! `Y[v] = C₀[v] + (C₁[v] + (C₂[v] + …))`. A product row sums from `+0.0`
//! in its tiles' order with the same kernels, so `f32` products round as
//! the relay's do. A row of a deeper `D(0)` is folded from its members'
//! pieces in the root-last order every reduce sums in ([`fold_nonroots`],
//! `Fold`), a member that has no piece entering as a literal `+0.0`.
//!
//! Routes and collectives are one kind of plan: `ArrowSpmm::new` builds
//! every level's candidate collective plans and the three feeds' routes
//! ([`Plan::routes`]) once. A run or a prediction picks the levels' plans
//! and states the iteration once, as every rank's list of steps: its part
//! in a plan on one of its buffers, a multiply of a tile, or an uncharged
//! local step — the operand's assembly, the folds and adds, σ, and
//! handing `Y` to the next iteration. The list is the rank's program: the
//! one driver runs it ([`crate::layout`]), while the feed choice,
//! [`ArrowSpmm::busiest`], `dry_run` and `predict_ranks` read the dry walk
//! of the same lists ([`amd_comm::walk`]); a run builds the chosen feed's
//! lists once, and a prediction reads the walk that chose it. The feeds
//! are weighed in turn, and a later one is taken when its busiest rank moves
//! no more bytes and no more messages than the one held, and fewer of one
//! ([`ArrowSpmm::feed`]): the grids gather; R-MAT keeps the relay or the
//! direct feed, since there a hub row of a deeper level reads so many rows
//! that gathering them loads a level-0 rank more (rmat13 at `b = 512`,
//! `k = 16`: 416 256 B in 44 messages, against 362 624 B in 38 direct).
//!
//! # Order
//!
//! The steps are built in Algorithm 1's order, and a rank sits idle at a
//! receive while work it could already do waits behind it in its list: a
//! level member's row-arm product `B(0,i)·D(i)` reads nothing the
//! broadcast of `D(0)` brings, and `C(i)` reads nothing the reduce
//! carries. Once the feed is chosen, the lists go through
//! [`amd_comm::order`], which moves a multiply or a fold before an
//! earlier step only when neither writes a buffer the other touches
//! (`Kernel`'s buffers), so every buffer sees its operations in their
//! order and the answer, every byte and every message stay as built. A
//! move before a run in which the rank only receives is never worse: a
//! rank at `t₀` whose receives complete at `a` finishes the pair at
//! `max(t₀ + c, a) ≤ max(t₀, a) + c`, and no event of any rank is later.
//! A move before a run in which it also sends is tried at each wait on
//! the walk's critical path and kept only if the makespan falls, or on a
//! tie the sum of the ranks' clocks, 32 trial walks at most. On rmat13
//! at `b = 512`, `k = 8` (the direct feed) the iteration falls from
//! 62.02 to 53.41 sim-µs.

use crate::layout::{block_count, block_range, run_blocks, Buf, Kernel, List, Lists, Multiply};
use crate::traits::{CommEstimate, DistSpmm, Sigma, SpmmRun};
use amd_comm::{
    fold_nonroots, order, walk, Collective, CostModel, Dir, MachineStats, Plan, Schedule, Step,
};
use amd_sparse::spmm::Finish;
use amd_sparse::{CsrBuilder, CsrMatrix, DenseMatrix, Dtype, SparseError, SparseResult};
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
    /// Every product row of a deeper level is multiplied on its own
    /// level's rank, with no collective.
    Direct,
    /// Every product row of a deeper level is multiplied on the level-0
    /// rank that holds its vertex.
    Gather,
}

/// The feeds in the order [`ArrowSpmm::feed`] weighs them.
const FEEDS: [Feed; 3] = [Feed::Relay, Feed::Direct, Feed::Gather];

/// One feed's point-to-point steps — forward the rows of `X` each rank
/// fetches, backward the rows it returns — and every rank's part in them
/// ([module docs](self#who-feeds-a-deeper-level)). Relayed, a rank's
/// operand and its result are its level's blocks. Placed, one rule
/// derives them from a map of every deeper product row to a rank — the
/// row's own level rank (Direct) or the level-0 rank that holds its
/// vertex (Gather): a rank fetches the `X` rows its products read, once
/// per vertex, and a result goes where its relay parent is completed.
struct Routes {
    fwd: Plan,
    bwd: Plan,
    /// Per machine rank.
    ranks: Vec<RankPlan>,
}

/// One rank's part of a feed: its operand, the product rows its feed's
/// map placed on it, which it multiplies into its inbox, and how it
/// completes rows from the inbox.
#[derive(Debug, Clone)]
struct RankPlan {
    /// Operand height: the rank's block of `X` (level 0) or of `D`
    /// (relayed), then the rows the forward exchange brings it.
    height: u32,
    /// One row per inbox slot. A product row placed here reads operand
    /// row `gather[e]` at its entry `e`, each entry a column of its own so
    /// the row keeps its tiles' order. A slot without entries holds a row
    /// that is received or folded.
    products: CsrMatrix<f64>,
    gather: Vec<u32>,
    /// The rows of deeper levels this rank completes, deepest level
    /// first.
    folds: Vec<Fold>,
    /// `(row, slot)`: row `row` of the rank's block gains inbox slot
    /// `slot`.
    adds: Vec<(u32, u32)>,
}

/// The rows of one deeper level that a rank completes: for its `D(0)`
/// rows the reduction the level's root would have summed, then for every
/// row what deeper levels return for it — the relay's association, row by
/// row.
#[derive(Debug, Clone)]
pub(crate) struct Fold {
    level: usize,
    /// Ranks of the level.
    members: u32,
    /// The inbox slots of the rows of the level's `D(0)` folded here.
    nodes: Range<u32>,
    /// `(row, member, slot)`: member `member`'s piece of the fold's row
    /// `row` (counted from `nodes.start`) is in inbox slot `slot`.
    /// A member that has none has `+0.0` there.
    parts: Vec<(u32, u32, u32)>,
    /// `(node, slot)`: inbox slot `node` gains slot `slot`.
    adds: Vec<(u32, u32)>,
}

impl Fold {
    /// `x_root + (c₁ + c₂ + c₄ + …)` per row, in the root-last order of
    /// every reduce in `amd_comm`, then the deeper levels' rows on top.
    pub(crate) fn complete(&self, inbox: &mut [f64], kk: usize) {
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
pub(crate) fn add_rows(into: &mut [f64], inbox: &[f64], adds: &[(u32, u32)], kk: usize) {
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

/// A position's relay home and direct home, as `(level, position)`.
type Homes = [(usize, u32); 2];

/// Per level, per active position: its two homes (none at level 0).
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
/// level 0 holds every block — since a deeper `D(0)` row is never placed
/// whole. The homes differ only where `v` sits in some deeper level's
/// block 0, and the relay home's row is then a row folded where the
/// direct home's `X` row is held.
///
/// The precondition — every vertex active at a level after the first is
/// active at an earlier one — holds for everything LA-Decompose and the
/// splice return: a splice that would break it (the delta attached a
/// vertex no level held) falls back cold, `FallbackReason::Unroutable`.
/// The error below is for decompositions assembled elsewhere.
///
/// [`decompose_snapshot_incremental`]: arrow_core::incremental::decompose_snapshot_incremental
fn homes(d: &ArrowDecomposition, levels: &[LevelPlan]) -> SparseResult<Vec<Vec<Homes>>> {
    let mut homes = vec![Vec::new()];
    for (t, level) in levels.iter().enumerate().skip(1) {
        let perm = &d.levels()[t].perm;
        let home = |q: u32| {
            let v = perm.vertex_at(q);
            let mut relay = None;
            for s in (0..t).rev() {
                let p = d.levels()[s].perm.position(v);
                if p < levels[s].active_n {
                    let relay = *relay.get_or_insert((s, p));
                    if s == 0 || p >= d.b() {
                        return Ok([relay, (s, p)]);
                    }
                }
            }
            Err(SparseError::InvalidCsr(format!(
                "vertex {v} is active at level {t} but at no earlier \
                 level; the decomposition cannot be distributed"
            )))
        };
        homes.push((0..level.active_n).map(home).collect::<SparseResult<_>>()?);
    }
    Ok(homes)
}

/// A product row of a deeper level, as a placement map sees it: block row
/// `q` of level `level`, or, with `member` `Some(i)`, member `i`'s piece
/// of the level's `D(0)` row `q`. `at0` is its vertex's level-0 position.
#[derive(Debug, Clone, Copy)]
struct Product {
    level: usize,
    q: u32,
    member: Option<u32>,
    at0: u32,
}

/// One rank's [`RankPlan`] while a feed is planned.
struct Draft {
    /// The operand rows before the fetched ones ([`RankPlan::height`]).
    base: u32,
    /// One row per inbox slot so far.
    rows: CsrBuilder<f64>,
    slots: u32,
    /// The level-0 position of the `X` row each entry reads.
    reads: Vec<u32>,
    /// `(level-0 position, holder)` of each `X` row to fetch.
    needs: Vec<(u32, u32)>,
    folds: Vec<Fold>,
    adds: Vec<(u32, u32)>,
}

impl Draft {
    /// An empty draft whose operand starts with `base` rows of its own.
    fn new(base: u32) -> Self {
        Self {
            base,
            rows: CsrBuilder::with_capacity(0, 0),
            slots: 0,
            reads: Vec::new(),
            needs: Vec::new(),
            folds: Vec::new(),
            adds: Vec::new(),
        }
    }

    /// Closes the open inbox row and returns its slot.
    fn slot(&mut self) -> u32 {
        self.rows.end_row();
        self.slots += 1;
        self.slots - 1
    }

    /// The fold of `level`'s rows here, opened at the next slot if there
    /// is none yet.
    fn fold(&mut self, level: usize, members: u32) -> &mut Fold {
        let at = match self.folds.iter().position(|f| f.level == level) {
            Some(at) => at,
            None => {
                self.folds.push(Fold {
                    level,
                    members,
                    nodes: self.slots..self.slots,
                    parts: Vec::new(),
                    adds: Vec::new(),
                });
                self.folds.len() - 1
            }
        };
        &mut self.folds[at]
    }

    /// A product row on rank `me` summing row `r` of each tile, whose
    /// column `c` is the level's position `at + c`: position `c` reads the
    /// `X` row of level-0 position `at0[c]`, held on rank `hold[c]`.
    fn product(&mut self, me: u32, tiles: &[Option<Tile>], at0: &[u32], hold: &[u32]) -> u32 {
        for &(tile, r, at) in tiles.iter().flatten() {
            for (&c, &v) in tile.row_indices(r).iter().zip(tile.row_values(r)) {
                let c = (at + c) as usize;
                self.rows.push(self.reads.len() as u32, v);
                self.reads.push(at0[c]);
                if hold[c] != me {
                    self.needs.push((at0[c], hold[c]));
                }
            }
        }
        self.slot()
    }
}

/// Row `r` of a tile whose column `c` is the level's position `at + c`.
type Tile<'a> = (&'a CsrMatrix<f64>, u32, u32);

/// One empty draft per machine rank, each with its block as the base of
/// its operand where it has one: on level 0, and on every level relayed.
fn drafts(levels: &[LevelPlan], relayed: bool) -> Vec<Draft> {
    let mut drafts = Vec::new();
    for (j, level) in levels.iter().enumerate() {
        let based = j == 0 || relayed;
        for i in 0..level.nb {
            drafts.push(Draft::new(if based { level.height(i) } else { 0 }));
        }
    }
    drafts
}

/// A feed's [`Routes`] from its ranks' drafts and its moves, each
/// `(sender, receiver, sender row, receiver row)`. Every draft's reads
/// are operand rows by now.
fn routes(drafts: Vec<Draft>, fwd: Vec<Move>, bwd: Vec<Move>) -> Routes {
    let total = drafts.len();
    let ranks = (drafts.into_iter())
        .map(|mut d| {
            d.folds.sort_by_key(|f| std::cmp::Reverse(f.level));
            RankPlan {
                height: d.base,
                products: d.rows.finish(d.reads.len() as u32),
                gather: d.reads,
                folds: d.folds,
                adds: d.adds,
            }
        })
        .collect();
    let (fwd, bwd) = (Plan::routes(total, fwd), Plan::routes(total, bwd));
    Routes { fwd, bwd, ranks }
}

/// `(sender, receiver, sender row, receiver row)`.
type Move = (u32, u32, u32, u32);

/// Algorithm 2 as written: every position's block row comes from its
/// relay home's rank and returns there, where it is added into the row.
fn plan_relay(b: u32, levels: &[LevelPlan], homes: &[Vec<Homes>]) -> Routes {
    let rank = |s: usize, p: u32| levels[s].offset + p / b;
    let mut drafts = drafts(levels, true);
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for (t, homes) in homes.iter().enumerate() {
        for (q, &[(s, p), _]) in (0..).zip(homes) {
            fwd.push((rank(s, p), rank(t, q), p % b, q % b));
            let home = &mut drafts[rank(s, p) as usize];
            let slot = home.slot();
            home.adds.push((p % b, slot));
            bwd.push((rank(t, q), rank(s, p), q % b, slot));
        }
    }
    routes(drafts, fwd, bwd)
}

/// A placed feed: `place` sends every [`Product`] row of a deeper level
/// to a rank, and the rule in the [module
/// docs](self#who-feeds-a-deeper-level) derives the rest — which `X` rows
/// each rank fetches and from where, which rows it folds, and where each
/// result goes.
fn plan_placed(
    d: &ArrowDecomposition,
    levels: &[LevelPlan],
    homes: &[Vec<Homes>],
    place: impl Fn(Product) -> u32,
) -> Routes {
    let (b, level0) = (d.b(), &d.levels()[0].perm);
    let mut drafts = drafts(levels, false);
    let mut bwd = Vec::new();
    // Sends row `slot` of rank `from` to rank `to` unless it is there;
    // returns its slot at `to`.
    let mut send = |drafts: &mut [Draft], (from, slot): (u32, u32), to: u32| {
        if from == to {
            return slot;
        }
        let at = drafts[to as usize].slot();
        bwd.push((from, to, slot, at));
        at
    };
    // Per level and position: the rank that holds its X row, and the rank
    // and inbox slot where the row is completed (level 0 needs none).
    let mut hold = vec![(0..levels[0].active_n).map(|p| p / b).collect::<Vec<u32>>()];
    let mut done: Vec<Vec<(u32, u32)>> = vec![Vec::new()];
    for (t, level) in levels.iter().enumerate().skip(1) {
        let perm = &d.levels()[t].perm;
        let at0_t: Vec<u32> = (0..level.active_n)
            .map(|q| level0.position(perm.vertex_at(q)))
            .collect();
        let direct = |q: u32| homes[t][q as usize][1];
        let block = |q: u32| Product {
            level: t,
            q,
            member: None,
            at0: at0_t[q as usize],
        };
        // A block row's X is held where it is placed, a D(0) row's where
        // its direct home's is.
        let hold_t: Vec<u32> = (0..level.active_n)
            .map(|q| {
                if q >= b {
                    place(block(q))
                } else {
                    let (s, p) = direct(q);
                    hold[s][p as usize]
                }
            })
            .collect();
        let mut done_t = Vec::with_capacity(level.active_n as usize);
        // The rows of D(0) first, on consecutive slots at each fold.
        for q in 0..level.d0_rows() {
            let draft = &mut drafts[hold_t[q as usize] as usize];
            draft.fold(t, level.nb).nodes.end += 1;
            done_t.push((hold_t[q as usize], draft.slot()));
        }
        let arrow = &level.arrow;
        // Each member's piece of every row of D(0) its partial writes.
        for (i, writes) in (0..).zip(&level.writes) {
            for &q in writes {
                let arm = (i > 0).then(|| (arrow.row_tile(i), q, i * b));
                let hub = level.hub_run(i).contains(&q);
                let tiles = [arm, hub.then(|| (arrow.row_tile(0), q, 0))];
                let at = place(Product {
                    member: Some(i),
                    ..block(q)
                });
                let piece = drafts[at as usize].product(at, &tiles, &at0_t, &hold_t);
                let (f, node) = done_t[q as usize];
                let slot = send(&mut drafts, (at, piece), f);
                let fold = drafts[f as usize].fold(t, level.nb);
                fold.parts.push((node - fold.nodes.start, i, slot));
            }
        }
        for q in level.d0_rows()..level.active_n {
            let ((i, r), at) = ((q / b, q % b), hold_t[q as usize]);
            let (s, p) = direct(q);
            let draft = &mut drafts[at as usize];
            if hold[s][p as usize] != at {
                draft.needs.push((at0_t[q as usize], hold[s][p as usize]));
            }
            let tiles = [(arrow.col_tile(i), r, 0), (arrow.diag_tile(i), r, i * b)];
            done_t.push((at, draft.product(at, &tiles.map(Some), &at0_t, &hold_t)));
        }
        // Each row's result goes where its relay parent is completed.
        for (&child, &[(s, p), _]) in done_t.iter().zip(&homes[t]) {
            if s == 0 {
                let slot = send(&mut drafts, child, p / b);
                drafts[(p / b) as usize].adds.push((p % b, slot));
            } else {
                let (to, parent) = done[s][p as usize];
                let slot = send(&mut drafts, child, to);
                let fold = drafts[to as usize].fold(s, levels[s].nb);
                fold.adds.push((parent, slot));
            }
        }
        hold.push(hold_t);
        done.push(done_t);
    }
    // Each rank's operand: its block, then the rows it fetches in level-0
    // order, each once.
    let fetched: Vec<Vec<(u32, u32)>> = (drafts.iter_mut())
        .map(|draft| {
            let mut needs = std::mem::take(&mut draft.needs);
            needs.sort_unstable();
            needs.dedup_by_key(|n| n.0);
            needs
        })
        .collect();
    let nb0 = levels[0].nb;
    let bases: Vec<u32> = drafts.iter().map(|d| d.base).collect();
    // Where level-0 position `p` sits in `rank`'s operand.
    let row_of = |rank: u32, p: u32| {
        if rank < nb0 && p / b == rank {
            return p % b;
        }
        let at = fetched[rank as usize].binary_search_by_key(&p, |n| n.0);
        bases[rank as usize] + at.expect("a rank holds every row it sends or reads") as u32
    };
    let mut fwd = Vec::new();
    for (to, (draft, list)) in (0..).zip(drafts.iter_mut().zip(&fetched)) {
        for (&(p, from), at) in list.iter().zip(draft.base..) {
            fwd.push((from, to, row_of(from, p), at));
        }
        draft.reads.iter_mut().for_each(|p| *p = row_of(to, *p));
        draft.base += list.len() as u32;
    }
    routes(drafts, fwd, bwd)
}

/// Arrow decomposition SpMM bound to a decomposition.
pub struct ArrowSpmm {
    n: u32,
    b: u32,
    total_ranks: u32,
    levels: Vec<LevelPlan>,
    /// Per [`Feed`]: its routes ([`plan_relay`], [`plan_placed`]).
    feeds: [Routes; 3],
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
        let homes = homes(d, &levels)?;
        let feeds = FEEDS.map(|feed| match feed {
            Feed::Relay => plan_relay(b, &levels, &homes),
            // Each row on its own level's rank, a piece on its member.
            Feed::Direct => plan_placed(d, &levels, &homes, |row| {
                levels[row.level].offset + row.member.unwrap_or(row.q / b)
            }),
            // Each row on the level-0 rank that holds its vertex.
            Feed::Gather => plan_placed(d, &levels, &homes, |row| row.at0 / b),
        });
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
    /// `dtype` ([`amd_sparse::spmm::spmm_slices`]) and
    /// [`predict_volume`] charges `dtype` bytes per value moved. The
    /// machine still ships (and the plans are picked on) `f64` buffers, so
    /// an `F32` plan predicts the messages the run sends and exactly half
    /// its accounted bytes.
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
    /// root's are its hub run's, which the collectives do not read; a
    /// placed feed builds each member's pieces of `D(0)` on its writes.
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
        let relayed = self.relayed(self.feed(k)).len();
        (self.picks(k)[..relayed].iter())
            .map(|plans| plans.map(|plan| plan.schedule().expect("a rooted plan")))
            .collect()
    }

    /// The feed a `k`-column operand takes. The candidates are weighed in
    /// turn — [`Feed::Relay`], [`Feed::Direct`], [`Feed::Gather`] — and a
    /// later one replaces the one held when its busiest rank moves no more
    /// bytes and no more messages, and fewer of one, judged from the dry
    /// walk of every rank's steps at the machine's `f64` width (as
    /// [`amd_comm`]'s collectives pick a schedule).
    pub fn feed(&self, k: u32) -> Feed {
        self.choose(k).0
    }

    /// The feed a `k`-column operand takes ([`Self::feed`]), every rank's
    /// steps under it on the levels' [`Self::picks`], put in the order
    /// that fills the ranks' waits ([`amd_comm::order`]), and the walk of
    /// one iteration of them: chosen once per run or prediction, on the
    /// host, and read by everything that follows. The order moves no byte
    /// and no message, so it does not change the feed.
    fn choose(&self, k: u32) -> (Feed, Lists<'_>, (MachineStats, Vec<f64>)) {
        let picks = self.picks(k);
        let weigh = |feed| {
            let steps = self.steps(k, feed, &picks);
            let walked = walk(&steps, 1, &self.cost);
            (feed, steps, walked)
        };
        let load = |(stats, _): &(MachineStats, _)| (stats.max_volume(), stats.max_messages());
        let mut held = weigh(FEEDS[0]);
        for &feed in &FEEDS[1..] {
            let next = weigh(feed);
            let (new, old) = (load(&next.2), load(&held.2));
            if new.0 <= old.0 && new.1 <= old.1 && new != old {
                held = next;
            }
        }
        let (feed, mut steps, _) = held;
        let walked = order(&mut steps, &self.cost);
        (feed, steps, walked)
    }

    /// The busiest rank's bytes and messages in one iteration under
    /// `feed` on a `k`-column operand, each the most of any rank, from the
    /// walk of its steps at 8 bytes a value — what [`Self::feed`] weighs.
    pub fn busiest(&self, k: u32, feed: Feed) -> (u64, u64) {
        let (stats, _) = walk(&self.steps(k, feed, &self.picks(k)), 1, &self.cost);
        (stats.max_volume(), stats.max_messages())
    }

    /// Per level, the plans its broadcast of `D(0)` and its reduce of the
    /// partials take on a `k`-column operand.
    fn picks(&self, k: u32) -> Vec<[&Plan; 2]> {
        (self.levels.iter())
            .map(|level| [&level.bcast, &level.reduce].map(|c| c.pick(k as usize, &self.cost)))
            .collect()
    }

    /// The levels that run Algorithm 1 under `feed`: every level relayed,
    /// level 0 placed.
    fn relayed(&self, feed: Feed) -> &[LevelPlan] {
        match feed {
            Feed::Relay => &self.levels,
            Feed::Direct | Feed::Gather => &self.levels[..1],
        }
    }

    /// Every machine rank's steps in one iteration under `feed` on a
    /// `k`-column operand, each level's collectives on its `picks`:
    ///
    /// 1. **Forward propagation** (Algorithm 2, lines 1–5) into the
    ///    operand, [`Buf::X`]: the rank's block, then the rows it fetches.
    ///    A deeper rank receives, then passes rows on; level 0 sends here
    ///    and receives after its multiply.
    /// 2. **Algorithm 1** where it runs ([`Self::multiply`]), on the rank's
    ///    block `D(i)`: the operand itself, or a copy of its first rows
    ///    where it holds more or the product rows read it.
    /// 3. The product rows placed on the rank fill its inbox, the returned
    ///    rows land in it, and the folds complete the rows of deeper levels
    ///    the rank holds.
    /// 4. **Backward aggregation** (Algorithm 2, lines 7–12): the rank's
    ///    block of `Y` gains each row's returns in level order, and a
    ///    deeper rank sends its rows on — its block relayed, its inbox
    ///    placed. `Y` is the next iterate; σ acts on level 0's, which is
    ///    all of it, and a deeper level's is overwritten by the next
    ///    forward propagation.
    fn steps<'a>(&'a self, k: u32, feed: Feed, picks: &[[&'a Plan; 2]]) -> Lists<'a> {
        let (routes, kk) = (&self.feeds[feed as usize], k as usize);
        // Tags, one per call site: 1 forward, 2 backward, 3 the level's
        // broadcast, 4 its reduce.
        let world: Arc<[u32]> = (0..self.total_ranks).collect();
        let fwd = |dir| Step::run(&routes.fwd, &world, 0, Some(dir), kk, 1, Buf::X as usize);
        let bwd = |dir, buf| Step::run(&routes.bwd, &world, 0, Some(dir), kk, 2, buf as usize);
        let local = Step::Compute;
        let mut lists = Vec::with_capacity(self.total_ranks as usize);
        for (j, level) in self.levels.iter().enumerate() {
            let group: Arc<[u32]> = (level.offset..level.offset + level.nb).collect();
            let relayed = j < self.relayed(feed).len();
            for i in 0..level.nb {
                let plan = &routes.ranks[(level.offset + i) as usize];
                let (height, products) = (plan.height as usize * kk, &plan.products);
                let mut steps = vec![local(Kernel::Resize(Buf::X, height))];
                steps.extend((j > 0).then(|| fwd(Dir::Recv)));
                steps.push(fwd(Dir::Send));
                if relayed {
                    let block = level.height(i) as usize * kk;
                    let d = if height > block || products.nnz() > 0 {
                        steps.push(local(Kernel::Head(Buf::X, Buf::Block, block)));
                        Buf::Block
                    } else {
                        Buf::X
                    };
                    self.multiply(&mut steps, level, i, k, (picks[j], &group), d);
                }
                steps.extend((j == 0).then(|| fwd(Dir::Recv)));
                steps.push(if products.nnz() > 0 {
                    let over = Finish::Overwrite;
                    let m = Multiply::new(products, [Buf::X, Buf::Inbox], k, over, self.dtype);
                    let gather = Some(&plan.gather[..]);
                    Multiply { gather, ..m }.step()
                } else {
                    local(Kernel::Zero(Buf::Inbox, products.rows() as usize * kk))
                });
                steps.push(bwd(Dir::Recv, Buf::Inbox));
                steps.extend((plan.folds.iter()).map(|fold| local(Kernel::Fold(fold, kk))));
                if !plan.adds.is_empty() {
                    steps.push(local(Kernel::Add(&plan.adds, kk)));
                }
                let returned = if relayed { Buf::Y } else { Buf::Inbox };
                steps.extend((j > 0).then(|| bwd(Dir::Send, returned)));
                steps.push(local(Kernel::Move(Buf::Y, Buf::X)));
                steps.extend((j == 0).then(|| local(Kernel::Sigma(Buf::X))));
                lists.push(steps);
            }
        }
        lists
    }

    /// Appends member `i`'s steps of one level's Algorithm 1 on a
    /// `k`-column operand to its `steps`, its `D(i)` in buffer `d`, on the
    /// level's broadcast and reduce and its group, leaving its `C(i)` in
    /// [`Buf::Y`].
    ///
    /// The root broadcasts `D(0)` (line 1): shared, so the root, every
    /// relay and every receiver read one buffer — or, on the sparse
    /// schedule, only the rows the rank reads. Rank `i`'s partial of `C(0)`
    /// (line 2) is its row-arm product `B(0,i) · D(i)` and its run of the
    /// hub tile's `B(0,0) · D(0)`. The root's row-arm tile is the hub tile,
    /// which the level shares: every rank adds the rows of `B(0,0) · D(0)`
    /// it was planned into its partial, and the reduction (line 3) carries
    /// them to the root with the rest, where they are `C(0)`. The root adds
    /// its run into zeros; a non-root's row-arm multiply overwrites every
    /// row (an empty one with `+0.0`) of the buffer its last `D(i)` left.
    /// Then `C(i) = B(i,0) · D(0) + B(i,i) · D(i)` (lines 4–6), and a
    /// non-root's `D(i)`, which only it read, is its next partial.
    fn multiply<'a>(
        &self,
        steps: &mut List<'a>,
        level: &'a LevelPlan,
        i: u32,
        k: u32,
        ([bcast, reduce], group): ([&'a Plan; 2], &Arc<[u32]>),
        d: Buf,
    ) {
        let (arrow, kk, dtype) = (&level.arrow, k as usize, self.dtype);
        let (over, acc) = (Finish::Overwrite, Finish::Accumulate);
        let (d0, partial) = match i {
            0 => (d, Buf::Y),
            _ => (Buf::Recv, Buf::Partial),
        };
        steps.push(Step::run(bcast, group, 0, None, kk, 3, d0 as usize));
        steps.push(match i {
            0 => Step::Compute(Kernel::Zero(Buf::Y, level.d0_rows() as usize * kk)),
            _ => Multiply::new(arrow.row_tile(i), [d, partial], k, over, dtype).step(),
        });
        let hub = Multiply::new(arrow.row_tile(0), [d0, partial], k, acc, dtype);
        let rows = level.hub_run(i);
        steps.push(Multiply { rows, ..hub }.step());
        steps.push(Step::run(reduce, group, 0, None, kk, 4, partial as usize));
        if i > 0 {
            let col = Multiply::new(arrow.col_tile(i), [Buf::Recv, Buf::Y], k, over, dtype);
            let diag = Multiply::new(arrow.diag_tile(i), [d, Buf::Y], k, acc, dtype);
            steps.extend([col.step(), diag.step()]);
            steps.push(Step::Compute(Kernel::Move(d, Buf::Partial)));
        }
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
        let (_, steps, _) = self.choose(x.cols());
        self.run_steps(x, iters, sigma, &steps)
    }

    fn dry_run(&self, k: u32, iters: u32) -> MachineStats {
        let (_, steps, _) = self.choose(k);
        walk(&steps, iters, &self.cost).0
    }

    fn predict_ranks(&self, k: u32) -> Vec<CommEstimate> {
        let (_, _, walked) = self.choose(k);
        CommEstimate::of_walk(walked, self.dtype)
    }
}

impl ArrowSpmm {
    /// [`DistSpmm::run_sigma`] of one iteration's `steps`, under whichever
    /// feed built them.
    fn run_steps(
        &self,
        x: &DenseMatrix<f64>,
        iters: u32,
        sigma: Option<Sigma>,
        steps: &[List<'_>],
    ) -> SparseResult<SpmmRun> {
        // Level 0's ranks come first and start with their X blocks, which
        // are gathered; a deeper rank's range is past level 0's rows, so
        // it starts empty and is filled by propagation. Level 0 blocks
        // hold positions 0..active_0; rows of vertices isolated in A are
        // gathered from no rank.
        let blocks = |rank: u32| {
            let (r0, r1) = block_range(self.levels[0].active_n, self.b, rank);
            let vertices = &self.level0_vertices[r0 as usize..r1 as usize];
            let level0 = rank < self.levels[0].nb;
            (vertices.iter().copied(), 0..x.cols() as usize, level0)
        };
        run_blocks(x, self.n, steps, self.cost, iters, sigma, blocks)
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

    /// Runs `d`'s plan for `a` at `dtype` under every feed on non-integer
    /// data and holds them to one answer, bit for bit, and at `f64` to the
    /// product. Returns whether the direct and the gather feed add a deeper
    /// level's row into a row of some level's `D(0)` — a vertex of block 0
    /// of level `t` that is active at `t + 1` — which the holder must do
    /// before it adds the row into its own block, as the relay's root did.
    fn feeds_agree(a: &CsrMatrix<f64>, d: &ArrowDecomposition, k: u32, dtype: Dtype) -> bool {
        let alg = ArrowSpmm::new(d).unwrap().with_dtype(dtype);
        let x = DenseMatrix::from_fn(a.rows(), k, |r, c| {
            ((r * 7 + c * 13) % 31) as f64 / 7.0 - 1.9
        });
        let picks = alg.picks(k);
        let ys = FEEDS.map(|feed| {
            let steps = alg.steps(k, feed, &picks);
            alg.run_steps(&x, 2, None, &steps).unwrap().y
        });
        let bits = |y: &DenseMatrix<f64>| y.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (feed, y) in FEEDS.iter().zip(&ys) {
            let name = alg.name();
            assert_eq!(
                bits(&ys[0]),
                bits(y),
                "{feed:?}: {name} at k = {k}, {dtype}"
            );
        }
        if dtype == Dtype::F64 {
            let want = iterated_spmm(a, &x, 2).unwrap();
            let scale = want.data().iter().fold(1.0f64, |m, v| m.max(v.abs()));
            assert!(ys[0].max_abs_diff(&want).unwrap() <= 1e-12 * scale);
        }
        [Feed::Direct, Feed::Gather].iter().all(|&feed| {
            (alg.feeds[feed as usize].ranks.iter())
                .flat_map(|plan| &plan.folds)
                .any(|fold| fold.adds.iter().any(|(node, _)| fold.nodes.contains(node)))
        })
    }

    /// The direct and the gather feed sum every row in the relay's
    /// association, so the feed a plan takes never shows in an answer:
    /// grid, OSM-, GenBank-, MAWI-like and R-MAT inputs at two widths and
    /// four operand widths, the spliced chain, whose rows come from
    /// further up than the level before, generated chains whose holders
    /// fold a deeper level's row into a row of `D(0)` and whose vertices
    /// re-enter after leaving, and a grid and a chain whose products round
    /// through `f32`.
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
                    feeds_agree(a, &d, k, Dtype::F64);
                }
            }
        }
        let (spliced_a, spliced_d) = spliced();
        for k in [1, 6, 16, 64] {
            feeds_agree(&spliced_a, &spliced_d, k, Dtype::F64);
        }
        for seed in 0..8 {
            let (a, d) = generated_chain(seed);
            for k in [1, 6, 64] {
                assert!(feeds_agree(&a, &d, k, Dtype::F64), "seed {seed}");
            }
        }
        let grid = &inputs[0];
        feeds_agree(grid, &decompose(grid, grid.rows() / 16, 1), 16, Dtype::F32);
        let (a, d) = generated_chain(8);
        feeds_agree(&a, &d, 16, Dtype::F32);
    }

    /// No iteration answers the operand itself, bit for bit, on every
    /// algorithm — Arrow under each feed, 1.5D, 2D, HP-1D, the one-rank
    /// multiply and the delta-corrected Arrow — with the run's stats equal
    /// to `dry_run(k, 0)`. The MAWI-like input has isolated vertices,
    /// whose rows no arrow rank gathers.
    #[test]
    fn zero_iterations_return_the_operand_bit_for_bit() {
        use crate::{A15dSpmm, A2dSpmm, DeltaSpmm, Hp1dSpmm, LocalSpmm};
        use amd_partition::block_partition;
        let a = datasets::mawi_like(300, &mut ChaCha8Rng::seed_from_u64(42)).to_adjacency();
        let n = a.rows();
        assert!((0..n).any(|r| a.row_nnz(r) == 0), "no isolated vertex");
        let k = 3;
        let x = DenseMatrix::from_fn(n, k, |r, c| ((r * 7 + c * 13) % 31) as f64 / 7.0 - 1.9);
        let bits = |y: &DenseMatrix<f64>| y.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let arrow = ArrowSpmm::new(&decompose(&a, 16, 1)).unwrap();
        let picks = arrow.picks(k);
        for feed in FEEDS {
            let steps = arrow.steps(k, feed, &picks);
            let y = arrow.run_steps(&x, 0, None, &steps).unwrap().y;
            assert_eq!(bits(&y), bits(&x), "arrow under {feed:?}");
        }
        let mut chord = amd_sparse::CooMatrix::new(n, n);
        chord.push_sym(0, 1, 2.0).unwrap();
        let chord = chord.to_csr();
        let algorithms: [Box<dyn DistSpmm + '_>; 6] = [
            Box::new(ArrowSpmm::new(&decompose(&a, 16, 1)).unwrap()),
            Box::new(A15dSpmm::new(&a, 4, 2).unwrap()),
            Box::new(A2dSpmm::new(&a, 4).unwrap()),
            Box::new(Hp1dSpmm::new(&a, &block_partition(n, 4)).unwrap()),
            Box::new(LocalSpmm::new(a.clone()).unwrap()),
            Box::new(DeltaSpmm::new(&arrow, &chord).unwrap()),
        ];
        for alg in &algorithms {
            let run = alg.run(&x, 0).unwrap();
            assert_eq!(bits(&run.y), bits(&x), "{}", alg.name());
            assert_eq!(alg.dry_run(k, 0).ranks, run.stats.ranks, "{}", alg.name());
        }
    }

    /// The order that fills the ranks' waits edits the lists and nothing
    /// else. On the support table's inputs and the spliced chain, each of
    /// the four algorithms' ordered lists answers bit for bit what its
    /// lists as built answer, at `f64` on non-integer data and at `f32`,
    /// after one iteration and after eight; every rank moves the bytes
    /// and messages it moved, for the flops it was charged, as the walk
    /// of the ordered lists says; and the makespan is no higher.
    #[test]
    fn ordered_lists_answer_as_built_and_finish_no_later() {
        use crate::{A15dSpmm, A2dSpmm, Hp1dSpmm};
        use amd_graph::generators::rmat;
        use amd_partition::block_partition;
        let seeded = ChaCha8Rng::seed_from_u64;
        let mut inputs: Vec<(CsrMatrix<f64>, ArrowDecomposition)> = [
            basic::grid_2d(160, 160).to_adjacency(),
            rmat::rmat(13, 8, rmat::RmatParams::graph500(), &mut seeded(13)).to_adjacency(),
            datasets::mawi_like(4096, &mut seeded(77)).to_adjacency(),
            datasets::osm_like(16_384, &mut seeded(6)).to_adjacency(),
        ]
        .into_iter()
        .map(|a| {
            let d = decompose(&a, a.rows() / 16, 1);
            (a, d)
        })
        .collect();
        inputs.push(spliced());
        let (k, cost, fell) = (5, CostModel::default(), std::cell::Cell::new(0));
        let bits = |y: &DenseMatrix<f64>| y.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let traffic = |stats: &MachineStats| {
            (stats.ranks.iter())
                .map(|r| (r.sent_bytes, r.recv_bytes, r.sent_msgs, r.recv_msgs))
                .collect::<Vec<_>>()
        };
        let compare = |name: &str,
                       built: &[List<'_>],
                       ordered: &[List<'_>],
                       run: &dyn Fn(&[List<'_>], u32) -> SpmmRun| {
            for iters in [1, 8] {
                let [before, after] = [built, ordered].map(|steps| run(steps, iters));
                let walked = walk(ordered, iters, &cost);
                assert_eq!(bits(&before.y), bits(&after.y), "{name}, {iters} passes");
                assert_eq!(traffic(&before.stats), traffic(&after.stats), "{name}");
                assert_eq!(walk(built, iters, &cost).1, walked.1, "{name}: flops");
                assert_eq!(walked.0.ranks, after.stats.ranks, "{name}: walk vs run");
                let (was, is) = (before.stats.sim_time(), after.stats.sim_time());
                assert!(is <= was, "{name}, {iters} passes: makespan {was} -> {is}");
                fell.set(fell.get() + usize::from(is < was));
            }
        };
        for (a, d) in &inputs {
            let n = a.rows();
            let x = DenseMatrix::from_fn(n, k, |r, c| ((r * 7 + c * 13) % 31) as f64 / 7.0 - 1.9);
            for dtype in [Dtype::F64, Dtype::F32] {
                let arrow = ArrowSpmm::new(d).unwrap().with_dtype(dtype);
                let (feed, ordered, _) = arrow.choose(k);
                let built = arrow.steps(k, feed, &arrow.picks(k));
                let run =
                    |steps: &[List<'_>], iters| arrow.run_steps(&x, iters, None, steps).unwrap();
                compare(&arrow.name(), &built, &ordered, &run);
                let a15d = A15dSpmm::new(a, 16, 4).unwrap().with_dtype(dtype);
                let run =
                    |steps: &[List<'_>], iters| a15d.run_steps(&x, iters, None, steps).unwrap();
                compare(&a15d.name(), &a15d.steps(k), &a15d.ordered(k).0, &run);
                let a2d = A2dSpmm::new(a, 16).unwrap().with_dtype(dtype);
                let run =
                    |steps: &[List<'_>], iters| a2d.run_steps(&x, iters, None, steps).unwrap();
                compare(&a2d.name(), &a2d.steps(k), &a2d.ordered(k).0, &run);
                let hp1d = Hp1dSpmm::new(a, &block_partition(n, 16))
                    .unwrap()
                    .with_dtype(dtype);
                let run =
                    |steps: &[List<'_>], iters| hp1d.run_steps(&x, iters, None, steps).unwrap();
                compare(&hp1d.name(), &hp1d.steps(k), &hp1d.ordered(k).0, &run);
            }
        }
        assert!(fell.get() > 0, "no makespan fell: the test orders nothing");
    }

    /// A decomposition drawn from `seed` that LA-Decompose never returns,
    /// though nothing in the plan may rely on that: level 0 holds every
    /// vertex, and each of 3–4 deeper levels arranges the vertices at
    /// random and keeps a random prefix of them active, with entries drawn
    /// in its arrow pattern. Asserted of every draw: a vertex of some
    /// deeper level's block 0 is active further down, so a holder adds a
    /// deeper row into a row of that level's `D(0)` before it adds that
    /// row into its own; and a vertex leaves the chain and re-enters it,
    /// so its row comes from further up than the level before.
    fn generated_chain(seed: u64) -> (CsrMatrix<f64>, ArrowDecomposition) {
        use amd_sparse::{CooMatrix, Permutation};
        use rand::seq::SliceRandom;
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (n, b) = (64u32, 8u32);
        let level = |rng: &mut ChaCha8Rng, order: Vec<u32>, active_n: u32| {
            // Per row: a column of block 0, one of the row's own block,
            // and for a row of block 0 one anywhere.
            let mut coo = CooMatrix::new(n, n);
            for r in 0..active_n {
                let own = (r / b) * b;
                let mut cols = vec![
                    rng.gen_range(0..b.min(active_n)),
                    own + rng.gen_range(0..b.min(active_n - own)),
                ];
                if r < b {
                    cols.push(rng.gen_range(0..active_n));
                }
                for c in cols {
                    coo.push(r, c, rng.gen_range(-1.0..1.0)).unwrap();
                }
            }
            ArrowLevel {
                perm: Permutation::from_order(order).unwrap(),
                matrix: coo.to_csr(),
                active_n,
            }
        };
        let mut levels = vec![level(&mut rng, (0..n).collect(), n)];
        for _ in 0..rng.gen_range(3..=4) {
            let mut order: Vec<u32> = (0..n).collect();
            order.shuffle(&mut rng);
            let active_n = rng.gen_range(b + 1..n);
            levels.push(level(&mut rng, order, active_n));
        }
        let d = ArrowDecomposition::new(n, b, levels);
        let active = |t: usize, v: u32| {
            let level = &d.levels()[t];
            level.perm.position(v) < level.active_n
        };
        let below = |t: usize, v: u32| (t + 1..d.order()).any(|u| active(u, v));
        let hub_deeper =
            (1..d.order()).any(|t| (0..b).any(|p| below(t, d.levels()[t].perm.vertex_at(p))));
        let reenters = (0..n).any(|v| (1..d.order()).any(|t| !active(t, v) && below(t, v)));
        assert!(
            hub_deeper && reenters,
            "seed {seed} drew a chain without the cases"
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
