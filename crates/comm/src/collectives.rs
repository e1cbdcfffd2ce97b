//! Collective operations over rank groups, built from point-to-point
//! messages, so the latency and the α-β costs emerge from the model.
//! Every member of a group calls the same sequence of collectives on it
//! (SPMD, as with an MPI communicator), and a rank's inbox keeps each
//! sender's messages of one tag in order, so every message meets the call
//! it belongs to; the tag — the group's, a hash of its member list, or a
//! step's — keeps collectives on different groups apart.
//!
//! # Communication as data
//!
//! Every schedule is a [`Plan`]: per member, the ordered steps it
//! performs — the peer, the direction, which rows of which buffer, and
//! the slot where a received piece waits for [`fold_nonroots`]. One
//! runner runs every plan, and the steps that run are the steps
//! counted: a message of a plan's moves `rows × 8 × stride` bytes, and a
//! dry [`walk`](crate::walk) of the steps reads them. Supports are fixed when a plan is
//! built, so a plan does not depend on the operand width. That gives every
//! row collective one call path: a caller builds its candidates once
//! ([`Collective`]), takes one per operand width ([`Collective::pick`], or
//! [`Collective::plan`] by schedule) and puts it in a rank's step list,
//! which [`execute`](crate::execute) hands to the runner; the ring is a
//! [`Plan::ring`] taken the same way. Point-to-point traffic is plans of the same
//! steps: routes ([`Plan::routes`]) for the arrow multiply's feeds and
//! HP-1D's fetches, a two-member tree broadcast for the 2D algorithm's
//! tile route, so every distributed SpMM algorithm sends only plan steps.
//! The closure collectives ([`Group::broadcast`], [`Group::reduce_sum`],
//! [`Group::allreduce_sum`]) build a tree plan and run it on the same
//! runner. A step whose plan has another number of members than its group
//! panics, in [`execute`](crate::execute) and in the walk alike.
//!
//! A binomial **tree** moves the whole buffer `⌈log₂ p⌉` times through
//! its root. The **large**-message schedules (Thakur, Rabenseifner &
//! Gropp, IJHPCA 2005) cut a `rows`-row buffer into `q = p − 1`
//! row-aligned blocks (block `c` starts at row `c·rows/q`), one per
//! non-root: the broadcast scatters them and the non-roots all-gather in
//! Bruck steps; in the reduce each non-root ships its piece of block `c`
//! to non-root `c`, which folds the `q` pieces and sends the block to the
//! root. The root stays out of the exchange: in the arrow multiply it
//! holds the hub tile and is the slowest rank on skewed inputs. The
//! **sparse** schedules move a member only its **support** — the rows it
//! reads of a broadcast, the rows of its vector that may be non-zero in a
//! reduce — in one packed message to or from the root. The **ring**
//! all-reduce is a reduce-scatter and an all-gather of row-aligned chunks.
//!
//! # Supports
//!
//! Supports are one strictly increasing row list per member, by
//! **root-relative** index (`supports[v]` is member `(root + v) mod p`'s;
//! the root's is not read). A broadcast under them promises a member the
//! root's rows on its support and `+0.0` elsewhere; a reduce requires a
//! member's vector to be `+0.0` off its support.
//!
//! # One association
//!
//! All three reduces sum in the **root-last binomial** order
//! `x_root + (c₁ + c₂ + c₄ + …)`, `c_m` the binomial subtree sum of member
//! `m`: the large schedule's owners and the sparse schedule's root rerun
//! the tree's mask loop over the raw pieces ([`fold_nonroots`]), a row
//! missing from a member's message entering as the `+0.0` its vector
//! holds — a literal `+ 0.0`, which turns `−0.0` into `+0.0` as the tree
//! does. Which schedule runs depends on the payload, and the serving
//! engine promises that a column's sum does not depend on how many
//! columns travel with it.
//!
//! # Selection
//!
//! [`Collective::pick`] weighs every candidate run alone, from time zero,
//! on the machine's own clock: [`Plan::alone`] is the dry [`walk`](crate::walk) of a
//! one-step list per member, under the α-β rules the ranks run on (one
//! `Clock` serves both) and without payloads, and a plan's time is its
//! makespan — what the machine reports when the plan runs alone. The
//! **dense pick** is the faster of the tree and the large schedule (ties,
//! `p < 3` and empty payloads go to the tree). The sparse plan replaces it
//! only when it finishes no later **and** its busiest member moves no more
//! bytes and no more messages, read from the same walks. Without the bytes
//! guard the one-column `serve-small` arrow plan takes a sparse reduce
//! whose root moves 30 688 bytes an iteration instead of 19 088; without
//! the message guard Arrow on a 600-vertex star at 16 ranks is priced at
//! 23 messages instead of 10 and the serving planner binds the slower
//! 1.5D.
//!
//! Timing a plan by its walk replaced hand-derived completion formulas,
//! which priced every large block as the largest one. Under the default
//! model, over sizes 2–64, 14 row counts (1–4 096), 8 strides (1–512) and
//! 4 support densities, the two pick differently in 90 of 14 112 dense
//! cases and 317 of 56 448 supported ones. All 90, and 289 of the 317, are
//! a tree or large call on a split `q` does not divide, where the two
//! makespans lie within 1.43× of each other; the other 28 are
//! sparse-versus-dense ties the formulas gave the tree. The walk's pick is
//! never the slower on the machine's clock, and none of these cases is on
//! the reproduction ledger or the benchmark's workloads. A walk is not
//! free (the large reduce has `Θ(p²)` steps), so a caller picks once per
//! run on the host, into its ranks' step lists.
//!
//! # Host copies are not wire bytes
//!
//! A tree broadcast's relay hands every child the buffer it received (an
//! `Arc`, charged like its content), so every member shares the root's
//! buffer; the large schedules send views of one `Arc` (charged the
//! elements they cover) and every receiver returns the root's buffer; the
//! ring copies one chunk per member and forwards received buffers from
//! then on. Sparse messages and routes are packed rows, so they are the
//! bytes charged. None of it changes a byte, a message or a tick of the
//! simulated clock. [`Group::broadcast`] returns an owned vector, so a
//! member whose buffer is still shared when it returns copies it once.

use crate::cost::CostModel;
use crate::message::SharedRows;
use crate::rank::RankCtx;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// Top bit marks collective traffic; user tags must keep it clear.
const COLL_BIT: u64 = 1 << 63;

/// How a rooted row collective runs (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Binomial tree of whole buffers.
    Tree,
    /// Root-excluded scatter + all-gather, or reduce-scatter + gather, of
    /// row-aligned blocks.
    Large,
    /// One packed message of a non-root's support rows.
    Sparse,
}

/// Which way a step of a [`Plan`] goes; a `Keep` takes a view of the member's own
/// buffer for the fold, with no message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    Send,
    Recv,
    Keep,
}

/// Which rows of a buffer a [`Hop`] moves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Rows {
    /// The whole buffer: a tree's message.
    All,
    /// A run of row-aligned blocks: rows to the buffer's end, then rows
    /// wrapped to its front.
    Span(Range<u32>, Range<u32>),
    /// The plan's row list `l`, packed.
    List(u32),
}

/// Which buffer a [`Hop`] reads or fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Buf {
    /// The member's own: what a broadcast delivers, what a reduce sums
    /// into (a received buffer or block is added), what a route moves.
    Own,
    /// Slot `m` of the fold: a received piece waits there for
    /// [`fold_nonroots`] (a tree's root sums its children in slot 0); a
    /// send of a slot sends the folded sum.
    Piece(u32),
    /// The ring's buffer in flight: a received one becomes `own +
    /// incoming` (`sum`) and is copied over the own chunk (`keep`).
    Carry { sum: bool, keep: bool },
}

/// One step of one member's part of a [`Plan`] — a message it sends or
/// receives, or a view it keeps; `peer` is the other member by the plan's
/// index (root-relative for a rooted collective).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Hop {
    peer: u32,
    dir: Dir,
    rows: Rows,
    buf: Buf,
}

impl Hop {
    /// The rows the step moves, in a plan of a `rows`-row buffer whose
    /// row lists are `lists`.
    fn moves(&self, rows: usize, lists: &[Vec<u32>]) -> usize {
        match &self.rows {
            Rows::All => rows,
            Rows::Span(head, tail) => head.len() + tail.len(),
            Rows::List(l) => lists[*l as usize].len(),
        }
    }
}

fn step(peer: usize, dir: Dir, rows: Rows, buf: Buf) -> Hop {
    let peer = peer as u32;
    Hop {
        peer,
        dir,
        rows,
        buf,
    }
}

/// What a plan does with the rows it moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Each row goes where the receiver reads it: a broadcast or a route.
    Broadcast,
    /// Rows go to the root, summed on the way.
    Reduce,
    Ring,
}

/// Block `c` of `rows` rows cut over `q` owners starts at row `c·rows/q`;
/// `run(first, cnt)` is blocks `first, first + 1, …` (indices mod `q`).
fn run(q: usize, rows: usize, first: usize, cnt: usize) -> Rows {
    let start = |c: usize| (c * rows / q) as u32;
    match (first + cnt).checked_sub(q).filter(|&wrap| wrap > 0) {
        None => Rows::Span(start(first)..start(first + cnt), 0..0),
        Some(wrap) => Rows::Span(start(first)..start(q), 0..start(wrap)),
    }
}

/// Member `vr`'s binomial-tree steps: a broadcast hears from its parent,
/// then sends to its children, largest subtree first; a reduce hears from
/// its children, smallest first (the root keeps their sum apart), then
/// sends to its parent.
fn tree_steps(op: Op, vr: usize, size: usize) -> Vec<Hop> {
    let (mut steps, mut mask) = (Vec::new(), 1usize);
    let reduce = op == Op::Reduce;
    while mask < size {
        if vr & mask != 0 {
            let dir = if reduce { Dir::Send } else { Dir::Recv };
            steps.push(step(vr - mask, dir, Rows::All, Buf::Own));
            break;
        }
        if reduce && vr + mask < size {
            let buf = if vr == 0 { Buf::Piece(0) } else { Buf::Own };
            steps.push(step(vr + mask, Dir::Recv, Rows::All, buf));
        }
        mask <<= 1;
    }
    while !reduce && mask > 1 {
        mask >>= 1;
        if vr & (2 * mask - 1) == 0 && vr + mask < size {
            steps.push(step(vr + mask, Dir::Send, Rows::All, Buf::Own));
        }
    }
    steps
}

/// Member `vr`'s large-schedule steps. A non-root `c` of the broadcast
/// all-gathers in Bruck steps of distance `d`: it sends its run of
/// `min(d, q − d)` blocks to `c − d` and receives `c + d`'s. One of the
/// reduce sends to `c + 1, c + 2, …` and drains `c − 1, c − 2, …`, so each
/// owner is sent to once a round and pieces are taken as they were sent.
fn large_steps(op: Op, vr: usize, size: usize, rows: usize) -> Vec<Hop> {
    let q = size.saturating_sub(1);
    let block = |peer, dir, first, cnt, buf| step(peer, dir, run(q, rows, first, cnt), buf);
    let Some(c) = vr.checked_sub(1) else {
        let dir = if op == Op::Reduce {
            Dir::Recv
        } else {
            Dir::Send
        };
        return (0..q).map(|c| block(1 + c, dir, c, 1, Buf::Own)).collect();
    };
    let mut steps = Vec::new();
    if op == Op::Broadcast {
        steps.push(block(0, Dir::Recv, c, 1, Buf::Own));
        for d in std::iter::successors(Some(1), |d| Some(d << 1)).take_while(|&d| d < q) {
            let (cnt, from) = (d.min(q - d), (c + d) % q);
            steps.push(block(1 + (c + q - d) % q, Dir::Send, c, cnt, Buf::Own));
            steps.push(block(1 + from, Dir::Recv, from, cnt, Buf::Own));
        }
        return steps;
    }
    for owner in (1..q).map(|i| (c + i) % q) {
        steps.push(block(1 + owner, Dir::Send, owner, 1, Buf::Own));
    }
    steps.push(block(vr, Dir::Keep, c, 1, Buf::Piece(c as u32)));
    for m in (1..q).map(|i| (c + q - i) % q) {
        steps.push(block(1 + m, Dir::Recv, c, 1, Buf::Piece(m as u32)));
    }
    steps.push(block(0, Dir::Send, c, 1, Buf::Piece(c as u32)));
    steps
}

/// Member `vr`'s sparse-schedule steps: one packed message of each
/// non-empty non-root support, between that non-root and the root.
fn sparse_steps(op: Op, vr: usize, supports: &[Vec<u32>]) -> Vec<Hop> {
    let reduce = op == Op::Reduce;
    let peers = if vr == 0 { 1..supports.len() } else { 0..1 };
    let (rooted, there) = (vr == 0, |v: usize| !supports[v.max(vr)].is_empty());
    peers
        .filter(|&v| there(v))
        .map(|v| match (reduce, rooted) {
            (true, true) => step(v, Dir::Recv, Rows::List(v as u32), Buf::Piece(v as u32 - 1)),
            (false, true) => step(v, Dir::Send, Rows::List(v as u32), Buf::Own),
            (true, false) => step(0, Dir::Send, Rows::List(vr as u32), Buf::Own),
            (false, false) => step(0, Dir::Recv, Rows::List(vr as u32), Buf::Own),
        })
        .collect()
}

/// Member `me`'s ring steps over `g` chunks: in step `s` of `2·(g − 1)`
/// it sends chunk `me − s` (its own at first, then the buffer it last
/// received) and receives chunk `me − s − 1`, summing its own part into it
/// for the first `g − 1` steps and keeping it from the last of those on.
/// An empty buffer takes no step.
fn ring_steps(me: usize, g: usize, rows: usize) -> Vec<Hop> {
    let chunk = |back: usize| run(g, rows, (me + 2 * g - back) % g, 1);
    let mut steps = Vec::new();
    for s in (0..2 * (g - 1)).filter(|_| rows > 0) {
        let (sum, keep) = (false, false);
        let sent = if s == 0 {
            Buf::Own
        } else {
            Buf::Carry { sum, keep }
        };
        steps.push(step((me + 1) % g, Dir::Send, chunk(s), sent));
        let (sum, keep) = (s < g - 1, s + 2 >= g);
        steps.push(step(
            (me + g - 1) % g,
            Dir::Recv,
            chunk(s + 1),
            Buf::Carry { sum, keep },
        ));
    }
    steps
}

/// Every member's steps of one collective or exchange.
#[derive(Debug, Clone)]
pub struct Plan {
    op: Op,
    /// `None` for a ring or routes.
    schedule: Option<Schedule>,
    /// Height of the buffer: the rows of a whole-buffer message.
    rows: usize,
    /// The row lists [`Rows::List`] names.
    lists: Vec<Vec<u32>>,
    /// A sparse reduce's root: each row's slot in the union of the
    /// non-roots' supports (`u32::MAX` off it), and the union's height.
    union: (Vec<u32>, usize),
    steps: Vec<Vec<Hop>>,
}

impl Plan {
    fn new(
        op: Op,
        schedule: Option<Schedule>,
        rows: usize,
        lists: Vec<Vec<u32>>,
        steps: Vec<Vec<Hop>>,
    ) -> Self {
        let mut union = (Vec::new(), 0);
        if op == Op::Reduce && schedule == Some(Schedule::Sparse) {
            union.0 = vec![u32::MAX; rows];
            for &r in lists[1..].iter().flatten() {
                union.0[r as usize] = 0;
            }
            for at in union.0.iter_mut().filter(|at| **at != u32::MAX) {
                (*at, union.1) = (union.1 as u32, union.1 + 1);
            }
        }
        Self {
            op,
            schedule,
            rows,
            lists,
            union,
            steps,
        }
    }

    fn rooted(op: Op, schedule: Schedule, size: usize, rows: usize, lists: Vec<Vec<u32>>) -> Self {
        let steps = (0..size).map(|vr| match schedule {
            Schedule::Tree => tree_steps(op, vr, size),
            Schedule::Large => large_steps(op, vr, size, rows),
            Schedule::Sparse => sparse_steps(op, vr, &lists),
        });
        let steps = steps.collect();
        Self::new(op, Some(schedule), rows, lists, steps)
    }

    /// The ring all-reduce of a `rows`-row buffer over `size` members, by
    /// member: the bandwidth-optimal all-reduce, `2·(size − 1)` messages
    /// moving `2·s·(size − 1)/size` of an `s`-byte buffer per member, the
    /// variant the 1.5D algorithm's `O(β·nkc/p)` term assumes. Chunks are
    /// whole rows, so the summation order does not depend on the stride:
    /// the property the serving engine needs for batches to bit-match
    /// single columns. Where `size` does not divide `rows` some member
    /// moves whole rows more than `2·(size − 1)/size` of the buffer.
    pub fn ring(size: usize, rows: usize) -> Self {
        let steps = (0..size).map(|me| ring_steps(me, size, rows)).collect();
        Self::new(Op::Ring, None, rows, Vec::new(), steps)
    }

    /// Point-to-point routes among `members` ranks, for
    /// an exchange step: each `(src, dst, src_row, dst_row)` moves row
    /// `src_row` of the sender's buffer to row `dst_row` of the
    /// receiver's, all rows from one sender to one receiver in one message
    /// in `src_row` order. A member receives, from each sender in rank
    /// order, before it sends, to each receiver in rank order.
    pub fn routes(members: usize, mut moves: Vec<(u32, u32, u32, u32)>) -> Self {
        moves.sort_unstable();
        let (mut steps, mut sends) = (vec![Vec::new(); members], vec![Vec::new(); members]);
        let mut lists = Vec::new();
        for run in moves.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (src, dst, l) = (run[0].0 as usize, run[0].1 as usize, lists.len() as u32);
            sends[src].push(step(dst, Dir::Send, Rows::List(l), Buf::Own));
            steps[dst].push(step(src, Dir::Recv, Rows::List(l + 1), Buf::Own));
            lists.push(run.iter().map(|m| m.2).collect());
            lists.push(run.iter().map(|m| m.3).collect());
        }
        for (steps, sends) in steps.iter_mut().zip(sends) {
            steps.extend(sends);
        }
        Self::new(Op::Broadcast, None, 0, lists, steps)
    }

    /// The schedule this plan runs, if it is a rooted collective's.
    pub fn schedule(&self) -> Option<Schedule> {
        self.schedule
    }

    /// Member `vr`'s messages on a `stride`-column buffer, in order — those
    /// of direction `only`, if given: each one's direction, its peer by the
    /// plan's index and its bytes, `rows × 8 × stride`. A ring of an empty
    /// payload sends nothing (the runner returns at once).
    pub(crate) fn messages(
        &self,
        vr: usize,
        only: Option<Dir>,
        stride: usize,
    ) -> impl Iterator<Item = (Dir, usize, usize)> + '_ {
        let silent = self.op == Op::Ring && stride == 0;
        let hops = if silent { &[][..] } else { &self.steps[vr] };
        (hops.iter())
            .filter(move |h| h.dir != Dir::Keep && only.is_none_or(|d| h.dir == d))
            .map(move |h| {
                (
                    h.dir,
                    h.peer as usize,
                    8 * stride * h.moves(self.rows, &self.lists),
                )
            })
    }

    /// Number of members.
    pub(crate) fn size(&self) -> usize {
        self.steps.len()
    }
}

/// The plans one rooted row collective can take over `size` members and
/// a `rows`-row buffer — the tree; the large schedule with two non-roots
/// and a row to cut; the sparse one given supports — built once and
/// picked per operand width.
#[derive(Debug, Clone)]
pub struct Collective {
    tree: Plan,
    large: Option<Plan>,
    sparse: Option<Plan>,
}

impl Collective {
    /// The candidates of a broadcast of a `rows`-row buffer from a root
    /// over `size` members.
    pub fn broadcast(size: usize, rows: usize, supports: Option<&[Vec<u32>]>) -> Self {
        Self::new(Op::Broadcast, size, rows, supports)
    }

    /// The candidates of a reduce of `rows`-row buffers to a root over
    /// `size` members.
    pub fn reduce(size: usize, rows: usize, supports: Option<&[Vec<u32>]>) -> Self {
        Self::new(Op::Reduce, size, rows, supports)
    }

    fn new(op: Op, size: usize, rows: usize, supports: Option<&[Vec<u32>]>) -> Self {
        supports.inspect(|s| check_supports(s, size, rows));
        let plan = |schedule, lists| Plan::rooted(op, schedule, size, rows, lists);
        Self {
            tree: plan(Schedule::Tree, Vec::new()),
            large: (size >= 3 && rows > 0).then(|| plan(Schedule::Large, Vec::new())),
            sparse: supports
                .filter(|_| size >= 2 && rows > 0)
                .map(|s| plan(Schedule::Sparse, s.to_vec())),
        }
    }

    /// The candidate that runs `schedule`, if there is one.
    pub fn plan(&self, schedule: Schedule) -> Option<&Plan> {
        match schedule {
            Schedule::Tree => Some(&self.tree),
            Schedule::Large => self.large.as_ref(),
            Schedule::Sparse => self.sparse.as_ref(),
        }
    }

    /// The plan a `stride`-column buffer takes on a machine with `cost`,
    /// by the candidates' makespans and busiest members, each read from
    /// the plan run alone ([`Plan::alone`]; see the [module
    /// docs](self#selection)). A walk is not free: pick once per run on
    /// the host, not on a rank.
    pub fn pick(&self, stride: usize, cost: &CostModel) -> &Plan {
        if stride == 0 || (self.large.is_none() && self.sparse.is_none()) {
            return &self.tree;
        }
        let load = |plan: &Plan| {
            let stats = plan.alone(stride, cost);
            (stats.sim_time(), stats.max_volume(), stats.max_messages())
        };
        let tree = (&self.tree, load(&self.tree));
        let large = self.large.as_ref().map(|large| (large, load(large)));
        let (dense, d) = large.filter(|large| large.1 .0 < tree.1 .0).unwrap_or(tree);
        match self.sparse.as_ref().map(|sparse| (sparse, load(sparse))) {
            Some((sparse, s)) if s.1 <= d.1 && s.2 <= d.2 && s.0 <= d.0 => sparse,
            _ => dense,
        }
    }
}

/// Panics unless `supports` holds one strictly increasing list of rows
/// below `rows` per member of a `size`-member group.
fn check_supports(supports: &[Vec<u32>], size: usize, rows: usize) {
    assert_eq!(supports.len(), size, "one support per member");
    for support in supports {
        assert!(
            support.windows(2).all(|w| w[0] < w[1])
                && support.last().is_none_or(|&r| (r as usize) < rows),
            "a support must be increasing rows of the buffer"
        );
    }
}

/// `acc[i] += other[i]`, the one addition every reduce here is made of.
fn add_into(acc: &mut [f64], other: &[f64]) {
    assert_eq!(other.len(), acc.len(), "reduce length mismatch");
    for (a, b) in acc.iter_mut().zip(other) {
        *a += b;
    }
}

/// The non-roots' part of the root-last binomial sum, `c₁ + c₂ + c₄ + …`,
/// of one block: `pieces[v − 1]` is the raw piece of the member at
/// root-relative index `v` of a `p`-member group. Replays the tree
/// reduce's mask loop — in round `mask` every member still holding a
/// partial and clear of that bit adds the partial of `v + mask` into its
/// own — with slot 0 standing for the root's sum of children, so the
/// result is bit for bit what the tree's root adds to its own. A row a
/// member does not hold enters as the `+0.0` its vector has there. The
/// arrow multiply's placed feeds fold with it too.
pub fn fold_nonroots(pieces: &[&[f64]], p: usize) -> Vec<f64> {
    assert_eq!(pieces.len() + 1, p, "one piece per non-root");
    assert!(p >= 2, "no non-root to fold");
    // `None`: the member's partial is still its raw piece.
    let mut acc: Vec<Option<Vec<f64>>> = vec![None; p];
    let mut mask = 1usize;
    while mask < p {
        for v in (0..p - mask).step_by(2 * mask) {
            let raw = pieces[v + mask - 1];
            let (lo, hi) = acc.split_at_mut(v + mask);
            let incoming = hi[0].take();
            let slot = &mut lo[v];
            if let Some(sum) = slot {
                add_into(sum, incoming.as_deref().unwrap_or(raw));
            } else if v == 0 {
                *slot = Some(incoming.unwrap_or_else(|| raw.to_vec()));
            } else {
                let add = incoming.as_deref().unwrap_or(raw);
                *slot = Some(pieces[v - 1].iter().zip(add).map(|(a, b)| a + b).collect());
            }
        }
        mask <<= 1;
    }
    acc[0].take().expect("round 1 fills the root's slot")
}

/// `rows` as a view of the whole of a buffer of its own.
fn whole(rows: Vec<f64>) -> SharedRows {
    let head = 0..rows.len();
    SharedRows {
        buf: Arc::new(rows),
        head,
        tail: 0..0,
    }
}

/// What a member holds while it runs its steps.
struct Held {
    /// The member's own buffer.
    own: Option<Arc<Vec<f64>>>,
    /// Received pieces waiting for the fold, by slot.
    pieces: Vec<Option<SharedRows>>,
    carry: Vec<f64>,
}

impl Held {
    fn own(&self) -> &Arc<Vec<f64>> {
        self.own.as_ref().expect("the member holds its buffer")
    }

    /// The own buffer, never shared when a plan writes it.
    fn own_mut(&mut self) -> &mut Vec<f64> {
        Arc::make_mut(self.own.as_mut().expect("the member holds its buffer"))
    }

    fn take_own(&mut self) -> Vec<f64> {
        Arc::unwrap_or_clone(self.own.take().expect("the member holds its buffer"))
    }

    fn view(&self, head: Range<usize>, tail: Range<usize>) -> SharedRows {
        SharedRows {
            buf: Arc::clone(self.own()),
            head,
            tail,
        }
    }

    fn piece(&mut self, m: u32) -> &mut Option<SharedRows> {
        let m = m as usize;
        if self.pieces.len() <= m {
            self.pieces.resize_with(m + 1, || None);
        }
        &mut self.pieces[m]
    }

    /// The fold of every piece held, a missing one as `empty`.
    fn fold(&mut self, empty: &[f64]) -> Vec<f64> {
        let pieces = std::mem::take(&mut self.pieces);
        let rows: Vec<&[f64]> = (pieces.iter())
            .map(|p| p.as_ref().map_or(empty, |v| &v.buf[v.head.clone()]))
            .collect();
        fold_nonroots(&rows, rows.len() + 1)
    }
}

/// A communicator: an ordered list of machine ranks, as one of them sees
/// it.
///
/// Every message of a group built here carries the group's tag, a hash
/// of its member list, which keeps apart collectives on different groups;
/// a step's group ([`Run`](crate::steps::Run)) borrows the step's members
/// and tags every message with the step's tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group<'m> {
    members: Cow<'m, [u32]>,
    my_idx: usize,
    tag: u64,
}

impl<'m> Group<'m> {
    /// Builds the group view for the calling rank. All members must build
    /// the group with an identical `members` list (order matters).
    pub fn new(ctx: &RankCtx, members: Vec<u32>) -> Self {
        let tag = COLL_BIT | fnv1a(&members);
        Self::of(members.into(), ctx.rank(), tag)
    }

    /// `rank`'s view of `members`, every message tagged `tag`.
    pub(crate) fn of(members: Cow<'m, [u32]>, rank: u32, tag: u64) -> Self {
        assert!(!members.is_empty(), "group must be non-empty");
        let my_idx = (members.iter().position(|&m| m == rank))
            .unwrap_or_else(|| panic!("rank {rank} not in group {members:?}"));
        Self {
            members,
            my_idx,
            tag,
        }
    }

    /// The whole machine as one group.
    pub fn world(ctx: &RankCtx) -> Self {
        Self::new(ctx, (0..ctx.p()).collect())
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank's index within the group.
    pub fn my_idx(&self) -> usize {
        self.my_idx
    }

    /// Global rank of member `idx`.
    pub fn member(&self, idx: usize) -> u32 {
        self.members[idx]
    }

    /// The member list.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// This member's index relative to `root_idx`.
    pub(crate) fn vr(&self, root_idx: usize) -> usize {
        (self.my_idx + self.size() - root_idx) % self.size()
    }

    /// The runner, the one way a [`Plan`] runs: this member's part in
    /// `plan` — its steps of direction `only`, if given — on a row-major
    /// `stride`-column `buf`, peers relative to `root_idx`, every message
    /// tagged with the group's tag. A broadcast's root shares `buf` and
    /// every other member's is replaced by what it receives (under a
    /// sparse plan only its support rows are promised, see the [module
    /// docs](self#supports)); a reduce sums every member's `buf` into the
    /// root's in the one association and leaves a non-root's empty; a ring
    /// leaves the sum in every member's, and an empty `buf` returns at
    /// once (emptiness must agree across members); routes send rows of
    /// `buf` and put the rows they receive there.
    pub(crate) fn run(
        &self,
        ctx: &mut RankCtx,
        plan: &Plan,
        root_idx: usize,
        only: Option<Dir>,
        stride: usize,
        buf: Arc<Vec<f64>>,
    ) -> Arc<Vec<f64>> {
        let (vr, len, tag) = (self.vr(root_idx), plan.rows * stride, self.tag);
        let (broadcast, ring) = (plan.op == Op::Broadcast, plan.op == Op::Ring);
        if ring && (self.size() == 1 || buf.is_empty()) {
            return buf;
        }
        // Routes move rows of whatever buffer the member holds. A
        // broadcast's non-root drops its buffer, which a peer may still
        // share, and holds what it receives.
        let routes = broadcast && plan.schedule.is_none();
        let holds = !broadcast || routes || vr == 0;
        if holds && !routes {
            assert_eq!(buf.len(), len, "{:?} shape mismatch", plan.op);
        }
        let mut held = Held {
            own: holds.then_some(buf),
            pieces: Vec::new(),
            carry: Vec::new(),
        };
        let span = |r: &Range<u32>| r.start as usize * stride..r.end as usize * stride;
        let steps = plan.steps[vr]
            .iter()
            .filter(|s| only.is_none_or(|d| s.dir == d));
        for s in steps {
            let peer = self.members[(s.peer as usize + root_idx) % self.size()];
            match (s.dir, &s.rows, s.buf) {
                (Dir::Send, Rows::All, _) if broadcast => {
                    ctx.send(peer, tag, Arc::clone(held.own()));
                }
                (Dir::Recv, Rows::All, _) if broadcast => held.own = Some(ctx.recv(peer, tag)),
                (Dir::Send, Rows::All, _) => ctx.send(peer, tag, held.take_own()),
                (Dir::Recv, Rows::All, Buf::Own) => {
                    add_into(held.own_mut(), &ctx.recv::<Vec<f64>>(peer, tag))
                }
                (Dir::Recv, Rows::All, _) => {
                    let other: Vec<f64> = ctx.recv(peer, tag);
                    match held.piece(0) {
                        Some(sum) => add_into(&mut Arc::make_mut(&mut sum.buf)[..], &other),
                        children => *children = Some(whole(other)),
                    }
                }
                (Dir::Send, Rows::Span(head, _), Buf::Own) if ring => {
                    ctx.send(peer, tag, held.own()[span(head)].to_vec())
                }
                (Dir::Send, Rows::Span(head, tail), Buf::Own) => {
                    ctx.send(peer, tag, held.view(span(head), span(tail)));
                }
                (Dir::Keep, Rows::Span(head, tail), Buf::Piece(m)) => {
                    *held.piece(m) = Some(held.view(span(head), span(tail)));
                }
                (Dir::Send, Rows::Span(head, _), Buf::Piece(_)) => {
                    let folded = held.fold(&vec![0.0; span(head).len()]);
                    ctx.send(peer, tag, folded);
                }
                (Dir::Send, Rows::Span(..), Buf::Carry { .. }) => {
                    ctx.send(peer, tag, std::mem::take(&mut held.carry))
                }
                (Dir::Recv, Rows::Span(head, tail), Buf::Own) if broadcast => {
                    // A view must cover exactly the run the step says it
                    // does, or the receiver would "hold" rows nobody sent.
                    let got: SharedRows = ctx.recv(peer, tag);
                    assert_eq!((got.head, got.tail), (span(head), span(tail)));
                    match &held.own {
                        Some(own) => assert!(Arc::ptr_eq(own, &got.buf), "views of two buffers"),
                        None => held.own = Some(got.buf),
                    }
                }
                (Dir::Recv, Rows::Span(head, _), Buf::Own) => {
                    let block: Vec<f64> = ctx.recv(peer, tag);
                    add_into(&mut held.own_mut()[span(head)], &block);
                }
                (Dir::Recv, Rows::Span(head, _), Buf::Piece(m)) => {
                    let view: SharedRows = ctx.recv(peer, tag);
                    assert_eq!(view.head.len(), span(head).len());
                    *held.piece(m) = Some(view);
                }
                (Dir::Recv, Rows::Span(head, _), Buf::Carry { sum, keep }) => {
                    let mut chunk: Vec<f64> = ctx.recv(peer, tag);
                    let mine = &mut held.own_mut()[span(head)];
                    assert_eq!(chunk.len(), mine.len());
                    for (slot, &m) in chunk.iter_mut().zip(mine.iter()).filter(|_| sum) {
                        let incoming = *slot;
                        *slot = m + incoming;
                    }
                    if keep {
                        mine.copy_from_slice(&chunk);
                    }
                    held.carry = chunk;
                }
                (Dir::Send, Rows::List(l), _) => {
                    let list = &plan.lists[*l as usize];
                    let mut packed = Vec::with_capacity(list.len() * stride);
                    for &r in list {
                        let r = r as usize * stride;
                        packed.extend_from_slice(&held.own()[r..r + stride]);
                    }
                    ctx.send(peer, tag, packed);
                }
                (Dir::Recv, Rows::List(l), buf) => {
                    let list = &plan.lists[*l as usize];
                    let packed: Vec<f64> = ctx.recv(peer, tag);
                    assert_eq!(packed.len(), list.len() * stride);
                    // Zero-width rows (a `k = 0` operand) arrive empty
                    // and write nothing.
                    let rows = list
                        .iter()
                        .map(|&r| r as usize)
                        .zip(packed.chunks_exact(stride.max(1)));
                    if let Buf::Piece(m) = buf {
                        // Laid out over the union of the non-roots' supports.
                        let mut piece = vec![0.0; plan.union.1 * stride];
                        for (r, row) in rows {
                            let at = plan.union.0[r] as usize * stride;
                            piece[at..at + stride].copy_from_slice(row);
                        }
                        *held.piece(m) = Some(whole(piece));
                        continue;
                    }
                    let own = held.own.get_or_insert_with(|| Arc::new(vec![0.0; len]));
                    let own = Arc::make_mut(own);
                    for (r, row) in rows {
                        own[r * stride..(r + 1) * stride].copy_from_slice(row);
                    }
                }
                (dir, rows, buf) => unreachable!("no plan takes {dir:?} {rows:?} {buf:?}"),
            }
        }
        if plan.op != Op::Reduce {
            return held.own.unwrap_or_else(|| Arc::new(vec![0.0; len]));
        }
        if vr != 0 {
            return Arc::default();
        }
        // The root adds what it summed or folded of the non-roots' vectors
        // to its own, last: the tree its children's sum, the sparse
        // schedule the fold over the union of the supports — and `+ 0.0`
        // on every row off it, as the tree would.
        if plan.schedule == Some(Schedule::Sparse) && self.size() > 1 {
            held.pieces.resize_with(self.size() - 1, || None);
            let folded = held.fold(&vec![0.0; plan.union.1 * stride]);
            let rows = held.own_mut().chunks_exact_mut(stride.max(1));
            for (row, &at) in rows.zip(&plan.union.0) {
                if at == u32::MAX {
                    // Every piece is +0.0 here, and so is their sum.
                    row.iter_mut().for_each(|a| *a += 0.0);
                } else {
                    let at = at as usize * stride;
                    add_into(row, &folded[at..at + stride]);
                }
            }
        } else if let Some(Some(children)) = held.pieces.pop() {
            add_into(held.own_mut(), &children.buf);
        }
        held.own.expect("the root holds its buffer")
    }

    /// A binomial tree of `op` over this group, on a `rows`-row buffer.
    fn tree(&self, op: Op, rows: usize) -> Plan {
        Plan::rooted(op, Schedule::Tree, self.size(), rows, Vec::new())
    }

    /// Binomial-tree broadcast from `root_idx`, a tree [`Plan`] run by the
    /// runner. The root passes `Some(data)`, everyone else `None`; all
    /// members return the root's vector. The tree's steps do not depend
    /// on the vector's length, which only the root knows, and a relay
    /// hands every child the buffer it received.
    pub fn broadcast(
        &self,
        ctx: &mut RankCtx,
        root_idx: usize,
        data: Option<Vec<f64>>,
    ) -> Vec<f64> {
        let root = self.vr(root_idx) == 0;
        let data = root.then(|| data.expect("broadcast root must supply the data"));
        let plan = self.tree(Op::Broadcast, data.as_ref().map_or(0, Vec::len));
        let buf = data.map(Arc::new).unwrap_or_default();
        Arc::unwrap_or_clone(self.run(ctx, &plan, root_idx, None, 1, buf))
    }

    /// Binomial-tree sum of `f64` vectors of one length to `root_idx`,
    /// which returns `Some(total)`: its children's subtree sums added to
    /// each other as they arrive, and its own vector last.
    pub fn reduce_sum(
        &self,
        ctx: &mut RankCtx,
        root_idx: usize,
        data: Vec<f64>,
    ) -> Option<Vec<f64>> {
        let plan = self.tree(Op::Reduce, data.len());
        let sum = self.run(ctx, &plan, root_idx, None, 1, Arc::new(data));
        (self.vr(root_idx) == 0).then(|| Arc::unwrap_or_clone(sum))
    }

    /// All-reduce (sum) of `f64` vectors of one length: the tree reduce to
    /// member 0, then its tree broadcast.
    pub fn allreduce_sum(&self, ctx: &mut RankCtx, data: Vec<f64>) -> Vec<f64> {
        let len = data.len();
        let sum = self.run(ctx, &self.tree(Op::Reduce, len), 0, None, 1, Arc::new(data));
        let plan = self.tree(Op::Broadcast, len);
        Arc::unwrap_or_clone(self.run(ctx, &plan, 0, None, 1, sum))
    }
}

fn fnv1a(members: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &m in members {
        for byte in m.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::machine::Machine;
    use crate::steps::{execute, walk, Step};

    /// This member's part in `plan` on `buf`, run as a one-step list
    /// through [`execute`]: what the step leaves in the buffer.
    fn run_alone(
        ctx: &mut RankCtx,
        g: &Group,
        plan: &Plan,
        root: usize,
        stride: usize,
        buf: Vec<f64>,
    ) -> Vec<f64> {
        let members: Arc<[u32]> = g.members().into();
        let mut bufs = [Arc::new(buf)];
        let step: Step = Step::run(plan, &members, root, None, stride, 1, 0);
        execute(ctx, &[step], 1, &mut bufs, |_, _| {});
        Arc::unwrap_or_clone(std::mem::take(&mut bufs[0]))
    }

    #[test]
    fn broadcast_reaches_all_ranks() {
        for p in [1u32, 2, 3, 5, 8, 13] {
            let report = Machine::new(p).run(|ctx| {
                let g = Group::world(ctx);
                let data = if g.my_idx() == 0 {
                    Some(vec![1.0f64, 2.0, 3.0])
                } else {
                    None
                };
                g.broadcast(ctx, 0, data)
            });
            for r in report.results {
                assert_eq!(r, vec![1.0, 2.0, 3.0], "p = {p}");
            }
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let report = Machine::new(6).run(|ctx| {
            let g = Group::world(ctx);
            let data = (g.my_idx() == 4).then(|| vec![7.5]);
            g.broadcast(ctx, 4, data)
        });
        assert!(report.results.iter().all(|v| *v == [7.5]));
    }

    #[test]
    fn broadcast_latency_is_logarithmic() {
        // One broadcast of a unit payload on p ranks: critical path must be
        // ⌈log2 p⌉ · α, not p · α.
        let cost = CostModel {
            alpha: 1.0,
            beta: 0.0,
            compute_rate: 1.0,
        };
        let report = Machine::new(16).with_cost(cost).run(|ctx| {
            let g = Group::world(ctx);
            let data = if g.my_idx() == 0 {
                Some(Vec::new())
            } else {
                None
            };
            g.broadcast(ctx, 0, data);
            ctx.sim_time()
        });
        let max = report.results.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(max <= 4.0 + 1e-9, "critical path {max} > log2(16) = 4");
        assert!(max >= 4.0 - 1e-9);
    }

    #[test]
    fn binomial_children_matches_actual_broadcast_sends() {
        // The closure collectives charge every member what the tree's plan
        // run alone charges it — bytes, messages and clock — for every
        // tree size and root: the all-reduce what the walk of its reduce
        // and broadcast steps does. If the tree shape ever changes, or a
        // closure collective stops running the tree's plan, this fails.
        let (cost, rows) = (CostModel::default(), 3);
        for p in [1u32, 2, 3, 5, 8, 13, 16] {
            let size = p as usize;
            let (bcast, reduce) = (
                Collective::broadcast(size, rows, None),
                Collective::reduce(size, rows, None),
            );
            let [bcast, reduce] = [&bcast, &reduce].map(|c| c.plan(Schedule::Tree).unwrap());
            let run = |op: usize, root: usize| {
                let report = Machine::new(p).run(move |ctx| {
                    let g = Group::world(ctx);
                    let data = vec![0.5; rows];
                    match op {
                        0 => drop(g.broadcast(ctx, root, Some(data))),
                        1 => drop(g.reduce_sum(ctx, root, data)),
                        _ => drop(g.allreduce_sum(ctx, data)),
                    }
                });
                report.stats.ranks
            };
            for root in [0usize, (size - 1) / 2] {
                for (op, plan) in [(0, bcast), (1, reduce)] {
                    let alone = plan.alone(1, &cost).ranks;
                    for (rank, stats) in run(op, root).iter().enumerate() {
                        let vr = (rank + size - root) % size;
                        assert_eq!(*stats, alone[vr], "p={p} root={root} op={op} rank={rank}");
                    }
                }
            }
            let members: Arc<[u32]> = (0..p).collect();
            let both: Vec<[Step; 2]> =
                vec![[reduce, bcast].map(|plan| Step::run(plan, &members, 0, None, 1, 0, 0)); size];
            assert_eq!(run(2, 0), walk(&both, 1, &cost).0.ranks, "p={p}");
        }
    }

    #[test]
    fn reduce_sums_vectors() {
        for p in [1u32, 2, 4, 7] {
            let report = Machine::new(p).run(|ctx| {
                let g = Group::world(ctx);
                g.reduce_sum(ctx, 0, vec![ctx.rank() as f64, 1.0])
            });
            let expected: f64 = (0..p).map(|r| r as f64).sum();
            assert_eq!(report.results[0], Some(vec![expected, p as f64]));
            for r in 1..p as usize {
                assert!(report.results[r].is_none());
            }
        }
    }

    #[test]
    fn ring_allreduce_matches_tree_allreduce() {
        for p in [1u32, 2, 3, 4, 7, 8] {
            let report = Machine::new(p).run(|ctx| {
                let g = Group::world(ctx);
                let data: Vec<f64> = (0..10).map(|i| (ctx.rank() as f64) + i as f64).collect();
                let ring = run_alone(ctx, &g, &Plan::ring(p as usize, 10), 0, 1, data.clone());
                let tree = g.allreduce_sum(ctx, data);
                (ring, tree)
            });
            for (ring, tree) in report.results {
                assert_eq!(ring, tree, "p = {p}");
            }
        }
    }

    /// The ring as it was before it forwarded received buffers: every
    /// send a fresh copy, every sum in place. Kept as the reference the
    /// reworked ring must equal bit for bit.
    fn ring_copying(g: &Group, ctx: &mut RankCtx, mut data: Vec<f64>, stride: usize) -> Vec<f64> {
        let n = g.size();
        if n == 1 || data.is_empty() {
            return data;
        }
        let tag = g.tag;
        let rows = data.len() / stride;
        let bounds: Vec<usize> = (0..=n).map(|c| (c * rows / n) * stride).collect();
        let me = g.my_idx();
        let right = g.member((me + 1) % n);
        let left = g.member((me + n - 1) % n);
        for t in 0..(n - 1) {
            let send_c = (me + n - t) % n;
            let recv_c = (me + n - t - 1) % n;
            ctx.send(
                right,
                tag,
                data[bounds[send_c]..bounds[send_c + 1]].to_vec(),
            );
            let incoming: Vec<f64> = ctx.recv(left, tag);
            for (d, s) in data[bounds[recv_c]..bounds[recv_c + 1]]
                .iter_mut()
                .zip(&incoming)
            {
                *d += s;
            }
        }
        for t in 0..(n - 1) {
            let send_c = (me + 1 + n - t) % n;
            let recv_c = (me + n - t) % n;
            ctx.send(
                right,
                tag,
                data[bounds[send_c]..bounds[send_c + 1]].to_vec(),
            );
            let incoming: Vec<f64> = ctx.recv(left, tag);
            data[bounds[recv_c]..bounds[recv_c + 1]].copy_from_slice(&incoming);
        }
        data
    }

    #[test]
    fn forwarding_ring_equals_the_copying_ring_bit_for_bit() {
        for g in [1u32, 2, 3, 4, 7] {
            for stride in [1usize, 3, 16] {
                // Fewer rows than members, a ragged split, and the empty
                // payload of a k = 0 operand.
                for rows in [0usize, 2, 7, 23] {
                    let report = Machine::new(g).run(move |ctx| {
                        let group = Group::world(ctx);
                        let data: Vec<f64> = (0..rows * stride)
                            .map(|i| ((i * 7 + ctx.rank() as usize * 13) % 31) as f64 / 7.0 - 1.9)
                            .collect();
                        let before = ctx.stats.clone();
                        let ring = Plan::ring(g as usize, rows);
                        let new = run_alone(ctx, &group, &ring, 0, stride, data.clone());
                        let mid = ctx.stats.clone();
                        let old = ring_copying(&group, ctx, data, stride);
                        let after = ctx.stats.clone();
                        let charged = |a: &crate::RankStats, b: &crate::RankStats| {
                            (
                                b.sent_bytes - a.sent_bytes,
                                b.recv_bytes - a.recv_bytes,
                                b.sent_msgs - a.sent_msgs,
                                b.recv_msgs - a.recv_msgs,
                            )
                        };
                        assert_eq!(charged(&before, &mid), charged(&mid, &after));
                        (new, old)
                    });
                    for (new, old) in report.results {
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&new), bits(&old), "g={g} stride={stride} rows={rows}");
                    }
                }
            }
        }
    }

    #[test]
    fn ring_allreduce_volume_is_bandwidth_optimal() {
        // Per-rank volume must be ≈ 2·s·(g−1)/g, not s·log g.
        let p = 8u32;
        let len = 800usize;
        let report = Machine::new(p).run(|ctx| {
            let g = Group::world(ctx);
            run_alone(ctx, &g, &Plan::ring(p as usize, len), 0, 1, vec![1.0; len]);
        });
        let bytes = 8 * len as u64;
        let expected = 2 * bytes * (p as u64 - 1) / p as u64;
        for r in &report.stats.ranks {
            assert!(
                r.sent_bytes <= expected + 64,
                "sent {} > ring bound {expected}",
                r.sent_bytes
            );
        }
    }

    #[test]
    fn ring_allreduce_short_vector() {
        // len < g: some chunks are empty.
        let report = Machine::new(6).run(|ctx| {
            let g = Group::world(ctx);
            run_alone(ctx, &g, &Plan::ring(6, 2), 0, 1, vec![1.0, 2.0])
        });
        for r in report.results {
            assert_eq!(r, vec![6.0, 12.0]);
        }
    }

    #[test]
    fn allreduce_everyone_gets_total() {
        let report = Machine::new(5).run(|ctx| {
            let g = Group::world(ctx);
            g.allreduce_sum(ctx, vec![1.0f64])
        });
        for r in report.results {
            assert_eq!(r, vec![5.0]);
        }
    }

    #[test]
    fn subgroups_do_not_interfere() {
        // Two disjoint groups run different collectives concurrently.
        let report = Machine::new(6).run(|ctx| {
            let r = ctx.rank();
            let members: Vec<u32> = if r < 3 { vec![0, 1, 2] } else { vec![3, 4, 5] };
            let g = Group::new(ctx, members);
            let base = if r < 3 { 100.0 } else { 200.0 };
            let total = g.allreduce_sum(ctx, vec![base]);
            g.broadcast(ctx, 0, (g.my_idx() == 0).then(Vec::new));
            total
        });
        for r in 0..3 {
            assert_eq!(report.results[r], vec![300.0]);
        }
        for r in 3..6 {
            assert_eq!(report.results[r], vec![600.0]);
        }
    }

    #[test]
    fn nested_group_membership() {
        // A rank participating in world and in a subgroup keeps sequence
        // numbers separate.
        let report = Machine::new(4).run(|ctx| {
            let world = Group::world(ctx);
            let all = world.allreduce_sum(ctx, vec![1.0]);
            let sub_total = if ctx.rank() < 2 {
                let s = Group::new(ctx, vec![0, 1]);
                s.allreduce_sum(ctx, vec![10.0])[0]
            } else {
                0.0
            };
            (all[0], sub_total)
        });
        assert_eq!(report.results[0], (4.0, 20.0));
        assert_eq!(report.results[3], (4.0, 0.0));
    }

    #[test]
    fn world_group_basics() {
        let report = Machine::new(3).run(|ctx| {
            let g = Group::world(ctx);
            (g.size(), g.my_idx(), g.member(0), g.members().len())
        });
        assert_eq!(report.results[1], (3, 1, 0, 3));
    }

    #[test]
    #[should_panic(expected = "not in group")]
    fn wrong_membership_panics() {
        Machine::new(2).run(|ctx| {
            if ctx.rank() == 1 {
                let _ = Group::new(ctx, vec![0]);
            }
        });
    }

    #[test]
    fn candidates_follow_size_rows_and_supports() {
        for size in 1..=6 {
            for rows in [0usize, 1, 5] {
                let sup: Vec<Vec<u32>> = (0..size)
                    .map(|v| {
                        (0..rows as u32)
                            .filter(|r| r % (v as u32 + 1) == 0)
                            .collect()
                    })
                    .collect();
                for supports in [None, Some(sup.as_slice())] {
                    for c in [
                        Collective::broadcast(size, rows, supports),
                        Collective::reduce(size, rows, supports),
                    ] {
                        let at = format!("size={size} rows={rows} supports={}", supports.is_some());
                        let has = |s| c.plan(s).map(|plan| plan.schedule()) == Some(Some(s));
                        assert!(has(Schedule::Tree), "{at}");
                        assert_eq!(has(Schedule::Large), size >= 3 && rows > 0, "{at}");
                        let sparse = supports.is_some() && size >= 2 && rows > 0;
                        assert_eq!(has(Schedule::Sparse), sparse, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one support per member")]
    fn supports_of_the_wrong_count_panic() {
        Collective::broadcast(3, 4, Some(&[vec![0], vec![1]]));
    }

    #[test]
    #[should_panic(expected = "a support must be increasing rows of the buffer")]
    fn a_non_increasing_support_panics() {
        Collective::reduce(2, 4, Some(&[vec![], vec![2, 2]]));
    }

    #[test]
    #[should_panic(expected = "a support must be increasing rows of the buffer")]
    fn a_support_row_past_the_buffer_panics() {
        Collective::broadcast(2, 4, Some(&[vec![], vec![1, 4]]));
    }

    #[test]
    #[should_panic(expected = "a 4-member plan on a 2-member group")]
    fn a_plan_of_another_size_panics() {
        let plan = Collective::reduce(4, 3, None);
        let plan = plan.plan(Schedule::Tree).unwrap();
        Machine::new(4).run(|ctx| {
            if ctx.rank() < 2 {
                let g = Group::new(ctx, vec![0, 1]);
                run_alone(ctx, &g, plan, 0, 1, vec![1.0; 3]);
            }
        });
    }
}
