//! Collective operations over rank groups, built from point-to-point
//! messages (so the latency and the α-β costs emerge from the model):
//! binomial trees for small payloads, for large row-major `f64` buffers a
//! scatter + all-gather broadcast and a reduce-scatter + gather reduce,
//! and for buffers of which each member touches a few rows, point-to-point
//! messages of those rows alone; chosen per call.
//!
//! Every member of a group must call the same sequence of collectives on
//! that group (SPMD discipline, as with an MPI communicator); a per-group
//! sequence number embedded in the message tags keeps concurrent
//! collectives on different groups from interfering.
//!
//! # Three schedules
//!
//! A binomial tree moves the *whole* buffer `⌈log₂ p⌉` times through its
//! root, which is optimal in latency and a factor `log p` off in
//! bandwidth. The large-message schedules (Thakur, Rabenseifner & Gropp,
//! IJHPCA 2005) cut a `rows × stride` buffer of `s` bytes into `q = p − 1`
//! row-aligned blocks, one per **non-root** (`bounds[c] = (c·rows/q)·stride`,
//! the convention of [`Group::allreduce_sum_ring_aligned`], so a row never
//! straddles blocks):
//!
//! * [`Group::broadcast_large`] — the root sends block `c` to non-root
//!   `c`; the non-roots all-gather among themselves (Bruck: `⌈log₂ q⌉`
//!   steps of doubling runs of blocks).
//! * [`Group::reduce_sum_large`] — every non-root ships the raw piece of
//!   its vector that falls in block `c` to non-root `c`; owner `c` sums
//!   the `q` pieces and sends the reduced block to the root, which adds
//!   it to its own.
//!
//! The root moves `s` bytes per collective instead of `⌈log₂ p⌉·s`, a
//! non-root about `2s`: per-member volume no longer grows with `p`.
//!
//! **The root stays out of the exchange.** In the arrow multiply the
//! level root holds the hub tile and is the slowest rank on skewed
//! inputs; a schedule with the root inside the reduce-scatter makes every
//! member wait for it. Kept out, it only sends `q` blocks it already has
//! and receives `q` reduced ones.
//!
//! Both dense schedules move every row to every member. The sparse ones
//! move a member only its **support** — the rows it reads of a broadcast
//! buffer, the rows of a reduced vector it may hold non-zero — which the
//! caller knows when it plans (the arrow multiply: the columns its tiles
//! touch, the rows its partial writes):
//!
//! * [`Group::broadcast_sparse`] — the root sends each non-root with a
//!   non-empty support its support rows, packed, in one message; the
//!   receiver scatters them into a zeroed buffer.
//! * [`Group::reduce_sum_sparse`] — each non-root with a non-empty
//!   support ships its support rows, packed, to the root, which folds them
//!   (below) and adds the result to its own vector.
//!
//! # Supports
//!
//! A caller that has supports passes one strictly increasing row list per
//! member, indexed like the closed forms by **root-relative** index
//! (`supports[v]` is the support of member `(root + v) mod p`; the root's
//! is not read). Every member passes the same lists. Under them a
//! broadcast promises a member the root's rows on its support and `+0.0`
//! elsewhere, and a reduce requires a member's vector to be `+0.0` off
//! its support. Without supports (`None`) nothing changes: the dense pick
//! runs and every member gets the whole buffer.
//!
//! # One association
//!
//! All three reduces compute the same sum in the same order, the
//! **root-last binomial** one: `x_root + (c₁ + c₂ + c₄ + …)`, `c_m` the
//! binomial subtree sum of the member at root-relative index `m`. The tree
//! adds the root's children to each other before adding the root's own
//! vector; the large schedule's owner replays the tree's mask loop over
//! the raw pieces (`fold_nonroots`), and so does the sparse schedule's
//! root, over the rows some non-root supports, with a row missing from a
//! member's message standing in as the `+0.0` its vector holds there.
//! That is a literal `+ 0.0`, never a skipped addition: it turns a `−0.0`
//! into `+0.0` exactly as the tree does, and a row no non-root supports
//! still gets the root's `+ 0.0`. The root comes last because the large
//! schedule keeps it out of the exchange, so that is the only order all
//! can produce — and they must agree bit for bit: which schedule runs
//! depends on the payload size, and the serving engine promises that a
//! column's sum does not depend on how many columns travel with it.
//!
//! # Selection
//!
//! [`broadcast_schedule`] and [`reduce_schedule`] pick per call from the
//! group size, the payload shape, the supports and the machine's
//! [`CostModel`] — values every member (and a `predict_volume`) holds, so
//! all agree without a message. With `T = α + β·s`, `u = 8·stride·⌈rows/q⌉`
//! the largest block, `L(n) = ⌈log₂ n⌉`, and `σᵥ = 8·stride·|supports[v]|`
//! summed over the non-roots with a non-empty support, the completion
//! times when every member enters at once are:
//!
//! | | tree | large | sparse |
//! |---|---|---|---|
//! | broadcast | `L(p)·T` | `q·(α + β·u) + L(q)·α + (q−1)·β·u` | `Σᵥ (α + β·σᵥ)` |
//! | reduce | `L(p)·T`, less up to `α` when `p` is not a power of two | `(q−1)·(α + β·u) + α + q·β·u` | `α + β·Σᵥ σᵥ` (`0` if every support is empty) |
//!
//! Tree: the root's last child hears after `L(p)` whole-buffer sends, and
//! a reduce is the mirror (an incomplete last subtree is ready early, so
//! only its bytes queue on the root's link, not its latency). Large
//! broadcast: the root's `q` sends serialise, so the last block lands
//! after `q·(α + β·u)`; from there the all-gather takes `L(q)` steps that
//! carry `q − 1` blocks between them. Large reduce: a non-root's `q − 1`
//! pieces leave back to back while the ones it is owed arrive in step
//! with them, then all `q` reduced blocks set out for the root together
//! and drain one after the other on its link. These are the simulator's
//! own times to the tick (`proptests.rs` sweeps them against it), and the
//! dependence on `p` is the point: the large forms trade `q·α` for the
//! tree's `L(p)·β·s`, so they win above a few tens of KiB and lose again
//! where `q·α` overtakes `β·s`. Sparse broadcast: the root's packed sends
//! serialise and the last one lands when it ends. Sparse reduce: the
//! packed messages leave together and drain one after the other on the
//! root's link.
//!
//! The **dense pick** is the faster of the tree and the large schedule;
//! ties and everything with `p < 3` or an empty payload go to the tree.
//! With supports, the sparse schedule replaces it only when it finishes
//! no later **and** its busiest member — the root, at `Σᵥ σᵥ` bytes in one
//! message per non-empty support — moves no more bytes and no more
//! messages than the dense pick's busiest member (`L(p)·s` bytes in
//! `L(p)` messages at a tree's root, about `2s` at a large schedule's
//! non-root and `q` messages at its root). Neither guard is redundant.
//! A sparse reduce is one hop where a tree is `L(p)`, so on a narrow
//! operand it can win on time while its root takes every non-root's rows:
//! without the bytes guard, the arrow plan of the benchmark's one-column
//! `serve-small` workload takes such a reduce and its busiest rank moves
//! 30 688 bytes per iteration instead of 19 088 (+61 %). And the
//! simulator overlaps the latencies of messages that reach one rank
//! together, which a price of `α` per message at the busiest rank — the
//! planners' — does not: without the message guard, Arrow on a 600-vertex
//! star at 16 ranks finishes sooner (7.3 against 11.2 sim-µs) but is
//! priced at 23 messages instead of 10, and the serving planner binds
//! 1.5D, which is slower than both (12.3).
//!
//! [`broadcast_cost`] and [`reduce_cost`] give what each member sends and
//! receives under the selected schedule, and [`allreduce_ring_cost`] what
//! it moves in [`Group::allreduce_sum_ring_aligned`]; the large and sparse
//! schedules and the ring assert them on every call, so the closed forms
//! cannot drift from the code.
//!
//! # Host copies are not wire bytes
//!
//! [`Group::broadcast`] clones its value once per child, so broadcasting
//! an `Arc` (a [`Payload`] charged like its content) makes every relay
//! share the root's buffer; the large schedules send views of one `Arc`
//! (charged the elements they cover) and every receiver returns the
//! root's buffer; [`Group::allreduce_sum_ring_aligned`] copies one chunk
//! per member and forwards received buffers from then on. The sparse
//! schedules pack the rows they send, so their messages are the bytes
//! charged. None of it changes a byte, a message or a tick of the
//! simulated clock.

use crate::cost::CostModel;
use crate::message::{Payload, SharedRows};
use crate::rank::RankCtx;
use std::ops::Range;
use std::sync::Arc;

/// Top bit marks collective traffic; user tags must keep it clear.
const COLL_BIT: u64 = 1 << 63;

/// Number of copies the member with virtual (root-relative) rank `vr`
/// sends in [`Group::broadcast`]'s binomial tree over `s` members — and,
/// by symmetry, the number of partials it receives in
/// [`Group::reduce_sum`]. Mirrors the mask walk of the implementation
/// below and lives beside it so the two cannot drift.
pub fn binomial_children(vr: usize, s: usize) -> usize {
    let mut mask = 1usize;
    while mask < s {
        if vr & mask != 0 {
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    let mut children = 0;
    while mask > 0 {
        if vr & (mask - 1) == 0 && vr & mask == 0 && vr + mask < s {
            children += 1;
        }
        mask >>= 1;
    }
    children
}

/// How a row-buffer collective runs (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Binomial tree of whole buffers.
    Tree,
    /// Root-excluded scatter + all-gather (broadcast) or reduce-scatter +
    /// gather (reduce) of row-aligned blocks.
    Large,
    /// One packed message of a member's support rows between the root and
    /// each non-root whose support is not empty.
    Sparse,
}

/// What one member sends and receives in one collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    /// Bytes sent.
    pub sent_bytes: u64,
    /// Bytes received.
    pub recv_bytes: u64,
    /// Messages sent.
    pub sent_msgs: u64,
    /// Messages received.
    pub recv_msgs: u64,
}

impl Traffic {
    /// Bytes sent plus bytes received: the member's volume.
    pub fn bytes(&self) -> u64 {
        self.sent_bytes + self.recv_bytes
    }

    /// Messages sent plus messages received.
    pub fn msgs(&self) -> u64 {
        self.sent_msgs + self.recv_msgs
    }

    /// What was sent received and what was received sent.
    fn mirrored(self) -> Self {
        Self {
            sent_bytes: self.recv_bytes,
            recv_bytes: self.sent_bytes,
            sent_msgs: self.recv_msgs,
            recv_msgs: self.sent_msgs,
        }
    }

    /// What `ctx` has been charged so far.
    fn charged(ctx: &RankCtx) -> Self {
        Self {
            sent_bytes: ctx.stats.sent_bytes,
            recv_bytes: ctx.stats.recv_bytes,
            sent_msgs: ctx.stats.sent_msgs,
            recv_msgs: ctx.stats.recv_msgs,
        }
    }

    /// Panics unless `ctx` was charged exactly `self` since `before`.
    fn assert_charged_since(self, before: Self, ctx: &RankCtx) {
        let now = Self::charged(ctx);
        let delta = Self {
            sent_bytes: now.sent_bytes - before.sent_bytes,
            recv_bytes: now.recv_bytes - before.recv_bytes,
            sent_msgs: now.sent_msgs - before.sent_msgs,
            recv_msgs: now.recv_msgs - before.recv_msgs,
        };
        assert_eq!(delta, self, "a schedule and its closed form drifted");
    }
}

/// The row-aligned blocks of a `rows × stride` buffer over `q` owners:
/// block `c` is elements `start(c) .. start(c + 1)`.
#[derive(Clone, Copy)]
struct Blocks {
    q: usize,
    rows: usize,
    stride: usize,
}

impl Blocks {
    /// One block per non-root of a `size`-member group.
    fn over_nonroots(size: usize, rows: usize, stride: usize) -> Self {
        Self {
            q: size - 1,
            rows,
            stride,
        }
    }

    fn start(&self, c: usize) -> usize {
        (c * self.rows / self.q) * self.stride
    }

    fn block(&self, c: usize) -> Range<usize> {
        self.start(c)..self.start(c + 1)
    }

    /// Blocks `first, first + 1, …` (`cnt` of them, indices mod `q`) as
    /// the element range up to the end of the buffer and the range
    /// wrapped to its front.
    fn run(&self, first: usize, cnt: usize) -> (Range<usize>, Range<usize>) {
        let end = first + cnt;
        if end <= self.q {
            (self.start(first)..self.start(end), 0..0)
        } else {
            (
                self.start(first)..self.start(self.q),
                0..self.start(end - self.q),
            )
        }
    }

    fn run_bytes(&self, first: usize, cnt: usize) -> u64 {
        let (head, tail) = self.run(first, cnt);
        8 * (head.len() + tail.len()) as u64
    }

    fn view(&self, buf: &Arc<Vec<f64>>, first: usize, cnt: usize) -> SharedRows {
        let (head, tail) = self.run(first, cnt);
        SharedRows {
            buf: Arc::clone(buf),
            head,
            tail,
        }
    }
}

/// The steps `(distance, blocks sent)` of a Bruck all-gather over `q`
/// members: member `c` sends the run of `blocks` blocks starting at its
/// own to `c − distance` and receives the run starting at
/// `c + distance` from there.
fn allgather_steps(q: usize) -> impl Iterator<Item = (usize, usize)> {
    std::iter::successors(Some(1usize), |d| Some(d << 1))
        .take_while(move |&d| d < q)
        .map(move |d| (d, d.min(q - d)))
}

/// The two row collectives the closed forms below describe.
#[derive(Clone, Copy)]
enum Op {
    Broadcast,
    Reduce,
}

fn ceil_log2(n: usize) -> f64 {
    f64::from(n.next_power_of_two().trailing_zeros())
}

/// Completion time of [`Group::broadcast`] for `bytes` over `size`
/// members entering together: the root's last child hears after
/// `⌈log₂ size⌉` whole-buffer sends.
fn tree_broadcast_time(size: usize, bytes: usize, cost: &CostModel) -> f64 {
    ceil_log2(size) * cost.transfer_time(bytes)
}

/// Completion time of [`Group::reduce_sum`] likewise. A complete subtree
/// of `2^j` members is ready after `j` transfers; the last child of an
/// incomplete tree can be ready early, and then only its bytes, not its
/// latency, queue behind the others on the root's link.
fn tree_reduce_time(size: usize, bytes: usize, cost: &CostModel) -> f64 {
    if size == 1 {
        return 0.0;
    }
    let half = size.next_power_of_two() / 2;
    let complete = ceil_log2(half) * cost.transfer_time(bytes);
    complete.max(tree_reduce_time(size - half, bytes, cost) + cost.alpha) + cost.beta * bytes as f64
}

/// Completion time of the large schedule for `op`, every block taken as
/// the largest one.
fn large_time(op: Op, blocks: Blocks, cost: &CostModel) -> f64 {
    let q = blocks.q;
    let block = (8 * blocks.stride * blocks.rows.div_ceil(q)) as f64;
    let latencies = match op {
        Op::Broadcast => q as f64 + ceil_log2(q),
        Op::Reduce => q as f64,
    };
    latencies * cost.alpha + cost.beta * block * (2 * q - 1) as f64
}

/// Completion time of the sparse schedule for `op`: the root's packed
/// sends serialise (broadcast), or the non-roots' packed messages leave
/// together and drain one after another on the root's link (reduce).
fn sparse_time(op: Op, supports: &[Vec<u32>], stride: usize, cost: &CostModel) -> f64 {
    let mut sent = supports[1..]
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| 8 * stride * s.len());
    match op {
        Op::Broadcast => sent.fold(0.0, |time, bytes| time + cost.transfer_time(bytes)),
        Op::Reduce => sent.next().map_or(0.0, |first| {
            cost.alpha + cost.beta * (first + sent.sum::<usize>()) as f64
        }),
    }
}

/// A row collective's schedule with what running it needs.
#[derive(Clone, Copy)]
enum Pick {
    Tree,
    Large(Blocks),
    Sparse,
}

impl Pick {
    fn schedule(self) -> Schedule {
        match self {
            Pick::Tree => Schedule::Tree,
            Pick::Large(_) => Schedule::Large,
            Pick::Sparse => Schedule::Sparse,
        }
    }
}

/// The tree or the large schedule, whichever finishes first for `op`,
/// and its completion time. The large one needs two non-roots and
/// something to cut.
fn dense_pick(op: Op, size: usize, rows: usize, stride: usize, cost: &CostModel) -> (Pick, f64) {
    let bytes = 8 * rows * stride;
    let tree = match op {
        Op::Broadcast => tree_broadcast_time(size, bytes, cost),
        Op::Reduce => tree_reduce_time(size, bytes, cost),
    };
    if size >= 3 && bytes > 0 {
        let blocks = Blocks::over_nonroots(size, rows, stride);
        let large = large_time(op, blocks, cost);
        if large < tree {
            return (Pick::Large(blocks), large);
        }
    }
    (Pick::Tree, tree)
}

/// The schedule of a `rows × stride` collective over `size` members (see
/// the [module docs](self#selection)): the dense pick, or the sparse
/// schedule when `supports` are given and it finishes no later *and* its
/// busiest member moves no more bytes and no more messages than the dense
/// pick's.
fn pick(
    op: Op,
    size: usize,
    rows: usize,
    stride: usize,
    cost: &CostModel,
    supports: Option<&[Vec<u32>]>,
) -> Pick {
    let (dense, dense_time) = dense_pick(op, size, rows, stride, cost);
    let Some(supports) = supports else {
        return dense;
    };
    assert_eq!(supports.len(), size, "one support per member");
    if size < 2 || rows * stride == 0 {
        return dense;
    }
    // The most bytes and the most messages any one member moves.
    let busiest = |pick| {
        (0..size)
            .map(|vr| traffic(op, pick, vr, size, rows, stride, Some(supports)))
            .fold((0, 0), |(bytes, msgs), t| {
                (bytes.max(t.bytes()), msgs.max(t.msgs()))
            })
    };
    let (sparse, dense_load) = (busiest(Pick::Sparse), busiest(dense));
    if sparse_time(op, supports, stride, cost) <= dense_time
        && sparse.0 <= dense_load.0
        && sparse.1 <= dense_load.1
    {
        Pick::Sparse
    } else {
        dense
    }
}

/// The schedule [`Group::broadcast_rows`] takes for a `rows × stride`
/// buffer over `size` members on a machine with `cost`, given the
/// members' row supports if the caller has them (see the
/// [module docs](self#selection)).
pub fn broadcast_schedule(
    size: usize,
    rows: usize,
    stride: usize,
    cost: &CostModel,
    supports: Option<&[Vec<u32>]>,
) -> Schedule {
    pick(Op::Broadcast, size, rows, stride, cost, supports).schedule()
}

/// The schedule [`Group::reduce_sum_rows`] takes, likewise.
pub fn reduce_schedule(
    size: usize,
    rows: usize,
    stride: usize,
    cost: &CostModel,
    supports: Option<&[Vec<u32>]>,
) -> Schedule {
    pick(Op::Reduce, size, rows, stride, cost, supports).schedule()
}

/// What the member at root-relative index `vr` moves in a tree collective
/// of `bytes`; a reduce mirrors a broadcast.
fn tree_traffic(op: Op, vr: usize, size: usize, bytes: u64) -> Traffic {
    let children = binomial_children(vr, size) as u64;
    let parent = u64::from(vr != 0);
    let broadcast = Traffic {
        sent_bytes: children * bytes,
        recv_bytes: parent * bytes,
        sent_msgs: children,
        recv_msgs: parent,
    };
    match op {
        Op::Broadcast => broadcast,
        Op::Reduce => broadcast.mirrored(),
    }
}

fn large_broadcast_traffic(vr: usize, blocks: Blocks) -> Traffic {
    let q = blocks.q;
    let Some(c) = vr.checked_sub(1) else {
        return Traffic {
            sent_bytes: blocks.run_bytes(0, q),
            sent_msgs: q as u64,
            ..Traffic::default()
        };
    };
    let mut t = Traffic {
        recv_bytes: blocks.run_bytes(c, 1),
        recv_msgs: 1,
        ..Traffic::default()
    };
    for (d, cnt) in allgather_steps(q) {
        t.sent_bytes += blocks.run_bytes(c, cnt);
        t.recv_bytes += blocks.run_bytes((c + d) % q, cnt);
        t.sent_msgs += 1;
        t.recv_msgs += 1;
    }
    t
}

fn large_reduce_traffic(vr: usize, blocks: Blocks) -> Traffic {
    let q = blocks.q as u64;
    let whole = blocks.run_bytes(0, blocks.q);
    let Some(c) = vr.checked_sub(1) else {
        return Traffic {
            recv_bytes: whole,
            recv_msgs: q,
            ..Traffic::default()
        };
    };
    // q − 1 pieces out and the reduced block to the root: the whole
    // vector once. q − 1 pieces of the own block in.
    Traffic {
        sent_bytes: whole,
        recv_bytes: (q - 1) * blocks.run_bytes(c, 1),
        sent_msgs: q,
        recv_msgs: q - 1,
    }
}

/// The root sends (broadcast) or receives (reduce) one packed message per
/// non-empty support; a non-root the mirror of its own.
fn sparse_traffic(op: Op, vr: usize, supports: &[Vec<u32>], stride: usize) -> Traffic {
    let bytes = |s: &Vec<u32>| 8 * (stride * s.len()) as u64;
    let (moved, msgs) = if vr == 0 {
        let nonempty = supports[1..].iter().filter(|s| !s.is_empty());
        (nonempty.clone().map(bytes).sum(), nonempty.count() as u64)
    } else {
        let own = &supports[vr];
        (bytes(own), u64::from(!own.is_empty()))
    };
    let sends = Traffic {
        sent_bytes: moved,
        sent_msgs: msgs,
        ..Traffic::default()
    };
    match (op, vr == 0) {
        (Op::Broadcast, true) | (Op::Reduce, false) => sends,
        _ => sends.mirrored(),
    }
}

fn traffic(
    op: Op,
    pick: Pick,
    vr: usize,
    size: usize,
    rows: usize,
    stride: usize,
    supports: Option<&[Vec<u32>]>,
) -> Traffic {
    match (pick, op) {
        (Pick::Tree, _) => tree_traffic(op, vr, size, 8 * (rows * stride) as u64),
        (Pick::Large(blocks), Op::Broadcast) => large_broadcast_traffic(vr, blocks),
        (Pick::Large(blocks), Op::Reduce) => large_reduce_traffic(vr, blocks),
        (Pick::Sparse, _) => sparse_traffic(
            op,
            vr,
            supports.expect("the sparse schedule runs on supports"),
            stride,
        ),
    }
}

/// What every member sends and receives in one collective, by
/// root-relative index: one selection for the whole group.
fn costs(
    op: Op,
    size: usize,
    rows: usize,
    stride: usize,
    cost: &CostModel,
    supports: Option<&[Vec<u32>]>,
) -> Vec<Traffic> {
    let pick = pick(op, size, rows, stride, cost, supports);
    (0..size)
        .map(|vr| traffic(op, pick, vr, size, rows, stride, supports))
        .collect()
}

/// What each member sends and receives in [`Group::broadcast_rows`] of a
/// `rows × stride` buffer over `size` members with `supports`, indexed by
/// root-relative index, under the schedule [`broadcast_schedule`]
/// selects. `predict_volume` estimates in `amd_spmm` are built on it.
pub fn broadcast_cost(
    size: usize,
    rows: usize,
    stride: usize,
    cost: &CostModel,
    supports: Option<&[Vec<u32>]>,
) -> Vec<Traffic> {
    costs(Op::Broadcast, size, rows, stride, cost, supports)
}

/// [`broadcast_cost`] for [`Group::reduce_sum_rows`].
pub fn reduce_cost(
    size: usize,
    rows: usize,
    stride: usize,
    cost: &CostModel,
    supports: Option<&[Vec<u32>]>,
) -> Vec<Traffic> {
    costs(Op::Reduce, size, rows, stride, cost, supports)
}

/// What the member at index `me` moves in a ring all-reduce over the
/// chunks `blocks` (one per member): in step `s` of `2·(g − 1)` it sends
/// chunk `me − s` and receives chunk `me − s − 1`.
fn ring_traffic(me: usize, blocks: Blocks) -> Traffic {
    let g = blocks.q;
    let steps = 2 * (g - 1);
    let chunk = |back: usize| blocks.run_bytes((me + 2 * g - back) % g, 1);
    Traffic {
        sent_bytes: (0..steps).map(chunk).sum(),
        recv_bytes: (1..=steps).map(chunk).sum(),
        sent_msgs: steps as u64,
        recv_msgs: steps as u64,
    }
}

/// What each member sends and receives in
/// [`Group::allreduce_sum_ring_aligned`] of a `rows × stride` buffer over
/// `size` members, indexed by member. The chunks are row-aligned, so
/// where `size` does not divide `rows` members move whole rows more or
/// less than `2·(size − 1)/size` of the payload.
pub fn allreduce_ring_cost(size: usize, rows: usize, stride: usize) -> Vec<Traffic> {
    if size == 1 || rows * stride == 0 {
        return vec![Traffic::default(); size];
    }
    let blocks = Blocks {
        q: size,
        rows,
        stride,
    };
    (0..size).map(|me| ring_traffic(me, blocks)).collect()
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

/// The rows `support` of a row-major buffer of `stride` columns, packed.
fn pack_rows(buf: &[f64], support: &[u32], stride: usize) -> Vec<f64> {
    let mut packed = Vec::with_capacity(support.len() * stride);
    for &r in support {
        let at = r as usize * stride;
        packed.extend_from_slice(&buf[at..at + stride]);
    }
    packed
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
/// root-relative index `v` of a `p`-member group. Replays the mask loop
/// of [`Group::reduce_sum`] — in round `mask` every member still holding
/// a partial and clear of that bit adds the partial of `v + mask` into
/// its own — with slot 0 standing for the root's sum of children rather
/// than the root's vector, so the result is bit for bit what the tree's
/// root adds to its own.
fn fold_nonroots(pieces: &[&[f64]], p: usize) -> Vec<f64> {
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

/// A communicator: an ordered list of machine ranks.
///
/// Cheap to clone; identified by a hash of its member list, which the
/// tag scheme uses to isolate concurrent collectives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    members: Vec<u32>,
    my_idx: usize,
    gid: u64,
}

impl Group {
    /// Builds the group view for the calling rank. All members must build
    /// the group with an identical `members` list (order matters).
    pub fn new(ctx: &RankCtx, members: Vec<u32>) -> Self {
        assert!(!members.is_empty(), "group must be non-empty");
        let my_idx = members
            .iter()
            .position(|&m| m == ctx.rank())
            .unwrap_or_else(|| panic!("rank {} not in group {members:?}", ctx.rank()));
        let gid = fnv1a(&members);
        Self {
            members,
            my_idx,
            gid,
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

    fn next_tag(&self, ctx: &mut RankCtx) -> u64 {
        let seq = ctx.coll_seq.entry(self.gid).or_insert(0);
        let tag = COLL_BIT | ((self.gid & 0xFFFF_FFFF) << 24) | (*seq & 0xFF_FFFF);
        *seq += 1;
        tag
    }

    /// Binomial-tree broadcast from `root_idx`. The root passes
    /// `Some(data)`, everyone else `None`; all members return the value.
    pub fn broadcast<T: Payload + Clone>(
        &self,
        ctx: &mut RankCtx,
        root_idx: usize,
        data: Option<T>,
    ) -> T {
        let s = self.size();
        let tag = self.next_tag(ctx);
        let vr = (self.my_idx + s - root_idx) % s;
        let mut value = if vr == 0 {
            Some(data.expect("broadcast root must supply the data"))
        } else {
            None
        };
        let mut mask = 1usize;
        while mask < s {
            if vr & mask != 0 {
                let src = self.abs(vr - mask, root_idx);
                value = Some(ctx.recv::<T>(src, tag));
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if vr & (mask - 1) == 0 && vr & mask == 0 && vr + mask < s {
                let dst = self.abs(vr + mask, root_idx);
                ctx.send(
                    dst,
                    tag,
                    value
                        .as_ref()
                        .expect("binomial order guarantees data")
                        .clone(),
                );
            }
            mask >>= 1;
        }
        value.expect("every member obtains the broadcast value")
    }

    /// [`broadcast`](Group::broadcast) of a row-major `rows × stride`
    /// buffer under the schedule [`broadcast_schedule`] selects for the
    /// machine's cost model. Every member passes the same `rows`,
    /// `stride` and `supports`. Without supports all return the root's
    /// buffer; with them a member's buffer is only promised to hold the
    /// root's rows on its support (see the [module docs](self#supports)).
    pub fn broadcast_rows(
        &self,
        ctx: &mut RankCtx,
        root_idx: usize,
        data: Option<Arc<Vec<f64>>>,
        rows: usize,
        stride: usize,
        supports: Option<&[Vec<u32>]>,
    ) -> Arc<Vec<f64>> {
        // The members select from `rows × stride`, not from the buffer.
        assert!(
            data.as_ref().is_none_or(|d| d.len() == rows * stride),
            "broadcast shape mismatch"
        );
        match pick(
            Op::Broadcast,
            self.size(),
            rows,
            stride,
            ctx.cost(),
            supports,
        ) {
            Pick::Tree => self.broadcast(ctx, root_idx, data),
            Pick::Large(_) => self.broadcast_large(ctx, root_idx, data, rows, stride),
            Pick::Sparse => self.broadcast_sparse(
                ctx,
                root_idx,
                data,
                rows,
                stride,
                supports.expect("the sparse schedule runs on supports"),
            ),
        }
    }

    /// Sparse broadcast (see the [module docs](self)): the root sends
    /// every non-root with a non-empty support its support rows, packed,
    /// and the receiver scatters them into a zeroed `rows × stride`
    /// buffer. `supports[v]` is the member at root-relative index `v`'s;
    /// the root's is not read.
    pub fn broadcast_sparse(
        &self,
        ctx: &mut RankCtx,
        root_idx: usize,
        data: Option<Arc<Vec<f64>>>,
        rows: usize,
        stride: usize,
        supports: &[Vec<u32>],
    ) -> Arc<Vec<f64>> {
        let s = self.size();
        assert!(stride >= 1, "stride must be positive");
        check_supports(supports, s, rows);
        let vr = (self.my_idx + s - root_idx) % s;
        let tag = self.next_tag(ctx);
        let before = Traffic::charged(ctx);
        let buf = if vr == 0 {
            let buf = data.expect("broadcast root must supply the data");
            assert_eq!(buf.len(), rows * stride, "broadcast shape mismatch");
            for (v, support) in supports.iter().enumerate().skip(1) {
                if !support.is_empty() {
                    let packed = pack_rows(&buf, support, stride);
                    ctx.send(self.abs(v, root_idx), tag, packed);
                }
            }
            buf
        } else {
            let mut buf = vec![0.0; rows * stride];
            let support = &supports[vr];
            if !support.is_empty() {
                let packed: Vec<f64> = ctx.recv(self.abs(0, root_idx), tag);
                assert_eq!(packed.len(), support.len() * stride);
                for (&r, row) in support.iter().zip(packed.chunks_exact(stride)) {
                    let at = r as usize * stride;
                    buf[at..at + stride].copy_from_slice(row);
                }
            }
            Arc::new(buf)
        };
        sparse_traffic(Op::Broadcast, vr, supports, stride).assert_charged_since(before, ctx);
        buf
    }

    /// Scatter + all-gather broadcast (see the [module docs](self)): the
    /// root sends row-aligned block `c` to non-root `c`, the non-roots
    /// all-gather in `⌈log₂ q⌉` Bruck steps. Every message is a view of
    /// the root's buffer, which every member returns.
    pub fn broadcast_large(
        &self,
        ctx: &mut RankCtx,
        root_idx: usize,
        data: Option<Arc<Vec<f64>>>,
        rows: usize,
        stride: usize,
    ) -> Arc<Vec<f64>> {
        let s = self.size();
        let vr = (self.my_idx + s - root_idx) % s;
        if s == 1 {
            return data.expect("broadcast root must supply the data");
        }
        let blocks = Blocks::over_nonroots(s, rows, stride);
        let q = blocks.q;
        let tag = self.next_tag(ctx);
        let before = Traffic::charged(ctx);
        let buf = if let Some(c) = vr.checked_sub(1) {
            // A view must cover exactly the run the schedule says it
            // does, or the receiver would "hold" rows nobody sent it.
            let recv_run = |ctx: &mut RankCtx, from: u32, first: usize, cnt: usize| {
                let got: SharedRows = ctx.recv(from, tag);
                assert_eq!((got.head, got.tail), blocks.run(first, cnt));
                got.buf
            };
            let buf = recv_run(ctx, self.abs(0, root_idx), c, 1);
            for (d, cnt) in allgather_steps(q) {
                let to = self.abs(1 + (c + q - d) % q, root_idx);
                ctx.send(to, tag, blocks.view(&buf, c, cnt));
                let from = (c + d) % q;
                let got = recv_run(ctx, self.abs(1 + from, root_idx), from, cnt);
                assert!(Arc::ptr_eq(&got, &buf), "views of two buffers");
            }
            buf
        } else {
            let buf = data.expect("broadcast root must supply the data");
            assert_eq!(buf.len(), rows * stride, "broadcast shape mismatch");
            for c in 0..q {
                ctx.send(self.abs(1 + c, root_idx), tag, blocks.view(&buf, c, 1));
            }
            buf
        };
        large_broadcast_traffic(vr, blocks).assert_charged_since(before, ctx);
        buf
    }

    /// Binomial-tree sum-reduction of `f64` vectors to `root_idx`; the
    /// root returns `Some(total)`, everyone else `None`. All vectors must
    /// have equal length.
    ///
    /// The sum is associated root-last (see the [module docs](self)): the
    /// root adds its children's subtree sums to each other, in the order
    /// they arrive, and its own vector to the result.
    pub fn reduce_sum(
        &self,
        ctx: &mut RankCtx,
        root_idx: usize,
        data: Vec<f64>,
    ) -> Option<Vec<f64>> {
        let s = self.size();
        let tag = self.next_tag(ctx);
        let vr = (self.my_idx + s - root_idx) % s;
        let mut acc = data;
        // Root only: the sum of the children heard so far.
        let mut children: Option<Vec<f64>> = None;
        let mut mask = 1usize;
        while mask < s {
            if vr & mask == 0 {
                let src_vr = vr + mask;
                if src_vr < s {
                    let other: Vec<f64> = ctx.recv(self.abs(src_vr, root_idx), tag);
                    match &mut children {
                        Some(sum) => add_into(sum, &other),
                        None if vr == 0 => children = Some(other),
                        None => add_into(&mut acc, &other),
                    }
                }
            } else {
                let dst = self.abs(vr - mask, root_idx);
                ctx.send(dst, tag, acc);
                return None;
            }
            mask <<= 1;
        }
        if let Some(sum) = children {
            add_into(&mut acc, &sum);
        }
        Some(acc)
    }

    /// [`reduce_sum`](Group::reduce_sum) of row-major buffers of `stride`
    /// columns under the schedule [`reduce_schedule`] selects for the
    /// machine's cost model; the same sum, bit for bit, whichever runs.
    /// `stride` and `supports` must agree across members and `stride`
    /// divide the length (`stride = 0` only with empty vectors); a
    /// member's vector must be `+0.0` off its support.
    pub fn reduce_sum_rows(
        &self,
        ctx: &mut RankCtx,
        root_idx: usize,
        data: Vec<f64>,
        stride: usize,
        supports: Option<&[Vec<u32>]>,
    ) -> Option<Vec<f64>> {
        let rows = data.len().checked_div(stride).unwrap_or(0);
        assert_eq!(rows * stride, data.len(), "reduce shape mismatch");
        match pick(Op::Reduce, self.size(), rows, stride, ctx.cost(), supports) {
            Pick::Tree => self.reduce_sum(ctx, root_idx, data),
            Pick::Large(_) => self.reduce_sum_large(ctx, root_idx, data, stride),
            Pick::Sparse => self.reduce_sum_sparse(
                ctx,
                root_idx,
                data,
                stride,
                supports.expect("the sparse schedule runs on supports"),
            ),
        }
    }

    /// Sparse reduction (see the [module docs](self)): every non-root
    /// with a non-empty support ships its support rows, packed, to the
    /// root, which folds them in the root-last binomial order — a row
    /// missing from a piece adds `+0.0` there, as the `+0.0` the tree
    /// would have carried — and adds the result to its own vector.
    /// `supports[v]` is the member at root-relative index `v`'s, its
    /// vector `+0.0` off it; the root's is not read.
    pub fn reduce_sum_sparse(
        &self,
        ctx: &mut RankCtx,
        root_idx: usize,
        data: Vec<f64>,
        stride: usize,
        supports: &[Vec<u32>],
    ) -> Option<Vec<f64>> {
        let s = self.size();
        assert!(stride >= 1, "stride must be positive");
        let rows = data.len() / stride;
        assert_eq!(rows * stride, data.len(), "reduce shape mismatch");
        check_supports(supports, s, rows);
        let vr = (self.my_idx + s - root_idx) % s;
        let tag = self.next_tag(ctx);
        let before = Traffic::charged(ctx);
        let total = if vr != 0 {
            let support = &supports[vr];
            debug_assert!(
                {
                    let mut off = vec![true; rows];
                    support.iter().for_each(|&r| off[r as usize] = false);
                    data.chunks_exact(stride)
                        .zip(off)
                        .all(|(row, off)| !off || row.iter().all(|v| v.to_bits() == 0))
                },
                "a reduced vector must be +0.0 off its support"
            );
            if !support.is_empty() {
                let packed = pack_rows(&data, support, stride);
                ctx.send(self.abs(0, root_idx), tag, packed);
            }
            None
        } else {
            let mut acc = data;
            if s > 1 {
                // The fold runs over the union of the non-roots' supports;
                // `slot[r]` is row r's place in it.
                let mut slot = vec![u32::MAX; rows];
                for &r in supports[1..].iter().flatten() {
                    slot[r as usize] = 0;
                }
                let mut union = 0;
                for at in slot.iter_mut().filter(|at| **at != u32::MAX) {
                    *at = union;
                    union += 1;
                }
                let mut pieces = vec![vec![0.0; union as usize * stride]; s - 1];
                for (piece, (v, support)) in
                    pieces.iter_mut().zip(supports.iter().enumerate().skip(1))
                {
                    if support.is_empty() {
                        continue;
                    }
                    let packed: Vec<f64> = ctx.recv(self.abs(v, root_idx), tag);
                    assert_eq!(packed.len(), support.len() * stride);
                    for (&r, row) in support.iter().zip(packed.chunks_exact(stride)) {
                        let at = slot[r as usize] as usize * stride;
                        piece[at..at + stride].copy_from_slice(row);
                    }
                }
                let pieces: Vec<&[f64]> = pieces.iter().map(Vec::as_slice).collect();
                let folded = fold_nonroots(&pieces, s);
                for (row, &at) in acc.chunks_exact_mut(stride).zip(&slot) {
                    if at == u32::MAX {
                        // Every piece is +0.0 here, and so is their sum.
                        row.iter_mut().for_each(|a| *a += 0.0);
                    } else {
                        let at = at as usize * stride;
                        add_into(row, &folded[at..at + stride]);
                    }
                }
            }
            Some(acc)
        };
        sparse_traffic(Op::Reduce, vr, supports, stride).assert_charged_since(before, ctx);
        total
    }

    /// Reduce-scatter + gather reduction (see the [module docs](self)):
    /// each non-root ships the piece of its vector in row-aligned block
    /// `c` to non-root `c` as it is, owner `c` sums the pieces in the
    /// root-last binomial order and sends the block to the root, which
    /// adds its own. `data.len()` must be a multiple of `stride ≥ 1`.
    pub fn reduce_sum_large(
        &self,
        ctx: &mut RankCtx,
        root_idx: usize,
        data: Vec<f64>,
        stride: usize,
    ) -> Option<Vec<f64>> {
        let s = self.size();
        let vr = (self.my_idx + s - root_idx) % s;
        if s == 1 {
            return Some(data);
        }
        assert!(stride >= 1, "stride must be positive");
        let blocks = Blocks::over_nonroots(s, data.len() / stride, stride);
        assert_eq!(blocks.start(blocks.q), data.len(), "reduce shape mismatch");
        let q = blocks.q;
        let tag = self.next_tag(ctx);
        let before = Traffic::charged(ctx);
        let total = if let Some(c) = vr.checked_sub(1) {
            // Pieces leave as views of this member's vector. Member c
            // sends to c + 1, c + 2, … and drains c − 1, c − 2, …: in
            // every round each owner is sent to once, and pieces are
            // taken in the order they were sent.
            let data = Arc::new(data);
            for i in 1..q {
                let owner = (c + i) % q;
                ctx.send(
                    self.abs(1 + owner, root_idx),
                    tag,
                    blocks.view(&data, owner, 1),
                );
            }
            // views[i]: the piece of member c − i.
            let mut views = vec![blocks.view(&data, c, 1)];
            for i in 1..q {
                views.push(ctx.recv(self.abs(1 + (c + q - i) % q, root_idx), tag));
            }
            let pieces: Vec<&[f64]> = (0..q)
                .map(|m| {
                    let view = &views[(c + q - m) % q];
                    assert_eq!(view.head.len(), blocks.block(c).len());
                    &view.buf[view.head.clone()]
                })
                .collect();
            ctx.send(self.abs(0, root_idx), tag, fold_nonroots(&pieces, s));
            None
        } else {
            let mut acc = data;
            for c in 0..q {
                let block: Vec<f64> = ctx.recv(self.abs(1 + c, root_idx), tag);
                add_into(&mut acc[blocks.block(c)], &block);
            }
            Some(acc)
        };
        large_reduce_traffic(vr, blocks).assert_charged_since(before, ctx);
        total
    }

    /// All-reduce (sum) of `f64` vectors: reduce to member 0 + broadcast.
    pub fn allreduce_sum(&self, ctx: &mut RankCtx, data: Vec<f64>) -> Vec<f64> {
        let reduced = self.reduce_sum(ctx, 0, data);
        self.broadcast(ctx, 0, reduced)
    }

    /// Bandwidth-optimal ring all-reduce (reduce-scatter + all-gather):
    /// per-member volume `2·s·(g−1)/g` bytes for a payload of `s` bytes,
    /// at `2(g−1)` messages of latency. This is the variant the 1.5D
    /// algorithm's `O(β·nkc/p)` term assumes.
    pub fn allreduce_sum_ring(&self, ctx: &mut RankCtx, data: Vec<f64>) -> Vec<f64> {
        self.allreduce_sum_ring_aligned(ctx, data, 1)
    }

    /// [`allreduce_sum_ring`](Group::allreduce_sum_ring) with chunk
    /// boundaries rounded to multiples of `stride` (`data.len()` must be
    /// a multiple of `stride`).
    ///
    /// For a row-major `rows × stride` buffer this pins every row to one
    /// chunk, which makes the per-element summation order independent of
    /// `stride` — the property the serving engine relies on for
    /// multi-RHS batches to bit-match single-column runs.
    ///
    /// Empty payloads return immediately with no messages; as with the
    /// equal-length requirement, emptiness must agree across members.
    ///
    /// Each member copies one chunk (`1/g` of the payload) once; every
    /// later message is the buffer it last received, summed into or kept.
    pub fn allreduce_sum_ring_aligned(
        &self,
        ctx: &mut RankCtx,
        mut data: Vec<f64>,
        stride: usize,
    ) -> Vec<f64> {
        let g = self.size();
        if g == 1 || data.is_empty() {
            return data;
        }
        assert!(stride >= 1, "stride must be positive");
        let len = data.len();
        assert!(
            len.is_multiple_of(stride),
            "payload length {len} is not a multiple of the stride {stride}"
        );
        let tag = self.next_tag(ctx);
        let before = Traffic::charged(ctx);
        // Chunk c is block c: whole rows of `stride` elements.
        let blocks = Blocks {
            q: g,
            rows: len / stride,
            stride,
        };
        let me = self.my_idx;
        let right = self.members[(me + 1) % g];
        let left = self.members[(me + g - 1) % g];
        // One chunk is in flight per member. In step s it sends chunk
        // (me − s) and receives chunk (me − s − 1) from the left
        // neighbour; for the first g − 1 steps (reduce-scatter) it adds
        // its own part *into the received buffer* — `mine + incoming`,
        // the order the in-place `mine += incoming` had — and forwards
        // that buffer, so only the very first send is a copy. From the
        // last reduce-scatter step on (all-gather) the received chunk is
        // fully reduced: it is kept and forwarded as it is.
        let mut chunk = data[blocks.block(me)].to_vec();
        for s in 0..2 * (g - 1) {
            ctx.send(right, tag, chunk);
            chunk = ctx.recv(left, tag);
            let c = (me + 2 * g - s - 1) % g;
            let mine = &mut data[blocks.block(c)];
            assert_eq!(chunk.len(), mine.len());
            if s < g - 1 {
                for (slot, &m) in chunk.iter_mut().zip(mine.iter()) {
                    let incoming = *slot;
                    *slot = m + incoming;
                }
            }
            if s + 2 >= g {
                mine.copy_from_slice(&chunk);
            }
        }
        ring_traffic(me, blocks).assert_charged_since(before, ctx);
        data
    }

    /// Gathers one payload per member at `root_idx` (returned in member
    /// order); non-roots return `None`.
    pub fn gather<T: Payload>(
        &self,
        ctx: &mut RankCtx,
        root_idx: usize,
        data: T,
    ) -> Option<Vec<T>> {
        let tag = self.next_tag(ctx);
        if self.my_idx == root_idx {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            out[root_idx] = Some(data);
            #[allow(clippy::needless_range_loop)] // root slot is skipped by index
            for idx in 0..self.size() {
                if idx != root_idx {
                    out[idx] = Some(ctx.recv::<T>(self.members[idx], tag));
                }
            }
            Some(
                out.into_iter()
                    .map(|o| o.expect("gathered every member"))
                    .collect(),
            )
        } else {
            ctx.send(self.members[root_idx], tag, data);
            None
        }
    }

    /// Scatters `items[idx]` to member `idx` from `root_idx`; every member
    /// returns its item. The root passes `Some(items)` with
    /// `items.len() == size()`.
    pub fn scatter<T: Payload>(
        &self,
        ctx: &mut RankCtx,
        root_idx: usize,
        items: Option<Vec<T>>,
    ) -> T {
        let tag = self.next_tag(ctx);
        if self.my_idx == root_idx {
            let items = items.expect("scatter root must supply the items");
            assert_eq!(items.len(), self.size(), "scatter item count mismatch");
            let mut own = None;
            for (idx, item) in items.into_iter().enumerate() {
                if idx == root_idx {
                    own = Some(item);
                } else {
                    ctx.send(self.members[idx], tag, item);
                }
            }
            own.expect("root keeps its own item")
        } else {
            ctx.recv::<T>(self.members[root_idx], tag)
        }
    }

    /// Personalised all-to-all: member `i` receives `outgoing[i]` from
    /// every member, returned in member order (own item passes through a
    /// self-send so the cost model charges it symmetrically with MPI's
    /// local copy being free — self messages cost `α`, a negligible
    /// overcount).
    pub fn alltoall<T: Payload>(&self, ctx: &mut RankCtx, outgoing: Vec<T>) -> Vec<T> {
        assert_eq!(outgoing.len(), self.size(), "alltoall item count mismatch");
        let tag = self.next_tag(ctx);
        for (idx, item) in outgoing.into_iter().enumerate() {
            ctx.send(self.members[idx], tag, item);
        }
        (0..self.size())
            .map(|idx| ctx.recv::<T>(self.members[idx], tag))
            .collect()
    }

    /// Barrier: gather + broadcast of unit payloads.
    pub fn barrier(&self, ctx: &mut RankCtx) {
        let gathered = self.gather(ctx, 0, ());
        self.broadcast(ctx, 0, gathered.map(|_| ()));
    }

    /// Absolute member rank of a virtual (root-relative) index.
    fn abs(&self, vr: usize, root_idx: usize) -> u32 {
        self.members[(vr + root_idx) % self.size()]
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
            let data = if g.my_idx() == 4 { Some(7.5f64) } else { None };
            g.broadcast(ctx, 4, data)
        });
        assert!(report.results.iter().all(|&v| v == 7.5));
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
            let data = if g.my_idx() == 0 { Some(()) } else { None };
            g.broadcast(ctx, 0, data);
            ctx.sim_time()
        });
        let max = report.results.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(max <= 4.0 + 1e-9, "critical path {max} > log2(16) = 4");
        assert!(max >= 4.0 - 1e-9);
    }

    #[test]
    fn binomial_children_matches_actual_broadcast_sends() {
        // Lockstep guard: the closed-form count must equal the number of
        // messages each rank really sends in a broadcast, for every tree
        // size and root. If the tree shape ever changes, this fails.
        for p in [1u32, 2, 3, 5, 8, 13, 16] {
            for root in [0usize, (p as usize - 1) / 2] {
                let report = Machine::new(p).run(move |ctx| {
                    let g = Group::world(ctx);
                    let data = if g.my_idx() == root { Some(0u64) } else { None };
                    g.broadcast(ctx, root, data);
                });
                for (rank, stats) in report.stats.ranks.iter().enumerate() {
                    let vr = (rank + p as usize - root) % p as usize;
                    assert_eq!(
                        stats.sent_msgs as usize,
                        binomial_children(vr, p as usize),
                        "p={p} root={root} rank={rank}"
                    );
                }
            }
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
                let ring = g.allreduce_sum_ring(ctx, data.clone());
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
        let tag = g.next_tag(ctx);
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
                        let new = group.allreduce_sum_ring_aligned(ctx, data.clone(), stride);
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
    fn shared_broadcast_is_charged_like_an_owned_one() {
        let run = |shared: bool| {
            Machine::new(7).run(move |ctx| {
                let g = Group::world(ctx);
                let data = (g.my_idx() == 2).then(|| vec![0.25f64; 33]);
                if shared {
                    let got = g.broadcast(ctx, 2, data.map(std::sync::Arc::new));
                    got.to_vec()
                } else {
                    g.broadcast(ctx, 2, data)
                }
            })
        };
        let (owned, shared) = (run(false), run(true));
        assert_eq!(owned.results, shared.results);
        for (o, s) in owned.stats.ranks.iter().zip(&shared.stats.ranks) {
            assert_eq!(o, s);
        }
    }

    #[test]
    fn ring_allreduce_volume_is_bandwidth_optimal() {
        // Per-rank volume must be ≈ 2·s·(g−1)/g, not s·log g.
        let p = 8u32;
        let len = 800usize;
        let report = Machine::new(p).run(|ctx| {
            let g = Group::world(ctx);
            g.allreduce_sum_ring(ctx, vec![1.0f64; len]);
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
            g.allreduce_sum_ring(ctx, vec![1.0f64, 2.0])
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
    fn gather_in_member_order() {
        let report = Machine::new(4).run(|ctx| {
            let g = Group::world(ctx);
            g.gather(ctx, 2, ctx.rank() as u64 * 10)
        });
        assert_eq!(report.results[2], Some(vec![0, 10, 20, 30]));
        assert_eq!(report.results[0], None);
    }

    #[test]
    fn scatter_distributes_items() {
        let report = Machine::new(3).run(|ctx| {
            let g = Group::world(ctx);
            let items = if g.my_idx() == 0 {
                Some(vec![vec![0.0f64], vec![1.0], vec![2.0]])
            } else {
                None
            };
            g.scatter(ctx, 0, items)
        });
        for (r, v) in report.results.iter().enumerate() {
            assert_eq!(v, &vec![r as f64]);
        }
    }

    #[test]
    fn alltoall_personalised() {
        let report = Machine::new(3).run(|ctx| {
            let g = Group::world(ctx);
            let outgoing: Vec<u64> = (0..3)
                .map(|d| (ctx.rank() as u64) * 10 + d as u64)
                .collect();
            g.alltoall(ctx, outgoing)
        });
        // Member r receives [0r, 1r, 2r].
        for (r, v) in report.results.iter().enumerate() {
            assert_eq!(v, &vec![r as u64, 10 + r as u64, 20 + r as u64]);
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
            g.barrier(ctx);
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
}
