//! Collective operations over rank groups, built from point-to-point
//! messages with binomial trees (so `O(log p)` latency and the α-β costs
//! emerge from the model).
//!
//! Every member of a group must call the same sequence of collectives on
//! that group (SPMD discipline, as with an MPI communicator); a per-group
//! sequence number embedded in the message tags keeps concurrent
//! collectives on different groups from interfering.
//!
//! Host copies are not wire bytes. [`Group::broadcast`] clones its value
//! once per child, so broadcasting an `Arc` (a [`Payload`] charged like
//! its content) makes every relay share the root's buffer;
//! [`Group::allreduce_sum_ring_aligned`] copies one chunk per member and
//! forwards received buffers from then on. Neither changes a byte, a
//! message or a tick of the simulated clock.

use crate::message::Payload;
use crate::rank::RankCtx;

/// Top bit marks collective traffic; user tags must keep it clear.
const COLL_BIT: u64 = 1 << 63;

/// Number of copies the member with virtual (root-relative) rank `vr`
/// sends in [`Group::broadcast`]'s binomial tree over `s` members — and,
/// by symmetry, the number of partials it receives in
/// [`Group::reduce_sum`]. Mirrors the mask walk of the implementation
/// below and lives beside it so the two cannot drift; `predict_volume`
/// cost estimates in `amd_spmm` are built on it.
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

    /// Binomial-tree sum-reduction of `f64` vectors to `root_idx`; the
    /// root returns `Some(total)`, everyone else `None`. All vectors must
    /// have equal length.
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
        let mut mask = 1usize;
        while mask < s {
            if vr & mask == 0 {
                let src_vr = vr + mask;
                if src_vr < s {
                    let other: Vec<f64> = ctx.recv(self.abs(src_vr, root_idx), tag);
                    assert_eq!(other.len(), acc.len(), "reduce length mismatch");
                    for (a, b) in acc.iter_mut().zip(&other) {
                        *a += b;
                    }
                }
            } else {
                let dst = self.abs(vr - mask, root_idx);
                ctx.send(dst, tag, acc);
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
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
        // Chunk boundaries: chunk c covers [bounds[c], bounds[c+1]),
        // aligned to whole rows of `stride` elements.
        let rows = len / stride;
        let bounds: Vec<usize> = (0..=g).map(|c| (c * rows / g) * stride).collect();
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
        let mut chunk = data[bounds[me]..bounds[me + 1]].to_vec();
        for s in 0..2 * (g - 1) {
            ctx.send(right, tag, chunk);
            chunk = ctx.recv(left, tag);
            let c = (me + 2 * g - s - 1) % g;
            let mine = &mut data[bounds[c]..bounds[c + 1]];
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
