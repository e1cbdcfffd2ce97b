//! Property tests for the message-passing machine: arbitrary communication
//! patterns must deliver exactly, deterministically, and without deadlock.

use amd_comm::{Group, Machine, RoutedItem};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every rank sends one message to a random target; every byte arrives
    /// and the simulated clocks are deterministic.
    #[test]
    fn random_permutation_exchange(
        p in 2u32..12,
        seed in any::<u64>(),
    ) {
        // Build a random derangement-ish map (self-sends allowed).
        let targets: Vec<u32> = (0..p)
            .map(|r| {
                let x = seed.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(r)
                    ^ (r as u64) << 32;
                (x % p as u64) as u32
            })
            .collect();
        // Inverse multiset: how many messages each rank expects.
        let mut expect = vec![0u32; p as usize];
        for &t in &targets {
            expect[t as usize] += 1;
        }
        let run = || {
            let targets = targets.clone();
            let expect = expect.clone();
            Machine::new(p)
                .run(move |ctx| {
                    let me = ctx.rank();
                    ctx.send(targets[me as usize], 1, vec![me as f64; 8]);
                    let mut got = Vec::new();
                    for src in 0..p {
                        if targets[src as usize] == me {
                            let v: Vec<f64> = ctx.recv(src, 1);
                            got.push((src, v));
                        }
                    }
                    prop_assert_eq!(got.len() as u32, expect[me as usize]);
                    for (src, v) in &got {
                        prop_assert_eq!(v.len(), 8);
                        prop_assert!(v.iter().all(|&x| x == *src as f64));
                    }
                    Ok(ctx.sim_time())
                })
                .results
        };
        let r1: Result<Vec<f64>, _> = run().into_iter().collect();
        let r2: Result<Vec<f64>, _> = run().into_iter().collect();
        let (r1, r2) = (r1?, r2?);
        prop_assert_eq!(r1, r2, "simulated clocks not deterministic");
    }

    /// Collectives on arbitrary subgroup splits produce correct sums.
    #[test]
    fn subgroup_allreduce_correct(
        p in 2u32..12,
        split in 1u32..11,
        len in 1usize..20,
    ) {
        let split = split.min(p - 1).max(1);
        let report = Machine::new(p).run(|ctx| {
            let me = ctx.rank();
            let members: Vec<u32> =
                if me < split { (0..split).collect() } else { (split..p).collect() };
            let g = Group::new(ctx, members);
            let data = vec![me as f64 + 1.0; len];
            g.allreduce_sum_ring(ctx, data)
        });
        let lower: f64 = (0..split).map(|r| r as f64 + 1.0).sum();
        let upper: f64 = (split..p).map(|r| r as f64 + 1.0).sum();
        for (r, v) in report.results.iter().enumerate() {
            let want = if (r as u32) < split { lower } else { upper };
            prop_assert!(v.iter().all(|&x| (x - want).abs() < 1e-9),
                "rank {r}: {v:?} != {want}");
        }
    }

    /// Destination routing delivers an arbitrary item multiset intact.
    #[test]
    fn routing_preserves_item_multiset(
        p in 1u32..10,
        dests in proptest::collection::vec(0u32..10, 0..24),
    ) {
        let dests: Vec<u32> = dests.into_iter().map(|d| d % p).collect();
        let total = dests.len();
        let report = Machine::new(p).run(|ctx| {
            let g = Group::world(ctx);
            let me = g.my_idx() as u32;
            // Rank 0 originates everything; others send nothing.
            let items: Vec<RoutedItem> = if me == 0 {
                dests
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| RoutedItem {
                        dest: d,
                        tag: i as u64,
                        data: vec![i as f64, d as f64],
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let got = g.route_by_destination(ctx, items);
            got.iter()
                .map(|it| {
                    assert_eq!(it.dest, me);
                    assert_eq!(it.data[1] as u32, me);
                    it.tag
                })
                .collect::<Vec<u64>>()
        });
        let mut all_tags: Vec<u64> = report.results.into_iter().flatten().collect();
        all_tags.sort_unstable();
        prop_assert_eq!(all_tags, (0..total as u64).collect::<Vec<_>>());
    }
}

// ---- The large-message broadcast and reduce (deterministic sweeps) ----

use amd_comm::{
    allreduce_ring_cost, broadcast_cost, broadcast_schedule, reduce_cost, reduce_schedule,
    CostModel, RankCtx, RankStats, Schedule, Traffic,
};
use std::sync::Arc;

/// Bandwidth is everything: the large schedules win wherever they can run.
const WIRE_BOUND: CostModel = CostModel {
    alpha: 0.0,
    beta: 1e-9,
    compute_rate: 1.0,
};
/// Latency is everything: the tree always wins.
const LATENCY_BOUND: CostModel = CostModel {
    alpha: 1e-6,
    beta: 0.0,
    compute_rate: 1.0,
};

/// Non-integer data that differs by member, so a changed association
/// changes bits.
fn member_vector(rank: u32, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i * 7 + rank as usize * 13) % 31) as f64 / 7.0 - 1.9)
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Fewer rows than members, ragged, empty.
fn row_counts(p: u32) -> [usize; 6] {
    [0, 1, (p as usize).saturating_sub(2), 7, 23, 97]
}

/// (a) One association: the large reduce and the tree reduce return the
/// same bits on non-integer data, for every group size, root and shape.
/// The selecting wrapper is forced onto each side by a cost model and
/// compared with the other schedule called by name.
#[test]
fn large_reduce_equals_tree_reduce_bit_for_bit() {
    for p in 2u32..=33 {
        for cost in [WIRE_BOUND, LATENCY_BOUND] {
            let report = Machine::new(p).with_cost(cost).run(move |ctx| {
                let g = Group::world(ctx);
                let mut took_large = false;
                // Collected, not asserted: a rank that panics mid-run
                // leaves the others waiting for its messages.
                let mut mismatches = Vec::new();
                for root in 0..p as usize {
                    // Every stride at the first and last root, one elsewhere:
                    // a root only rotates the members.
                    let corner = root == 0 || root + 1 == p as usize;
                    for stride in [3usize, 1, 16].into_iter().take(if corner { 3 } else { 1 }) {
                        for rows in row_counts(p) {
                            let data = member_vector(ctx.rank(), rows * stride);
                            let picked = g.reduce_sum_rows(ctx, root, data.clone(), stride, None);
                            let other = if cost == WIRE_BOUND {
                                g.reduce_sum(ctx, root, data)
                            } else {
                                g.reduce_sum_large(ctx, root, data, stride)
                            };
                            if picked.is_some() != (g.my_idx() == root)
                                || picked.as_deref().map(bits) != other.as_deref().map(bits)
                            {
                                mismatches.push((root, rows, stride));
                            }
                            took_large |= reduce_schedule(p as usize, rows, stride, &cost, None)
                                == Schedule::Large;
                        }
                    }
                }
                (took_large, mismatches)
            });
            // The wrapper really was on each side.
            let expect_large = cost == WIRE_BOUND && p >= 3;
            for (took_large, mismatches) in report.results {
                assert_eq!(took_large, expect_large, "p = {p}");
                assert_eq!(mismatches, [], "p = {p}: (root, rows, stride)");
            }
        }
    }
}

/// The large broadcast's schedule with every message an owned copy of
/// the rows it stands for, the receivers assembling the buffer from what
/// arrives: the reference the view-passing schedule is charged against,
/// and the proof that the schedule delivers every row.
fn broadcast_large_owned(
    g: &Group,
    ctx: &mut RankCtx,
    root: usize,
    data: Option<Vec<f64>>,
    rows: usize,
    stride: usize,
) -> Vec<f64> {
    const TAG: u64 = 77;
    let p = g.size();
    let q = p - 1;
    let vr = (g.my_idx() + p - root) % p;
    let at = |c: usize| (c * rows / q) * stride;
    let member = |v: usize| g.member((v + root) % p);
    if vr == 0 {
        let data = data.unwrap();
        for c in 0..q {
            ctx.send(member(c + 1), TAG, data[at(c)..at(c + 1)].to_vec());
        }
        return data;
    }
    let c = vr - 1;
    let mut buf = vec![f64::NAN; rows * stride];
    let own: Vec<f64> = ctx.recv(member(0), TAG);
    buf[at(c)..at(c + 1)].copy_from_slice(&own);
    let mut d = 1;
    while d < q {
        let cnt = d.min(q - d);
        let run = |first: usize| (first..first + cnt).flat_map(|b| at(b % q)..at(b % q + 1));
        let out: Vec<f64> = run(c).map(|i| buf[i]).collect();
        ctx.send(member(1 + (c + q - d) % q), TAG, out);
        let got: Vec<f64> = ctx.recv(member(1 + (c + d) % q), TAG);
        for (i, v) in run((c + d) % q).zip(got) {
            buf[i] = v;
        }
        d <<= 1;
    }
    buf
}

/// (b) The large broadcast hands every member the root's buffer itself,
/// and its views are charged what owned copies of the same rows are.
#[test]
fn large_broadcast_shares_the_roots_buffer_and_is_charged_like_copies() {
    for p in 2u32..=33 {
        for root in [0usize, p as usize / 2, p as usize - 1] {
            for (rows, stride) in [
                (0usize, 1usize),
                (1, 16),
                (p as usize - 2, 3),
                (23, 3),
                (97, 16),
            ] {
                let run = |shared: bool| {
                    Machine::new(p).run(move |ctx| {
                        let g = Group::world(ctx);
                        let data =
                            (g.my_idx() == root).then(|| member_vector(ctx.rank(), rows * stride));
                        if shared {
                            g.broadcast_large(ctx, root, data.map(Arc::new), rows, stride)
                        } else {
                            Arc::new(broadcast_large_owned(&g, ctx, root, data, rows, stride))
                        }
                    })
                };
                let (shared, owned) = (run(true), run(false));
                let want = member_vector(root as u32, rows * stride);
                for (s, o) in shared.results.iter().zip(&owned.results) {
                    assert!(
                        Arc::ptr_eq(s, &shared.results[root]),
                        "a copy was assembled"
                    );
                    assert_eq!(bits(s), bits(&want));
                    assert_eq!(bits(o), bits(&want), "the schedule lost a row");
                }
                assert_eq!(shared.stats.ranks, owned.stats.ranks, "p={p} root={root}");
            }
        }
    }
}

/// What the machine charged one member, as a closed form states it.
fn charged(stats: &RankStats) -> Traffic {
    Traffic {
        sent_bytes: stats.sent_bytes,
        recv_bytes: stats.recv_bytes,
        sent_msgs: stats.sent_msgs,
        recv_msgs: stats.recv_msgs,
    }
}

/// (c) Lockstep: the closed forms equal what the machine charged every
/// member, for every size and shape, at the first, a middle and the last
/// root, on either side of the selection — as
/// `binomial_children_matches_actual_broadcast_sends` holds the tree.
#[test]
fn closed_form_costs_match_the_accounting() {
    for p in 1u32..=33 {
        let size = p as usize;
        for cost in [WIRE_BOUND, LATENCY_BOUND, CostModel::default()] {
            for root in [0, size / 2, size - 1] {
                for (rows, stride) in [(0usize, 4usize), (5, 0), (1, 16), (23, 3), (4096, 16)] {
                    let machine = Machine::new(p).with_cost(cost);
                    let bcast = machine.run(|ctx| {
                        let g = Group::world(ctx);
                        let data = (g.my_idx() == root).then(|| Arc::new(vec![0.5; rows * stride]));
                        g.broadcast_rows(ctx, root, data, rows, stride, None);
                    });
                    let reduce = machine.run(|ctx| {
                        let g = Group::world(ctx);
                        g.reduce_sum_rows(ctx, root, vec![0.5; rows * stride], stride, None);
                    });
                    for rank in 0..size {
                        let vr = (rank + size - root) % size;
                        for (what, stats, want) in [
                            (
                                "broadcast",
                                &bcast.stats.ranks[rank],
                                broadcast_cost(size, rows, stride, &cost, None)[vr],
                            ),
                            (
                                "reduce",
                                &reduce.stats.ranks[rank],
                                reduce_cost(size, rows, stride, &cost, None)[vr],
                            ),
                        ] {
                            assert_eq!(
                                charged(stats),
                                want,
                                "{what} p={p} root={root} rank={rank} {rows}x{stride}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// (c′) Lockstep for the ring all-reduce: [`allreduce_ring_cost`] is what
/// the machine charged every member, for every size and shape — including
/// row counts the size does not divide, where the row-aligned chunks make
/// some member move more than `2·(p − 1)/p` of the payload each way.
#[test]
fn ring_allreduce_cost_matches_the_accounting() {
    let mut uneven = false;
    for p in 1u32..=33 {
        let size = p as usize;
        for (rows, stride) in [
            (0usize, 4usize),
            (5, 0),
            (1, 16),
            (23, 3),
            (225, 1),
            (97, 16),
        ] {
            let run = Machine::new(p).run(|ctx| {
                let g = Group::world(ctx);
                g.allreduce_sum_ring_aligned(ctx, vec![0.5; rows * stride], stride.max(1));
            });
            let want = allreduce_ring_cost(size, rows, stride);
            for (rank, (stats, want)) in run.stats.ranks.iter().zip(&want).enumerate() {
                assert_eq!(charged(stats), *want, "p={p} rank={rank} {rows}x{stride}");
                let fraction = 2.0 * (p - 1) as f64 / p as f64 * (8 * rows * stride) as f64;
                uneven |= want.sent_bytes as f64 > fraction;
            }
        }
    }
    assert!(uneven, "no shape split its rows unevenly");
}

/// (d) The selection rule against the simulator: under the default cost
/// model the schedule it picks finishes no later than the one it
/// rejected (within one α), for every group size and payload.
#[test]
fn the_selected_schedule_is_the_faster_one_in_the_simulator() {
    let cost = CostModel::default();
    let makespan = |p: u32, program: &(dyn Fn(&mut RankCtx, &Group) + Sync)| {
        Machine::new(p)
            .run(|ctx| {
                let g = Group::world(ctx);
                program(ctx, &g);
            })
            .stats
            .sim_time()
    };
    for p in 3u32..=33 {
        for bytes in [0usize, 512, 8 << 10, 32 << 10, 64 << 10, 128 << 10, 1 << 20] {
            let rows = bytes / 8;
            let root_data = |g: &Group| (g.my_idx() == 0).then(|| Arc::new(vec![1.0; rows]));
            let bcast = [
                makespan(p, &|ctx, g| drop(g.broadcast(ctx, 0, root_data(g)))),
                makespan(p, &|ctx, g| {
                    drop(g.broadcast_large(ctx, 0, root_data(g), rows, 1))
                }),
            ];
            let reduce = [
                makespan(p, &|ctx, g| drop(g.reduce_sum(ctx, 0, vec![1.0; rows]))),
                makespan(p, &|ctx, g| {
                    drop(g.reduce_sum_large(ctx, 0, vec![1.0; rows], 1))
                }),
            ];
            for (what, [tree, large], picked) in [
                (
                    "broadcast",
                    bcast,
                    broadcast_schedule(p as usize, rows, 1, &cost, None),
                ),
                (
                    "reduce",
                    reduce,
                    reduce_schedule(p as usize, rows, 1, &cost, None),
                ),
            ] {
                let (taken, rejected) = match picked {
                    Schedule::Tree => (tree, large),
                    Schedule::Large => (large, tree),
                    Schedule::Sparse => unreachable!("no supports, no sparse schedule"),
                };
                assert!(
                    taken <= rejected + cost.alpha,
                    "{what} p={p} bytes={bytes}: picked {picked:?} at {taken:e} s, \
                     rejected finishes at {rejected:e} s"
                );
            }
        }
    }
}

// ---- The sparse broadcast and reduce (deterministic sweeps) ----

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Root-relative supports of a `p`-member group over `rows` rows. In
/// `mode` 0 member `v`'s is empty, one row, every row or a random third
/// of them by `v mod 4`; in mode 1 every non-root's is empty or one row;
/// in mode 2 every member holds a random twentieth — the root too, whose
/// entry the collectives must not read.
fn supports(p: usize, rows: usize, mode: usize) -> Vec<Vec<u32>> {
    let mut rng = ChaCha8Rng::seed_from_u64((p * 131 + rows * 7 + mode) as u64);
    let mut share = |den: u32| -> Vec<u32> {
        (0..rows as u32)
            .filter(|_| rng.gen_range(0..den) == 0)
            .collect()
    };
    (0..p)
        .map(|v| match (mode, v % 4) {
            _ if rows == 0 => Vec::new(),
            (0, 0) | (1, 0) | (1, 2) => Vec::new(),
            (0, 1) | (1, 1) | (1, 3) => vec![((v * 7) % rows) as u32],
            (0, 2) => (0..rows as u32).collect(),
            (2, _) => share(20),
            _ => share(3),
        })
        .collect()
}

/// Non-integer data with `−0.0` planted in every fifth row: member
/// `rank`'s vector of `rows × stride`, kept on the rows of `support`
/// (every row when `None`) and `+0.0` elsewhere.
fn planted(rank: u32, rows: usize, stride: usize, support: Option<&[u32]>) -> Vec<f64> {
    let mut v = member_vector(rank, rows * stride);
    let mut on = vec![support.is_none(); rows];
    for &r in support.unwrap_or_default() {
        on[r as usize] = true;
    }
    for (r, row) in v.chunks_exact_mut(stride).enumerate() {
        match (on[r], r % 5) {
            (false, _) => row.fill(0.0),
            (true, 0) => row.fill(-0.0),
            _ => {}
        }
    }
    v
}

/// What a member's vector is in a reduce over `supports`: the root's is
/// whole, a non-root's `+0.0` off its support.
fn reduced_vector(rank: u32, vr: usize, rows: usize, stride: usize, sup: &[Vec<u32>]) -> Vec<f64> {
    planted(rank, rows, stride, (vr != 0).then(|| sup[vr].as_slice()))
}

/// (e) The sparse reduce sums in the one association: on non-integer data
/// with planted `−0.0` rows, over random supports, it returns the bits of
/// the tree and of the large reduce at the first and last root; and the
/// sparse broadcast hands each member the root's rows on its support and
/// `+0.0` elsewhere.
#[test]
fn sparse_reduce_equals_tree_and_large_reduce_bit_for_bit() {
    for p in 2u32..=33 {
        let size = p as usize;
        let report = Machine::new(p).with_cost(WIRE_BOUND).run(move |ctx| {
            let g = Group::world(ctx);
            // Collected, not asserted (see (a)).
            let mut mismatches = Vec::new();
            for root in [0, size - 1] {
                let vr = (g.my_idx() + size - root) % size;
                for stride in [1usize, 3, 16] {
                    for rows in [1usize, 7, 23] {
                        for mode in 0..3 {
                            let sup = supports(size, rows, mode);
                            let data = reduced_vector(ctx.rank(), vr, rows, stride, &sup);
                            let sparse = g.reduce_sum_sparse(ctx, root, data.clone(), stride, &sup);
                            let tree = g.reduce_sum(ctx, root, data.clone());
                            let large = g.reduce_sum_large(ctx, root, data, stride);
                            if sparse.as_deref().map(bits) != tree.as_deref().map(bits)
                                || sparse.as_deref().map(bits) != large.as_deref().map(bits)
                            {
                                mismatches.push(("reduce", root, stride, rows, mode));
                            }
                            let whole = planted(g.member(root), rows, stride, None);
                            let got = g.broadcast_sparse(
                                ctx,
                                root,
                                (vr == 0).then(|| Arc::new(whole.clone())),
                                rows,
                                stride,
                                &sup,
                            );
                            let want = if vr == 0 {
                                whole
                            } else {
                                let mut want = vec![0.0; rows * stride];
                                for &r in &sup[vr] {
                                    let at = r as usize * stride;
                                    want[at..at + stride].copy_from_slice(&whole[at..at + stride]);
                                }
                                want
                            };
                            if bits(&got) != bits(&want) {
                                mismatches.push(("broadcast", root, stride, rows, mode));
                            }
                        }
                    }
                }
            }
            mismatches
        });
        for mismatches in report.results {
            assert_eq!(mismatches, [], "p = {p}: (op, root, stride, rows, mode)");
        }
    }
}

/// Every (root, stride, rows, mode) the closed-form and selection sweeps
/// below run, with the group's supports.
fn sparse_shapes(size: usize) -> Vec<(usize, usize, usize, Vec<Vec<u32>>)> {
    let mut shapes = Vec::new();
    for root in [0, size / 2, size - 1] {
        for stride in [1usize, 3, 16] {
            for rows in [0usize, 1, 23, 600] {
                for mode in 0..3 {
                    shapes.push((root, stride, rows, supports(size, rows, mode)));
                }
            }
        }
    }
    shapes
}

/// (f) Lockstep for the selecting wrappers given supports: over every
/// shape of [`sparse_shapes`], what the machine charged each member is
/// the sum of what [`broadcast_cost`] / [`reduce_cost`] say for it, on
/// either side of every selection (and the sparse schedule did run).
#[test]
fn closed_form_costs_with_supports_match_the_accounting() {
    for p in 2u32..=33 {
        let size = p as usize;
        let shapes = sparse_shapes(size);
        for cost in [WIRE_BOUND, LATENCY_BOUND, CostModel::default()] {
            let machine = Machine::new(p).with_cost(cost);
            let bcast = machine.run(|ctx| {
                let g = Group::world(ctx);
                for (root, stride, rows, sup) in &shapes {
                    let data = (g.my_idx() == *root)
                        .then(|| Arc::new(planted(ctx.rank(), *rows, *stride, None)));
                    g.broadcast_rows(ctx, *root, data, *rows, *stride, Some(sup));
                }
            });
            let reduce = machine.run(|ctx| {
                let g = Group::world(ctx);
                for (root, stride, rows, sup) in &shapes {
                    let vr = (g.my_idx() + size - root) % size;
                    let data = reduced_vector(ctx.rank(), vr, *rows, *stride, sup);
                    g.reduce_sum_rows(ctx, *root, data, *stride, Some(sup));
                }
            });
            let mut took_sparse = false;
            for rank in 0..size {
                let mut want = [(0u64, 0u64, 0u64); 2];
                for (root, stride, rows, sup) in &shapes {
                    let vr = (rank + size - root) % size;
                    for (w, moved) in want.iter_mut().zip([
                        broadcast_cost(size, *rows, *stride, &cost, Some(sup))[vr],
                        reduce_cost(size, *rows, *stride, &cost, Some(sup))[vr],
                    ]) {
                        *w = (
                            w.0 + moved.sent_bytes,
                            w.1 + moved.recv_bytes,
                            w.2 + moved.msgs(),
                        );
                    }
                    took_sparse |= [
                        broadcast_schedule(size, *rows, *stride, &cost, Some(sup)),
                        reduce_schedule(size, *rows, *stride, &cost, Some(sup)),
                    ]
                    .contains(&Schedule::Sparse);
                }
                for (what, stats, want) in [
                    ("broadcast", &bcast.stats.ranks[rank], want[0]),
                    ("reduce", &reduce.stats.ranks[rank], want[1]),
                ] {
                    assert_eq!(
                        (
                            stats.sent_bytes,
                            stats.recv_bytes,
                            stats.sent_msgs + stats.recv_msgs
                        ),
                        want,
                        "{what} p={p} rank={rank} cost={cost:?}"
                    );
                }
            }
            assert!(
                took_sparse,
                "p={p} cost={cost:?}: the sparse schedule never ran"
            );
        }
    }
}

/// (g) The selection rule against the simulator, under the default cost
/// model: the sparse schedule is taken exactly when, run by name, it
/// finishes no later than the dense pick and its busiest member moves no
/// more bytes and no more messages — never when it is slower, never when
/// it is heavier.
#[test]
fn the_sparse_schedule_is_taken_only_when_no_slower_and_no_heavier() {
    let cost = CostModel::default();
    // Closed-form and simulated clocks agree to rounding.
    let tick = 1e-15;
    // Taken; rejected as slower; rejected, though no slower, by the bytes
    // guard; and by the message guard alone.
    let mut seen = [0usize; 4];
    for p in 2u32..=33 {
        let size = p as usize;
        for (root, stride, rows, sup) in sparse_shapes(size) {
            if root != 0 || rows == 0 {
                continue;
            }
            let run = |program: &(dyn Fn(&mut RankCtx, &Group) + Sync)| {
                let stats = Machine::new(p)
                    .run(|ctx| program(ctx, &Group::world(ctx)))
                    .stats;
                (stats.sim_time(), stats.max_volume(), stats.max_messages())
            };
            let whole = |g: &Group| (g.my_idx() == 0).then(|| Arc::new(vec![0.5; rows * stride]));
            let part = |ctx: &RankCtx, g: &Group| {
                reduced_vector(ctx.rank(), g.my_idx(), rows, stride, &sup)
            };
            for (what, picked, sparse, dense) in [
                (
                    "broadcast",
                    broadcast_schedule(size, rows, stride, &cost, Some(&sup)),
                    run(&|ctx, g| drop(g.broadcast_sparse(ctx, 0, whole(g), rows, stride, &sup))),
                    run(&|ctx, g| drop(g.broadcast_rows(ctx, 0, whole(g), rows, stride, None))),
                ),
                (
                    "reduce",
                    reduce_schedule(size, rows, stride, &cost, Some(&sup)),
                    run(&|ctx, g| drop(g.reduce_sum_sparse(ctx, 0, part(ctx, g), stride, &sup))),
                    run(&|ctx, g| drop(g.reduce_sum_rows(ctx, 0, part(ctx, g), stride, None))),
                ),
            ] {
                let no_slower = sparse.0 <= dense.0 + tick;
                let (bytes_ok, msgs_ok) = (sparse.1 <= dense.1, sparse.2 <= dense.2);
                let at = format!(
                    "{what} p={p} {rows}x{stride}: sparse {sparse:?} vs dense {dense:?}, picked {picked:?}"
                );
                if picked == Schedule::Sparse {
                    assert!(no_slower && bytes_ok && msgs_ok, "{at}");
                    seen[0] += 1;
                } else {
                    assert!(sparse.0 > dense.0 - tick || !bytes_ok || !msgs_ok, "{at}");
                    seen[match (no_slower, bytes_ok) {
                        (false, _) => 1,
                        (true, false) => 2,
                        (true, true) => 3,
                    }] += 1;
                }
            }
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "a side of the rule never ran: {seen:?}"
    );
}
