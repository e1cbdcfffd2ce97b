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
    broadcast_cost, broadcast_schedule, reduce_cost, reduce_schedule, CostModel, RankCtx, Schedule,
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
                            let picked = g.reduce_sum_rows(ctx, root, data.clone(), stride);
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
                            took_large |=
                                reduce_schedule(p as usize, rows, stride, &cost) == Schedule::Large;
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
                        g.broadcast_rows(ctx, root, data, rows, stride);
                    });
                    let reduce = machine.run(|ctx| {
                        let g = Group::world(ctx);
                        g.reduce_sum_rows(ctx, root, vec![0.5; rows * stride], stride);
                    });
                    for rank in 0..size {
                        let vr = (rank + size - root) % size;
                        for (what, stats, want) in [
                            (
                                "broadcast",
                                &bcast.stats.ranks[rank],
                                broadcast_cost(vr, size, rows, stride, &cost),
                            ),
                            (
                                "reduce",
                                &reduce.stats.ranks[rank],
                                reduce_cost(vr, size, rows, stride, &cost),
                            ),
                        ] {
                            assert_eq!(
                                (
                                    stats.sent_bytes,
                                    stats.recv_bytes,
                                    stats.sent_msgs + stats.recv_msgs
                                ),
                                (want.sent_bytes, want.recv_bytes, want.msgs),
                                "{what} p={p} root={root} rank={rank} {rows}x{stride}"
                            );
                        }
                    }
                }
            }
        }
    }
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
                    broadcast_schedule(p as usize, rows, 1, &cost),
                ),
                (
                    "reduce",
                    reduce,
                    reduce_schedule(p as usize, rows, 1, &cost),
                ),
            ] {
                let (taken, rejected) = match picked {
                    Schedule::Tree => (tree, large),
                    Schedule::Large => (large, tree),
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
