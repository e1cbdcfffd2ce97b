//! Property tests for the message-passing machine: arbitrary communication
//! patterns must deliver exactly, deterministically, and without deadlock.

use amd_comm::{Group, Machine};
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
            run_plan(ctx, &g, 0, data, &Plan::ring(g.size(), len), 1)
        });
        let lower: f64 = (0..split).map(|r| r as f64 + 1.0).sum();
        let upper: f64 = (split..p).map(|r| r as f64 + 1.0).sum();
        for (r, v) in report.results.iter().enumerate() {
            let want = if (r as u32) < split { lower } else { upper };
            prop_assert!(v.iter().all(|&x| (x - want).abs() < 1e-9),
                "rank {r}: {v:?} != {want}");
        }
    }
}

// ---- The large-message broadcast and reduce (deterministic sweeps) ----

use amd_comm::{execute, Collective, CostModel, Plan, RankCtx, RankStats, Schedule, Step};
use std::sync::Arc;

/// `plan` from `root` on this member's `stride`-column `buf`, run as a
/// one-step list through [`execute`]: what the step leaves in the buffer
/// (a broadcast's non-root drops its own and holds what it received).
fn run_plan(
    ctx: &mut RankCtx,
    g: &Group,
    root: usize,
    buf: Vec<f64>,
    plan: &Plan,
    stride: usize,
) -> Arc<Vec<f64>> {
    let members: Arc<[u32]> = g.members().into();
    let step: Step = Step::run(plan, &members, root, None, stride, 1, 0);
    let mut bufs = [Arc::new(buf)];
    execute(ctx, &[step], 1, &mut bufs, |_, _| {});
    std::mem::take(&mut bufs[0])
}

/// A reduce `plan` to `root` through [`run_plan`], as the root sees it:
/// `Some` sum at the root, `None` where a non-root's buffer was left
/// empty.
fn reduce_to_root(
    ctx: &mut RankCtx,
    g: &Group,
    root: usize,
    data: Vec<f64>,
    plan: &Plan,
    stride: usize,
) -> Option<Vec<f64>> {
    let sum = run_plan(ctx, g, root, data, plan, stride);
    (g.my_idx() == root || !sum.is_empty()).then(|| Arc::unwrap_or_clone(sum))
}

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

/// The large plan of `c`, over `p` members and `rows` rows. There is none
/// below two non-roots or without a row to cut, and there the tree
/// answers instead.
fn large_or_tree(c: &Collective, p: u32, rows: usize) -> &Plan {
    let large = c.plan(Schedule::Large);
    assert_eq!(large.is_some(), p >= 3 && rows > 0, "p={p} rows={rows}");
    large.unwrap_or_else(|| {
        c.plan(Schedule::Tree)
            .expect("the tree is always a candidate")
    })
}

/// The sparse plan of `c`, built with supports over two members and a row.
fn sparse_of(c: &Collective) -> &Plan {
    c.plan(Schedule::Sparse)
        .expect("supports, two members and a row")
}

/// (a) One association: the large reduce and the tree reduce return the
/// same bits on non-integer data, for every group size, root and shape.
/// The pick is forced onto each side by a cost model and compared with
/// the other candidate. Where there is no large candidate (two members,
/// no rows) both sides are the tree.
#[test]
fn large_reduce_equals_tree_reduce_bit_for_bit() {
    for p in 2u32..=33 {
        let plans = row_counts(p).map(|rows| Collective::reduce(p as usize, rows, None));
        let large = (plans.iter().zip(row_counts(p))).map(|(c, rows)| large_or_tree(c, p, rows));
        let large: Vec<&Plan> = large.collect();
        for cost in [WIRE_BOUND, LATENCY_BOUND] {
            let report = Machine::new(p).with_cost(cost).run(|ctx| {
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
                        for ((rows, plans), large) in
                            row_counts(p).into_iter().zip(&plans).zip(&large)
                        {
                            let data = member_vector(ctx.rank(), rows * stride);
                            let picked = plans.pick(stride, &cost);
                            let got = reduce_to_root(ctx, &g, root, data.clone(), picked, stride);
                            let other = if cost == WIRE_BOUND {
                                g.reduce_sum(ctx, root, data)
                            } else {
                                reduce_to_root(ctx, &g, root, data, large, stride)
                            };
                            if got.is_some() != (g.my_idx() == root)
                                || got.as_deref().map(bits) != other.as_deref().map(bits)
                            {
                                mismatches.push((root, rows, stride));
                            }
                            took_large |= picked.schedule() == Some(Schedule::Large);
                        }
                    }
                }
                (took_large, mismatches)
            });
            // The pick really was on each side.
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
/// Where there is no large candidate (two members, no rows) the tree
/// hands every member the root's buffer instead.
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
                let plans = Collective::broadcast(p as usize, rows, None);
                let plan = large_or_tree(&plans, p, rows);
                let run = |shared: bool| {
                    Machine::new(p).run(|ctx| {
                        let g = Group::world(ctx);
                        let data =
                            (g.my_idx() == root).then(|| member_vector(ctx.rank(), rows * stride));
                        if shared {
                            run_plan(ctx, &g, root, data.unwrap_or_default(), plan, stride)
                        } else {
                            Arc::new(broadcast_large_owned(&g, ctx, root, data, rows, stride))
                        }
                    })
                };
                let shared = run(true);
                let want = member_vector(root as u32, rows * stride);
                for s in &shared.results {
                    assert!(
                        Arc::ptr_eq(s, &shared.results[root]),
                        "a copy was assembled"
                    );
                    assert_eq!(bits(s), bits(&want));
                }
                if plan.schedule() == Some(Schedule::Tree) {
                    continue;
                }
                let owned = run(false);
                for o in &owned.results {
                    assert_eq!(bits(o), bits(&want), "the schedule lost a row");
                }
                assert_eq!(shared.stats.ranks, owned.stats.ranks, "p={p} root={root}");
            }
        }
    }
}

/// (d) The selection rule against the simulator: under the default cost
/// model the schedule it picks finishes no later than the one it
/// rejected, exactly, for every group size and payload.
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
            let root_data = |g: &Group| (g.my_idx() == 0).then(|| vec![1.0; rows]);
            // No rows, no large candidate: both sides are the tree.
            let plans = [
                Collective::broadcast(p as usize, rows, None),
                Collective::reduce(p as usize, rows, None),
            ];
            let [blarge, rlarge] = [0, 1].map(|i| large_or_tree(&plans[i], p, rows));
            let bcast = [
                makespan(p, &|ctx, g| drop(g.broadcast(ctx, 0, root_data(g)))),
                makespan(p, &|ctx, g| {
                    let data = root_data(g).unwrap_or_default();
                    drop(run_plan(ctx, g, 0, data, blarge, 1))
                }),
            ];
            let reduce = [
                makespan(p, &|ctx, g| drop(g.reduce_sum(ctx, 0, vec![1.0; rows]))),
                makespan(p, &|ctx, g| {
                    drop(run_plan(ctx, g, 0, vec![1.0; rows], rlarge, 1))
                }),
            ];
            let [bpick, rpick] = [0, 1].map(|i| plans[i].pick(1, &cost).schedule());
            for (what, [tree, large], picked) in
                [("broadcast", bcast, bpick), ("reduce", reduce, rpick)]
            {
                let (taken, rejected) = match picked {
                    Some(Schedule::Tree) => (tree, large),
                    Some(Schedule::Large) => (large, tree),
                    _ => unreachable!("no supports, no sparse schedule"),
                };
                assert!(
                    taken <= rejected,
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
        // Per (rows, mode): the supports and the two collectives over them.
        let shapes: Vec<_> = [1usize, 7, 23]
            .into_iter()
            .flat_map(|rows| (0..3).map(move |mode| (rows, mode, supports(size, rows, mode))))
            .map(|(rows, mode, sup)| {
                let (bcast, reduce) = (
                    Collective::broadcast(size, rows, Some(&sup)),
                    Collective::reduce(size, rows, Some(&sup)),
                );
                (rows, mode, sup, bcast, reduce)
            })
            .collect();
        let report = Machine::new(p).with_cost(WIRE_BOUND).run(|ctx| {
            let g = Group::world(ctx);
            // Collected, not asserted (see (a)).
            let mut mismatches = Vec::new();
            for root in [0, size - 1] {
                let vr = (g.my_idx() + size - root) % size;
                for stride in [1usize, 3, 16] {
                    for &(rows, mode, ref sup, ref bcast, ref reduce) in &shapes {
                        let data = reduced_vector(ctx.rank(), vr, rows, stride, sup);
                        let got =
                            reduce_to_root(ctx, &g, root, data.clone(), sparse_of(reduce), stride);
                        let tree = g.reduce_sum(ctx, root, data.clone());
                        // Two members: no large candidate, the tree again.
                        let large = large_or_tree(reduce, p, rows);
                        let large = reduce_to_root(ctx, &g, root, data, large, stride);
                        if got.as_deref().map(bits) != tree.as_deref().map(bits)
                            || got.as_deref().map(bits) != large.as_deref().map(bits)
                        {
                            mismatches.push(("reduce", root, stride, rows, mode));
                        }
                        let whole = planted(g.member(root), rows, stride, None);
                        let data = if vr == 0 { whole.clone() } else { Vec::new() };
                        let got = run_plan(ctx, &g, root, data, sparse_of(bcast), stride);
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
            mismatches
        });
        for mismatches in report.results {
            assert_eq!(mismatches, [], "p = {p}: (op, root, stride, rows, mode)");
        }
    }
}

/// Every (root, stride, rows, mode) the lockstep and selection sweeps
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

/// Bytes sent and received, messages sent and received.
type Traffic = (u64, u64, u64, u64);

fn charged(s: &RankStats) -> Traffic {
    (s.sent_bytes, s.recv_bytes, s.sent_msgs, s.recv_msgs)
}

fn add(a: Traffic, b: Traffic) -> Traffic {
    (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3 + b.3)
}

/// What each member of `plan` is charged when it runs alone: the dry walk
/// of a one-step list, by member.
fn alone(plan: &Plan, stride: usize) -> Vec<Traffic> {
    let ranks = plan.alone(stride, &CostModel::default()).ranks;
    ranks.iter().map(charged).collect()
}

/// (c) Lockstep, dense: what each member's tree or large plan is charged
/// in the dry walk ([`Plan::alone`]) is what the machine charged it when the
/// interpreter ran that plan, alone — for p ∈ 1..=33, three cost models
/// and three roots. Tree and Large each ran.
#[test]
fn closed_form_costs_match_the_accounting() {
    let mut ran = Vec::new();
    for p in 1u32..=33 {
        let size = p as usize;
        for cost in [WIRE_BOUND, LATENCY_BOUND, CostModel::default()] {
            let machine = Machine::new(p).with_cost(cost);
            for root in [0, size / 2, size - 1] {
                for (rows, stride) in [(0usize, 4usize), (5, 0), (1, 16), (23, 3), (4096, 16)] {
                    let bcast = Collective::broadcast(size, rows, None);
                    let reduce = Collective::reduce(size, rows, None);
                    let (bplan, rplan) = (bcast.pick(stride, &cost), reduce.pick(stride, &cost));
                    let b = machine.run(|ctx| {
                        let g = Group::world(ctx);
                        let data = vec![0.5; if g.my_idx() == root { rows * stride } else { 0 }];
                        run_plan(ctx, &g, root, data, bplan, stride);
                    });
                    let r = machine.run(|ctx| {
                        let g = Group::world(ctx);
                        run_plan(ctx, &g, root, vec![0.5; rows * stride], rplan, stride);
                    });
                    for (what, plan, report) in [("broadcast", bplan, &b), ("reduce", rplan, &r)] {
                        ran.push(plan.schedule());
                        let want = alone(plan, stride);
                        for (rank, stats) in report.stats.ranks.iter().enumerate() {
                            assert_eq!(
                                charged(stats),
                                want[(rank + size - root) % size],
                                "{what} {:?} p={p} root={root} rank={rank} {rows}x{stride}",
                                plan.schedule()
                            );
                        }
                    }
                }
            }
        }
    }
    for schedule in [Schedule::Tree, Schedule::Large] {
        assert!(ran.contains(&Some(schedule)), "{schedule:?} never ran");
    }
}

/// (c′) Lockstep, ring: what each member's ring plan counts is what the
/// machine charged it, including row counts the size does not divide,
/// where some member moves more than `2·(p − 1)/p` of the payload.
#[test]
fn ring_allreduce_cost_matches_the_accounting() {
    let (mut ran, mut uneven) = (false, false);
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
            let plan = Plan::ring(size, rows);
            let run = Machine::new(p).run(|ctx| {
                let g = Group::world(ctx);
                run_plan(ctx, &g, 0, vec![0.5; rows * stride], &plan, stride);
            });
            let walked = alone(&plan, stride);
            for (rank, stats) in run.stats.ranks.iter().enumerate() {
                let want = walked[rank];
                assert_eq!(
                    charged(stats),
                    want,
                    "ring p={p} rank={rank} {rows}x{stride}"
                );
                let fraction = 2.0 * (p - 1) as f64 / p as f64 * (8 * rows * stride) as f64;
                uneven |= want.0 as f64 > fraction;
                ran |= want.2 + want.3 > 0;
            }
        }
    }
    assert!(uneven, "no shape split its rows unevenly");
    assert!(ran, "the ring never ran");
}

/// (f) Lockstep, with supports: over the supports of [`sparse_shapes`],
/// each member's picked plans' counts, summed over one run per cost
/// model, are what the machine charged it. Sparse ran.
#[test]
fn closed_form_costs_with_supports_match_the_accounting() {
    let mut ran = Vec::new();
    for p in 2u32..=33 {
        let size = p as usize;
        let shapes = sparse_shapes(size);
        let plans: Vec<[Collective; 2]> = shapes
            .iter()
            .map(|(_, _, rows, sup)| {
                let sup = Some(sup.as_slice());
                [
                    Collective::broadcast(size, *rows, sup),
                    Collective::reduce(size, *rows, sup),
                ]
            })
            .collect();
        for cost in [WIRE_BOUND, LATENCY_BOUND, CostModel::default()] {
            let machine = Machine::new(p).with_cost(cost);
            let bcast = machine.run(|ctx| {
                let g = Group::world(ctx);
                for ((root, stride, rows, _), [plans, _]) in shapes.iter().zip(&plans) {
                    let data =
                        (g.my_idx() == *root).then(|| planted(ctx.rank(), *rows, *stride, None));
                    let plan = plans.pick(*stride, ctx.cost());
                    run_plan(ctx, &g, *root, data.unwrap_or_default(), plan, *stride);
                }
            });
            let reduce = machine.run(|ctx| {
                let g = Group::world(ctx);
                for ((root, stride, rows, sup), [_, plans]) in shapes.iter().zip(&plans) {
                    let vr = (g.my_idx() + size - root) % size;
                    let data = reduced_vector(ctx.rank(), vr, *rows, *stride, sup);
                    let plan = plans.pick(*stride, ctx.cost());
                    run_plan(ctx, &g, *root, data, plan, *stride);
                }
            });
            let mut wants = vec![[(0, 0, 0, 0); 2]; size];
            for ((root, stride, ..), candidates) in shapes.iter().zip(&plans) {
                for (op, plans) in candidates.iter().enumerate() {
                    let plan = plans.pick(*stride, &cost);
                    ran.push(plan.schedule());
                    let walked = alone(plan, *stride);
                    for (rank, want) in wants.iter_mut().enumerate() {
                        want[op] = add(want[op], walked[(rank + size - root) % size]);
                    }
                }
            }
            for (rank, want) in wants.into_iter().enumerate() {
                for (what, report, want) in
                    [("broadcast", &bcast, want[0]), ("reduce", &reduce, want[1])]
                {
                    let got = charged(&report.stats.ranks[rank]);
                    assert_eq!(got, want, "{what} p={p} rank={rank} cost={cost:?}");
                }
            }
        }
    }
    assert!(ran.contains(&Some(Schedule::Sparse)), "Sparse never ran");
}

/// (g) The selection rule against the simulator, under the default cost
/// model: the sparse schedule is taken exactly when, run as its own plan,
/// it finishes no later than the dense pick and its busiest member moves no
/// more bytes and no more messages — never when it is slower, never when
/// it is heavier.
#[test]
fn the_sparse_schedule_is_taken_only_when_no_slower_and_no_heavier() {
    let cost = CostModel::default();
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
            let whole = |g: &Group| vec![0.5; if g.my_idx() == 0 { rows * stride } else { 0 }];
            let part = |ctx: &RankCtx, g: &Group| {
                reduced_vector(ctx.rank(), g.my_idx(), rows, stride, &sup)
            };
            // With supports, and the dense pick without them.
            let [bcast, reduce, bdense, rdense] = [
                Collective::broadcast(size, rows, Some(&sup)),
                Collective::reduce(size, rows, Some(&sup)),
                Collective::broadcast(size, rows, None),
                Collective::reduce(size, rows, None),
            ];
            let (bsparse, rsparse) = (sparse_of(&bcast), sparse_of(&reduce));
            let (bdense, rdense) = (bdense.pick(stride, &cost), rdense.pick(stride, &cost));
            for (what, picked, sparse, dense) in [
                (
                    "broadcast",
                    bcast.pick(stride, &cost).schedule(),
                    run(&|ctx, g| drop(run_plan(ctx, g, 0, whole(g), bsparse, stride))),
                    run(&|ctx, g| drop(run_plan(ctx, g, 0, whole(g), bdense, stride))),
                ),
                (
                    "reduce",
                    reduce.pick(stride, &cost).schedule(),
                    run(&|ctx, g| drop(run_plan(ctx, g, 0, part(ctx, g), rsparse, stride))),
                    run(&|ctx, g| drop(run_plan(ctx, g, 0, part(ctx, g), rdense, stride))),
                ),
            ] {
                let no_slower = sparse.0 <= dense.0;
                let (bytes_ok, msgs_ok) = (sparse.1 <= dense.1, sparse.2 <= dense.2);
                let at = format!(
                    "{what} p={p} {rows}x{stride}: sparse {sparse:?} vs dense {dense:?}, picked {picked:?}"
                );
                if picked == Some(Schedule::Sparse) {
                    assert!(no_slower && bytes_ok && msgs_ok, "{at}");
                    seen[0] += 1;
                } else {
                    assert!(!no_slower || !bytes_ok || !msgs_ok, "{at}");
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
