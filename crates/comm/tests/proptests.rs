//! Property tests for the message-passing machine: arbitrary communication
//! patterns must deliver exactly, deterministically, and without deadlock.

use amd_comm::{run, Group, Machine};
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
        let rings = [Plan::ring(split as usize, len), Plan::ring((p - split) as usize, len)];
        let groups: [Arc<[u32]>; 2] = [(0..split).collect(), (split..p).collect()];
        let lists: Vec<[Step; 1]> = (0..p)
            .map(|me| {
                let half = usize::from(me >= split);
                [Step::run(&rings[half], &groups[half], 0, None, 1, 1, 0)]
            })
            .collect();
        let bufs = (0..p).map(|me| [Arc::new(vec![me as f64 + 1.0; len])]).collect();
        let (_, sums) = run(&lists, 1, &CostModel::default(), bufs, |_, _| {});
        let lower: f64 = (0..split).map(|r| r as f64 + 1.0).sum();
        let upper: f64 = (split..p).map(|r| r as f64 + 1.0).sum();
        for (r, [v]) in sums.iter().enumerate() {
            let want = if (r as u32) < split { lower } else { upper };
            prop_assert!(v.iter().all(|&x| (x - want).abs() < 1e-9),
                "rank {r}: {v:?} != {want}");
        }
    }
}

// ---- The large-message broadcast and reduce (deterministic sweeps) ----

use amd_comm::{Collective, CostModel, MachineStats, Plan, RankCtx, RankStats, Schedule, Step};
use std::sync::Arc;

/// `plan` from `root` run alone as a one-step list in the one loop, on a
/// machine of `p` ranks with `cost`, rank `r` holding the `stride`-column
/// buffer `data(r)`: what each rank was charged and what its step left in
/// its buffer (a broadcast's non-root drops its own and holds what it
/// received).
fn run_plan(
    p: u32,
    root: usize,
    data: impl Fn(u32) -> Vec<f64>,
    plan: &Plan,
    stride: usize,
    cost: &CostModel,
) -> (MachineStats, Vec<Arc<Vec<f64>>>) {
    let members: Arc<[u32]> = (0..p).collect();
    let step: Step = Step::run(plan, &members, root, None, stride, 1, 0);
    let bufs = (0..p).map(|r| [Arc::new(data(r))]).collect();
    let (stats, bufs) = run(&vec![[step]; p as usize], 1, cost, bufs, |_, _| {});
    (stats, bufs.into_iter().map(|[buf]| buf).collect())
}

/// What a reduce left in every rank's buffer, as the root sees it: `Some`
/// sum at the root, `None` where a non-root's buffer was left empty.
fn reduced(bufs: Vec<Arc<Vec<f64>>>, root: usize) -> Vec<Option<Vec<f64>>> {
    (bufs.into_iter().enumerate())
        .map(|(r, sum)| (r == root || !sum.is_empty()).then(|| Arc::unwrap_or_clone(sum)))
        .collect()
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

/// [`bits`] of every rank's [`reduced`] vector.
fn all_bits(sums: &[Option<Vec<f64>>]) -> Vec<Option<Vec<u64>>> {
    sums.iter().map(|sum| sum.as_deref().map(bits)).collect()
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
/// the other candidate — on the large side with the closure tree reduce
/// ([`Group::reduce_sum`]), which runs on the machine's rank threads.
/// Where there is no large candidate (two members, no rows) both sides
/// are the tree.
#[test]
fn large_reduce_equals_tree_reduce_bit_for_bit() {
    for p in 2u32..=33 {
        let plans = row_counts(p).map(|rows| Collective::reduce(p as usize, rows, None));
        let large = (plans.iter().zip(row_counts(p))).map(|(c, rows)| large_or_tree(c, p, rows));
        let large: Vec<&Plan> = large.collect();
        // Every stride at the first and last root, one elsewhere: a root
        // only rotates the members. As (root, stride, shape).
        let mut shapes = Vec::new();
        for root in 0..p as usize {
            let corner = root == 0 || root + 1 == p as usize;
            for stride in [3usize, 1, 16].into_iter().take(if corner { 3 } else { 1 }) {
                shapes.extend((0..row_counts(p).len()).map(|i| (root, stride, i)));
            }
        }
        let data = |r: u32, i: usize, stride: usize| member_vector(r, row_counts(p)[i] * stride);
        for cost in [WIRE_BOUND, LATENCY_BOUND] {
            let closure = (cost == WIRE_BOUND).then(|| {
                let machine = Machine::new(p).with_cost(cost);
                machine
                    .run(|ctx| {
                        let g = Group::world(ctx);
                        let sums = shapes.iter().map(|&(root, stride, i)| {
                            g.reduce_sum(ctx, root, data(ctx.rank(), i, stride))
                        });
                        sums.collect::<Vec<_>>()
                    })
                    .results
            });
            let (mut took_large, mut mismatches) = (false, Vec::new());
            for (at, &(root, stride, i)) in shapes.iter().enumerate() {
                let picked = plans[i].pick(stride, &cost);
                let got = run_plan(p, root, |r| data(r, i, stride), picked, stride, &cost);
                let got = reduced(got.1, root);
                let other = match &closure {
                    Some(sums) => sums.iter().map(|sums| sums[at].clone()).collect(),
                    None => {
                        let other =
                            run_plan(p, root, |r| data(r, i, stride), large[i], stride, &cost);
                        reduced(other.1, root)
                    }
                };
                let rooted = got
                    .iter()
                    .enumerate()
                    .all(|(r, sum)| sum.is_some() == (r == root));
                if !rooted || all_bits(&got) != all_bits(&other) {
                    mismatches.push((root, row_counts(p)[i], stride));
                }
                took_large |= picked.schedule() == Some(Schedule::Large);
            }
            // The pick really was on each side.
            assert_eq!(took_large, cost == WIRE_BOUND && p >= 3, "p = {p}");
            assert_eq!(mismatches, [], "p = {p}: (root, rows, stride)");
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
    let member = |v: usize| ((v + root) % p) as u32;
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
                let data = |r: u32| (r as usize == root).then(|| member_vector(r, rows * stride));
                let cost = CostModel::default();
                let (charged, shared) = run_plan(
                    p,
                    root,
                    |r| data(r).unwrap_or_default(),
                    plan,
                    stride,
                    &cost,
                );
                let want = member_vector(root as u32, rows * stride);
                for s in &shared {
                    assert!(Arc::ptr_eq(s, &shared[root]), "a copy was assembled");
                    assert_eq!(bits(s), bits(&want));
                }
                if plan.schedule() == Some(Schedule::Tree) {
                    continue;
                }
                let owned = Machine::new(p).run(|ctx| {
                    let g = Group::world(ctx);
                    broadcast_large_owned(&g, ctx, root, data(ctx.rank()), rows, stride)
                });
                for o in &owned.results {
                    assert_eq!(bits(o), bits(&want), "the schedule lost a row");
                }
                assert_eq!(charged.ranks, owned.stats.ranks, "p={p} root={root}");
            }
        }
    }
}

/// (d) The selection rule against the simulator: under the default cost
/// model the schedule it picks finishes no later than the one it
/// rejected, exactly, for every group size and payload — the tree timed
/// by the closure collectives on the machine's rank threads, the large
/// schedule by the one loop.
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
            let alone = |plan, data: &dyn Fn(u32) -> Vec<f64>| {
                run_plan(p, 0, data, plan, 1, &cost).0.sim_time()
            };
            let bcast = [
                makespan(p, &|ctx, g| drop(g.broadcast(ctx, 0, root_data(g)))),
                alone(blarge, &|r| vec![1.0; if r == 0 { rows } else { 0 }]),
            ];
            let reduce = [
                makespan(p, &|ctx, g| drop(g.reduce_sum(ctx, 0, vec![1.0; rows]))),
                alone(rlarge, &|_| vec![1.0; rows]),
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
/// the tree and of the large reduce plans at the first and last root; and the
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
        let mut mismatches = Vec::new();
        for root in [0, size - 1] {
            let vr = |r: u32| (r as usize + size - root) % size;
            for stride in [1usize, 3, 16] {
                for &(rows, mode, ref sup, ref bcast, ref reduce) in &shapes {
                    let data = |r: u32| reduced_vector(r, vr(r), rows, stride, sup);
                    let sum =
                        |plan| reduced(run_plan(p, root, data, plan, stride, &WIRE_BOUND).1, root);
                    let got = sum(sparse_of(reduce));
                    // Two members: no large candidate, the tree again.
                    let tree = sum(reduce.plan(Schedule::Tree).expect("a tree"));
                    let large = sum(large_or_tree(reduce, p, rows));
                    if all_bits(&got) != all_bits(&tree) || all_bits(&got) != all_bits(&large) {
                        mismatches.push(("reduce", root, stride, rows, mode));
                    }
                    let whole = planted(root as u32, rows, stride, None);
                    let data = |r: u32| {
                        if vr(r) == 0 {
                            whole.clone()
                        } else {
                            Vec::new()
                        }
                    };
                    let got = run_plan(p, root, data, sparse_of(bcast), stride, &WIRE_BOUND).1;
                    for (r, got) in (0..p).zip(&got) {
                        let want = if vr(r) == 0 {
                            whole.clone()
                        } else {
                            let mut want = vec![0.0; rows * stride];
                            for &row in &sup[vr(r)] {
                                let at = row as usize * stride;
                                want[at..at + stride].copy_from_slice(&whole[at..at + stride]);
                            }
                            want
                        };
                        if bits(got) != bits(&want) {
                            mismatches.push(("broadcast", root, stride, rows, mode));
                        }
                    }
                }
            }
        }
        assert_eq!(mismatches, [], "p = {p}: (op, root, stride, rows, mode)");
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
/// in the dry walk ([`Plan::alone`]) is what the payload run charged it
/// when the runner ran that plan, alone — for p ∈ 1..=33, three cost
/// models and three roots. Tree and Large each ran.
#[test]
fn closed_form_costs_match_the_accounting() {
    let mut ran = Vec::new();
    for p in 1u32..=33 {
        let size = p as usize;
        for cost in [WIRE_BOUND, LATENCY_BOUND, CostModel::default()] {
            for root in [0, size / 2, size - 1] {
                for (rows, stride) in [(0usize, 4usize), (5, 0), (1, 16), (23, 3), (4096, 16)] {
                    let bcast = Collective::broadcast(size, rows, None);
                    let reduce = Collective::reduce(size, rows, None);
                    let (bplan, rplan) = (bcast.pick(stride, &cost), reduce.pick(stride, &cost));
                    let whole =
                        |r: u32| vec![0.5; if r as usize == root { rows * stride } else { 0 }];
                    let b = run_plan(p, root, whole, bplan, stride, &cost).0;
                    let r = run_plan(p, root, |_| vec![0.5; rows * stride], rplan, stride, &cost).0;
                    for (what, plan, report) in [("broadcast", bplan, &b), ("reduce", rplan, &r)] {
                        ran.push(plan.schedule());
                        let want = alone(plan, stride);
                        for (rank, stats) in report.ranks.iter().enumerate() {
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
/// payload run charged it, including row counts the size does not divide,
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
            let charged_by = run_plan(
                p,
                0,
                |_| vec![0.5; rows * stride],
                &plan,
                stride,
                &CostModel::default(),
            );
            let walked = alone(&plan, stride);
            for (rank, stats) in charged_by.0.ranks.iter().enumerate() {
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
/// model, are what a payload run of a list of every shape's plan charged
/// it. Sparse ran.
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
            // Every shape's picked broadcast, and then every reduce, in one
            // list per rank, shape `t` on buffer `t` under tag `t`.
            let world: Arc<[u32]> = (0..p).collect();
            let [bcast, reduce] = [0, 1].map(|op| {
                let steps = (shapes.iter().zip(&plans).enumerate()).map(
                    |(t, ((root, stride, ..), plans))| {
                        let plan = plans[op].pick(*stride, &cost);
                        Step::run(plan, &world, *root, None, *stride, t as u64, t)
                    },
                );
                let list: Vec<Step> = steps.collect();
                let bufs = (0..p)
                    .map(|r| {
                        let bufs = shapes.iter().map(|(root, stride, rows, sup)| {
                            let vr = (r as usize + size - root) % size;
                            Arc::new(match op {
                                0 if vr == 0 => planted(r, *rows, *stride, None),
                                0 => Vec::new(),
                                _ => reduced_vector(r, vr, *rows, *stride, sup),
                            })
                        });
                        bufs.collect::<Vec<_>>()
                    })
                    .collect();
                run(&vec![list; size], 1, &cost, bufs, |_, _| {}).0
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
                    let got = charged(&report.ranks[rank]);
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
            let load = |plan, data: &dyn Fn(u32) -> Vec<f64>| {
                let stats = run_plan(p, 0, data, plan, stride, &cost).0;
                (stats.sim_time(), stats.max_volume(), stats.max_messages())
            };
            let whole = |r: u32| vec![0.5; if r == 0 { rows * stride } else { 0 }];
            let part = |r: u32| reduced_vector(r, r as usize, rows, stride, &sup);
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
                    load(bsparse, &whole),
                    load(bdense, &whole),
                ),
                (
                    "reduce",
                    reduce.pick(stride, &cost).schedule(),
                    load(rsparse, &part),
                    load(rdense, &part),
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
