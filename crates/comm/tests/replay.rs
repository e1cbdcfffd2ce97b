//! The dry walk is the payload run: every candidate a collective can pick
//! from, the ring and point-to-point routes, run alone with payloads
//! ([`run`]), leave each rank with the very stats — clock, bytes and
//! messages — the [`walk`] of a one-step list gives it, bit for bit; and
//! so do lists of many steps run with payloads, where the loop must match
//! each receive to its send by tag.

use amd_comm::{run, walk, Collective, CostModel, Dir, Plan, RankStats, Schedule, Step};
use std::sync::Arc;

const ROWS: [usize; 6] = [1, 3, 7, 31, 100, 257];
const STRIDES: [usize; 4] = [0, 1, 7, 64];

/// Root-relative supports over `rows` rows: by member `v mod 4`, none,
/// one row, every row, or every third row.
fn supports(size: usize, rows: usize) -> Vec<Vec<u32>> {
    (0..size)
        .map(|v| match v % 4 {
            0 => Vec::new(),
            1 => vec![((v * 7) % rows) as u32],
            2 => (0..rows as u32).collect(),
            _ => (0..rows as u32)
                .filter(|r| (r + v as u32).is_multiple_of(3))
                .collect(),
        })
        .collect()
}

/// Routes among `size` members over `rows`-row buffers, each from a lower
/// member to a higher one, so that receiving before sending, as a member
/// of a [`Plan::routes`] does, cannot deadlock.
fn routes(size: usize, rows: usize) -> Plan {
    let mut moves = Vec::new();
    for src in 0..size as u32 {
        for dst in (src + 1..size as u32).filter(|dst| (src * 5 + dst * 3).is_multiple_of(4)) {
            for i in 0..1 + (src + dst) as usize % rows.min(9) {
                let at = |salt: usize| ((i * 31 + salt) % rows) as u32;
                moves.push((src, dst, at(src as usize), at(dst as usize)));
            }
        }
    }
    Plan::routes(size, moves)
}

/// A stats list with every clock as its bits, so that equal means bit for
/// bit.
fn exact(ranks: &[RankStats]) -> Vec<(u64, u64, u64, u64, u64, u64)> {
    (ranks.iter())
        .map(|r| {
            let (t, c) = (r.sim_time.to_bits(), r.compute_time.to_bits());
            (r.sent_bytes, r.recv_bytes, r.sent_msgs, r.recv_msgs, t, c)
        })
        .collect()
}

#[test]
fn the_replay_of_every_plan_is_the_machines_clock() {
    let cost = CostModel::default();
    let (mut runs, mut mismatches, mut ran) = (0usize, Vec::new(), Vec::new());
    let mut check =
        |what: String, plan: &Plan, root: usize, stride: usize, ranks: Vec<RankStats>| {
            let members: Arc<[u32]> = (0..ranks.len() as u32).collect();
            let list: Vec<Vec<Step>> =
                vec![vec![Step::run(plan, &members, root, None, stride, 0, 0)]; ranks.len()];
            let walked = walk(&list, 1, &cost).0.ranks;
            runs += 1;
            if exact(&ranks) != exact(&walked) {
                mismatches.push(format!("{what}: machine {ranks:?}, walk {walked:?}"));
            }
        };
    for size in 1..=33usize {
        for rows in ROWS {
            let sup = supports(size, rows);
            let dense = [
                Collective::broadcast(size, rows, None),
                Collective::reduce(size, rows, None),
            ];
            let sparse = [
                Collective::broadcast(size, rows, Some(&sup)),
                Collective::reduce(size, rows, Some(&sup)),
            ];
            // Every candidate, as (0 broadcast | 1 reduce, plan).
            let candidates: Vec<(usize, &Plan)> = (0..2)
                .flat_map(|op| {
                    let schedules = [Schedule::Tree, Schedule::Large].map(|s| (&dense[op], s));
                    (schedules
                        .into_iter()
                        .chain([(&sparse[op], Schedule::Sparse)]))
                    .filter_map(move |(c, s)| c.plan(s).map(|plan| (op, plan)))
                })
                .collect();
            let (ring, routes) = (Plan::ring(size, rows), routes(size, rows));
            let members: Arc<[u32]> = (0..size as u32).collect();
            for stride in STRIDES {
                let root = (rows + stride) % size;
                let at = format!("p={size} {rows}x{stride} root={root}");
                // Per rank, its stats after the plan ran alone on `size`
                // ranks, as a one-step list with payloads.
                let run = |plan: &Plan, root: usize| {
                    let whole: [Step; 1] = [Step::run(plan, &members, root, None, stride, 1, 0)];
                    let bufs = vec![[Arc::new(vec![0.5; rows * stride])]; size];
                    run(&vec![whole; size], 1, &cost, bufs, |_, _| {}).0.ranks
                };
                for &(op, plan) in &candidates {
                    let what =
                        format!("{} {:?} {at}", ["broadcast", "reduce"][op], plan.schedule());
                    check(what, plan, root, stride, run(plan, root));
                    ran.push(plan.schedule());
                }
                check(format!("ring {at}"), &ring, 0, stride, run(&ring, 0));
                check(format!("routes {at}"), &routes, 0, stride, run(&routes, 0));
            }
        }
    }
    for schedule in [Schedule::Tree, Schedule::Large, Schedule::Sparse] {
        assert!(ran.contains(&Some(schedule)), "{schedule:?} never ran");
    }
    assert_eq!(
        mismatches,
        Vec::<String>::new(),
        "{} of {runs} runs",
        mismatches.len()
    );
    // An empty ring sends nothing, and its walk says so.
    let empty = Plan::ring(5, 7).alone(0, &cost).ranks;
    assert_eq!(empty, vec![RankStats::default(); 5]);
}

/// Rank `r`'s operand: `rows × stride` values that differ by rank.
fn operand(r: u32, rows: usize, stride: usize) -> Vec<f64> {
    (0..rows * stride)
        .map(|i| (i as f64 + 0.25) * f64::from(r + 1))
        .collect()
}

/// Lists of many steps on six ranks, run with payloads for three
/// iterations, and walked dry: the same stats, bit for bit. Each rank
/// sends its half of some routes from its buffer 0, runs a broadcast on
/// its half of the machine on buffer 1 and a compute, then receives its
/// half of the routes into buffer 0; and ranks 0 and 1 exchange two route
/// plans on buffer 2, rank 0 sending the first before the second and rank
/// 1 receiving the second first, so only the tags tell the walk which
/// message is which.
#[test]
fn multi_step_lists_walk_like_the_machine() {
    let (cost, iters, stride, rows) = (CostModel::default(), 3, 3, 40);
    let routes = Plan::routes(
        6,
        (0..6u32)
            .flat_map(|src| (0..6u32).map(move |dst| (src, dst)))
            .filter(|(src, dst)| src != dst && (src * 7 + dst * 3) % 4 == 1)
            .flat_map(|(src, dst)| (0..1 + (src + dst) % 5).map(move |i| (src, dst, i, i + dst)))
            .collect(),
    );
    let first = Plan::routes(2, (0..9).map(|i| (0, 1, i, i)).collect());
    let second = Plan::routes(2, (0..2).map(|i| (0, 1, i, i)).collect());
    let world: Arc<[u32]> = (0..6).collect();
    let (low, high): (Arc<[u32]>, Arc<[u32]>) = ((0..3).collect(), (3..6).collect());
    let pair: Arc<[u32]> = [0, 1].into();
    let bcast = Collective::broadcast(3, rows, None);
    let bcast = bcast.plan(Schedule::Tree).unwrap();
    let lists: Vec<Vec<Step>> = (0..6u32)
        .map(|r| {
            let half = if r < 3 { &low } else { &high };
            let mut steps = vec![
                Step::run(&routes, &world, 0, Some(Dir::Send), stride, 1, 0),
                Step::run(bcast, half, 1, None, stride, 2, 1),
                Step::Compute(f64::from(1000 * (r + 1))),
                Step::run(&routes, &world, 0, Some(Dir::Recv), stride, 1, 0),
            ];
            let dir = Some([Dir::Send, Dir::Recv][r as usize % 2]);
            let one = Step::run(&first, &pair, 0, dir, stride, 3, 2);
            let two = Step::run(&second, &pair, 0, dir, stride, 4, 2);
            match r {
                0 => steps.extend([one, two]),
                1 => steps.extend([two, one]),
                _ => {}
            }
            steps
        })
        .collect();
    let bufs = (0..6u32)
        .map(|r| {
            [(rows, stride), (rows, stride), (9, stride)]
                .map(|(rows, stride)| Arc::new(operand(r, rows, stride)))
        })
        .collect();
    let (ran, _) = run(&lists, iters, &cost, bufs, |_, _| {});
    let (walked, flops) = walk(&lists, iters, &cost);
    assert_eq!(exact(&ran.ranks), exact(&walked.ranks));
    assert_eq!(flops[5], 3.0 * 6000.0);
    // Received in the order they were sent, the pair's messages leave
    // rank 1 at another time: the walk told them apart by tag alone.
    let mut in_order = lists.clone();
    in_order[1].swap(4, 5);
    let in_order = walk(&in_order, iters, &cost).0;
    assert_ne!(in_order.ranks[1].sim_time, walked.ranks[1].sim_time);
}
