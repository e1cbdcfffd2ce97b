//! A plan's replay is the machine's clock: every candidate a collective
//! can pick from, the ring and point-to-point routes, run alone on a
//! [`Machine`], leave each rank at the very time [`Plan::replay`] gives
//! its member, bit for bit.

use amd_comm::{Collective, CostModel, Dir, Group, Machine, Plan, RankCtx, Schedule};
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

/// Per rank, its clock after `program` ran alone on `size` ranks.
fn clocks(size: usize, program: &(dyn Fn(&mut RankCtx, &Group) + Sync)) -> Vec<f64> {
    let report = Machine::new(size as u32).run(|ctx| {
        let g = Group::world(ctx);
        program(ctx, &g);
        ctx.sim_time()
    });
    report.results
}

#[test]
fn the_replay_of_every_plan_is_the_machines_clock() {
    let cost = CostModel::default();
    let (mut runs, mut mismatches, mut ran) = (0usize, Vec::new(), Vec::new());
    let mut check = |what: String, plan: &Plan, root: usize, stride: usize, ranks: Vec<f64>| {
        let (size, replay) = (ranks.len(), plan.replay(stride, &cost));
        let member = |rank: usize| replay[(rank + size - root) % size];
        runs += 1;
        if (0..size).any(|rank| ranks[rank].to_bits() != member(rank).to_bits()) {
            mismatches.push(format!("{what}: machine {ranks:?}, replay {replay:?}"));
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
            for stride in STRIDES {
                let root = (rows + stride) % size;
                let at = format!("p={size} {rows}x{stride} root={root}");
                for &(op, plan) in &candidates {
                    let ranks = clocks(size, &|ctx, g| {
                        let data = vec![0.5; rows * stride];
                        if op == 0 {
                            let data = (g.my_idx() == root).then(|| Arc::new(data));
                            g.broadcast_plan(ctx, root, data, plan, stride);
                        } else {
                            g.reduce_plan(ctx, root, data, plan, stride);
                        }
                    });
                    let what =
                        format!("{} {:?} {at}", ["broadcast", "reduce"][op], plan.schedule());
                    check(what, plan, root, stride, ranks);
                    ran.push(plan.schedule());
                }
                let ranks = clocks(size, &|ctx, g| {
                    g.allreduce_plan(ctx, vec![0.5; rows * stride], &ring, stride);
                });
                check(format!("ring {at}"), &ring, 0, stride, ranks);
                let ranks = clocks(size, &|ctx, g| {
                    let mut buf = vec![0.5; rows * stride];
                    g.exchange(ctx, 1, &routes, Dir::Recv, &mut buf, stride);
                    g.exchange(ctx, 1, &routes, Dir::Send, &mut buf, stride);
                });
                check(format!("routes {at}"), &routes, 0, stride, ranks);
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
    // An empty ring sends nothing, and its replay says so.
    assert_eq!(Plan::ring(5, 7).replay(0, &cost), [0.0; 5]);
}
