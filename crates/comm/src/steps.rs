//! An iteration as data: per rank, the ordered [`Step`]s it takes — its
//! part in a [`Plan`] on one of its buffers, or a piece of local work.
//! The list is the rank's program: [`execute`] takes one rank's list,
//! hands each plan to the one runner on the buffer the step names,
//! and charges each piece of work before the caller's kernel runner does
//! it. [`walk`] reads the same lists without a machine or a payload and
//! returns what the machine charges every rank, bit for bit. The steps
//! that run are the steps counted, because they are one list, and
//! reordering a rank's work is an edit of its list.

use crate::collectives::{Dir, Group, Plan};
use crate::cost::CostModel;
use crate::rank::{Clock, RankCtx};
use crate::stats::{MachineStats, RankStats};
use std::sync::Arc;

/// What a [`Step::Compute`] charges.
pub trait Work {
    /// The flops of the step, or `None` for one that only moves or
    /// reshapes the rank's buffers and is not charged.
    fn flops(&self) -> Option<f64>;
}

/// Bare flops, for lists that are only walked.
impl Work for f64 {
    fn flops(&self) -> Option<f64> {
        Some(*self)
    }
}

/// One step of one rank's iteration, its local work a `W`.
#[derive(Debug, Clone)]
pub enum Step<'p, W = f64> {
    Run(Run<'p>),
    /// Local work, charged its [`Work::flops`].
    Compute(W),
}

/// A rank's part in `plan`, run by the group `members` (the plan's
/// member `v` is `members[(v + root) % members.len()]`) on the rank's
/// buffer `buf`, `stride` columns wide, every message tagged `tag`; with
/// `dir`, only the plan's sends or only its receives.
#[derive(Debug, Clone)]
pub struct Run<'p> {
    pub plan: &'p Plan,
    pub members: Arc<[u32]>,
    pub root: usize,
    pub dir: Option<Dir>,
    pub stride: usize,
    pub tag: u64,
    pub buf: usize,
}

impl<'p, W> Step<'p, W> {
    /// `plan` on `members` from `root`, its steps of direction `dir` if
    /// given, on buffer `buf`: a [`Run`].
    pub fn run(
        plan: &'p Plan,
        members: &Arc<[u32]>,
        root: usize,
        dir: Option<Dir>,
        stride: usize,
        tag: u64,
        buf: usize,
    ) -> Self {
        let members = Arc::clone(members);
        Self::Run(Run {
            plan,
            members,
            root,
            dir,
            stride,
            tag,
            buf,
        })
    }
}

impl Run<'_> {
    /// `rank`'s view of the group, every message tagged. Panics unless the
    /// plan has one step list per member: a plan of another size would
    /// index peers modulo this group's and wait on messages that go
    /// elsewhere.
    fn group(&self, rank: u32) -> Group<'_> {
        let group = Group::of(self.members[..].into(), rank, self.tag);
        let (members, size) = (self.plan.size(), group.size());
        assert_eq!(
            members, size,
            "a {members}-member plan on a {size}-member group"
        );
        group
    }
}

/// Runs rank `ctx`'s `steps` `iters` times over, on its buffers `bufs`.
/// A [`Run`] goes to the group's runner on the buffer it names: a
/// broadcast's root shares the buffer and every other member's is
/// replaced by what it receives, a reduce or a ring all-reduce hands the
/// buffer over and leaves the result there (nothing, on a reduce's
/// non-root), and routes send rows of it and put the rows they receive
/// there. A [`Step::Compute`] is charged its flops, then handed to
/// `kernel` with the buffers. The clock moves as [`walk`] says it does.
pub fn execute<W: Work>(
    ctx: &mut RankCtx,
    steps: &[Step<'_, W>],
    iters: u32,
    bufs: &mut [Arc<Vec<f64>>],
    mut kernel: impl FnMut(&W, &mut [Arc<Vec<f64>>]),
) {
    for _ in 0..iters {
        for step in steps {
            match step {
                Step::Compute(work) => {
                    if let Some(flops) = work.flops() {
                        ctx.compute_flops(flops);
                    }
                    kernel(work, bufs);
                }
                Step::Run(run) => {
                    let buf = std::mem::take(&mut bufs[run.buf]);
                    let group = run.group(ctx.rank());
                    bufs[run.buf] = group.run(ctx, run.plan, run.root, run.dir, run.stride, buf);
                }
            }
        }
    }
}

/// One message or charge of a rank's steps, as [`walk`] takes them.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// `(to, tag, bytes)`.
    Send(u32, u64, usize),
    /// `(from, tag)`.
    Recv(u32, u64),
    Compute(f64),
}

/// Appends rank `rank`'s `steps` to `events` as the messages and charges
/// they make.
fn events<W: Work>(rank: u32, steps: &[Step<'_, W>], events: &mut Vec<Event>) {
    for step in steps {
        match step {
            Step::Compute(work) => events.extend(work.flops().map(Event::Compute)),
            Step::Run(run) => {
                let (members, tag) = (&run.members, run.tag);
                let vr = run.group(rank).vr(run.root);
                for (dir, peer, bytes) in run.plan.messages(vr, run.dir, run.stride) {
                    let peer = members[(peer + run.root) % members.len()];
                    events.push(match dir {
                        Dir::Send => Event::Send(peer, tag, bytes),
                        _ => Event::Recv(peer, tag),
                    });
                }
            }
        }
    }
}

/// One rank of a [`walk`].
#[derive(Debug, Clone, Default)]
struct Walker {
    clock: Clock,
    stats: RankStats,
    flops: f64,
    /// Its next event, counted over every pass.
    at: usize,
    /// The `(src, tag)` it waits for.
    waits: Option<(u32, u64)>,
    /// Sent to it and not yet received, oldest first: `(src, tag,
    /// departure, bytes)`.
    inbox: Vec<(u32, u64, f64, usize)>,
}

/// What the machine charges every rank for `iters` passes over its steps
/// (`steps[r]` is rank `r`'s), found without a machine or a payload:
/// each rank takes its steps in order on its own clock under the
/// machine's α-β rules, a receive taking the oldest message its peer sent
/// it under the step's tag that no receive took yet — how the ranks'
/// inboxes match. Returns every rank's [`RankStats`] (`wall_seconds` is
/// zero) and the flops it was charged. Panics, naming every waiting
/// `(rank, src, tag)`, if the steps deadlock.
pub fn walk<'p, W, L>(steps: &[L], iters: u32, cost: &CostModel) -> (MachineStats, Vec<f64>)
where
    W: Work + 'p,
    L: AsRef<[Step<'p, W>]>,
{
    // Every rank's events in one buffer, rank `r`'s from `starts[r]`.
    let (mut all, mut starts) = (Vec::new(), vec![0]);
    for (r, list) in (0..).zip(steps) {
        events(r, list.as_ref(), &mut all);
        starts.push(all.len());
    }
    let mut ranks = vec![Walker::default(); steps.len()];
    let mut ready: Vec<usize> = (0..steps.len()).rev().collect();
    while let Some(r) = ready.pop() {
        let (list, me) = (&all[starts[r]..starts[r + 1]], r as u32);
        while ranks[r].at < list.len() * iters as usize {
            let w = &mut ranks[r];
            match list[w.at % list.len()] {
                Event::Compute(flops) => {
                    w.stats.compute_time += w.clock.compute(cost, flops);
                    w.flops += flops;
                }
                Event::Send(to, tag, bytes) => {
                    let depart = w.clock.send(cost, bytes);
                    w.stats.sent_bytes += bytes as u64;
                    w.stats.sent_msgs += 1;
                    let peer = &mut ranks[to as usize];
                    peer.inbox.push((me, tag, depart, bytes));
                    if peer.waits == Some((me, tag)) {
                        peer.waits = None;
                        ready.push(to as usize);
                    }
                }
                Event::Recv(from, tag) => {
                    let Some(i) = w.inbox.iter().position(|m| (m.0, m.1) == (from, tag)) else {
                        w.waits = Some((from, tag));
                        break;
                    };
                    let (.., depart, bytes) = w.inbox.remove(i);
                    w.clock.recv(cost, depart, bytes);
                    w.stats.recv_bytes += bytes as u64;
                    w.stats.recv_msgs += 1;
                }
            }
            ranks[r].at += 1;
        }
    }
    let waiting: Vec<String> = (ranks.iter().enumerate())
        .filter_map(|(r, w)| w.waits.map(|(src, tag)| format!("({r}, {src}, {tag:#x})")))
        .collect();
    assert!(
        waiting.is_empty(),
        "the steps deadlock; waiting (rank, src, tag): {}",
        waiting.join(" ")
    );
    let flops = ranks.iter().map(|w| w.flops).collect();
    let mut stats = MachineStats::default();
    for w in ranks {
        stats.ranks.push(RankStats {
            sim_time: w.clock.now,
            ..w.stats
        });
    }
    (stats, flops)
}

impl Plan {
    /// What each member is charged when this plan runs alone on a
    /// `stride`-column buffer, from time zero, on a machine with `cost`:
    /// the [`walk`] of a one-step list per member, member `v` on rank `v`.
    pub fn alone(&self, stride: usize, cost: &CostModel) -> MachineStats {
        let members: Arc<[u32]> = (0..self.size() as u32).collect();
        let step: Step = Step::run(self, &members, 0, None, stride, 0, 0);
        walk(&vec![[step]; self.size()], 1, cost).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    /// Each of two ranks receives its half of a swap before it sends it.
    #[test]
    #[should_panic(
        expected = "the steps deadlock; waiting (rank, src, tag): (0, 1, 0x7) (1, 0, 0x7)"
    )]
    fn a_crossed_pair_deadlocks_and_names_every_waiter() {
        let swap = Plan::routes(2, vec![(0, 1, 0, 0), (1, 0, 0, 0)]);
        let pair: Arc<[u32]> = [0, 1].into();
        let crossed: [Step; 2] =
            [Dir::Recv, Dir::Send].map(|dir| Step::run(&swap, &pair, 0, Some(dir), 1, 7, 0));
        walk(
            &[crossed.to_vec(), crossed.to_vec()],
            1,
            &CostModel::default(),
        );
    }

    /// Two passes over a list charge each step twice, in order, on one
    /// clock: the machine's figures, with each compute handed to the
    /// kernel runner once per pass.
    #[test]
    fn passes_repeat_the_list_on_one_clock() {
        let cost = CostModel {
            alpha: 1.0,
            beta: 0.5,
            compute_rate: 2.0,
        };
        let swap = Plan::routes(2, vec![(0, 1, 0, 0), (1, 0, 1, 1)]);
        let pair: Arc<[u32]> = [0, 1].into();
        let list = |r: u32| {
            let flops = Step::Compute(f64::from(4 + 6 * r));
            let [send, recv] =
                [Dir::Send, Dir::Recv].map(|d| Step::run(&swap, &pair, 0, Some(d), 2, 3, 0));
            vec![send, flops, recv]
        };
        let lists = [list(0), list(1)];
        let report = Machine::new(2).with_cost(cost).run(|ctx| {
            let (steps, mut runs) = (&lists[ctx.rank() as usize], Vec::new());
            let mut bufs = [Arc::new(vec![f64::from(ctx.rank()); 4])];
            execute(ctx, steps, 2, &mut bufs, |flops, _| runs.push(*flops));
            (runs, bufs)
        });
        let (walked, flops) = walk(&lists, 2, &cost);
        assert_eq!(walked.ranks, report.stats.ranks);
        assert_eq!(report.results[1].0, [10.0, 10.0]);
        // Rank 0's row 1 came from rank 1, and rank 1's row 0 from rank 0.
        assert_eq!(*report.results[0].1[0], [0.0, 0.0, 1.0, 1.0]);
        assert_eq!(*report.results[1].1[0], [0.0, 0.0, 1.0, 1.0]);
        assert_eq!(flops, [8.0, 20.0]);
        assert_eq!(walked.ranks[0].sent_bytes, 2 * 16);
    }
}
