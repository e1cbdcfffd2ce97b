//! An iteration as data: per rank, the ordered [`Step`]s it takes — its
//! part in a [`Plan`], or a charge of local work. A rank program follows
//! its list through a [`Cursor`], which hands each plan to the one
//! interpreter, and [`walk`] reads the same lists without a program or a
//! payload and returns what the machine charges every rank, bit for bit.
//! The steps that run are the steps counted, because they are one list.

use crate::collectives::{Dir, Group, Plan};
use crate::cost::CostModel;
use crate::rank::{Clock, RankCtx};
use crate::stats::{MachineStats, RankStats};
use std::sync::Arc;

/// One step of one rank's iteration.
#[derive(Debug, Clone)]
pub enum Step<'p> {
    Run(Run<'p>),
    /// `flops` of local work.
    Compute(f64),
}

/// A rank's part in `plan`, run by the group `members` (the plan's
/// member `v` is `members[(v + root) % members.len()]`) on a
/// `stride`-column buffer, every message tagged `tag`; with `dir`, only
/// the plan's sends or only its receives.
#[derive(Debug, Clone)]
pub struct Run<'p> {
    pub plan: &'p Plan,
    pub members: Arc<[u32]>,
    pub root: usize,
    pub dir: Option<Dir>,
    pub stride: usize,
    pub tag: u64,
}

impl<'p> Step<'p> {
    /// `plan` on `members` from `root`, its steps of direction `dir` if
    /// given: a [`Run`].
    pub fn run(
        plan: &'p Plan,
        members: &Arc<[u32]>,
        root: usize,
        dir: Option<Dir>,
        stride: usize,
        tag: u64,
    ) -> Self {
        let members = Arc::clone(members);
        Self::Run(Run {
            plan,
            members,
            root,
            dir,
            stride,
            tag,
        })
    }
}

impl Run<'_> {
    /// `rank`'s view of the group, every message tagged.
    fn group(&self, rank: u32) -> Group<'_> {
        let group = Group::of(self.members[..].into(), rank, self.tag);
        group.check_plan(self.plan);
        group
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
fn events(rank: u32, steps: &[Step<'_>], events: &mut Vec<Event>) {
    for step in steps {
        match step {
            Step::Compute(flops) => events.push(Event::Compute(*flops)),
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
/// (`steps[r]` is rank `r`'s), found without a program or a payload:
/// each rank takes its steps in order on its own clock under the
/// machine's α-β rules, a receive taking the oldest message its peer sent
/// it under the step's tag that no receive took yet — how the ranks'
/// inboxes match. Returns every rank's [`RankStats`] (`wall_seconds` is
/// zero) and the flops it was charged. Panics, naming every waiting
/// `(rank, src, tag)`, if the steps deadlock.
pub fn walk<'p, L>(steps: &[L], iters: u32, cost: &CostModel) -> (MachineStats, Vec<f64>)
where
    L: AsRef<[Step<'p>]>,
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
        let step = Step::run(self, &members, 0, None, stride, 0);
        walk(&vec![[step]; self.size()], 1, cost).0
    }
}

/// A rank program's place in its step list, one iteration at a time.
/// Each call takes the next step, which must be of the call's kind: a
/// [`Run`] of the call's plan goes to the interpreter, its messages tagged
/// as the step says, and a [`Step::Compute`] is charged. A step of the
/// wrong kind panics, and so do steps left over at [`Cursor::end`].
pub struct Cursor<'a, 'p> {
    ctx: &'a mut RankCtx,
    steps: &'a [Step<'p>],
    at: usize,
}

impl<'a, 'p> Cursor<'a, 'p> {
    /// The rank of `ctx` at the start of its `steps`.
    pub fn new(ctx: &'a mut RankCtx, steps: &'a [Step<'p>]) -> Self {
        Self { ctx, steps, at: 0 }
    }

    /// This rank's id.
    pub fn rank(&self) -> u32 {
        self.ctx.rank()
    }

    /// The next step, of the kind `what` names, for `take` to accept.
    fn next<T>(&mut self, what: &str, take: impl Fn(&'a Step<'p>) -> Option<T>) -> T {
        let (rank, at, steps) = (self.ctx.rank(), self.at, self.steps);
        let step = (steps.get(at))
            .unwrap_or_else(|| panic!("rank {rank}: {what} after all {} steps", steps.len()));
        self.at += 1;
        let kind = match step {
            Step::Run(run) => run.plan.kind(),
            Step::Compute(_) => "a compute",
        };
        take(step).unwrap_or_else(|| panic!("rank {rank}: step {at} is {kind}, not {what}"))
    }

    /// The next step, a [`Run`] of the kind `what` names, and its group.
    fn run(&mut self, what: &str) -> (&'a Run<'p>, Group<'a>) {
        let run = self.next(what, |step| match step {
            Step::Run(run) if run.plan.kind() == what => Some(run),
            _ => None,
        });
        (run, run.group(self.ctx.rank()))
    }

    /// Charges the next step, a `Compute`.
    pub fn compute(&mut self) {
        let flops = self.next("a compute", |step| match step {
            Step::Compute(flops) => Some(*flops),
            Step::Run(_) => None,
        });
        self.ctx.compute_flops(flops);
    }

    /// Runs the next step, a broadcast ([`Group::broadcast_plan`]); the
    /// root passes its buffer.
    pub fn broadcast(&mut self, data: Option<Arc<Vec<f64>>>) -> Arc<Vec<f64>> {
        let (run, group) = self.run("a broadcast");
        group.broadcast_plan(self.ctx, run.root, data, run.plan, run.stride)
    }

    /// Runs the next step, a reduce ([`Group::reduce_plan`]).
    pub fn reduce(&mut self, data: Vec<f64>) -> Option<Vec<f64>> {
        let (run, group) = self.run("a reduce");
        group.reduce_plan(self.ctx, run.root, data, run.plan, run.stride)
    }

    /// Runs the next step, a ring all-reduce ([`Group::allreduce_plan`]).
    pub fn allreduce(&mut self, data: Vec<f64>) -> Vec<f64> {
        let (run, group) = self.run("an all-reduce");
        group.allreduce_plan(self.ctx, data, run.plan, run.stride)
    }

    /// Runs the next step, a [`Plan::routes`] or one direction of it, on
    /// the rows of `buf`: a send packs them, a receive puts them there.
    pub fn exchange(&mut self, buf: &mut Vec<f64>) {
        let (run, group) = self.run("an exchange");
        group.exchange(self.ctx, run.plan, run.dir, buf, run.stride);
    }

    /// Ends an iteration: panics unless every step was taken, and starts
    /// the list again.
    pub fn end(&mut self) {
        let (rank, left) = (self.ctx.rank(), self.steps.len() - self.at);
        assert_eq!(
            left, 0,
            "rank {rank}: steps left at the end of an iteration"
        );
        self.at = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{Collective, Schedule};
    use crate::machine::Machine;

    /// Each of two ranks receives its half of a swap before it sends it.
    #[test]
    #[should_panic(
        expected = "the steps deadlock; waiting (rank, src, tag): (0, 1, 0x7) (1, 0, 0x7)"
    )]
    fn a_crossed_pair_deadlocks_and_names_every_waiter() {
        let swap = Plan::routes(2, vec![(0, 1, 0, 0), (1, 0, 0, 0)]);
        let pair: Arc<[u32]> = [0, 1].into();
        let crossed = [Dir::Recv, Dir::Send].map(|dir| Step::run(&swap, &pair, 0, Some(dir), 1, 7));
        walk(
            &[crossed.to_vec(), crossed.to_vec()],
            1,
            &CostModel::default(),
        );
    }

    #[test]
    #[should_panic(expected = "rank 0: step 0 is a compute, not a broadcast")]
    fn a_step_of_the_wrong_kind_panics() {
        let steps = [Step::Compute(1.0)];
        Machine::new(1).run(|ctx| {
            Cursor::new(ctx, &steps).broadcast(Some(Arc::new(vec![1.0])));
        });
    }

    #[test]
    #[should_panic(expected = "rank 1: step 0 is a reduce, not a broadcast")]
    fn a_run_of_another_plan_kind_panics() {
        let reduce = Collective::reduce(2, 1, None);
        let pair: Arc<[u32]> = [0, 1].into();
        let steps = [Step::run(
            reduce.plan(Schedule::Tree).unwrap(),
            &pair,
            0,
            None,
            1,
            0,
        )];
        Machine::new(2).run(|ctx| {
            let mut steps = Cursor::new(ctx, &steps);
            match steps.rank() {
                0 => drop(steps.reduce(vec![1.0])),
                _ => drop(steps.broadcast(None)),
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank 0: steps left at the end of an iteration")]
    fn a_step_left_at_the_end_of_an_iteration_panics() {
        let steps = [Step::Compute(1.0), Step::Compute(2.0)];
        Machine::new(1).run(|ctx| {
            let mut steps = Cursor::new(ctx, &steps);
            steps.compute();
            steps.end();
        });
    }

    /// Two passes over a list charge each step twice, in order, on one
    /// clock: the machine's figures.
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
                [Dir::Send, Dir::Recv].map(|d| Step::run(&swap, &pair, 0, Some(d), 2, 3));
            vec![send, flops, recv]
        };
        let lists = [list(0), list(1)];
        let report = Machine::new(2).with_cost(cost).run(|ctx| {
            let mut steps = Cursor::new(ctx, &lists[ctx.rank() as usize]);
            let mut buf = vec![0.5; 4];
            for _ in 0..2 {
                steps.exchange(&mut buf);
                steps.compute();
                steps.exchange(&mut buf);
                steps.end();
            }
        });
        let (walked, flops) = walk(&lists, 2, &cost);
        assert_eq!(walked.ranks, report.stats.ranks);
        assert_eq!(flops, [8.0, 20.0]);
        assert_eq!(walked.ranks[0].sent_bytes, 2 * 16);
    }
}
