//! An iteration as data: per rank, the ordered [`Step`]s it takes — its
//! part in a [`Plan`] on one of its buffers, or a piece of local work.
//! The list is the rank's program: [`execute`] takes one rank's list,
//! hands each plan to the one runner on the buffer the step names,
//! and charges each piece of work before the caller's kernel runner does
//! it. [`walk`] reads the same lists without a machine or a payload and
//! returns what the machine charges every rank, bit for bit. The steps
//! that run are the steps counted, because they are one list, and
//! reordering a rank's work is an edit of its list.
//!
//! # Order
//!
//! [`order`] edits the lists so that local work fills the ranks' waits.
//! Two steps of a rank *commute* when neither writes a buffer the other
//! reads or writes — a run reads and writes its buffer, a piece of work
//! states its own ([`Work::buffers`]) — and only a charged compute
//! moves, only past steps it commutes with, so every buffer sees its
//! operations in their order: the answer, every message and how the
//! receives match are those of the lists as built. Two kinds of move:
//!
//! - **Never worse.** A compute moves before an earlier run in which the
//!   rank only receives. A receive costs the rank no CPU time in the α-β
//!   model and its inbound link does not look at the CPU clock, so a
//!   rank at `t₀` whose receives complete at `a` finishes the pair at
//!   `max(t₀ + c, a) ≤ max(t₀, a) + c` (rounding is monotone, so in
//!   floating point too). Every later event of the rank, its sends
//!   included, is no later, and so, message by message, no event of any
//!   rank.
//! - **Path-guided.** At each wait on the walk's critical path the rank's
//!   next compute that commutes with the steps in between moves before
//!   the waiting step, which may delay the rank's sends. A move stays
//!   only if the walk's makespan falls, or on a tie the sum of the
//!   ranks' clocks; the search stops after 32 trial walks (`TRIALS`).
use crate::collectives::{Dir, Group, Plan};
use crate::cost::CostModel;
use crate::rank::{Clock, RankCtx};
use crate::stats::{MachineStats, RankStats};
use std::sync::Arc;

/// What a [`Step::Compute`] charges, and the buffers it touches.
pub trait Work {
    /// The flops of the step, or `None` for one that only moves or
    /// reshapes the rank's buffers and is not charged.
    fn flops(&self) -> Option<f64>;

    /// The buffers the step reads and the buffers it writes, each a set
    /// with bit `b` for the buffer a [`Run::buf`] of `b` names, or `None`
    /// when it may touch any: [`order`] moves no step past it.
    fn buffers(&self) -> Option<[u64; 2]> {
        None
    }
}

/// Bare flops, for lists that are only walked: they commute with nothing.
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
    /// The start of the rank's next step.
    Step,
    /// `(to, tag, bytes)`.
    Send(u32, u64, usize),
    /// `(from, tag)`.
    Recv(u32, u64),
    Compute(f64),
}

/// Appends rank `rank`'s `steps` to `events` as the messages and charges
/// they make, each step's behind a [`Event::Step`].
fn events<W: Work>(rank: u32, steps: &[Step<'_, W>], events: &mut Vec<Event>) {
    for step in steps {
        events.push(Event::Step);
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

/// One step of a rank's list as [`walk`] took it: the interval it held
/// the rank's clock, and, if a receive in it moved the clock forward, the
/// step `(rank, index)` that sent what it waited for and when that
/// message departed. Indices count over every pass.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: f64,
    end: f64,
    waited: Option<(u32, usize, f64)>,
}

/// One rank of a [`walk`].
#[derive(Debug, Clone, Default)]
struct Walker {
    clock: Clock,
    stats: RankStats,
    flops: f64,
    /// Its steps so far, the last one current.
    spans: Vec<Span>,
    /// Its next event, counted over every pass.
    at: usize,
    /// The `(src, tag)` it waits for.
    waits: Option<(u32, u64)>,
    /// Sent to it and not yet received, oldest first: `(src, tag,
    /// departure, bytes, the sender's step)`.
    inbox: Vec<(u32, u64, f64, usize, usize)>,
}

/// What a [`walk`] found: every rank's stats and flops, and its [`Span`]s.
struct Walked {
    stats: MachineStats,
    flops: Vec<f64>,
    spans: Vec<Vec<Span>>,
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
    let walked = trace(steps, iters, cost);
    (walked.stats, walked.flops)
}

/// [`walk`], with every rank's [`Span`] of every step.
fn trace<'p, W, L>(steps: &[L], iters: u32, cost: &CostModel) -> Walked
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
                Event::Step => {
                    let now = w.clock.now;
                    let (start, end, waited) = (now, now, None);
                    w.spans.push(Span { start, end, waited });
                }
                Event::Compute(flops) => {
                    w.stats.compute_time += w.clock.compute(cost, flops);
                    w.flops += flops;
                }
                Event::Send(to, tag, bytes) => {
                    let depart = w.clock.send(cost, bytes);
                    w.stats.sent_bytes += bytes as u64;
                    w.stats.sent_msgs += 1;
                    let step = w.spans.len() - 1;
                    let peer = &mut ranks[to as usize];
                    peer.inbox.push((me, tag, depart, bytes, step));
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
                    let (.., depart, bytes, step) = w.inbox.remove(i);
                    let wait = w.clock.recv(cost, depart, bytes);
                    w.stats.wait_time += wait;
                    w.stats.recv_bytes += bytes as u64;
                    w.stats.recv_msgs += 1;
                    if wait > 0.0 {
                        w.spans.last_mut().expect("a step").waited = Some((from, step, depart));
                    }
                }
            }
            let w = &mut ranks[r];
            w.spans.last_mut().expect("a step").end = w.clock.now;
            w.at += 1;
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
    let mut spans = Vec::with_capacity(ranks.len());
    for w in ranks {
        stats.ranks.push(RankStats {
            sim_time: w.clock.now,
            ..w.stats
        });
        spans.push(w.spans);
    }
    Walked {
        stats,
        flops,
        spans,
    }
}

impl Walked {
    /// The critical path, latest step first. It starts at the last step of
    /// the rank whose clock is the makespan and goes back in time: from a
    /// step that waited for a message that departed before the time the
    /// path has reached, to the step that sent it; otherwise to the rank's
    /// previous step.
    fn critical(&self) -> Vec<(usize, usize)> {
        let last = (self.spans.iter().enumerate())
            .filter_map(|(r, spans)| Some((r, spans.len().checked_sub(1)?)))
            .max_by(|&(r, i), &(q, j)| self.spans[r][i].end.total_cmp(&self.spans[q][j].end));
        let Some(mut at) = last else {
            return Vec::new();
        };
        let (mut path, mut now) = (vec![at], f64::INFINITY);
        loop {
            let span = &self.spans[at.0][at.1];
            (at, now) = match span.waited {
                Some((from, step, depart)) if depart < now => ((from as usize, step), depart),
                _ if at.1 > 0 => ((at.0, at.1 - 1), now.min(span.start)),
                _ => return path,
            };
            path.push(at);
        }
    }

    /// The makespan, then the sum of the ranks' clocks: what [`order`]
    /// lowers.
    fn score(&self) -> (f64, f64) {
        let clocks = self.stats.ranks.iter().map(|r| r.sim_time);
        (self.stats.sim_time(), clocks.sum())
    }
}

/// The most trial walks [`order`]'s path-guided moves make.
const TRIALS: usize = 32;

/// The buffers `step` reads and writes ([`Work::buffers`]); a run reads
/// and writes its own.
fn access<W: Work>(step: &Step<'_, W>) -> Option<[u64; 2]> {
    match step {
        Step::Run(run) => Some([1 << run.buf; 2]),
        Step::Compute(work) => work.buffers(),
    }
}

/// Whether two steps of a rank commute: neither writes a buffer the
/// other reads or writes.
fn commute<W: Work>(a: &Step<'_, W>, b: &Step<'_, W>) -> bool {
    let (Some([ra, wa]), Some([rb, wb])) = (access(a), access(b)) else {
        return false;
    };
    wa & (rb | wb) == 0 && wb & (ra | wa) == 0
}

/// Whether `step` is a charged compute.
fn charged<W: Work>(step: &Step<'_, W>) -> bool {
    matches!(step, Step::Compute(work) if work.flops().is_some())
}

/// Whether rank `rank` only receives in `step`, a run.
fn receives_only<W: Work>(rank: u32, step: &Step<'_, W>) -> bool {
    let Step::Run(run) = step else {
        return false;
    };
    let vr = run.group(rank).vr(run.root);
    (run.plan.messages(vr, run.dir, run.stride)).all(|(dir, ..)| dir == Dir::Recv)
}

/// The never-worse moves ([module docs](self#order)): each charged compute
/// moves before the earliest run it reaches past runs in which the rank
/// only receives and past uncharged computes, all of which it commutes
/// with. It passes no other charged compute, so each rank's charges keep
/// their order.
fn fill_waits<W: Work>(lists: &mut [Vec<Step<'_, W>>]) {
    for (rank, list) in (0..).zip(lists.iter_mut()) {
        for j in 0..list.len() {
            if !charged(&list[j]) {
                continue;
            }
            let (mut i, mut to) = (j, j);
            while i > 0 && commute(&list[i - 1], &list[j]) {
                match &list[i - 1] {
                    run @ Step::Run(_) if receives_only(rank, run) => to = i - 1,
                    Step::Compute(work) if work.flops().is_none() => {}
                    _ => break,
                }
                i -= 1;
            }
            list[to..=j].rotate_right(1);
        }
    }
}

/// Reorders every rank's steps (`lists[r]` is rank `r`'s) so that local
/// work fills the ranks' waits, by the rule in the [module
/// docs](self#order), and returns the [`walk`] of one pass over the
/// result: first every never-worse move, then the path-guided ones, at
/// most 32 trial walks. The moves keep each buffer's operations
/// in their order, so the lists give the answer, the bytes and the
/// messages they gave, and every rank's flops.
pub fn order<'p, W: Work + 'p>(
    lists: &mut [Vec<Step<'p, W>>],
    cost: &CostModel,
) -> (MachineStats, Vec<f64>) {
    fill_waits(lists);
    // Path-guided: at each wait on the critical path, oldest first, the
    // rank's next charged compute that commutes with every step from the
    // wait on moves before it, and stays if the walk scores lower.
    let mut best = trace(lists, 1, cost);
    let (mut trials, mut tried) = (0, Vec::new());
    'search: while trials < TRIALS {
        for (r, at) in best.critical().into_iter().rev() {
            let list = &lists[r];
            if best.spans[r][at].waited.is_none() {
                continue;
            }
            let Some(j) = (at + 1..list.len())
                .find(|&j| charged(&list[j]) && list[at..j].iter().all(|s| commute(s, &list[j])))
            else {
                continue;
            };
            if tried.contains(&(r, at, j)) {
                continue;
            }
            if trials == TRIALS {
                break 'search;
            }
            trials += 1;
            lists[r][at..=j].rotate_right(1);
            let trial = trace(lists, 1, cost);
            let ((m, sum), (best_m, best_sum)) = (trial.score(), best.score());
            if m < best_m || (m == best_m && sum < best_sum) {
                best = trial;
                tried.clear();
                continue 'search;
            }
            lists[r][at..=j].rotate_left(1);
            tried.push((r, at, j));
        }
        break;
    }
    (best.stats, best.flops)
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
    use crate::collectives::{Collective, Schedule};
    use crate::machine::Machine;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Local work of a walked list: its flops if it is charged, the
    /// buffers it reads and writes, and an id that tells it apart.
    #[derive(Debug, Clone)]
    struct Touch {
        id: u64,
        flops: Option<f64>,
        buffers: [u64; 2],
    }

    impl Work for Touch {
        fn flops(&self) -> Option<f64> {
            self.flops
        }

        fn buffers(&self) -> Option<[u64; 2]> {
            Some(self.buffers)
        }
    }

    /// 1–4 plans on `p` ranks: routes of 1–5 random rows, and tree
    /// broadcasts and reduces of 1–8 rows.
    fn plans(p: usize, rng: &mut ChaCha8Rng) -> Vec<Plan> {
        let tree = |c: Collective| c.plan(Schedule::Tree).expect("a tree").clone();
        (0..rng.gen_range(1..5))
            .map(|_| match rng.gen_range(0..3) {
                0 => {
                    let row = |rng: &mut ChaCha8Rng| {
                        let [from, to] = [0; 2].map(|_| rng.gen_range(0..p as u32));
                        (from, to, rng.gen_range(0..4), rng.gen_range(0..4))
                    };
                    Plan::routes(p, (0..rng.gen_range(1..6)).map(|_| row(rng)).collect())
                }
                1 => tree(Collective::broadcast(p, rng.gen_range(1..9), None)),
                _ => tree(Collective::reduce(p, rng.gen_range(1..9), None)),
            })
            .collect()
    }

    /// Every rank's list over `plans` in order, phase `t` tagged `t` and
    /// rooted at rank `t % p`, on a random one of three buffers: a route's
    /// sending half, then its receiving half; a tree whole. Before each
    /// phase, between a route's halves and at the end, 0–2 computes on
    /// random buffers, a quarter of them uncharged.
    fn lists<'p>(plans: &'p [Plan], p: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<Step<'p, Touch>>> {
        let members: Arc<[u32]> = (0..p as u32).collect();
        let mut id = 0;
        let mut computes = |list: &mut Vec<Step<'p, Touch>>, rng: &mut ChaCha8Rng| {
            for _ in 0..rng.gen_range(0..3) {
                id += 1;
                let flops = rng
                    .gen_bool(0.75)
                    .then(|| f64::from(rng.gen_range(1..200u32)));
                let buffers = [0; 2].map(|_| rng.gen_range(0..8));
                list.push(Step::Compute(Touch { id, flops, buffers }));
            }
        };
        (0..p)
            .map(|_| {
                let mut list = Vec::new();
                for (t, plan) in plans.iter().enumerate() {
                    computes(&mut list, rng);
                    let buf = rng.gen_range(0..3);
                    let run = |dir| Step::run(plan, &members, t % p, dir, 2, t as u64, buf);
                    if plan.schedule().is_some() {
                        list.push(run(None));
                    } else {
                        list.push(run(Some(Dir::Send)));
                        computes(&mut list, rng);
                        list.push(run(Some(Dir::Recv)));
                    }
                }
                computes(&mut list, rng);
                list
            })
            .collect()
    }

    /// Every rank's bytes and messages.
    fn traffic(stats: &MachineStats) -> Vec<[u64; 4]> {
        (stats.ranks.iter())
            .map(|r| [r.sent_bytes, r.recv_bytes, r.sent_msgs, r.recv_msgs])
            .collect()
    }

    /// Whether two steps of a test list touch a buffer one of them
    /// writes: a compute its own buffers, a run its one buffer.
    fn conflict(a: &Step<'_, Touch>, b: &Step<'_, Touch>) -> bool {
        let touches = |step: &Step<'_, Touch>| match step {
            Step::Compute(touch) => touch.buffers,
            Step::Run(run) => [1 << run.buf; 2],
        };
        let ([ra, wa], [rb, wb]) = (touches(a), touches(b));
        wa & (rb | wb) != 0 || wb & (ra | wa) != 0
    }

    /// A step of a test list: a compute's id, or a run's tag and
    /// direction.
    fn key(step: &Step<'_, Touch>) -> (u64, Option<Dir>, bool) {
        match step {
            Step::Compute(touch) => (touch.id, None, false),
            Step::Run(run) => (run.tag, run.dir, true),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random route plans, tree broadcasts and reduces, and computes
        /// on random buffers, on 2–4 ranks. After the never-worse moves no
        /// rank's clock is later, over one pass or three, and every rank
        /// moves the bytes and messages it moved. After the path-guided
        /// ones too, the makespan is no higher, the traffic is the same,
        /// [`order`] returns the walk of the lists it leaves, and two steps
        /// of a rank that touch a buffer one of them writes are in the
        /// order they were.
        #[test]
        fn moves_keep_traffic_and_make_no_clock_later(p in 2usize..5, seed in any::<u64>()) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let cost = CostModel {
                alpha: 0.7,
                beta: 0.013,
                compute_rate: 3.0,
            };
            let plans = plans(p, &mut rng);
            let built = lists(&plans, p, &mut rng);
            let mut moved = built.clone();
            fill_waits(&mut moved);
            for iters in [1, 3] {
                let [before, after] = [&built, &moved].map(|lists| walk(lists, iters, &cost).0);
                prop_assert_eq!(traffic(&before), traffic(&after));
                for (r, (was, is)) in before.ranks.iter().zip(&after.ranks).enumerate() {
                    prop_assert!(
                        is.sim_time <= was.sim_time,
                        "rank {} over {} passes: {} -> {}", r, iters, was.sim_time, is.sim_time
                    );
                }
            }
            let mut ordered = built.clone();
            let (stats, _) = order(&mut ordered, &cost);
            let before = walk(&built, 1, &cost).0;
            prop_assert_eq!(&stats.ranks, &walk(&ordered, 1, &cost).0.ranks);
            prop_assert_eq!(traffic(&before), traffic(&stats));
            prop_assert!(stats.sim_time() <= before.sim_time());
            for (was, is) in built.iter().zip(&ordered) {
                let at = |step: &Step<'_, Touch>| is.iter().position(|s| key(s) == key(step));
                for (i, a) in was.iter().enumerate() {
                    for b in &was[i + 1..] {
                        if conflict(a, b) {
                            prop_assert!(at(a) < at(b), "{:?} passed {:?}", key(b), key(a));
                        }
                    }
                }
            }
        }
    }

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
