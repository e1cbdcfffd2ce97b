//! An iteration as data: per rank, the ordered [`Step`]s it takes — its
//! part in a [`Plan`] on one of its buffers, or a piece of local work.
//! The list is the rank's program, and one loop runs every rank's list
//! on one clock per rank (a simulation of per-rank schedules, after
//! LogGOPSim: Hoefler, Schneider and Lumsdaine, 2010). A rank is its
//! step index, its hop index inside the current run, what it holds of
//! that run and its buffers, so a receive whose message has not arrived
//! leaves the rank waiting for its `(src, tag)` instead of blocking a
//! thread. [`run`] takes the lists with payloads: each plan goes to the
//! one runner on the buffer the step names, and each piece of work is
//! charged, then done by the caller's kernel runner, the ranks of each
//! round on the pool. [`walk`] takes the same lists in the same loop
//! without payloads, inline, and returns what [`run`] charges every
//! rank, bit for bit: both charge a message the bytes its plan says it
//! moves. The steps that run are the steps counted, because they are one
//! list, and reordering a rank's work is an edit of its list.
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
use crate::collectives::{member_index, Dir, Held, Plan};
use crate::cost::CostModel;
use crate::message::SharedRows;
use crate::rank::Clock;
use crate::stats::{MachineStats, RankStats};
use amd_exec::ExecPool;
use amd_obs::Stopwatch;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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
    /// `rank`'s index in the plan. Panics unless the plan has one step
    /// list per member: a plan of another size would index peers modulo
    /// this group's and wait on messages that go elsewhere.
    fn vr(&self, rank: u32) -> usize {
        let (members, size) = (self.plan.size(), self.members.len());
        assert_eq!(
            members, size,
            "a {members}-member plan on a {size}-member group"
        );
        (member_index(&self.members, rank) + size - self.root) % size
    }
}

/// A message in flight: `(src, tag, departure, bytes, the sender's step,
/// counted over every pass, and in a payload run the rows it carries)`.
type Message = (u32, u64, f64, usize, usize, Option<SharedRows>);

/// A rank's inbox: what was sent to it and not yet received, oldest
/// first, and the `(src, tag)` it waits for.
type Inbox = (Vec<Message>, Option<(u32, u64)>);

/// One step of a rank's list as the loop took it: the interval it held
/// the rank's clock, and, if a receive in it moved the clock forward, the
/// step `(rank, index)` that sent what it waited for and when that
/// message departed. Indices count over every pass.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: f64,
    end: f64,
    waited: Option<(u32, usize, f64)>,
}

/// One rank of a run: what the loop keeps of it between its stretches,
/// the steps it takes from one wait to the next.
#[derive(Default)]
struct Rank<B> {
    clock: Clock,
    stats: RankStats,
    flops: f64,
    /// Its step, counted over every pass, and its next hop in it.
    at: usize,
    hop: usize,
    /// In a payload run: its buffers, and what it holds of the run it is
    /// in, from its first hop to its last.
    bufs: Option<B>,
    held: Option<Held>,
    /// Its steps so far, the last one current, if the run keeps them.
    spans: Vec<Span>,
}

/// The kernel runner of a payload run: does a piece of work on a rank's
/// buffers.
type Kernel<'k, W> = &'k (dyn Fn(&W, &mut [Arc<Vec<f64>>]) + Sync);

/// One run of the loop: the lists, passes and cost model, the kernel
/// runner, whether the run keeps [`Span`]s, every rank and its inbox, and
/// the ranks that can go.
struct Loop<'l, L, W, B> {
    lists: &'l [L],
    iters: u32,
    cost: &'l CostModel,
    kernel: Kernel<'l, W>,
    traced: bool,
    ranks: Vec<Mutex<Rank<B>>>,
    inboxes: Vec<Mutex<Inbox>>,
    ready: Mutex<Ready>,
    /// Signalled when a rank can go, and when none can or will.
    wake: Condvar,
}

/// The ranks that can go, the last woken first; how many are going and
/// how many runners wait for one; and whether a stretch panicked.
#[derive(Default)]
struct Ready {
    ranks: Vec<u32>,
    going: usize,
    idle: usize,
    failed: bool,
}

/// Locks `m`, whose holder updates it whole or not at all: a panicking
/// kernel leaves it as it was.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<'p, L, W, B> Loop<'_, L, W, B>
where
    L: AsRef<[Step<'p, W>]>,
    W: Work + 'p,
    B: AsMut<[Arc<Vec<f64>>]>,
{
    /// Runs stretches of ranks that can go until none can and none is
    /// going, or a stretch panicked.
    fn work(&self) {
        let mut ready = lock(&self.ready);
        while !ready.failed {
            let Some(r) = ready.ranks.pop() else {
                if ready.going == 0 {
                    return;
                }
                ready.idle += 1;
                ready = self
                    .wake
                    .wait(ready)
                    .unwrap_or_else(PoisonError::into_inner);
                ready.idle -= 1;
                continue;
            };
            ready.going += 1;
            drop(ready);
            let stretch = Stretch(self);
            lock(&self.ranks[r as usize]).advance(r, self);
            drop(stretch);
            ready = lock(&self.ready);
        }
    }
}

impl<L, W, B> Loop<'_, L, W, B> {
    /// Puts `m` in rank `to`'s inbox; if `to` waits for it, it can go.
    fn deliver(&self, to: u32, m: Message) {
        let mut inbox = lock(&self.inboxes[to as usize]);
        let woken = inbox.1 == Some((m.0, m.1));
        inbox.0.push(m);
        if woken {
            inbox.1 = None;
            drop(inbox);
            let mut ready = lock(&self.ready);
            ready.ranks.push(to);
            if ready.idle > 0 {
                self.wake.notify_one();
            }
        }
    }
}

/// A rank's stretch, going: ends it when dropped — also when its kernel
/// panics, which then stops every runner of the loop.
struct Stretch<'s, L, W, B>(&'s Loop<'s, L, W, B>);

impl<L, W, B> Drop for Stretch<'_, L, W, B> {
    fn drop(&mut self) {
        let mut ready = lock(&self.0.ready);
        ready.going -= 1;
        ready.failed |= std::thread::panicking();
        let done = ready.failed || ready.going + ready.ranks.len() == 0;
        if done && ready.idle > 0 {
            self.0.wake.notify_all();
        }
    }
}

impl<B: AsMut<[Arc<Vec<f64>>]>> Rank<B> {
    /// Takes rank `me`'s steps from where it is until it waits for a
    /// message or has made every pass. A compute is charged its flops,
    /// then, in a payload run, handed to the kernel runner.
    fn advance<'p, L, W>(&mut self, me: u32, run: &Loop<'_, L, W, B>)
    where
        L: AsRef<[Step<'p, W>]>,
        W: Work + 'p,
    {
        let list = run.lists[me as usize].as_ref();
        while self.at < list.len() * run.iters as usize {
            if run.traced && self.spans.len() == self.at {
                let now = self.clock.now;
                let (start, end, waited) = (now, now, None);
                self.spans.push(Span { start, end, waited });
            }
            let done = match &list[self.at % list.len()] {
                Step::Compute(work) => {
                    if let Some(flops) = work.flops() {
                        self.stats.compute_time += self.clock.compute(run.cost, flops);
                        self.flops += flops;
                    }
                    if let Some(bufs) = &mut self.bufs {
                        (run.kernel)(work, bufs.as_mut());
                    }
                    true
                }
                Step::Run(step) => self.hops(me, step, run),
            };
            if run.traced {
                self.spans[self.at].end = self.clock.now;
            }
            if !done {
                return;
            }
            self.at += 1;
        }
    }

    /// Takes rank `me`'s hops of `step` from its next one, each charged
    /// the bytes its plan says it moves; in a payload run the first takes
    /// the buffer the step names and the last hands it back. Returns
    /// false if the rank waits for a message.
    fn hops<L, W>(&mut self, me: u32, step: &Run<'_>, run: &Loop<'_, L, W, B>) -> bool {
        let (plan, stride, tag) = (step.plan, step.stride, step.tag);
        let vr = step.vr(me);
        if let (Some(bufs), None) = (&mut self.bufs, &self.held) {
            let buf = std::mem::take(&mut bufs.as_mut()[step.buf]);
            self.held = Some(Held::start(plan, vr, stride, buf));
        }
        for hop in &plan.hops(vr, stride)[self.hop..] {
            let peer = step.members[(hop.peer as usize + step.root) % step.members.len()];
            match hop.dir {
                _ if step.dir.is_some_and(|d| d != hop.dir) => {}
                Dir::Send => {
                    let bytes = plan.bytes(hop, stride);
                    let depart = self.clock.send(run.cost, bytes);
                    self.stats.sent_bytes += bytes as u64;
                    self.stats.sent_msgs += 1;
                    let rows = (self.held.as_mut()).map(|h| h.send(plan, hop, stride));
                    run.deliver(peer, (me, tag, depart, bytes, self.at, rows));
                }
                Dir::Recv => {
                    let mut inbox = lock(&run.inboxes[me as usize]);
                    let Some(i) = inbox.0.iter().position(|m| (m.0, m.1) == (peer, tag)) else {
                        inbox.1 = Some((peer, tag));
                        return false;
                    };
                    let (.., depart, bytes, sent, rows) = inbox.0.remove(i);
                    drop(inbox);
                    let wait = self.clock.recv(run.cost, depart, bytes);
                    self.stats.wait_time += wait;
                    self.stats.recv_bytes += bytes as u64;
                    self.stats.recv_msgs += 1;
                    if run.traced && wait > 0.0 {
                        self.spans[self.at].waited = Some((peer, sent, depart));
                    }
                    if let (Some(held), Some(rows)) = (&mut self.held, rows) {
                        held.recv(plan, hop, stride, rows);
                    }
                }
                Dir::Keep => self.held.iter_mut().for_each(|h| h.keep(hop, stride)),
            }
            self.hop += 1;
        }
        self.hop = 0;
        if let (Some(bufs), Some(held)) = (&mut self.bufs, self.held.take()) {
            bufs.as_mut()[step.buf] = held.finish(plan, vr, stride);
        }
        true
    }
}

/// What a run found: every rank's stats and flops, and, if it kept them,
/// its [`Span`]s.
#[derive(Default)]
struct Walked {
    stats: MachineStats,
    flops: Vec<f64>,
    spans: Vec<Vec<Span>>,
}

/// The one loop that runs step lists: every rank's list (`lists[r]` is
/// rank `r`'s) `iters` times over, on the buffers `bufs` gives it (none,
/// in a dry walk), each rank on its own clock under the machine's α-β
/// rules, a receive taking the oldest message its peer sent it under the
/// step's tag that no receive took yet. A rank goes until it waits for a
/// message or ends: a stretch. A send puts its message in the receiver's
/// inbox at once, and a receiver that waited for it can go again, the
/// last woken first — on `pool`'s threads, the caller one of them, or
/// inline. Matching by `(src, tag)` in send order and the logical clocks
/// make the result independent of the schedule. Panics, naming every
/// waiting `(rank, src, tag)`, if the steps deadlock.
#[allow(clippy::too_many_arguments)]
fn drive<'p, L, W, B>(
    lists: &[L],
    iters: u32,
    cost: &CostModel,
    kernel: Kernel<'_, W>,
    traced: bool,
    bufs: impl Iterator<Item = Option<B>>,
    pool: Option<&ExecPool>,
) -> (Walked, Vec<B>)
where
    L: AsRef<[Step<'p, W>]> + Sync,
    W: Work + Sync + 'p,
    B: AsMut<[Arc<Vec<f64>>]> + Default + Send,
{
    let ranks: Vec<_> = bufs
        .map(|bufs| {
            Mutex::new(Rank {
                bufs,
                ..Rank::default()
            })
        })
        .collect();
    assert_eq!(ranks.len(), lists.len(), "one rank per list");
    let inboxes = ranks.iter().map(|_| Mutex::default()).collect();
    let ready = Mutex::new(Ready {
        ranks: (0..lists.len() as u32).rev().collect(),
        ..Ready::default()
    });
    let wake = Condvar::new();
    let run = Loop {
        lists,
        iters,
        cost,
        kernel,
        traced,
        ranks,
        inboxes,
        ready,
        wake,
    };
    match pool.map_or(1, |pool| pool.threads().min(lists.len())) {
        1 => run.work(),
        runners => pool.expect("a pool").scope(|s| {
            (1..runners).for_each(|_| s.spawn(|| run.work()));
            run.work();
        }),
    }
    let waits = run.inboxes.iter().map(|inbox| lock(inbox).1);
    let waiting: Vec<String> = (0..)
        .zip(waits)
        .filter_map(|(r, w)| w.map(|(src, tag)| format!("({r}, {src}, {tag:#x})")))
        .collect();
    assert!(
        waiting.is_empty(),
        "the steps deadlock; waiting (rank, src, tag): {}",
        waiting.join(" ")
    );
    let (mut walked, mut out) = (Walked::default(), Vec::with_capacity(lists.len()));
    for w in run.ranks {
        let w = w.into_inner().expect("no stretch panicked");
        let mut stats = w.stats;
        stats.sim_time = w.clock.now;
        walked.stats.ranks.push(stats);
        walked.flops.push(w.flops);
        walked.spans.push(w.spans);
        out.extend(w.bufs);
    }
    (walked, out)
}

/// What a payload [`run`] charges every rank for `iters` passes over its
/// steps (`steps[r]` is rank `r`'s), found without a payload: the one
/// loop with no buffers, inline. Returns every rank's [`RankStats`]
/// (`wall_seconds` is zero) and the flops it was charged. Panics, naming
/// every waiting `(rank, src, tag)`, if the steps deadlock.
pub fn walk<'p, W, L>(steps: &[L], iters: u32, cost: &CostModel) -> (MachineStats, Vec<f64>)
where
    W: Work + Sync + 'p,
    L: AsRef<[Step<'p, W>]> + Sync,
{
    let walked = trace(steps, iters, cost, false);
    (walked.stats, walked.flops)
}

/// [`walk`], keeping every rank's [`Span`] of every step if `traced`.
fn trace<'p, W, L>(steps: &[L], iters: u32, cost: &CostModel, traced: bool) -> Walked
where
    W: Work + Sync + 'p,
    L: AsRef<[Step<'p, W>]> + Sync,
{
    let none = steps.iter().map(|_| None::<[Arc<Vec<f64>>; 0]>);
    drive(steps, iters, cost, &|_, _| {}, traced, none, None).0
}

/// Runs every rank's `steps` (`steps[r]` is rank `r`'s) `iters` times
/// over on its buffers `bufs[r]`, in the one loop, on the process-wide
/// pool: a [`Run`] goes to the group's runner on the buffer it names — a
/// broadcast's root shares the buffer and every other member's is
/// replaced by what it receives, a reduce or a ring all-reduce hands the
/// buffer over and leaves the result there (nothing, on a reduce's
/// non-root), and routes send rows of it and put the rows they receive
/// there — and a [`Step::Compute`] is charged its flops, then handed to
/// `kernel` with the rank's buffers. Returns what every rank was charged,
/// the stats [`walk`] returns with the loop's wall time, and every rank's
/// buffers.
pub fn run<'p, W, L, B>(
    steps: &[L],
    iters: u32,
    cost: &CostModel,
    bufs: Vec<B>,
    kernel: impl Fn(&W, &mut [Arc<Vec<f64>>]) + Sync,
) -> (MachineStats, Vec<B>)
where
    W: Work + Sync + 'p,
    L: AsRef<[Step<'p, W>]> + Sync,
    B: AsMut<[Arc<Vec<f64>>]> + Default + Send,
{
    let (start, pool, some) = (
        Stopwatch::start(),
        amd_exec::global(),
        bufs.into_iter().map(Some),
    );
    let (mut walked, bufs) = drive(steps, iters, cost, &kernel, false, some, Some(&pool));
    walked.stats.wall_seconds = start.elapsed_seconds();
    (walked.stats, bufs)
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
    let vr = run.vr(rank);
    let hops = run.plan.hops(vr, run.stride).iter();
    (hops.filter(|h| run.dir.is_none_or(|d| h.dir == d))).all(|h| h.dir != Dir::Send)
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
pub fn order<'p, W: Work + Sync + 'p>(
    lists: &mut [Vec<Step<'p, W>>],
    cost: &CostModel,
) -> (MachineStats, Vec<f64>) {
    fill_waits(lists);
    // Path-guided: at each wait on the critical path, oldest first, the
    // rank's next charged compute that commutes with every step from the
    // wait on moves before it, and stays if the walk scores lower.
    let mut best = trace(lists, 1, cost, true);
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
            let trial = trace(lists, 1, cost, true);
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

    /// A plan of a test list, whether a rank runs it whole (a route runs
    /// in halves), and the rows of the buffer it runs on.
    type Phase = (Plan, bool, usize);

    /// 1–4 plans on `p` ranks: routes of 1–5 random rows among 4; tree,
    /// large and sparse broadcasts and reduces of 1–8 rows (a tree where
    /// there is no large plan, below three ranks); and rings of 0–8 rows.
    fn plans(p: usize, rng: &mut ChaCha8Rng) -> Vec<Phase> {
        (0..rng.gen_range(1..5))
            .map(|_| {
                let rows = rng.gen_range(1..9);
                match rng.gen_range(0..4) {
                    0 => {
                        let row = |rng: &mut ChaCha8Rng| {
                            let [from, to] = [0; 2].map(|_| rng.gen_range(0..p as u32));
                            (from, to, rng.gen_range(0..4), rng.gen_range(0..4))
                        };
                        let moves = (0..rng.gen_range(1..6)).map(|_| row(rng)).collect();
                        (Plan::routes(p, moves), false, 4)
                    }
                    1 | 2 => {
                        let support = |rng: &mut ChaCha8Rng| {
                            (0..rows as u32).filter(|_| rng.gen_bool(0.4)).collect()
                        };
                        let supports: Vec<Vec<u32>> = (0..p).map(|_| support(rng)).collect();
                        let c = match rng.gen_bool(0.5) {
                            true => Collective::broadcast(p, rows, Some(&supports)),
                            false => Collective::reduce(p, rows, Some(&supports)),
                        };
                        let schedule = [Schedule::Tree, Schedule::Large, Schedule::Sparse];
                        let schedule = schedule[rng.gen_range(0..3)];
                        let plan = c.plan(schedule).or(c.plan(Schedule::Tree));
                        (plan.expect("a tree").clone(), true, rows)
                    }
                    _ => {
                        let rows = rng.gen_range(0..9);
                        (Plan::ring(p, rows), true, rows)
                    }
                }
            })
            .collect()
    }

    /// Every rank's list over `plans` in order, phase `t` tagged `t`,
    /// rooted at rank `t % p` and on buffer `t`: a route's sending half,
    /// then its receiving half; any other plan whole. Before each phase,
    /// between a route's halves and at the end, 0–2 computes on random
    /// buffers, a quarter of them uncharged.
    fn lists<'p>(plans: &'p [Phase], p: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<Step<'p, Touch>>> {
        let members: Arc<[u32]> = (0..p as u32).collect();
        let mut id = 0;
        let mut computes = |list: &mut Vec<Step<'p, Touch>>, rng: &mut ChaCha8Rng| {
            for _ in 0..rng.gen_range(0..3) {
                id += 1;
                let flops = rng
                    .gen_bool(0.75)
                    .then(|| f64::from(rng.gen_range(1..200u32)));
                let buffers = [0; 2].map(|_| rng.gen_range(0..1 << plans.len()));
                list.push(Step::Compute(Touch { id, flops, buffers }));
            }
        };
        (0..p)
            .map(|_| {
                let mut list = Vec::new();
                for (t, (plan, whole, _)) in plans.iter().enumerate() {
                    computes(&mut list, rng);
                    let run = |dir| Step::run(plan, &members, t % p, dir, 2, t as u64, t);
                    if *whole {
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

    /// One pass over `lists` with payloads, every rank's buffer `t` the
    /// rows phase `t` runs on, two columns wide, the computes doing
    /// nothing: what each rank was charged.
    fn with_payloads(
        lists: &[Vec<Step<'_, Touch>>],
        plans: &[Phase],
        cost: &CostModel,
    ) -> Vec<RankStats> {
        let bufs = (0..lists.len())
            .map(|r| {
                (plans.iter())
                    .map(|&(.., rows)| Arc::new(vec![r as f64 + 0.5; 2 * rows]))
                    .collect()
            })
            .collect();
        let (stats, _): (_, Vec<Vec<_>>) = run(lists, 1, cost, bufs, |_, _| {});
        stats.ranks
    }

    /// Every rank's stats, each clock as its bits, so that equal means bit
    /// for bit.
    fn exact(ranks: &[RankStats]) -> Vec<[u64; 7]> {
        (ranks.iter())
            .map(|r| {
                let [t, c, w] = [r.sim_time, r.compute_time, r.wait_time].map(f64::to_bits);
                [
                    r.sent_bytes,
                    r.recv_bytes,
                    r.sent_msgs,
                    r.recv_msgs,
                    t,
                    c,
                    w,
                ]
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

        /// Random route plans, tree, large and sparse broadcasts and
        /// reduces, rings, and computes on random buffers, on 2–4 ranks.
        /// Run with payloads, the lists are charged what their walk says,
        /// bit for bit, before and after the moves. After the never-worse moves no
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
            for lists in [&built, &moved] {
                let walked = walk(lists, 1, &cost).0.ranks;
                prop_assert_eq!(exact(&with_payloads(lists, &plans, &cost)), exact(&walked));
            }
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
            prop_assert_eq!(exact(&with_payloads(&ordered, &plans, &cost)), exact(&stats.ranks));
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

    /// The same pair run with payloads, on the pool, stops the same way:
    /// no rank can go, and no watchdog is involved.
    #[test]
    #[should_panic(
        expected = "the steps deadlock; waiting (rank, src, tag): (0, 1, 0x7) (1, 0, 0x7)"
    )]
    fn a_crossed_pair_with_payloads_deadlocks_on_the_pool() {
        let swap = Plan::routes(2, vec![(0, 1, 0, 0), (1, 0, 0, 0)]);
        let pair: Arc<[u32]> = [0, 1].into();
        let crossed: [Step; 2] =
            [Dir::Recv, Dir::Send].map(|dir| Step::run(&swap, &pair, 0, Some(dir), 1, 7, 0));
        let bufs = vec![[Arc::new(vec![1.0])]; 2];
        run(
            &[crossed.clone(), crossed],
            1,
            &CostModel::default(),
            bufs,
            |_, _| {},
        );
    }

    /// Two passes over a list charge each step twice, in order, on one
    /// clock: a payload run's figures are the walk's, with each compute
    /// handed to the kernel runner once per pass.
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
        // Buffer 1 records each compute the kernel runner was handed.
        let bufs = (0..2)
            .map(|r| [Arc::new(vec![f64::from(r); 4]), Arc::default()])
            .collect();
        let (ran, bufs) = run(&lists, 2, &cost, bufs, |flops, bufs| {
            Arc::make_mut(&mut bufs[1]).push(*flops)
        });
        let (walked, flops) = walk(&lists, 2, &cost);
        assert_eq!(walked.ranks, ran.ranks);
        assert_eq!(*bufs[1][1], [10.0, 10.0]);
        // Rank 0's row 1 came from rank 1, and rank 1's row 0 from rank 0.
        assert_eq!(*bufs[0][0], [0.0, 0.0, 1.0, 1.0]);
        assert_eq!(*bufs[1][0], [0.0, 0.0, 1.0, 1.0]);
        assert_eq!(flops, [8.0, 20.0]);
        assert_eq!(walked.ranks[0].sent_bytes, 2 * 16);
    }
}
