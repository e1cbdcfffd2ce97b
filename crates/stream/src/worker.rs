//! The refresh build and the pool of threads that runs it in the
//! background for the [`StreamHub`].
//!
//! A refresh is double-buffered: the hub takes a grant — the tenant's
//! base `A₀` (shared, not copied), the captured delta `ΔA` and the
//! [`RefreshTicket`] from [`Engine::prepare_refresh`], one
//! [`RefreshJob`] — and keeps serving the *old* binding plus the delta
//! overlay while [`run`] **builds the next binding's inputs** with
//! [`RefreshTicket::build`]: merge `A₀ + ΔA`, fingerprint the result,
//! and, only when the ticket asks (a deployment of more than one rank),
//! decompose it — splicing via
//! [`arrow_core::incremental::decompose_snapshot_incremental`] when the
//! ticket carries the prior decomposition and the touched set, cold per
//! the ticket's policy otherwise. On one rank the build is the merge
//! and the hash. [`HubConfig::async_refresh`] chooses the thread, not
//! the work: on, a pool thread runs [`run`] and the merged matrix and
//! the build (plus the measured build latency) travel back over a
//! channel for the hub to commit at its next poll point; off, the hub
//! calls [`run`] itself and commits at once. Either way the commit is
//! [`Engine::commit_refresh`], which adopts both without re-deriving
//! either.
//!
//! Workers are plain `std::thread`s talking over `crossbeam-channel`
//! MPMC endpoints: one shared job queue (so the pool size is exactly the
//! hub's shared refresh budget) and one shared completion queue the hub
//! drains without blocking.
//!
//! ## Supervision
//!
//! Each pooled job runs under `catch_unwind`. A panicking worker (the
//! `worker.decompose.panic` chaos failpoint, or a real build bug)
//! reports its death as a [`RefreshDone`] with `panicked = true` —
//! *before* its thread exits; the hub still holds the captured delta,
//! so nothing is lost. The hub then [`respawn_one`]s a replacement and
//! requeues the dead grant, so a worker death never loses a refresh and
//! never shrinks the pool. The send-before-exit ordering is what makes
//! [`wait_done`] safe: any in-flight job is observable on the
//! completion queue even if its worker is already gone.
//!
//! [`StreamHub`]: crate::StreamHub
//! [`HubConfig::async_refresh`]: crate::HubConfig::async_refresh
//! [`Engine::prepare_refresh`]: amd_engine::Engine::prepare_refresh
//! [`Engine::commit_refresh`]: amd_engine::Engine::commit_refresh
//! [`respawn_one`]: RefreshWorker::respawn_one
//! [`wait_done`]: RefreshWorker::wait_done

use crate::hub::TenantId;
use amd_chaos::failpoint;
use amd_engine::{RefreshBuild, RefreshTicket};
use amd_obs::{SpanId, Stopwatch, Tracer};
use amd_sparse::{CsrMatrix, SparseError, SparseResult};
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One build job: everything a worker needs, nothing borrowed.
pub(crate) struct RefreshJob {
    pub tenant: TenantId,
    /// The tenant's base `A₀` at launch, shared with the tenant.
    pub base: Arc<CsrMatrix<f64>>,
    /// The delta `ΔA` captured at launch.
    pub delta: CsrMatrix<f64>,
    /// Engine-issued identity + build parameters for the commit.
    pub ticket: RefreshTicket,
    /// Sleep before building: the test/bench hook for simulating a
    /// slow LA-Decompose, and the supervisor's retry backoff.
    pub delay: Option<Duration>,
    /// The hub-opened "decompose" trace span — named for the build's
    /// long step on more than one rank, and what trace consumers look
    /// for under a refresh; [`run`] closes it when the build finishes.
    pub span: SpanId,
}

impl RefreshJob {
    /// The completion of this job: the ticket rides back with what
    /// [`run`] (or the death of the thread running it) made of it.
    pub fn done(
        self,
        result: SparseResult<(CsrMatrix<f64>, RefreshBuild)>,
        build_seconds: f64,
        panicked: bool,
    ) -> RefreshDone {
        RefreshDone {
            tenant: self.tenant,
            ticket: self.ticket,
            result,
            build_seconds,
            panicked,
        }
    }
}

/// One build, on the calling thread — a pool thread's or, in the inline
/// mode, the hub's own: sleep the job's delay, run
/// [`RefreshTicket::build`] under the single build measurement (the
/// adaptive budget reads it off [`RefreshDone`]), and close the
/// hub-opened "decompose" span with what the build did. `faults` are
/// the caller's failpoints, checked after the delay and inside the
/// measurement (a pool thread's [`pool_faults`]; the inline mode has
/// none): an injected error stands in for the build's. Returns the build
/// and its wall-clock seconds, the delay excluded.
pub(crate) fn run(
    job: &RefreshJob,
    faults: fn() -> SparseResult<()>,
    tracer: &Tracer,
) -> (SparseResult<(CsrMatrix<f64>, RefreshBuild)>, f64) {
    if let Some(delay) = job.delay {
        std::thread::sleep(delay);
    }
    let sw = Stopwatch::start();
    let result = faults().and_then(|()| job.ticket.build(&job.base, &job.delta));
    let build_seconds = sw.elapsed_seconds();
    tracer.end_with(
        job.span,
        match &result {
            Ok((_, built)) => match built.outcome() {
                Some(o) if o.incremental => {
                    format!("incremental affected={}", o.affected_vertices)
                }
                Some(_) => "cold fallback".to_string(),
                None => "merged, nothing to decompose".to_string(),
            },
            Err(_) => "build error".to_string(),
        },
    );
    (result, build_seconds)
}

/// A finished job: the ticket rides along so the hub can commit without
/// having kept its own copy.
pub(crate) struct RefreshDone {
    pub tenant: TenantId,
    pub ticket: RefreshTicket,
    /// The merged matrix `A₀ + ΔA` and what the build made of it.
    pub result: SparseResult<(CsrMatrix<f64>, RefreshBuild)>,
    /// Wall-clock seconds of the build itself (excluding the test-hook
    /// delay) — the adaptive budget's latency signal; 0 for a death.
    pub build_seconds: f64,
    /// The worker thread died producing this: `result` is the panic
    /// message and the thread is gone. The hub must respawn a
    /// replacement and requeue (or sync-fallback) the grant.
    pub panicked: bool,
}

/// A pool of build threads behind a shared job queue, supervised by
/// the hub: dead workers are reported (see [`RefreshDone::panicked`])
/// and replaced via [`respawn_one`](Self::respawn_one).
pub(crate) struct RefreshWorker {
    jobs: Option<Sender<RefreshJob>>,
    /// Kept for respawns: replacement threads subscribe to the same
    /// shared job queue.
    jobs_rx: Receiver<RefreshJob>,
    done: Receiver<RefreshDone>,
    /// Kept for respawns. Consequence: the completion channel never
    /// closes from the sender side, so [`wait_done`](Self::wait_done)
    /// detects a dead pool by thread liveness instead.
    done_tx: Sender<RefreshDone>,
    tracer: Tracer,
    /// Configured pool size — [`respawn_one`](Self::respawn_one)
    /// restores the thread count to exactly this.
    size: usize,
    threads: Vec<JoinHandle<()>>,
}

impl RefreshWorker {
    /// Spawns `threads` build workers (at least one). Each closes the
    /// hub-opened "decompose" span of the jobs it runs via `tracer`, so
    /// the refresh span tree records the off-thread work.
    pub fn spawn(threads: usize, tracer: Tracer) -> Self {
        let (jobs_tx, jobs_rx) = unbounded::<RefreshJob>();
        let (done_tx, done_rx) = unbounded::<RefreshDone>();
        let mut pool = Self {
            jobs: Some(jobs_tx),
            jobs_rx,
            done: done_rx,
            done_tx,
            tracer,
            size: threads.max(1),
            threads: Vec::new(),
        };
        for _ in 0..pool.size {
            pool.spawn_thread();
        }
        pool
    }

    fn spawn_thread(&mut self) {
        let rx = self.jobs_rx.clone();
        let tx = self.done_tx.clone();
        let tracer = self.tracer.clone();
        self.threads.push(std::thread::spawn(move || {
            while let Ok(job) = rx.recv() {
                // `catch_unwind` so a panicking build (injected by the
                // chaos failpoint, or a real bug) reports its death
                // instead of silently shrinking the pool. The closure
                // only borrows, so the job survives the unwind and its
                // ticket rides back to the hub.
                let attempt = catch_unwind(AssertUnwindSafe(|| run(&job, pool_faults, &tracer)));
                match attempt {
                    Ok((result, build_seconds)) => {
                        let _ = tx.send(job.done(result, build_seconds, false));
                    }
                    Err(payload) => {
                        // This thread is dying. Report the death FIRST
                        // (the hub's supervision depends on the done
                        // message preceding the exit), then leave the
                        // unwound stack behind for good.
                        let msg = panic_message(payload.as_ref());
                        tracer.end_with(job.span, format!("worker panic: {msg}"));
                        let died = Err(SparseError::InvalidCsr(format!(
                            "refresh worker panicked: {msg}"
                        )));
                        let _ = tx.send(job.done(died, 0.0, true));
                        return;
                    }
                }
            }
        }));
    }

    /// Replaces dead threads so the pool is back at its configured
    /// size. Called by the hub when it observes a `panicked` done.
    pub fn respawn_one(&mut self) {
        self.threads.retain(|t| !t.is_finished());
        // The worker that reported this death sends its done *before*
        // it exits, so `is_finished` can still say alive here; counting
        // it would skip the replacement and leave the requeued grant in
        // a queue nobody drains. One death reported, one thread spawned
        // — unconditionally. (A momentary surplus just parks on the job
        // queue and is reaped by the next retain.)
        self.spawn_thread();
        while self.threads.len() < self.size {
            self.spawn_thread();
        }
    }

    /// Enqueues a job (never blocks — the queue is unbounded; the hub's
    /// fairness policy bounds how many are outstanding).
    pub fn submit(&self, job: RefreshJob) {
        if let Some(jobs) = &self.jobs {
            let _ = jobs.send(job);
        }
    }

    /// A completed job, if one is ready (non-blocking).
    pub fn try_done(&self) -> Option<RefreshDone> {
        self.done.try_recv()
    }

    /// Blocks until a job completes. `None` only when nothing can ever
    /// complete: every worker thread is gone *and* the completion queue
    /// is empty. That state is unreachable while the hub keeps its
    /// supervision invariant (respawn on every `panicked` done), because
    /// a dying worker always sends its done before exiting — the check
    /// is the backstop that turns an invariant violation into a clean
    /// `None` instead of a deadlock.
    pub fn wait_done(&self) -> Option<RefreshDone> {
        loop {
            if let Some(done) = self.done.try_recv() {
                return Some(done);
            }
            if self.threads.iter().all(|t| t.is_finished()) {
                // One final poll closes the race where the last
                // worker sent its done after the try_recv above.
                return self.done.try_recv();
            }
            // Bounded wait, then re-check liveness: a thread observed
            // alive above may have been mid-exit (it sends its done
            // before dying), and a one-shot check followed by a plain
            // blocking recv would sleep forever on that window.
            match self.done.recv_timeout(Duration::from_millis(50)) {
                Ok(done) => return Some(done),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }
}

/// The chaos failpoints of a pooled build: a worker death, a slow
/// decompose.
fn pool_faults() -> SparseResult<()> {
    failpoint::check(failpoint::WORKER_DECOMPOSE_PANIC)?;
    failpoint::check(failpoint::WORKER_DECOMPOSE_DELAY)
}

/// Best-effort extraction of a panic payload's message (`panic!` with a
/// format string yields `String`; a literal yields `&str`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic payload>")
}

impl Drop for RefreshWorker {
    fn drop(&mut self) {
        // Closing the job queue lets every worker drain and exit.
        self.jobs = None;
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
