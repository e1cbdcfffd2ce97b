//! The refresh build and the one thread that runs it in the background
//! for the [`StreamHub`].
//!
//! A refresh is double-buffered: the hub takes a grant — the tenant's
//! base `A₀` (shared, not copied), the captured delta `ΔA` and the
//! [`RefreshTicket`] from [`Engine::prepare_refresh`], one
//! [`RefreshJob`] — and keeps serving the *old* binding plus the delta
//! overlay while [`run`] **builds the next binding's inputs** with
//! [`RefreshTicket::build`]: merge `A₀ + ΔA`, fingerprint the result,
//! and, only when the ticket asks (a deployment of more than one rank),
//! decompose it — spliced from the prior decomposition around the
//! delta's touched set when the ticket carries both, cold per the
//! ticket's policy otherwise; the engine's many-rank arm decides which.
//! On one rank the build is the merge and the hash.
//! [`HubConfig::async_refresh`] chooses the thread, not the work: on,
//! the builder thread runs [`run`] and the merged matrix and the build
//! travel back over a channel for the hub to commit at its next poll
//! point; off, the hub calls [`run`] itself and commits at once. Either
//! way the commit is [`Engine::commit_refresh`], which adopts both
//! without re-deriving either.
//!
//! The builder is one `std::thread` fed over `std::sync::mpsc`: the hub
//! grants one refresh at a time, so one thread is the whole pool. It
//! owns the job receiver and the only completion sender; completions
//! come back on that second channel, which the hub drains without
//! blocking, and which closes only once the thread is gone.
//!
//! ## Supervision
//!
//! Each job runs under `catch_unwind`. A panicking build (the
//! `worker.decompose.panic` chaos failpoint, or a real build bug) is
//! reported as a [`RefreshDone`] with `panicked = true`, and the same
//! thread takes its next job. The hub still holds the captured delta,
//! so nothing is lost: it restores the delta and requeues the grant, so
//! a panic never loses a refresh.
//!
//! [`StreamHub`]: crate::StreamHub
//! [`HubConfig::async_refresh`]: crate::HubConfig::async_refresh
//! [`Engine::prepare_refresh`]: amd_engine::Engine::prepare_refresh
//! [`Engine::commit_refresh`]: amd_engine::Engine::commit_refresh

use crate::hub::TenantId;
use amd_chaos::failpoint;
use amd_engine::{RefreshBuild, RefreshTicket};
use amd_obs::{SpanId, Stopwatch, Tracer};
use amd_sparse::{CsrMatrix, SparseError, SparseResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One build job: everything the builder needs, nothing borrowed.
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
    /// [`run`] (or its panic) made of it.
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

/// One build, on the calling thread — the builder's or, in the inline
/// mode, the hub's own: sleep the job's delay, run
/// [`RefreshTicket::build`] under one measurement, and close the
/// hub-opened "decompose" span with what the build did. `faults` are
/// the caller's failpoints, checked after the delay and inside the
/// measurement (the builder's [`builder_faults`]; the inline mode has
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
    /// Wall-clock seconds of the build itself (excluding the delay),
    /// reported on the refresh span at commit; 0 for a panicked build.
    pub build_seconds: f64,
    /// The build panicked: `result` is the panic message. The builder
    /// caught it and takes its next job; the hub must requeue (or
    /// sync-fallback) the grant.
    pub panicked: bool,
}

/// The background builder: one thread that runs every job it is sent,
/// in order, and reports each as a [`RefreshDone`] — a panicking build
/// too (see [`RefreshDone::panicked`]).
pub(crate) struct RefreshWorker {
    /// `None` only while the hub drops the worker.
    jobs: Option<Sender<RefreshJob>>,
    done: Receiver<RefreshDone>,
    /// `None` only while the hub drops the worker.
    builder: Option<JoinHandle<()>>,
}

impl RefreshWorker {
    /// Spawns the builder. It closes the hub-opened "decompose" span of
    /// the jobs it runs via `tracer`, so the refresh span tree records
    /// the off-thread work.
    pub fn spawn(tracer: Tracer) -> Self {
        let (jobs_tx, jobs) = channel::<RefreshJob>();
        let (completions, done) = channel();
        let builder = std::thread::Builder::new()
            .name("amd-refresh".into())
            .spawn(move || {
                for job in jobs {
                    // `catch_unwind` so a panicking build (injected by
                    // the chaos failpoint, or a real bug) is reported and
                    // the thread carries on. The closure only borrows, so
                    // the job survives the unwind and its ticket rides
                    // back to the hub.
                    let done =
                        match catch_unwind(AssertUnwindSafe(|| run(&job, builder_faults, &tracer)))
                        {
                            Ok((result, build_seconds)) => job.done(result, build_seconds, false),
                            Err(payload) => {
                                let msg = panic_message(payload.as_ref());
                                tracer.end_with(job.span, format!("worker panic: {msg}"));
                                let died = Err(SparseError::InvalidCsr(format!(
                                    "refresh worker panicked: {msg}"
                                )));
                                job.done(died, 0.0, true)
                            }
                        };
                    let _ = completions.send(done);
                }
            })
            .expect("spawn the refresh builder thread");
        Self {
            jobs: Some(jobs_tx),
            done,
            builder: Some(builder),
        }
    }

    /// Enqueues a job (never blocks; the hub has at most one out).
    pub fn submit(&self, job: RefreshJob) {
        if let Some(jobs) = &self.jobs {
            let _ = jobs.send(job);
        }
    }

    /// A completed job, if one is ready (non-blocking).
    pub fn try_done(&self) -> Option<RefreshDone> {
        self.done.try_recv().ok()
    }

    /// Blocks until a job completes. `None` only when nothing can ever
    /// complete: the builder owns the only completion sender, so the
    /// channel closes once its thread is gone and every completion it
    /// sent has been taken.
    pub fn wait_done(&self) -> Option<RefreshDone> {
        self.done.recv().ok()
    }
}

/// The chaos failpoints of a background build: a panicking build, a
/// slow decompose.
fn builder_faults() -> SparseResult<()> {
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
        // Closing the job queue lets the builder finish its job and exit.
        self.jobs = None;
        if let Some(builder) = self.builder.take() {
            let _ = builder.join();
        }
    }
}
