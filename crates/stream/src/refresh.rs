//! The hub's refresh state machine: trip → grant → build → commit.
//!
//! Every refresh — a budget trip, a manual
//! [`refresh`](StreamHub::refresh), the supervision fallback — takes
//! the same three steps with the same decisions:
//!
//! 1. **grant** (`StreamHub::grant`, the one place a grant is taken):
//!    capture the tenant's delta (it keeps being *served*, as an overlay
//!    on the old binding), claim the next hub-wide slot, open the
//!    `grant` event and the `decompose` span under the tenant's
//!    `refresh` span, and ask the engine for the ticket
//!    ([`Engine::prepare_refresh`](amd_engine::Engine::prepare_refresh)
//!    with the tenant's delta, whose touched vertices only a many-rank
//!    engine collects);
//! 2. **build** ([`worker::run`]): merge, fingerprint and — on more than
//!    one rank — decompose, spliced or cold as the ticket's policy says;
//! 3. **commit** ([`StreamHub::commit`], the one place a grant lands):
//!    [`Engine::commit_refresh`](amd_engine::Engine::commit_refresh),
//!    then the tenant moves to the built base, or — build error, commit
//!    rejection — gets its captured delta back and keeps serving the
//!    old binding.
//!
//! [`HubConfig::async_refresh`](crate::HubConfig::async_refresh) selects
//! the thread that runs step 2 and nothing else: the one builder thread,
//! with the commit at the next poll point, or the calling thread, with
//! the commit at once. Both leave the same span tree (`refresh → grant →
//! decompose → splice|fallback`) and the same counters. One grant is out
//! at a time; the rest wait in a FIFO queue. This is the only module
//! that names [`crate::worker`].

use crate::hub::{HubCells, HubConfig, StreamHub, Tenant, TenantId};
use crate::worker::{self, RefreshDone, RefreshJob, RefreshWorker};
use amd_obs::{SpanId, Tracer};
use amd_sparse::{DeltaBuilder, SparseError, SparseResult};
use arrow_core::incremental::RefreshOutcome;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Panicked builds of one grant that supervision requeues before the
/// hub builds it on the calling thread instead.
const MAX_REFRESH_RETRIES: u32 = 3;

/// Backoff before the first requeue of a panicked grant, doubled per
/// consecutive retry of the same grant.
const RETRY_BACKOFF: Duration = Duration::from_millis(1);

/// The hub's refresh bookkeeping: who waits, who builds, how many
/// grants are out.
pub(crate) struct RefreshState {
    /// FIFO of tenants waiting for a grant.
    queue: VecDeque<TenantId>,
    /// The builder thread; `None` builds on the calling thread.
    worker: Option<RefreshWorker>,
    /// A grant is out and has not landed yet.
    granted: bool,
}

impl RefreshState {
    /// With `async_refresh`, stands up the builder thread.
    pub(crate) fn new(config: &HubConfig, tracer: Tracer) -> Self {
        Self {
            queue: VecDeque::new(),
            worker: config.async_refresh.then(|| RefreshWorker::spawn(tracer)),
            granted: false,
        }
    }
}

/// What became of a finished grant.
pub(crate) enum Landed {
    /// The tenant's binding swapped to the built matrix.
    Swapped,
    /// The build or the engine's commit failed with this; the tenant has
    /// its captured delta back and the old binding keeps serving.
    Failed(SparseError),
    /// Nothing landed: the build panicked and supervision requeued the
    /// grant, or the tenant was evicted meanwhile.
    Nothing,
}

impl Tenant {
    /// Closes the refresh span in progress, if any.
    fn end_refresh_span(&mut self, tracer: &Tracer, detail: impl Into<String>) {
        let span = std::mem::replace(&mut self.refresh_span, SpanId::NONE);
        tracer.end_with(span, detail.into());
    }

    /// A grant given up without a swap: the old binding never stopped
    /// serving, so fold the captured delta back into the live one and
    /// carry on.
    fn restore_captured(&mut self) -> SparseResult<()> {
        if let Some(captured) = self.captured.take() {
            for (r, c, v) in captured.iter() {
                self.delta.add(r, c, v)?;
            }
        }
        self.overlay_dirty = true;
        Ok(())
    }
}

/// Folds what a committed refresh's decompose did into the hub's and
/// the tenant's splice counters, the phase-latency histograms (one
/// sample per phase per refresh) and the refresh's trace span. Refreshes
/// that decomposed nothing — every one-rank refresh — have no outcome
/// and record none of this.
fn record_outcome(
    metrics: &HubCells,
    t: &Tenant,
    tracer: &Tracer,
    tenant: TenantId,
    outcome: &RefreshOutcome,
) {
    metrics.splice.record(outcome);
    t.metrics.splice.record(outcome);
    metrics
        .extract_seconds
        .record_seconds(outcome.timings.extract_seconds);
    metrics
        .decompose_seconds
        .record_seconds(outcome.timings.decompose_seconds);
    metrics
        .splice_seconds
        .record_seconds(outcome.timings.splice_seconds);
    tracer.event(
        if outcome.incremental {
            "splice"
        } else {
            "fallback"
        },
        t.refresh_span,
        Some(tenant.0),
        format!(
            "affected={} total={}",
            outcome.affected_vertices, outcome.total_vertices
        ),
    );
}

impl StreamHub {
    /// Queues a refresh of `tenant` and launches it if no other grant is
    /// out — in the inline mode that is this refresh, start to finish.
    /// Returns `false` when there is nothing to do: empty delta, or a
    /// refresh already pending.
    pub(crate) fn request_refresh(&mut self, tenant: TenantId) -> SparseResult<bool> {
        let tracer = self.engine.telemetry().tracer.clone();
        let t = self.tenant_mut(tenant)?;
        if t.refresh_pending() || t.delta.is_empty() {
            return Ok(false);
        }
        // Root span of the refresh lifecycle: opened at the trip,
        // closed at commit (or failure, or eviction drain).
        t.refresh_span = tracer.start("refresh", SpanId::NONE, Some(tenant.0));
        t.queued = true;
        self.refreshes.queue.push_back(tenant);
        self.launch_ready()?;
        Ok(true)
    }

    /// Grants queued refreshes while no grant is out, and hands each to
    /// whoever builds: the builder thread, or — inline mode — this
    /// thread, which then commits it before looking at the queue again.
    /// An inline refresh that fails is the caller's error.
    pub(crate) fn launch_ready(&mut self) -> SparseResult<()> {
        while !self.refreshes.granted {
            let Some(tenant) = self.refreshes.queue.pop_front() else {
                return Ok(());
            };
            let Some(job) = self.grant(tenant)? else {
                continue;
            };
            match &self.refreshes.worker {
                Some(worker) => worker.submit(job),
                None => {
                    if let Landed::Failed(e) = self.run_inline(job)? {
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }

    /// Takes the refresh grant of a tenant that left the queue: what the
    /// build needs, at `O(nnz(ΔA))` — the delta's CSR and the engine's
    /// ticket (on more than one rank the engine reads the delta's
    /// touched set there, to localize a re-decomposition); the merge and
    /// the hash are the build's. `None` when the delta drained meanwhile.
    fn grant(&mut self, tenant: TenantId) -> SparseResult<Option<RefreshJob>> {
        let tracer = self.engine.telemetry().tracer.clone();
        let base_delay = self.config.decompose_delay;
        let (delay, old, delta) = {
            let t = self.tenant_mut(tenant)?;
            t.queued = false;
            // The supervisor's retry backoff stacks on top of the
            // test-hook delay (both are slept by the build).
            let delay = match (t.backoff.take(), base_delay) {
                (Some(b), Some(d)) => Some(b + d),
                (Some(b), None) => Some(b),
                (None, d) => d,
            };
            if t.delta.is_empty() {
                t.end_refresh_span(&tracer, "drained before launch");
                return Ok(None);
            }
            (delay, t.matrix, t.delta.to_csr())
        };
        // The tenant was found above; its delta is captured only below.
        let ticket = self
            .engine
            .prepare_refresh(old, Some(&self.tenants[&tenant.0].delta))?;
        self.metrics.refreshes_started.inc();
        let slot = self.metrics.refreshes_started.get();
        self.refreshes.granted = true;
        let t = self.tenant_mut(tenant)?;
        let n = t.base.rows();
        t.captured = Some(std::mem::replace(&mut t.delta, DeltaBuilder::new(n, n)));
        t.last_granted_slot = slot;
        // Serving switches to the captured overlay (the live delta just
        // emptied); resync before the next run.
        t.overlay_dirty = true;
        tracer.event(
            "grant",
            t.refresh_span,
            Some(tenant.0),
            format!("slot={slot}"),
        );
        Ok(Some(RefreshJob {
            tenant,
            base: Arc::clone(&t.base),
            delta,
            ticket,
            delay,
            // The decompose span travels with the job; whoever builds
            // closes it.
            span: tracer.start("decompose", t.refresh_span, Some(tenant.0)),
        }))
    }

    /// Builds a granted job on this thread and commits it.
    fn run_inline(&mut self, job: RefreshJob) -> SparseResult<Landed> {
        let tracer = self.engine.telemetry().tracer.clone();
        let (result, build_seconds) = worker::run(&job, || Ok(()), &tracer);
        self.commit(job.done(result, build_seconds, false))
    }

    /// Lands the builder's finished builds (non-blocking) and grants the
    /// next queued refresh. Returns the swaps committed.
    pub(crate) fn land_finished(&mut self) -> SparseResult<usize> {
        let mut committed = 0;
        while let Some(done) = self.refreshes.worker.as_ref().and_then(|w| w.try_done()) {
            if let Landed::Swapped = self.commit(done)? {
                committed += 1;
            }
        }
        self.launch_ready()?;
        Ok(committed)
    }

    /// Blocks for the builder's next completion; `None` when there is no
    /// builder, or nothing it could still complete.
    fn wait_done(&self) -> Option<RefreshDone> {
        self.refreshes.worker.as_ref()?.wait_done()
    }

    /// Gives up whatever grant `tenant` holds or waits for, without
    /// committing it — the first half of an eviction: a queued grant is
    /// handed back, an in-flight build is waited for and its result
    /// discarded (the binding it would swap is being torn down), and
    /// everyone else's completions commit as usual.
    pub(crate) fn drain_grant(&mut self, tenant: TenantId) -> SparseResult<()> {
        let tracer = self.engine.telemetry().tracer.clone();
        if let Some(pos) = self.refreshes.queue.iter().position(|&t| t == tenant) {
            self.refreshes.queue.remove(pos);
            let t = self.tenant_mut(tenant)?;
            t.queued = false;
            t.end_refresh_span(&tracer, "evicted while queued");
        }
        while self.tenant(tenant)?.captured.is_some() {
            let Some(done) = self.wait_done() else {
                break;
            };
            if done.tenant == tenant {
                self.refreshes.granted = false;
                // A panicked build counts even when its grant is
                // discarded.
                if done.panicked {
                    self.metrics.worker_restarts.inc();
                }
                let t = self.tenant_mut(tenant)?;
                t.captured = None;
                tracer.event("evict-drain", t.refresh_span, Some(tenant.0), String::new());
                t.end_refresh_span(&tracer, "grant drained by eviction");
            } else {
                self.commit(done)?;
            }
        }
        self.launch_ready()
    }

    /// Blocks until every queued and in-flight rebuild has committed.
    /// Returns the number of swaps committed.
    pub fn wait_refreshes(&mut self) -> SparseResult<usize> {
        let mut committed = 0;
        while self.refreshes.granted || !self.refreshes.queue.is_empty() {
            self.launch_ready()?;
            let Some(done) = self.wait_done() else {
                break;
            };
            if let Landed::Swapped = self.commit(done)? {
                committed += 1;
            }
            self.launch_ready()?;
        }
        Ok(committed)
    }

    /// Blocks until the next rebuild commits (launching queued work
    /// first if the builder is idle); `None` when nothing is pending.
    /// Returns the tenant whose swap committed — the fairness probe.
    pub fn wait_next_refresh(&mut self) -> SparseResult<Option<TenantId>> {
        self.launch_ready()?;
        if !self.refreshes.granted {
            return Ok(None);
        }
        let Some(done) = self.wait_done() else {
            return Ok(None);
        };
        let tenant = done.tenant;
        self.commit(done)?;
        self.launch_ready()?;
        Ok(Some(tenant))
    }

    /// Lands one finished grant: swap the binding to the built matrix,
    /// splice the delta accumulated during the build onto the new
    /// overlay, re-check the budget. A failure — build error or engine
    /// commit rejection — restores the tenant (captured delta folded
    /// back, old binding keeps serving) and counts into
    /// `refresh_failures`; it comes back as [`Landed::Failed`], not as
    /// an `Err`, because a background build lands at whichever unrelated
    /// call polled.
    fn commit(&mut self, done: RefreshDone) -> SparseResult<Landed> {
        self.refreshes.granted = false;
        if done.panicked {
            return self.supervise_panic(done);
        }
        let tenant = done.tenant;
        let tracer = self.engine.telemetry().tracer.clone();
        let swapped = done.result.and_then(|(merged, built)| {
            let outcome = built.outcome();
            let merged = Arc::new(merged);
            let new_id = self
                .engine
                .commit_refresh(&done.ticket, Arc::clone(&merged), built)?;
            Ok((new_id, merged, outcome))
        });
        // A completion can outlive its tenant (evicted mid-drain in a
        // degraded worker state); dropping it is the only sound move.
        let Some(t) = self.tenants.get_mut(&tenant.0) else {
            return Ok(Landed::Nothing);
        };
        let (new_id, merged, outcome) = match swapped {
            Ok(swapped) => swapped,
            Err(e) => {
                t.restore_captured()?;
                t.metrics.refresh_failures.inc();
                t.end_refresh_span(&tracer, "failed, captured delta restored");
                self.metrics.refresh_failures.inc();
                return Ok(Landed::Failed(e));
            }
        };
        self.metrics.refreshes_completed.inc();
        t.matrix = new_id;
        t.base = merged;
        t.captured = None;
        t.retries = 0;
        t.metrics.refreshes.inc();
        // Splice: the updates that arrived during the rebuild are
        // exactly the live delta; they become the new overlay.
        t.overlay_dirty = true;
        if let Some(outcome) = &outcome {
            record_outcome(&self.metrics, t, &tracer, tenant, outcome);
        }
        t.end_refresh_span(
            &tracer,
            format!("committed, build took {:.3e}s", done.build_seconds),
        );
        // The budget may have tripped again mid-rebuild; honour it now
        // that the slot is free.
        if t.needs_refresh() && self.config.auto_refresh {
            self.request_refresh(tenant)?;
        }
        Ok(Landed::Swapped)
    }

    /// Supervision: the build of this grant panicked (the builder caught
    /// it and carries on). Count it, restore the captured delta so
    /// serving stays bit-exact, and either
    /// requeue the grant with exponential backoff or — past
    /// [`MAX_REFRESH_RETRIES`] — grant it again and build on this thread
    /// so the tenant still converges.
    fn supervise_panic(&mut self, done: RefreshDone) -> SparseResult<Landed> {
        let tenant = done.tenant;
        let tracer = self.engine.telemetry().tracer.clone();
        self.metrics.worker_restarts.inc();
        let Some(t) = self.tenants.get_mut(&tenant.0) else {
            return Ok(Landed::Nothing);
        };
        let msg = match &done.result {
            Err(e) => e.to_string(),
            Ok(_) => "worker panicked".to_string(),
        };
        t.restore_captured()?;
        t.retries += 1;
        let retries = t.retries;
        tracer.event("worker-panic", t.refresh_span, Some(tenant.0), msg);
        if retries <= MAX_REFRESH_RETRIES {
            self.metrics.refresh_retries.inc();
            let backoff = RETRY_BACKOFF * 2u32.pow(retries - 1);
            t.backoff = Some(backoff);
            t.queued = true;
            tracer.event(
                "requeue",
                t.refresh_span,
                Some(tenant.0),
                format!("retry {retries} backoff={backoff:?}"),
            );
            self.refreshes.queue.push_back(tenant);
            return Ok(Landed::Nothing);
        }
        // The builder keeps panicking on this grant; give up on it and build
        // here. The commit closes the refresh span.
        self.metrics.sync_fallbacks.inc();
        t.retries = 0;
        tracer.event(
            "sync-fallback",
            t.refresh_span,
            Some(tenant.0),
            format!("after {retries} panicked builds"),
        );
        match self.grant(tenant)? {
            Some(job) => self.run_inline(job),
            None => Ok(Landed::Nothing),
        }
    }
}
