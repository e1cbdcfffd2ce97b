//! The hub's refresh state machine: trip → grant → build → commit.
//!
//! Every refresh — a budget trip, a manual
//! [`refresh`](StreamHub::refresh), an early rebind, the supervision
//! fallback — takes the same three steps with the same decisions:
//!
//! 1. **grant** (`StreamHub::grant`, the one place a grant is taken):
//!    capture the tenant's delta (it keeps being *served*, as an overlay
//!    on the old binding), claim the next hub-wide slot, open the
//!    `grant` event and the `decompose` span under the tenant's
//!    `refresh` span, and ask the engine for the ticket
//!    ([`Engine::prepare_refresh`](amd_engine::Engine::prepare_refresh)
//!    with the delta's touched vertices);
//! 2. **build** ([`worker::run`]): merge, fingerprint and — on more than
//!    one rank — decompose, spliced or cold as the ticket's policy says;
//! 3. **commit** ([`StreamHub::commit`], the one place a grant lands):
//!    [`Engine::commit_refresh`](amd_engine::Engine::commit_refresh),
//!    then the tenant moves to the built base, or — build error, commit
//!    rejection — gets its captured delta back and keeps serving the
//!    old binding.
//!
//! [`HubConfig::async_refresh`](crate::HubConfig::async_refresh) selects
//! the thread that runs step 2 and nothing else: a pool thread, with the
//! commit at the next poll point, or the calling thread, with the commit
//! at once. Both leave the same span tree (`refresh → grant → decompose
//! → splice|fallback`), the same counters and the same adaptive-budget
//! signal. This is the only module that names [`crate::worker`].

use crate::hub::{HubConfig, HubMetrics, InFlight, StreamHub, Tenant, TenantId};
use crate::worker::{self, RefreshDone, RefreshJob, RefreshWorker};
use amd_engine::MatrixId;
use amd_obs::{SpanId, Tracer};
use amd_sparse::{CsrMatrix, DeltaBuilder, SparseError, SparseResult};
use arrow_core::incremental::RefreshOutcome;
use std::collections::VecDeque;
use std::sync::Arc;

/// The hub's refresh bookkeeping: who waits, who builds, how many
/// grants are out.
pub(crate) struct RefreshState {
    /// FIFO of tenants waiting for a grant.
    queue: VecDeque<TenantId>,
    /// The build threads; `None` builds on the calling thread.
    worker: Option<RefreshWorker>,
    /// Grants taken and not yet landed.
    inflight: usize,
}

impl RefreshState {
    /// With `async_refresh`, stands up the worker pool.
    pub(crate) fn new(config: &HubConfig, tracer: Tracer) -> Self {
        Self {
            queue: VecDeque::new(),
            worker: config
                .async_refresh
                .then(|| RefreshWorker::spawn(config.fairness.max_inflight, tracer)),
            inflight: 0,
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
    /// Nothing landed: the worker died and supervision requeued the
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
        if let Some(f) = self.inflight.take() {
            for (r, c, v) in f.captured.iter() {
                self.delta.add(r, c, v)?;
            }
        }
        self.overlay_dirty = true;
        self.rerank_mark = 0;
        Ok(())
    }
}

/// Folds what a committed refresh's decompose did into the hub's and
/// the tenant's splice counters, the phase-latency histograms (one
/// sample per phase per refresh) and the refresh's trace span. Refreshes
/// that decomposed nothing — every one-rank refresh — have no outcome
/// and record none of this.
fn record_outcome(
    metrics: &HubMetrics,
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
    /// Queues a refresh of `tenant` and launches what the shared budget
    /// allows — in the inline mode that is this refresh, start to
    /// finish. Returns `false` when there is nothing to do: empty delta,
    /// or a refresh already pending.
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

    /// Predicted corrected-path seconds per pending delta entry on a
    /// tenant's current binding: (corrected − plan-best) / nnz(ΔA). The
    /// adaptive budget's per-entry overhead signal; 0 when prediction is
    /// unavailable (which relaxes the derived budget to its ceiling).
    fn per_entry_overhead(&self, matrix: MatrixId, delta: &CsrMatrix<f64>) -> f64 {
        let entries = delta.nnz().max(1) as f64;
        let Ok(corrected) = self.engine.predict_corrected_seconds(matrix, delta) else {
            return 0.0;
        };
        let best = self
            .engine
            .plan_report(matrix)
            .and_then(|p| p.first())
            .map(|p| p.seconds)
            .unwrap_or(corrected);
        ((corrected - best) / entries).max(0.0)
    }

    /// Grants queued refreshes while the shared budget has room, and
    /// hands each to whoever builds: the pool, or — inline mode — this
    /// thread, which then commits it before looking at the queue again.
    /// An inline refresh that fails is the caller's error.
    pub(crate) fn launch_ready(&mut self) -> SparseResult<()> {
        while self.refreshes.inflight < self.config.fairness.max_inflight.max(1) {
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
    /// build needs, at `O(nnz(ΔA))` — the delta's CSR and the touched
    /// set that localizes a re-decomposition; the merge and the hash are
    /// the build's. `None` when the delta drained meanwhile.
    fn grant(&mut self, tenant: TenantId) -> SparseResult<Option<RefreshJob>> {
        let tracer = self.engine.telemetry().tracer.clone();
        let base_delay = self.config.decompose_delay;
        let (delay, old, touched, delta_csr) = {
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
            (
                delay,
                t.matrix,
                t.delta.touched_vertices(),
                t.delta.to_csr(),
            )
        };
        let per_entry_seconds = if self.config.adaptive.is_some() {
            self.per_entry_overhead(old, &delta_csr)
        } else {
            0.0
        };
        let ticket = self.engine.prepare_refresh(old, Some(touched))?;
        self.metrics.refreshes_started.inc();
        let slot = self.metrics.refreshes_started.get();
        self.refreshes.inflight += 1;
        let t = self.tenant_mut(tenant)?;
        let n = t.base.rows();
        let captured = std::mem::replace(&mut t.delta, DeltaBuilder::new(n, n));
        t.inflight = Some(InFlight {
            captured,
            per_entry_seconds,
        });
        t.last_granted_slot = slot;
        t.rerank_mark = 0;
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
            delta: delta_csr,
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

    /// Lands the pool's finished builds (non-blocking) and launches
    /// queued work into the freed slots. Returns the swaps committed.
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

    /// Blocks for the pool's next completion; `None` when there is no
    /// pool, or nothing it could still complete.
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
        while self.tenant(tenant)?.inflight.is_some() {
            let Some(done) = self.wait_done() else {
                break;
            };
            if done.tenant == tenant {
                self.refreshes.inflight = self.refreshes.inflight.saturating_sub(1);
                // Even a grant we are about to discard must leave the
                // pool whole if its worker died producing it.
                if done.panicked {
                    self.metrics.worker_restarts.inc();
                    if let Some(w) = &mut self.refreshes.worker {
                        w.respawn_one();
                    }
                }
                let t = self.tenant_mut(tenant)?;
                t.inflight = None;
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
        while self.refreshes.inflight > 0 || !self.refreshes.queue.is_empty() {
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
    /// first if the pool is idle); `None` when nothing is pending.
    /// Returns the tenant whose swap committed — the fairness probe.
    pub fn wait_next_refresh(&mut self) -> SparseResult<Option<TenantId>> {
        self.launch_ready()?;
        if self.refreshes.inflight == 0 {
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
    /// an `Err`, because a pooled build lands at whichever unrelated
    /// call polled.
    fn commit(&mut self, done: RefreshDone) -> SparseResult<Landed> {
        self.refreshes.inflight = self.refreshes.inflight.saturating_sub(1);
        if done.panicked {
            return self.supervise_panic(done);
        }
        let tenant = done.tenant;
        let tracer = self.engine.telemetry().tracer.clone();
        let swapped = done.result.and_then(|(merged, built)| {
            let outcome = built.outcome();
            let new_id = self.engine.commit_refresh(&done.ticket, &merged, built)?;
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
        t.base = Arc::new(merged);
        let finished = t.inflight.take();
        t.retries = 0;
        t.metrics.refreshes.inc();
        t.rerank_mark = 0;
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
        if let (Some(policy), Some(f)) = (self.config.adaptive, finished) {
            let nnz = policy.retune(&mut t.budget, done.build_seconds, f.per_entry_seconds);
            t.adaptive_budget_nnz = nnz as u64;
        }
        // The budget may have tripped again mid-rebuild; honour it now
        // that the slot is free.
        if t.needs_refresh() && self.config.auto_refresh {
            self.request_refresh(tenant)?;
        }
        Ok(Landed::Swapped)
    }

    /// Supervision: a worker thread died running this grant. Respawn a
    /// replacement (the pool must never shrink), restore the captured
    /// delta so serving stays bit-exact, and either requeue the grant
    /// with exponential backoff or — past
    /// [`max_refresh_retries`](HubConfig::max_refresh_retries) — grant
    /// it again and build on this thread so the tenant still converges.
    fn supervise_panic(&mut self, done: RefreshDone) -> SparseResult<Landed> {
        let tenant = done.tenant;
        let tracer = self.engine.telemetry().tracer.clone();
        // Respawn FIRST: even when the tenant is gone, the pool must be
        // made whole before anything can wait on it again.
        self.metrics.worker_restarts.inc();
        if let Some(w) = &mut self.refreshes.worker {
            w.respawn_one();
        }
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
        if retries <= self.config.max_refresh_retries {
            self.metrics.refresh_retries.inc();
            let backoff = self
                .config
                .retry_backoff
                .saturating_mul(2u32.saturating_pow((retries - 1).min(16)));
            t.backoff = (!backoff.is_zero()).then_some(backoff);
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
        // The pool keeps dying on this grant; give up on it and build
        // here. The commit closes the refresh span.
        self.metrics.sync_fallbacks.inc();
        t.retries = 0;
        tracer.event(
            "sync-fallback",
            t.refresh_span,
            Some(tenant.0),
            format!("after {retries} worker deaths"),
        );
        match self.grant(tenant)? {
            Some(job) => self.run_inline(job),
            None => Ok(Landed::Nothing),
        }
    }
}
