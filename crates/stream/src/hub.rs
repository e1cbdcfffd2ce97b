//! The multi-tenant streaming hub: many mutating matrices, one engine,
//! double-buffered background refresh.
//!
//! A [`StreamHub`] owns one [`Engine`] and a map of **tenants** — each a
//! mutating matrix with its own base `A₀`, pending delta `ΔA`, staleness
//! budget, and version lineage. Updates and queries address tenants by
//! [`TenantId`]; queries from *all* tenants share the engine's batcher.
//! Query ownership is tracked through the salted binding, so a tenant
//! can drain just its own queue
//! ([`flush_tenant`](StreamHub::flush_tenant)) while one hub-wide
//! [`flush`](StreamHub::flush) still answers everything.
//!
//! ## Lifecycle
//!
//! Tenants are not forever: [`evict`](StreamHub::evict) tears one down
//! completely — any in-flight refresh grant is drained and the salted
//! binding is deregistered from the engine, which drops its overlay and,
//! on more than one rank, releases its cache reference and removes its
//! version chain from the persistence catalog, sparing only revisions
//! another live binding still references — so a long-lived hub serving
//! a churning tenant set leaks neither memory nor spill files.
//!
//! ## Double-buffered refresh
//!
//! A refresh is grant → build → commit (the state machine lives in
//! `refresh.rs`; this module keeps tenant state, the query path and the
//! accessors). With `async_refresh` on (the default) the build runs on
//! the hub's one builder thread and a staleness refresh never stalls the
//! stream:
//!
//! ```text
//!  trip            launch                      commit (at a poll point)
//!   │                │                            │
//!   ▼                ▼                            ▼
//!  ΔA over budget → ship A₀ (shared), ΔA ─────► worker: M = A₀ + ΔA,
//!                   captured ← ΔA, ΔA ← ∅        fingerprint(M), and on
//!                   serving: old binding          > 1 rank LA-Decompose(M)
//!                   + (captured ∪ ΔA') overlay    │
//!                   (ΔA' = updates during build)  ▼
//!                                                swap binding to M,
//!                                                overlay ← ΔA' only
//! ```
//!
//! The old binding plus the full overlay keeps answering exactly while
//! the worker builds (the merge and the hash too run there, so a trip
//! costs the serving thread `O(nnz(ΔA))`); at commit the delta
//! accumulated *during* the build is spliced onto the new binding. Every
//! answer — before, during, and after the swap — bit-matches a cold
//! decompose-and-multiply for integer data, because both representations
//! are the same operator and every reduction is exact.
//!
//! With `async_refresh` off the same grant, the same build and the same
//! commit run back to back inside the call that tripped the budget: the
//! option selects a thread, not a policy, and both settings count, trace
//! and decide (splice or cold) alike.
//!
//! ## Fairness
//!
//! One refresh is granted at a time, hub-wide. Tenants whose budget
//! trips while a grant is out wait in a FIFO queue, so a tenant
//! re-tripping its budget cannot starve the others: with `T` tenants
//! queued, every one of them launches within `T` grant slots.
//! A tenant holds at most one in-flight rebuild; budget trips while one
//! is already running are counted
//! ([`TenantStats::suppressed_triggers`]) instead of double-triggering,
//! and re-checked at commit.

use crate::budget::StalenessBudget;
use crate::refresh::RefreshState;
use crate::splice::{SpliceCells, SpliceStats};
use crate::update::Update;
use amd_engine::{
    CacheStats, Engine, EngineConfig, EngineStats, MatrixId, MultiplyQuery, QueryId, QueryResponse,
};
use amd_obs::{SpanId, Telemetry};
use amd_sparse::{ops, CsrMatrix, DeltaBuilder, SparseError, SparseResult};
use amd_spmm::traits::Sigma;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Handle to a tenant admitted to a [`StreamHub`]. Stable across
/// refreshes (unlike the engine's [`MatrixId`], which changes whenever
/// the tenant's content does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant {}", self.0)
    }
}

/// Configuration of a [`StreamHub`].
#[derive(Debug, Clone)]
pub struct HubConfig {
    /// The wrapped engine's configuration (cache, planner, batcher).
    pub engine: EngineConfig,
    /// Default staleness budget for admitted tenants
    /// ([`StreamHub::admit_with_budget`] overrides per tenant).
    pub budget: StalenessBudget,
    /// Trigger refreshes from the update path when a budget trips
    /// (`true`, default) or leave them to explicit
    /// [`refresh`](StreamHub::refresh) calls.
    pub auto_refresh: bool,
    /// Which thread runs a refresh's build: the hub's builder thread, the
    /// swap committing at a later poll point (`true`, default), or the
    /// triggering call itself, which then pays the build's latency and
    /// commits at once (`false`). Nothing else differs.
    pub async_refresh: bool,
    /// Test/bench hook: a refresh build sleeps this long before
    /// building, simulating a slow LA-Decompose so tests can assert
    /// that serving does not block on a background rebuild. (Per hub,
    /// unlike the process-wide `worker.decompose.delay` failpoint, so
    /// tests running side by side do not delay each other.)
    pub decompose_delay: Option<Duration>,
}

impl Default for HubConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            budget: StalenessBudget::default(),
            auto_refresh: true,
            async_refresh: true,
            decompose_delay: None,
        }
    }
}

amd_obs::stats_view! {
    /// Per-tenant counters (see [`HubStats`] for the hub-wide sums).
    ///
    /// A point-in-time view of the tenant's registry counters
    /// (`hub.tenant.<id>.*` in a metrics snapshot) plus the tenant's
    /// refresh state — see [`StreamHub::tenant_stats`].
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct TenantStats {
        /// Updates accepted (including no-op updates).
        updates: Counter,
        /// Queries submitted.
        queries: Counter,
        /// Refreshes completed (committed swaps, wherever they were built).
        refreshes: Counter,
        /// Budget trips that arrived while a refresh was already queued or
        /// in flight — guarded, not double-triggered.
        suppressed_triggers: Counter,
        /// Rebuilds that failed (build error or commit rejection); the
        /// captured delta was folded back and serving continued on the old
        /// binding.
        refresh_failures: Counter,
        /// A background rebuild for this tenant is in flight right now.
        refreshing: bool = t.captured.is_some(),
        /// The tenant is waiting in the FIFO refresh queue.
        queued: bool = t.queued,
        /// Hub-wide refresh slot (1-based [`HubStats::refreshes_started`]
        /// value) at which this tenant's latest refresh was granted; 0 when
        /// it never refreshed. The fairness probe: with `T` tenants queued,
        /// consecutive grants of the same tenant are at least `T` slots
        /// apart, so no queued tenant waits more than `T` slots.
        last_granted_slot: u64 = t.last_granted_slot,
        /// Incremental-vs-fallback split of this tenant's completed
        /// refreshes that decomposed (`splice.incremental_refreshes +
        /// splice.fallback_refreshes = refreshes` on more than one rank; all
        /// zero on one, where a refresh decomposes nothing).
        splice: SpliceStats in SpliceCells,
    }
    /// One tenant's registry handles, named `hub.tenant.<id>.*`; removed
    /// from the registry when the tenant is evicted (the hub-wide sums
    /// keep its contributions).
    pub(crate) struct TenantCells(t: &Tenant) {}
}

amd_obs::stats_view! {
    /// Hub-wide counters. Each counter is the sum of the corresponding
    /// [`TenantStats`] counter over all tenants (including tenants since
    /// evicted — their contributions stay in the hub totals).
    ///
    /// A point-in-time view of the hub's registry counters (`hub.*` in a
    /// metrics snapshot) — see [`StreamHub::stats`].
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct HubStats {
        /// Updates accepted across all tenants.
        updates: Counter,
        /// Queries submitted across all tenants.
        queries: Counter,
        /// Refresh grants taken (a supervision retry takes a new one).
        refreshes_started: Counter,
        /// Refreshes that committed successfully. `refreshes_started` is
        /// this plus `refresh_failures`, the grants lost to a worker death
        /// or an eviction, and the rebuilds still in flight.
        refreshes_completed: Counter,
        /// Rebuilds that failed (build error or commit rejection); the
        /// tenant's delta is restored and serving continues on the old
        /// binding. A background build's failure surfaces to no caller; an
        /// inline one is also the error of the call that ran it.
        refresh_failures: Counter,
        /// Budget trips suppressed because a refresh was already pending.
        suppressed_triggers: Counter,
        /// Incremental-vs-fallback split of completed refreshes hub-wide
        /// (`splice.incremental_refreshes + splice.fallback_refreshes =
        /// refreshes_completed` on more than one rank, zero on one); sum of
        /// the per-tenant [`TenantStats::splice`] counters.
        splice: SpliceStats in SpliceCells,
        /// Tenants evicted ([`StreamHub::evict`]).
        evictions: Counter,
        /// Builder threads that died (panicked mid-build) and were replaced
        /// by supervision: every death is matched by a respawn before the
        /// dead grant is retried.
        worker_restarts: Counter,
        /// Dead grants requeued by supervision (each with exponential
        /// backoff). Resets nothing: a grant that needs three retries
        /// contributes three.
        refresh_retries: Counter,
        /// Refreshes compacted synchronously after three consecutive
        /// builder deaths on one grant — the bounded-retry escape hatch.
        sync_fallbacks: Counter,
    }
    /// The hub's registry handles: the counters above plus the
    /// refresh-phase latency histograms.
    pub(crate) struct HubCells {
        /// Decompose seconds of committed refreshes that decomposed, from
        /// the [`RefreshOutcome`](arrow_core::incremental::RefreshOutcome)'s
        /// own phase timings.
        decompose_seconds: Histogram = "refresh.decompose.seconds",
        extract_seconds: Histogram = "refresh.extract.seconds",
        splice_seconds: Histogram = "refresh.splice.seconds",
    }
}

/// Where a tenant's metrics live in the registry.
fn tenant_prefix(id: TenantId) -> String {
    format!("hub.tenant.{}.", id.0)
}

fn not_admitted(id: TenantId) -> SparseError {
    SparseError::InvalidCsr(format!("{id} is not admitted"))
}

pub(crate) struct Tenant {
    pub(crate) matrix: MatrixId,
    /// Shared with the refresh build while one is in flight.
    pub(crate) base: Arc<CsrMatrix<f64>>,
    /// Updates not yet part of any (running or finished) rebuild.
    pub(crate) delta: DeltaBuilder<f64>,
    pub(crate) budget: StalenessBudget,
    /// The engine's overlay no longer matches `captured + delta`.
    pub(crate) overlay_dirty: bool,
    /// While this tenant's rebuild is in flight: the delta snapshot it
    /// compacts (`merged = base + captured`), still *served* (merged
    /// into the overlay) until the swap commits.
    pub(crate) captured: Option<DeltaBuilder<f64>>,
    pub(crate) metrics: TenantCells,
    /// Waiting in the FIFO refresh queue.
    pub(crate) queued: bool,
    /// Hub-wide slot of the latest refresh grant (see
    /// [`TenantStats::last_granted_slot`]).
    pub(crate) last_granted_slot: u64,
    /// Root span of the refresh lifecycle in progress (trip → grant →
    /// decompose → commit); [`SpanId::NONE`] when none is pending.
    pub(crate) refresh_span: SpanId,
    /// Consecutive supervision retries of this tenant's refresh (worker
    /// panics); reset to 0 by a successful commit.
    pub(crate) retries: u32,
    /// Backoff the supervisor attached to the next grant of this
    /// tenant's refresh, consumed (taken) when it is granted.
    pub(crate) backoff: Option<Duration>,
}

impl Tenant {
    /// The value currently served at `(row, col)`: base plus every
    /// pending delta layer.
    fn served_value(&self, row: u32, col: u32) -> f64 {
        let captured = self.captured.as_ref().map_or(0.0, |c| c.get(row, col));
        self.base.get(row, col) + captured + self.delta.get(row, col)
    }

    /// The full pending correction `captured + delta` as CSR.
    fn overlay_csr(&self) -> SparseResult<CsrMatrix<f64>> {
        match &self.captured {
            Some(c) => ops::apply_delta(&c.to_csr(), &self.delta.to_csr()),
            None => Ok(self.delta.to_csr()),
        }
    }

    /// Pushes the pending correction into `engine` as this tenant's
    /// overlay (no-op when already in sync).
    fn sync_overlay(&mut self, engine: &mut Engine) -> SparseResult<()> {
        if self.overlay_dirty {
            engine.set_delta(self.matrix, self.overlay_csr()?)?;
            self.overlay_dirty = false;
        }
        Ok(())
    }

    pub(crate) fn needs_refresh(&self) -> bool {
        self.budget
            .exceeded(self.delta.len(), self.delta.mass(), self.base.nnz())
    }

    pub(crate) fn refresh_pending(&self) -> bool {
        self.queued || self.captured.is_some()
    }
}

/// A multi-tenant streaming hub. See the [module docs](self).
pub struct StreamHub {
    pub(crate) engine: Engine,
    pub(crate) config: HubConfig,
    pub(crate) tenants: HashMap<u64, Tenant>,
    /// Admission order, for stable iteration.
    order: Vec<TenantId>,
    /// Queue, builder and the grant out (see [`crate::refresh`]).
    pub(crate) refreshes: RefreshState,
    next_tenant: u64,
    pub(crate) metrics: HubCells,
}

impl StreamHub {
    /// Stands up the engine (and, with `async_refresh`, the builder
    /// thread). No tenants yet — [`admit`](Self::admit) them. Telemetry
    /// is enabled with a fresh registry and tracer — use
    /// [`with_telemetry`](Self::with_telemetry) to share or disable it.
    pub fn new(config: HubConfig) -> SparseResult<Self> {
        Self::with_telemetry(config, Telemetry::new())
    }

    /// [`new`](Self::new) observing into caller-supplied telemetry:
    /// hub, engine, cache, and catalog counters all register there, and
    /// the refresh lifecycle is traced into its tracer. With
    /// [`Telemetry::disabled`] the hub runs uninstrumented — counters
    /// are no-ops, so [`stats`](Self::stats) and the per-tenant views
    /// (including `last_granted_slot`, which is derived from a
    /// counter) read zero.
    pub fn with_telemetry(config: HubConfig, telemetry: Telemetry) -> SparseResult<Self> {
        let engine = Engine::with_telemetry(config.engine.clone(), telemetry)?;
        let refreshes = RefreshState::new(&config, engine.telemetry().tracer.clone());
        let metrics = HubCells::new(&engine.telemetry().registry, "hub.");
        Ok(Self {
            engine,
            config,
            tenants: HashMap::new(),
            order: Vec::new(),
            refreshes,
            next_tenant: 1,
            metrics,
        })
    }

    /// The hub's telemetry (shared with the wrapped engine): metrics
    /// registry plus the trace ring holding refresh lifecycle spans.
    pub fn telemetry(&self) -> &Telemetry {
        self.engine.telemetry()
    }

    /// Admits a mutating matrix under the hub's default budget: a
    /// fingerprint and a plan — on more than one rank after one cold
    /// decompose (or a cache/disk hit), with a full planner ranking.
    /// `a` is stored once: it becomes the tenant's base, and a one-rank
    /// binding multiplies by that same allocation (as it does by each
    /// refresh's merged matrix), so admission copies no CSR array.
    pub fn admit(&mut self, a: CsrMatrix<f64>) -> SparseResult<TenantId> {
        self.admit_with_budget(a, self.config.budget)
    }

    /// [`admit`](Self::admit) with a per-tenant staleness budget. The
    /// binding is salted by the tenant id, so tenants with identical
    /// content stay isolated (own overlay, own lineage) while the
    /// decomposition cache still shares the LA-Decompose.
    pub fn admit_with_budget(
        &mut self,
        a: CsrMatrix<f64>,
        budget: StalenessBudget,
    ) -> SparseResult<TenantId> {
        if a.rows() != a.cols() {
            return Err(SparseError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (a.cols(), a.rows()),
            });
        }
        let id = TenantId(self.next_tenant);
        let a = Arc::new(a);
        let matrix = self.engine.register_salted(Arc::clone(&a), id.0 as u128)?;
        self.next_tenant += 1;
        let n = a.rows();
        let metrics = TenantCells::new(&self.engine.telemetry().registry, &tenant_prefix(id));
        self.tenants.insert(
            id.0,
            Tenant {
                matrix,
                base: a,
                delta: DeltaBuilder::new(n, n),
                budget,
                overlay_dirty: false,
                captured: None,
                metrics,
                queued: false,
                last_granted_slot: 0,
                refresh_span: SpanId::NONE,
                retries: 0,
                backoff: None,
            },
        );
        self.order.push(id);
        Ok(id)
    }

    /// Admitted tenants, in admission order.
    pub fn tenants(&self) -> &[TenantId] {
        &self.order
    }

    pub(crate) fn tenant(&self, id: TenantId) -> SparseResult<&Tenant> {
        self.tenants.get(&id.0).ok_or_else(|| not_admitted(id))
    }

    pub(crate) fn tenant_mut(&mut self, id: TenantId) -> SparseResult<&mut Tenant> {
        self.tenants.get_mut(&id.0).ok_or_else(|| not_admitted(id))
    }

    /// Applies one update to a tenant's served matrix; returns `true`
    /// when the update tripped (or found tripped) the tenant's staleness
    /// budget — i.e. a refresh was triggered, queued, or (manual mode)
    /// is now required.
    pub fn update(&mut self, tenant: TenantId, update: Update) -> SparseResult<bool> {
        self.poll()?;
        let (row, col) = update.position();
        let (needs, pending) = {
            let t = self.tenant_mut(tenant)?;
            let n = t.base.rows();
            if row >= n || col >= n {
                return Err(SparseError::IndexOutOfBounds {
                    row,
                    col,
                    rows: n,
                    cols: n,
                });
            }
            let additive = update.additive(t.served_value(row, col));
            if additive != 0.0 {
                t.delta.add(row, col, additive)?;
                t.overlay_dirty = true;
            }
            t.metrics.updates.inc();
            (t.needs_refresh(), t.refresh_pending())
        };
        self.metrics.updates.inc();
        if needs {
            if pending {
                // Satellite guard: a refresh is already queued or in
                // flight — count the trip, don't double-trigger. The
                // residual budget is re-checked when the swap commits.
                let t = self.tenant_mut(tenant)?;
                t.metrics.suppressed_triggers.inc();
                self.metrics.suppressed_triggers.inc();
            } else if self.config.auto_refresh {
                self.request_refresh(tenant)?;
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// Requests a refresh for a tenant: queues it and launches it if no
    /// other grant is out — with `async_refresh` off, that is the whole
    /// refresh, committed before this returns. Returns `false` when there
    /// is nothing to do — empty delta, or a refresh already pending.
    pub fn refresh(&mut self, tenant: TenantId) -> SparseResult<bool> {
        self.poll()?;
        self.request_refresh(tenant)
    }

    /// Drains finished rebuilds (non-blocking), commits their swaps, and
    /// grants the next queued refresh. Called internally at
    /// every entry point; call it directly when idling between events.
    /// Returns the number of swaps committed.
    pub fn poll(&mut self) -> SparseResult<usize> {
        self.land_finished()
    }

    /// Evicts a tenant: its pending queries must be flushed first (the
    /// engine's ownership check refuses otherwise), any queued or
    /// in-flight background rebuild is **drained** — the grant is given
    /// up without committing, other tenants' completions commit
    /// normally — and the salted binding is deregistered, in one
    /// [`Engine::deregister`](amd_engine::Engine::deregister), which on
    /// more than one rank also releases the cache reference and removes
    /// the tenant's catalog version chain (sparing only revisions another
    /// live binding still depends on). Returns the tenant's final [`TenantStats`]; the hub
    /// no longer knows the id afterwards. Any pending (un-compacted)
    /// delta is discarded with the tenant — eviction is a teardown, not
    /// a checkpoint; refresh first if the mutations must survive.
    pub fn evict(&mut self, tenant: TenantId) -> SparseResult<TenantStats> {
        self.poll()?;
        let matrix = self.tenant(tenant)?.matrix;
        let pending = self.engine.pending_for(matrix);
        if pending > 0 {
            return Err(SparseError::InvalidCsr(format!(
                "{tenant} still owns {pending} pending quer{}; \
                 flush_tenant before evicting",
                if pending == 1 { "y" } else { "ies" }
            )));
        }
        self.drain_grant(tenant)?;
        self.engine.deregister(matrix)?;
        let t = self
            .tenants
            .remove(&tenant.0)
            .expect("tenant validated above");
        self.order.retain(|&x| x != tenant);
        self.metrics.evictions.inc();
        let stats = t.metrics.view(&t);
        // The tenant's metric names leave the registry with it; the
        // hub-wide sums keep its contributions. (The handles in
        // `stats` above already folded their final values.)
        self.engine
            .telemetry()
            .registry
            .remove_prefix(&tenant_prefix(tenant));
        Ok(stats)
    }

    /// [`Tenant::sync_overlay`] of one tenant.
    fn sync_overlay(&mut self, tenant: TenantId) -> SparseResult<()> {
        let t = self
            .tenants
            .get_mut(&tenant.0)
            .ok_or_else(|| not_admitted(tenant))?;
        t.sync_overlay(&mut self.engine)
    }

    /// Enqueues a multiply query against a tenant's served matrix;
    /// answers arrive from [`flush`](Self::flush).
    pub fn submit(
        &mut self,
        tenant: TenantId,
        x: Vec<f64>,
        iters: u32,
        sigma: Option<Sigma>,
    ) -> SparseResult<QueryId> {
        self.poll()?;
        let matrix = self.tenant(tenant)?.matrix;
        let id = self.engine.submit(MultiplyQuery {
            matrix,
            x,
            iters,
            sigma,
        })?;
        self.tenant(tenant)?.metrics.queries.inc();
        self.metrics.queries.inc();
        Ok(id)
    }

    /// Answers every pending query hub-wide, each against its tenant's
    /// served operator `A₀ + ΔA` as of this flush (the flush is the
    /// consistency point). Compatible queries of the *same* tenant
    /// coalesce into one multi-RHS run.
    pub fn flush(&mut self) -> SparseResult<Vec<QueryResponse>> {
        self.poll()?;
        for id in &self.order {
            let t = self.tenants.get_mut(&id.0).expect("an admitted tenant");
            t.sync_overlay(&mut self.engine)?;
        }
        self.engine.flush()
    }

    /// Answers only **one tenant's** pending queries, leaving every
    /// other tenant's queue untouched: query ownership is tracked
    /// through the salted binding, so a tenant can drain itself
    /// without forcing runs (or paying flush latency) for the whole
    /// hub. Batching within the tenant is identical to a hub-wide
    /// flush.
    pub fn flush_tenant(&mut self, tenant: TenantId) -> SparseResult<Vec<QueryResponse>> {
        self.poll()?;
        self.tenant(tenant)?;
        self.sync_overlay(tenant)?;
        self.engine.flush_owned(tenant.0 as u128)
    }

    /// Runs one query immediately, bypassing the batcher.
    pub fn run_single(
        &mut self,
        tenant: TenantId,
        x: Vec<f64>,
        iters: u32,
        sigma: Option<Sigma>,
    ) -> SparseResult<QueryResponse> {
        self.poll()?;
        self.sync_overlay(tenant)?;
        let matrix = self.tenant(tenant)?.matrix;
        self.tenant(tenant)?.metrics.queries.inc();
        self.metrics.queries.inc();
        self.engine.run_single(MultiplyQuery {
            matrix,
            x,
            iters,
            sigma,
        })
    }

    /// Current engine binding of a tenant (changes at every refresh).
    pub fn matrix_id(&self, tenant: TenantId) -> SparseResult<MatrixId> {
        Ok(self.tenant(tenant)?.matrix)
    }

    /// Streaming revision of a tenant's binding (0 cold, +1 per
    /// committed refresh).
    pub fn version(&self, tenant: TenantId) -> SparseResult<u64> {
        let t = self.tenant(tenant)?;
        Ok(self
            .engine
            .matrix_version(t.matrix)
            .expect("a tenant's matrix is always bound"))
    }

    /// The tenant's registered base `A₀` (excludes pending deltas; during
    /// a rebuild this is still the *old* base until the swap commits).
    pub fn base(&self, tenant: TenantId) -> SparseResult<&CsrMatrix<f64>> {
        Ok(&self.tenant(tenant)?.base)
    }

    /// The tenant's live delta accumulator (excludes a rebuild's captured
    /// snapshot).
    pub fn delta(&self, tenant: TenantId) -> SparseResult<&DeltaBuilder<f64>> {
        Ok(&self.tenant(tenant)?.delta)
    }

    /// Distinct positions pending for a tenant, *including* a running
    /// rebuild's captured snapshot (everything not yet in the base).
    pub fn delta_nnz(&self, tenant: TenantId) -> SparseResult<usize> {
        let t = self.tenant(tenant)?;
        Ok(t.delta.len() + t.captured.as_ref().map_or(0, DeltaBuilder::len))
    }

    /// `true` once the tenant's live delta exceeds its budget.
    pub fn needs_refresh(&self, tenant: TenantId) -> SparseResult<bool> {
        Ok(self.tenant(tenant)?.needs_refresh())
    }

    /// The tenant's staleness budget, as admitted.
    pub fn budget(&self, tenant: TenantId) -> SparseResult<StalenessBudget> {
        Ok(self.tenant(tenant)?.budget)
    }

    /// `true` while a rebuild for this tenant is queued or in flight.
    pub fn refresh_pending(&self, tenant: TenantId) -> SparseResult<bool> {
        Ok(self.tenant(tenant)?.refresh_pending())
    }

    /// The algorithm bound for a tenant's current binding.
    pub fn chosen_algorithm(&self, tenant: TenantId) -> SparseResult<&str> {
        let t = self.tenant(tenant)?;
        Ok(self
            .engine
            .chosen_algorithm(t.matrix)
            .expect("a tenant's matrix is always bound"))
    }

    /// The planner's current ranking for a tenant (re-computed at every
    /// refresh).
    pub fn plan_report(&self, tenant: TenantId) -> SparseResult<&[amd_engine::Prediction]> {
        let t = self.tenant(tenant)?;
        Ok(self
            .engine
            .plan_report(t.matrix)
            .expect("a tenant's matrix is always bound"))
    }

    /// Per-tenant counters, folded from the registry (plus the
    /// tenant's live refresh state).
    pub fn tenant_stats(&self, tenant: TenantId) -> SparseResult<TenantStats> {
        let t = self.tenant(tenant)?;
        Ok(t.metrics.view(t))
    }

    /// Hub-wide counters (sums of the per-tenant ones), folded from
    /// the registry.
    pub fn stats(&self) -> HubStats {
        self.metrics.view()
    }

    /// The wrapped engine's serving counters.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// The wrapped engine's decomposition-cache counters (all zero on
    /// one rank, which has no cache).
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// The persistence catalog behind the engine's cache, when the hub
    /// has more than one rank and was configured with a spill directory.
    pub fn catalog(&self) -> Option<&arrow_core::Catalog> {
        self.engine.catalog()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amd_graph::generators::basic;
    use amd_sparse::DenseMatrix;
    use amd_spmm::reference::iterated_spmm;

    fn ring(n: u32) -> CsrMatrix<f64> {
        basic::cycle(n).to_adjacency()
    }

    fn config(cap: usize) -> HubConfig {
        HubConfig {
            engine: EngineConfig {
                arrow_width: 8,
                target_ranks: 4,
                ..EngineConfig::default()
            },
            budget: StalenessBudget::nnz_cap(cap),
            ..HubConfig::default()
        }
    }

    fn column(n: u32, salt: u32) -> Vec<f64> {
        (0..n)
            .map(|r| (((salt + 3 * r) % 9) as f64) - 4.0)
            .collect()
    }

    /// One tenant, refreshes inline in the call that trips the budget.
    fn sync_hub(a: CsrMatrix<f64>, cap: usize) -> (StreamHub, TenantId) {
        let mut hub = StreamHub::new(HubConfig {
            async_refresh: false,
            ..config(cap)
        })
        .unwrap();
        let t = hub.admit(a).unwrap();
        (hub, t)
    }

    #[test]
    fn corrected_serving_matches_merged_reference() {
        let n = 40;
        let (mut hub, t) = sync_hub(ring(n), 100);
        for u in (Update::Add {
            row: 0,
            col: 20,
            delta: 2.0,
        })
        .sym_pair()
        {
            hub.update(t, u).unwrap();
        }
        let x: Vec<f64> = (0..n).map(|r| ((r % 9) as f64) - 4.0).collect();
        hub.submit(t, x.clone(), 2, None).unwrap();
        let resp = hub.flush().unwrap();
        let merged =
            ops::apply_delta(hub.base(t).unwrap(), &hub.delta(t).unwrap().to_csr()).unwrap();
        let xm = DenseMatrix::from_vec(n, 1, x).unwrap();
        let want = iterated_spmm(&merged, &xm, 2).unwrap();
        assert_eq!(resp[0].y, want.data());
        assert_eq!(hub.engine_stats().corrected_runs, 1);
        assert_eq!(hub.cache_stats().decompositions, 1, "no cold decompose");
    }

    #[test]
    fn auto_refresh_trips_on_budget_and_rebinds() {
        let n = 36;
        let (mut hub, t) = sync_hub(ring(n), 4);
        let id0 = hub.matrix_id(t).unwrap();
        assert_eq!(hub.version(t).unwrap(), 0);
        let mut refreshed = false;
        for i in 0..6u32 {
            refreshed = hub
                .update(
                    t,
                    Update::Add {
                        row: i,
                        col: i + 10,
                        delta: 1.0,
                    },
                )
                .unwrap();
            if refreshed {
                break;
            }
        }
        assert!(refreshed, "cap 4 must trip within 6 inserts");
        assert_ne!(hub.matrix_id(t).unwrap(), id0);
        assert_eq!(hub.version(t).unwrap(), 1);
        assert_eq!(hub.delta_nnz(t).unwrap(), 0);
        assert_eq!(hub.engine_stats().refreshes, 1);
        // The refresh pays no second cold LA-Decompose: the
        // decomposition is spliced (or rebuilt) outside the cache and
        // admitted, so `decompositions` stays at the admission's one.
        assert_eq!(hub.cache_stats().decompositions, 1, "cold admission only");
        assert_eq!(hub.cache_stats().admitted, 1, "refresh admitted its result");
        // Post-refresh serving is the plain base path.
        let x: Vec<f64> = vec![1.0; n as usize];
        hub.run_single(t, x, 1, None).unwrap();
        assert_eq!(hub.engine_stats().corrected_runs, 0);
    }

    #[test]
    fn manual_refresh_mode_reports_pressure() {
        let n = 24;
        let mut hub = StreamHub::new(HubConfig {
            async_refresh: false,
            auto_refresh: false,
            ..config(2)
        })
        .unwrap();
        let t = hub.admit(ring(n)).unwrap();
        for i in 0..3u32 {
            hub.update(
                t,
                Update::Add {
                    row: i,
                    col: i + 7,
                    delta: 1.0,
                },
            )
            .unwrap();
        }
        assert!(hub.needs_refresh(t).unwrap());
        assert_eq!(hub.engine_stats().refreshes, 0, "no auto refresh");
        assert!(hub.refresh(t).unwrap());
        assert!(!hub.needs_refresh(t).unwrap());
        assert_eq!(hub.version(t).unwrap(), 1);
        // Refreshing again with no pending delta is a no-op.
        assert!(!hub.refresh(t).unwrap());
        assert_eq!(hub.version(t).unwrap(), 1);
    }

    #[test]
    fn set_and_remove_edges_through_the_stream() {
        let n = 30;
        let (mut hub, t) = sync_hub(ring(n), 100);
        // Remove the (0,1)/(1,0) edge and re-weight (2,3).
        for u in (Update::Set {
            row: 0,
            col: 1,
            value: 0.0,
        })
        .sym_pair()
        {
            hub.update(t, u).unwrap();
        }
        for u in (Update::Set {
            row: 2,
            col: 3,
            value: 4.0,
        })
        .sym_pair()
        {
            hub.update(t, u).unwrap();
        }
        let x: Vec<f64> = (0..n).map(|r| (r % 3) as f64).collect();
        let resp = hub.run_single(t, x.clone(), 1, None).unwrap();
        let mut want_m = ring(n);
        *want_m.get_mut(0, 1).unwrap() = 0.0;
        *want_m.get_mut(1, 0).unwrap() = 0.0;
        *want_m.get_mut(2, 3).unwrap() = 4.0;
        *want_m.get_mut(3, 2).unwrap() = 4.0;
        let xm = DenseMatrix::from_vec(n, 1, x).unwrap();
        let want = iterated_spmm(&want_m, &xm, 1).unwrap();
        assert_eq!(resp.y, want.data());
        // After refresh the removed edge leaves the structure entirely.
        hub.refresh(t).unwrap();
        assert_eq!(hub.base(t).unwrap().get(0, 1), 0.0);
        assert_eq!(hub.base(t).unwrap().nnz(), ring(n).nnz() - 2);
    }

    #[test]
    fn updates_out_of_bounds_rejected() {
        let n = 16;
        let (mut hub, t) = sync_hub(ring(n), 8);
        assert!(hub
            .update(
                t,
                Update::Add {
                    row: n,
                    col: 0,
                    delta: 1.0
                }
            )
            .is_err());
    }

    #[test]
    fn tenants_with_identical_content_stay_isolated() {
        let n = 36;
        let mut hub = StreamHub::new(config(100)).unwrap();
        let a = hub.admit(ring(n)).unwrap();
        let b = hub.admit(ring(n)).unwrap();
        assert_ne!(
            hub.matrix_id(a).unwrap(),
            hub.matrix_id(b).unwrap(),
            "identical content must get per-tenant bindings"
        );
        // The expensive decompose is still shared by content.
        assert_eq!(hub.cache_stats().decompositions, 1);
        // Mutate tenant a only.
        for u in (Update::Add {
            row: 0,
            col: 18,
            delta: 3.0,
        })
        .sym_pair()
        {
            hub.update(a, u).unwrap();
        }
        let x = column(n, 1);
        let xm = DenseMatrix::from_vec(n, 1, x.clone()).unwrap();
        let got_a = hub.run_single(a, x.clone(), 2, None).unwrap();
        let got_b = hub.run_single(b, x, 2, None).unwrap();
        let merged =
            ops::apply_delta(hub.base(a).unwrap(), &hub.delta(a).unwrap().to_csr()).unwrap();
        assert_eq!(got_a.y, iterated_spmm(&merged, &xm, 2).unwrap().data());
        assert_eq!(
            got_b.y,
            iterated_spmm(&ring(n), &xm, 2).unwrap().data(),
            "tenant b must not see tenant a's delta"
        );
    }

    #[test]
    fn hub_flush_batches_across_tenants() {
        let n = 32;
        let mut hub = StreamHub::new(config(100)).unwrap();
        let a = hub.admit(ring(n)).unwrap();
        let b = hub.admit(basic::star(n).to_adjacency()).unwrap();
        hub.submit(a, column(n, 0), 1, None).unwrap();
        hub.submit(a, column(n, 1), 1, None).unwrap();
        hub.submit(b, column(n, 2), 1, None).unwrap();
        let responses = hub.flush().unwrap();
        assert_eq!(responses.len(), 3);
        // Same-tenant queries coalesce; tenants never share a run.
        assert_eq!(hub.engine_stats().runs, 2);
        assert_eq!(hub.stats().queries, 3);
    }

    #[test]
    fn async_refresh_serves_while_rebuilding_and_swaps_exactly() {
        let n = 40;
        let mut cfg = config(4);
        cfg.decompose_delay = Some(Duration::from_millis(60));
        let mut hub = StreamHub::new(cfg).unwrap();
        let t = hub.admit(ring(n)).unwrap();
        let mut truth = ring(n);
        let mut tripped = false;
        for i in 0..8u32 {
            let (u, v) = (i, (i + n / 2) % n);
            let mut patch = amd_sparse::CooMatrix::new(n, n);
            patch.push(u, v, 1.0).unwrap();
            truth = ops::apply_delta(&truth, &patch.to_csr()).unwrap();
            tripped |= hub
                .update(
                    t,
                    Update::Add {
                        row: u,
                        col: v,
                        delta: 1.0,
                    },
                )
                .unwrap();
            if tripped {
                break;
            }
        }
        assert!(tripped);
        assert!(hub.refresh_pending(t).unwrap(), "rebuild launched");
        assert_eq!(hub.version(t).unwrap(), 0, "swap has not committed yet");
        // Serving during the rebuild: exact, through the overlay.
        let x = column(n, 2);
        let xm = DenseMatrix::from_vec(n, 1, x.clone()).unwrap();
        let got = hub.run_single(t, x, 2, None).unwrap();
        assert_eq!(got.y, iterated_spmm(&truth, &xm, 2).unwrap().data());
        assert!(hub.engine_stats().corrected_runs >= 1);
        // Commit the swap.
        assert_eq!(hub.wait_refreshes().unwrap(), 1);
        assert_eq!(hub.version(t).unwrap(), 1);
        assert_eq!(hub.delta_nnz(t).unwrap(), 0);
        assert_eq!(hub.tenant_stats(t).unwrap().refreshes, 1);
        // Post-swap serving is exact on the fresh binding.
        let x = column(n, 3);
        let xm = DenseMatrix::from_vec(n, 1, x.clone()).unwrap();
        let got = hub.run_single(t, x, 1, None).unwrap();
        assert_eq!(got.y, iterated_spmm(&truth, &xm, 1).unwrap().data());
    }

    #[test]
    fn inflight_refresh_suppresses_double_trigger_and_requeues() {
        let n = 36;
        let mut cfg = config(2);
        cfg.decompose_delay = Some(Duration::from_millis(80));
        let mut hub = StreamHub::new(cfg).unwrap();
        let t = hub.admit(ring(n)).unwrap();
        let mut truth = ring(n);
        let apply = |hub: &mut StreamHub, truth: &mut CsrMatrix<f64>, u: u32, v: u32| {
            let mut patch = amd_sparse::CooMatrix::new(n, n);
            patch.push(u, v, 1.0).unwrap();
            *truth = ops::apply_delta(truth, &patch.to_csr()).unwrap();
            hub.update(
                t,
                Update::Add {
                    row: u,
                    col: v,
                    delta: 1.0,
                },
            )
            .unwrap();
        };
        // Trip once: rebuild launches and captures the first 3 entries.
        for i in 0..3 {
            apply(&mut hub, &mut truth, i, i + 10);
        }
        assert!(hub.tenant_stats(t).unwrap().refreshing);
        // Trip again mid-rebuild: guarded, not double-launched.
        for i in 0..3 {
            apply(&mut hub, &mut truth, i, i + 20);
        }
        let stats = hub.tenant_stats(t).unwrap();
        assert!(stats.suppressed_triggers >= 1, "mid-rebuild trip guarded");
        assert_eq!(hub.stats().refreshes_started, 1, "single launch");
        // Serving stays exact across base + captured + live layers.
        let x = column(n, 5);
        let xm = DenseMatrix::from_vec(n, 1, x.clone()).unwrap();
        let got = hub.run_single(t, x, 2, None).unwrap();
        assert_eq!(got.y, iterated_spmm(&truth, &xm, 2).unwrap().data());
        // The commit honours the re-trip: a second rebuild runs.
        hub.wait_refreshes().unwrap();
        assert_eq!(hub.stats().refreshes_completed, 2);
        assert_eq!(hub.version(t).unwrap(), 2);
        assert_eq!(hub.delta_nnz(t).unwrap(), 0);
        let x = column(n, 6);
        let xm = DenseMatrix::from_vec(n, 1, x.clone()).unwrap();
        let got = hub.run_single(t, x, 1, None).unwrap();
        assert_eq!(got.y, iterated_spmm(&truth, &xm, 1).unwrap().data());
    }

    #[test]
    fn fifo_fairness_grants_in_trip_order() {
        let n = 32;
        let mut hub = StreamHub::new(config(1)).unwrap();
        let tenants: Vec<TenantId> = (0..3).map(|_| hub.admit(ring(n)).unwrap()).collect();
        // Trip budgets in reverse admission order.
        for &t in tenants.iter().rev() {
            for i in 0..2u32 {
                hub.update(
                    t,
                    Update::Add {
                        row: i,
                        col: i + 9,
                        delta: 1.0,
                    },
                )
                .unwrap();
            }
        }
        while hub.wait_next_refresh().unwrap().is_some() {}
        // Grant slots record the launch order: FIFO in trip order
        // (reverse admission here), every tenant within 3 slots.
        let slots: Vec<u64> = tenants
            .iter()
            .rev()
            .map(|&t| hub.tenant_stats(t).unwrap().last_granted_slot)
            .collect();
        assert_eq!(slots, vec![1, 2, 3], "FIFO in budget-trip order");
        for &t in &tenants {
            assert_eq!(hub.tenant_stats(t).unwrap().refreshes, 1);
        }
        assert_eq!(hub.stats().refreshes_completed, 3);
    }

    #[test]
    fn per_tenant_counters_sum_to_hub_counters() {
        let n = 30;
        let mut hub = StreamHub::new(config(2)).unwrap();
        let a = hub.admit(ring(n)).unwrap();
        let b = hub.admit(basic::star(n).to_adjacency()).unwrap();
        for i in 0..5u32 {
            hub.update(
                a,
                Update::Add {
                    row: i,
                    col: i + 11,
                    delta: 1.0,
                },
            )
            .unwrap();
            hub.update(
                b,
                Update::Add {
                    row: i,
                    col: i + 7,
                    delta: 2.0,
                },
            )
            .unwrap();
        }
        hub.submit(a, column(n, 0), 1, None).unwrap();
        hub.submit(b, column(n, 1), 1, None).unwrap();
        hub.flush().unwrap();
        hub.wait_refreshes().unwrap();
        let (sa, sb) = (
            hub.tenant_stats(a).unwrap().clone(),
            hub.tenant_stats(b).unwrap().clone(),
        );
        let hs = hub.stats();
        assert_eq!(sa.updates + sb.updates, hs.updates);
        assert_eq!(sa.queries + sb.queries, hs.queries);
        assert_eq!(sa.refreshes + sb.refreshes, hs.refreshes_completed);
        assert_eq!(
            sa.suppressed_triggers + sb.suppressed_triggers,
            hs.suppressed_triggers
        );
        assert_eq!(
            sa.refresh_failures + sb.refresh_failures,
            hs.refresh_failures
        );
    }

    #[test]
    fn unknown_tenant_rejected_everywhere() {
        let mut hub = StreamHub::new(config(4)).unwrap();
        let ghost = TenantId(7);
        assert!(hub
            .update(
                ghost,
                Update::Add {
                    row: 0,
                    col: 0,
                    delta: 1.0
                }
            )
            .is_err());
        assert!(hub.submit(ghost, vec![1.0], 1, None).is_err());
        assert!(hub.refresh(ghost).is_err());
        assert!(hub.version(ghost).is_err());
        assert!(hub.tenant_stats(ghost).is_err());
    }

    #[test]
    fn non_square_admission_rejected() {
        let mut hub = StreamHub::new(config(4)).unwrap();
        assert!(hub.admit(CsrMatrix::zeros(3, 4)).is_err());
    }

    #[test]
    fn per_tenant_flush_leaves_other_queues_untouched() {
        let n = 30;
        let mut hub = StreamHub::new(config(100)).unwrap();
        let a = hub.admit(ring(n)).unwrap();
        let b = hub.admit(basic::star(n).to_adjacency()).unwrap();
        hub.submit(a, column(n, 0), 1, None).unwrap();
        hub.submit(b, column(n, 1), 1, None).unwrap();
        hub.submit(a, column(n, 2), 1, None).unwrap();
        // A tenant flush drains only its own tenant.
        let mine = hub.flush_tenant(a).unwrap();
        assert_eq!(mine.len(), 2, "tenant a's two queries");
        assert_eq!(hub.engine_stats().runs, 1, "a's queries share one run");
        // Tenant b's query is still queued and still answerable.
        let rest = hub.flush().unwrap();
        assert_eq!(rest.len(), 1);
        let xm = DenseMatrix::from_vec(n, 1, column(n, 1)).unwrap();
        let want = iterated_spmm(&basic::star(n).to_adjacency(), &xm, 1).unwrap();
        assert_eq!(rest[0].y, want.data());
    }

    #[test]
    fn evict_removes_tenant_and_reports_final_stats() {
        let n = 30;
        let mut hub = StreamHub::new(config(100)).unwrap();
        let a = hub.admit(ring(n)).unwrap();
        let b = hub.admit(ring(n)).unwrap();
        hub.update(
            a,
            Update::Add {
                row: 0,
                col: 9,
                delta: 1.0,
            },
        )
        .unwrap();
        let stats = hub.evict(a).unwrap();
        assert_eq!(stats.updates, 1, "final counters returned");
        assert_eq!(hub.stats().evictions, 1);
        assert_eq!(hub.tenants(), &[b], "admission order keeps only b");
        assert!(hub
            .update(
                a,
                Update::Add {
                    row: 0,
                    col: 1,
                    delta: 1.0
                }
            )
            .is_err());
        assert!(hub.evict(a).is_err(), "double eviction rejected");
        // The surviving tenant (identical content!) still serves.
        let x = column(n, 3);
        let xm = DenseMatrix::from_vec(n, 1, x.clone()).unwrap();
        let got = hub.run_single(b, x, 2, None).unwrap();
        assert_eq!(got.y, iterated_spmm(&ring(n), &xm, 2).unwrap().data());
    }

    #[test]
    fn evict_refuses_while_queries_pend() {
        let n = 24;
        let mut hub = StreamHub::new(config(100)).unwrap();
        let t = hub.admit(ring(n)).unwrap();
        hub.submit(t, column(n, 0), 1, None).unwrap();
        let err = hub.evict(t).unwrap_err();
        assert!(err.to_string().contains("pending"), "{err}");
        hub.flush_tenant(t).unwrap();
        hub.evict(t).unwrap();
    }

    #[test]
    fn evict_drains_an_inflight_refresh_grant() {
        let n = 36;
        let mut cfg = config(2);
        cfg.decompose_delay = Some(Duration::from_millis(60));
        let mut hub = StreamHub::new(cfg).unwrap();
        let t = hub.admit(ring(n)).unwrap();
        let u = hub.admit(basic::star(n).to_adjacency()).unwrap();
        for i in 0..3u32 {
            hub.update(
                t,
                Update::Add {
                    row: i,
                    col: i + 10,
                    delta: 1.0,
                },
            )
            .unwrap();
        }
        assert!(hub.tenant_stats(t).unwrap().refreshing, "rebuild in flight");
        let stats = hub.evict(t).unwrap();
        assert!(!stats.refreshing, "grant drained, not committed");
        assert_eq!(stats.refreshes, 0, "the drained rebuild never swapped");
        assert_eq!(
            hub.stats().refreshes_completed,
            0,
            "no swap landed for the evicted tenant"
        );
        // The freed slot still serves the survivor.
        for i in 0..3u32 {
            hub.update(
                u,
                Update::Add {
                    row: i,
                    col: i + 7,
                    delta: 1.0,
                },
            )
            .unwrap();
        }
        hub.wait_refreshes().unwrap();
        assert_eq!(hub.version(u).unwrap(), 1);
    }
}
