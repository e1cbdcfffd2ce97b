//! The multi-tenant streaming hub: many mutating matrices, one engine,
//! double-buffered background refresh.
//!
//! A [`StreamHub`] owns one [`Engine`] and a map of **tenants** — each a
//! mutating matrix with its own base `A₀`, pending delta `ΔA`, staleness
//! budget, and version lineage. Updates and queries address tenants by
//! [`TenantId`] (or through a borrowed [`Session`] handle); queries from
//! *all* tenants share the engine's batcher. Query ownership is tracked
//! through the salted binding, so a tenant can drain just its own queue
//! ([`flush_tenant`](StreamHub::flush_tenant), what [`Session::flush`]
//! does) while one hub-wide [`flush`](StreamHub::flush) still answers
//! everything.
//!
//! ## Lifecycle
//!
//! Tenants are not forever: [`evict`](StreamHub::evict) tears one down
//! completely — any in-flight refresh grant is drained, the salted
//! binding is deregistered from the engine (overlay and cache reference
//! released), and the tenant's version chain is removed from the
//! persistence catalog, sparing only revisions another live binding
//! still references — so a long-lived hub serving a churning tenant set
//! leaks neither memory nor spill files. An idle-eviction policy
//! ([`HubConfig::max_idle_polls`]) automates this for tenants that stop
//! sending updates and queries.
//!
//! ## Double-buffered refresh
//!
//! A refresh is grant → build → commit (the state machine lives in
//! `refresh.rs`; this module keeps tenant state, the query path and the
//! accessors). With `async_refresh` on (the default) the build runs on a
//! worker thread and a staleness refresh never stalls the stream:
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
//! accumulated *during* the build is spliced onto the new binding. Every answer — before,
//! during, and after the swap — bit-matches a cold decompose-and-multiply
//! for integer data, because both representations are the same operator
//! and every reduction is exact.
//!
//! With `async_refresh` off the same grant, the same build and the same
//! commit run back to back inside the call that tripped the budget: the
//! option selects a thread, not a policy, and both settings count, trace
//! and decide (splice or cold) alike.
//!
//! ## Fairness
//!
//! Background rebuilds draw from a shared budget
//! ([`FairnessPolicy::max_inflight`], also the worker-pool size). Tenants
//! whose budget trips while the pool is busy wait in a FIFO queue, so a
//! tenant re-tripping its budget cannot starve the others: with `T`
//! tenants queued, every one of them launches within `T` grant slots.
//! A tenant holds at most one in-flight rebuild; budget trips while one
//! is already running are counted
//! ([`TenantStats::suppressed_triggers`]) instead of double-triggering,
//! and re-checked at commit.

use crate::budget::{AdaptiveBudget, StalenessBudget};
use crate::refresh::RefreshState;
use crate::splice::{SpliceCounters, SpliceStats};
use crate::update::Update;
use amd_engine::{
    CacheStats, Engine, EngineConfig, EngineStats, MatrixId, MultiplyQuery, QueryId, QueryResponse,
};
use amd_obs::{Counter, Histogram, Registry, SpanId, Telemetry};
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

/// The hub's shared refresh budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FairnessPolicy {
    /// Most background rebuilds in flight at once, hub-wide. This is
    /// also the worker-pool size; tenants beyond it queue FIFO.
    pub max_inflight: usize,
}

impl Default for FairnessPolicy {
    /// One rebuild at a time — strict FIFO across tenants.
    fn default() -> Self {
        Self { max_inflight: 1 }
    }
}

/// When to re-rank the planner *between* refreshes (delta-aware early
/// rebind). The corrected path's predicted cost grows with delta
/// density; once the current binding plus its overlay is predicted
/// slower than a rebind would restore, waiting for the staleness budget
/// just serves queries slowly. Disabled by default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReRankPolicy {
    /// Delta density `nnz(ΔA) / nnz(A₀)` at which the hook starts
    /// evaluating ([`f64::INFINITY`] disables it).
    pub density_threshold: f64,
    /// Rebind early once the corrected prediction
    /// ([`amd_engine::Engine::predict_corrected_seconds`]) exceeds this
    /// factor times the plan's best predicted seconds.
    pub slowdown: f64,
}

impl Default for ReRankPolicy {
    /// Disabled.
    fn default() -> Self {
        Self {
            density_threshold: f64::INFINITY,
            slowdown: 1.0,
        }
    }
}

impl ReRankPolicy {
    /// Evaluate from the given delta density on; rebind as soon as the
    /// corrected prediction is worse than the plan's best at all.
    pub fn at_density(density_threshold: f64) -> Self {
        Self {
            density_threshold,
            slowdown: 1.0,
        }
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
    /// Which thread runs a refresh's build: a background worker, the
    /// swap committing at a later poll point (`true`, default), or the
    /// triggering call itself, which then pays the build's latency and
    /// commits at once (`false`). Nothing else differs.
    pub async_refresh: bool,
    /// Shared refresh budget and worker-pool size.
    pub fairness: FairnessPolicy,
    /// Delta-aware early-rebind policy (disabled by default).
    pub rerank: ReRankPolicy,
    /// Adaptive staleness budget: after every refresh, re-derive the
    /// tenant's `max_delta_nnz` from the measured refresh latency vs the
    /// predicted per-entry correction overhead
    /// ([`AdaptiveBudget::derive_nnz`]). Cheap (incremental) refreshes
    /// tighten the budget automatically; expensive cold rebuilds relax
    /// it. `None` (default) keeps budgets fixed.
    pub adaptive: Option<AdaptiveBudget>,
    /// Idle-eviction policy: a tenant that stays inactive (no updates,
    /// no queries) for more than this many hub [`poll`](StreamHub::poll)
    /// points is evicted automatically — binding deregistered, catalog
    /// chain garbage-collected, final stats retired to
    /// [`StreamHub::retired`]. `None` (default) keeps tenants forever;
    /// long-lived hubs serving churning tenant sets should set it.
    pub max_idle_polls: Option<u64>,
    /// Test/bench hook: a refresh build sleeps this long before
    /// building, simulating a slow LA-Decompose so tests can assert
    /// that serving does not block on a background rebuild.
    pub decompose_delay: Option<Duration>,
    /// Supervision: how many times a refresh whose worker *panicked* is
    /// automatically requeued (with exponential backoff) before the hub
    /// gives up on the pool and compacts synchronously — the counted
    /// fallback in [`HubStats::sync_fallbacks`]. Serving is bit-exact
    /// throughout either way; this only bounds how long a dying pool is
    /// retried.
    pub max_refresh_retries: u32,
    /// Base backoff before the first supervision retry, doubled per
    /// consecutive retry of the same grant. Zero requeues immediately.
    pub retry_backoff: Duration,
}

impl Default for HubConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            budget: StalenessBudget::default(),
            auto_refresh: true,
            async_refresh: true,
            fairness: FairnessPolicy::default(),
            rerank: ReRankPolicy::default(),
            adaptive: None,
            max_idle_polls: None,
            decompose_delay: None,
            max_refresh_retries: 3,
            retry_backoff: Duration::from_millis(1),
        }
    }
}

impl HubConfig {
    /// Default hub with the given per-tenant staleness budget.
    pub fn with_budget(budget: StalenessBudget) -> Self {
        Self {
            budget,
            ..Self::default()
        }
    }
}

/// Per-tenant counters (see [`HubStats`] for the hub-wide sums).
///
/// A point-in-time view folded from the tenant's registry counters
/// (`hub.tenant.<id>.*` in a metrics snapshot) plus the tenant's
/// refresh state — see [`StreamHub::tenant_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Updates accepted (including no-op updates).
    pub updates: u64,
    /// Queries submitted.
    pub queries: u64,
    /// Refreshes completed (committed swaps, wherever they were built).
    pub refreshes: u64,
    /// Refreshes triggered early by the re-rank policy rather than the
    /// staleness budget.
    pub early_rebinds: u64,
    /// Budget trips that arrived while a refresh was already queued or
    /// in flight — guarded, not double-triggered.
    pub suppressed_triggers: u64,
    /// Rebuilds that failed (build error or commit rejection); the
    /// captured delta was folded back and serving continued on the old
    /// binding.
    pub refresh_failures: u64,
    /// A background rebuild for this tenant is in flight right now.
    pub refreshing: bool,
    /// The tenant is waiting in the FIFO refresh queue.
    pub queued: bool,
    /// Hub-wide refresh slot (1-based [`HubStats::refreshes_started`]
    /// value) at which this tenant's latest refresh was granted; 0 when
    /// it never refreshed. The fairness probe: with `T` tenants queued,
    /// consecutive grants of the same tenant are at least `T` slots
    /// apart, so no queued tenant waits more than `T` slots.
    pub last_granted_slot: u64,
    /// Incremental-vs-fallback split of this tenant's completed
    /// refreshes that decomposed (`splice.incremental_refreshes +
    /// splice.fallback_refreshes = refreshes` on more than one rank; all
    /// zero on one, where a refresh decomposes nothing).
    pub splice: SpliceStats,
    /// The tenant's current adaptively derived `max_delta_nnz` budget
    /// (0 until the first refresh under an [`AdaptiveBudget`] policy).
    pub adaptive_budget_nnz: u64,
}

/// Hub-wide counters. Each counter is the sum of the corresponding
/// [`TenantStats`] counter over all tenants (including tenants since
/// evicted — their contributions stay in the hub totals).
///
/// A point-in-time view folded from the hub's registry counters
/// (`hub.*` in a metrics snapshot) — see [`StreamHub::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HubStats {
    /// Updates accepted across all tenants.
    pub updates: u64,
    /// Queries submitted across all tenants.
    pub queries: u64,
    /// Refresh grants taken (a supervision retry takes a new one).
    pub refreshes_started: u64,
    /// Refreshes that committed successfully. `refreshes_started` is
    /// this plus `refresh_failures`, the grants lost to a worker death
    /// or an eviction, and the rebuilds still in flight.
    pub refreshes_completed: u64,
    /// Rebuilds that failed (build error or commit rejection); the
    /// tenant's delta is restored and serving continues on the old
    /// binding. A pooled build's failure surfaces to no caller; an inline
    /// one is also the error of the call that ran it.
    pub refresh_failures: u64,
    /// Early rebinds triggered by the re-rank policy.
    pub early_rebinds: u64,
    /// Budget trips suppressed because a refresh was already pending.
    pub suppressed_triggers: u64,
    /// Incremental-vs-fallback split of completed refreshes hub-wide
    /// (`splice.incremental_refreshes + splice.fallback_refreshes =
    /// refreshes_completed` on more than one rank, zero on one); sum of
    /// the per-tenant [`TenantStats::splice`] counters.
    pub splice: SpliceStats,
    /// Tenants evicted ([`StreamHub::evict`] plus idle evictions).
    pub evictions: u64,
    /// The subset of `evictions` triggered by the
    /// [`max_idle_polls`](HubConfig::max_idle_polls) policy.
    pub idle_evictions: u64,
    /// Worker threads that died (panicked mid-build) and were
    /// replaced by supervision. The pool never shrinks: every death is
    /// matched by a respawn before the dead grant is retried.
    pub worker_restarts: u64,
    /// Dead grants requeued by supervision (each with exponential
    /// backoff). Resets nothing: a grant that needs three retries
    /// contributes three.
    pub refresh_retries: u64,
    /// Refreshes compacted synchronously after
    /// [`max_refresh_retries`](HubConfig::max_refresh_retries)
    /// consecutive worker deaths — the bounded-retry escape hatch.
    pub sync_fallbacks: u64,
}

/// Registry handles behind [`HubStats`] plus the hub's refresh-phase
/// latency histograms — the counters are the single source of truth;
/// the stats struct is a fold over them.
pub(crate) struct HubMetrics {
    updates: Counter,
    queries: Counter,
    pub(crate) refreshes_started: Counter,
    pub(crate) refreshes_completed: Counter,
    pub(crate) refresh_failures: Counter,
    early_rebinds: Counter,
    suppressed_triggers: Counter,
    evictions: Counter,
    idle_evictions: Counter,
    pub(crate) worker_restarts: Counter,
    pub(crate) refresh_retries: Counter,
    pub(crate) sync_fallbacks: Counter,
    pub(crate) splice: SpliceCounters,
    /// Decompose seconds of committed refreshes that decomposed, from
    /// the [`RefreshOutcome`](arrow_core::incremental::RefreshOutcome)'s
    /// own phase timings.
    pub(crate) decompose_seconds: Histogram,
    pub(crate) extract_seconds: Histogram,
    pub(crate) splice_seconds: Histogram,
}

impl HubMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            updates: registry.counter("hub.updates"),
            queries: registry.counter("hub.queries"),
            refreshes_started: registry.counter("hub.refreshes_started"),
            refreshes_completed: registry.counter("hub.refreshes_completed"),
            refresh_failures: registry.counter("hub.refresh_failures"),
            early_rebinds: registry.counter("hub.early_rebinds"),
            suppressed_triggers: registry.counter("hub.suppressed_triggers"),
            evictions: registry.counter("hub.evictions"),
            idle_evictions: registry.counter("hub.idle_evictions"),
            worker_restarts: registry.counter("hub.worker_restarts"),
            refresh_retries: registry.counter("hub.refresh_retries"),
            sync_fallbacks: registry.counter("hub.sync_fallbacks"),
            splice: SpliceCounters::new(registry, "hub."),
            decompose_seconds: registry.histogram("refresh.decompose.seconds"),
            extract_seconds: registry.histogram("refresh.extract.seconds"),
            splice_seconds: registry.histogram("refresh.splice.seconds"),
        }
    }
}

/// Registry handles behind one tenant's [`TenantStats`] counters,
/// named `hub.tenant.<id>.*`; removed from the registry when the
/// tenant is evicted (the hub-wide sums keep its contributions).
pub(crate) struct TenantMetrics {
    updates: Counter,
    queries: Counter,
    pub(crate) refreshes: Counter,
    early_rebinds: Counter,
    suppressed_triggers: Counter,
    pub(crate) refresh_failures: Counter,
    pub(crate) splice: SpliceCounters,
}

impl TenantMetrics {
    fn new(registry: &Registry, id: TenantId) -> Self {
        let prefix = format!("hub.tenant.{}.", id.0);
        Self {
            updates: registry.counter(&format!("{prefix}updates")),
            queries: registry.counter(&format!("{prefix}queries")),
            refreshes: registry.counter(&format!("{prefix}refreshes")),
            early_rebinds: registry.counter(&format!("{prefix}early_rebinds")),
            suppressed_triggers: registry.counter(&format!("{prefix}suppressed_triggers")),
            refresh_failures: registry.counter(&format!("{prefix}refresh_failures")),
            splice: SpliceCounters::new(registry, &prefix),
        }
    }
}

/// A background rebuild in flight for one tenant.
pub(crate) struct InFlight {
    /// The delta snapshot compacted into the rebuild (`merged = base +
    /// captured`). Still being *served* (merged into the overlay) until
    /// the swap commits.
    pub(crate) captured: DeltaBuilder<f64>,
    /// Predicted corrected-path seconds per pending delta entry at
    /// grant time — the adaptive budget's overhead signal, combined at
    /// commit with the measured build latency.
    pub(crate) per_entry_seconds: f64,
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
    /// The grant this tenant holds, while its rebuild is in flight.
    pub(crate) inflight: Option<InFlight>,
    /// Delta length at the last re-rank evaluation: 0 = none since the
    /// last compaction, [`usize::MAX`] = a positive verdict latched
    /// (don't re-evaluate until the delta compacts).
    pub(crate) rerank_mark: usize,
    /// Hub poll points since this tenant's last update or query — the
    /// idle-eviction clock.
    idle_polls: u64,
    pub(crate) metrics: TenantMetrics,
    /// Waiting in the FIFO refresh queue.
    pub(crate) queued: bool,
    /// Hub-wide slot of the latest refresh grant (see
    /// [`TenantStats::last_granted_slot`]).
    pub(crate) last_granted_slot: u64,
    /// Current adaptively derived budget (see
    /// [`TenantStats::adaptive_budget_nnz`]).
    pub(crate) adaptive_budget_nnz: u64,
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
        let captured = self
            .inflight
            .as_ref()
            .map_or(0.0, |f| f.captured.get(row, col));
        self.base.get(row, col) + captured + self.delta.get(row, col)
    }

    /// The full pending correction `captured + delta` as CSR.
    fn overlay_csr(&self) -> SparseResult<CsrMatrix<f64>> {
        match &self.inflight {
            Some(f) => ops::apply_delta(&f.captured.to_csr(), &self.delta.to_csr()),
            None => Ok(self.delta.to_csr()),
        }
    }

    pub(crate) fn needs_refresh(&self) -> bool {
        self.budget
            .exceeded(self.delta.len(), self.delta.mass(), self.base.nnz())
    }

    pub(crate) fn refresh_pending(&self) -> bool {
        self.queued || self.inflight.is_some()
    }

    /// The tenant's counters and refresh state as a [`TenantStats`]
    /// view.
    fn stats_view(&self) -> TenantStats {
        TenantStats {
            updates: self.metrics.updates.get(),
            queries: self.metrics.queries.get(),
            refreshes: self.metrics.refreshes.get(),
            early_rebinds: self.metrics.early_rebinds.get(),
            suppressed_triggers: self.metrics.suppressed_triggers.get(),
            refresh_failures: self.metrics.refresh_failures.get(),
            refreshing: self.inflight.is_some(),
            queued: self.queued,
            last_granted_slot: self.last_granted_slot,
            splice: self.metrics.splice.stats(),
            adaptive_budget_nnz: self.adaptive_budget_nnz,
        }
    }
}

/// A multi-tenant streaming hub. See the [module docs](self).
pub struct StreamHub {
    pub(crate) engine: Engine,
    pub(crate) config: HubConfig,
    pub(crate) tenants: HashMap<u64, Tenant>,
    /// Admission order, for stable iteration.
    order: Vec<TenantId>,
    /// Queue, builders and grants out (see [`crate::refresh`]).
    pub(crate) refreshes: RefreshState,
    next_tenant: u64,
    /// Final stats of tenants evicted by the idle policy, in eviction
    /// order (explicit [`evict`](Self::evict) returns them instead).
    retired: Vec<(TenantId, TenantStats)>,
    pub(crate) metrics: HubMetrics,
}

impl StreamHub {
    /// Stands up the engine (and, with `async_refresh`, the worker
    /// pool). No tenants yet — [`admit`](Self::admit) them. Telemetry
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
        let metrics = HubMetrics::new(&engine.telemetry().registry);
        Ok(Self {
            engine,
            config,
            tenants: HashMap::new(),
            order: Vec::new(),
            refreshes,
            next_tenant: 1,
            retired: Vec::new(),
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
        let matrix = self.engine.register_salted(&a, id.0 as u128)?;
        self.next_tenant += 1;
        let n = a.rows();
        let metrics = TenantMetrics::new(&self.engine.telemetry().registry, id);
        self.tenants.insert(
            id.0,
            Tenant {
                matrix,
                base: Arc::new(a),
                delta: DeltaBuilder::new(n, n),
                budget,
                overlay_dirty: false,
                inflight: None,
                rerank_mark: 0,
                idle_polls: 0,
                metrics,
                queued: false,
                last_granted_slot: 0,
                adaptive_budget_nnz: 0,
                refresh_span: SpanId::NONE,
                retries: 0,
                backoff: None,
            },
        );
        self.order.push(id);
        Ok(id)
    }

    /// A borrowed per-tenant handle (errors for unknown tenants).
    pub fn session(&mut self, tenant: TenantId) -> SparseResult<Session<'_>> {
        self.tenant(tenant)?;
        Ok(Session { hub: self, tenant })
    }

    /// Admitted tenants, in admission order.
    pub fn tenants(&self) -> &[TenantId] {
        &self.order
    }

    pub(crate) fn tenant(&self, id: TenantId) -> SparseResult<&Tenant> {
        self.tenants
            .get(&id.0)
            .ok_or_else(|| SparseError::InvalidCsr(format!("{id} is not admitted")))
    }

    pub(crate) fn tenant_mut(&mut self, id: TenantId) -> SparseResult<&mut Tenant> {
        self.tenants
            .get_mut(&id.0)
            .ok_or_else(|| SparseError::InvalidCsr(format!("{id} is not admitted")))
    }

    /// Applies one update to a tenant's served matrix; returns `true`
    /// when the update tripped (or found tripped) the tenant's staleness
    /// budget — i.e. a refresh was triggered, queued, or (manual mode)
    /// is now required.
    pub fn update(&mut self, tenant: TenantId, update: Update) -> SparseResult<bool> {
        self.touch(tenant);
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
        // Delta-aware re-rank: between budget trips, rebind early once
        // the corrected path is predicted slower than a rebind would be.
        if !pending && self.rerank_wants_rebind(tenant)? {
            let t = self.tenant_mut(tenant)?;
            t.metrics.early_rebinds.inc();
            self.metrics.early_rebinds.inc();
            if self.config.auto_refresh {
                self.request_refresh(tenant)?;
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// Evaluates the [`ReRankPolicy`] for a tenant: above the density
    /// threshold, predict the corrected path's per-iteration seconds on
    /// the current binding and compare with the plan's best. The
    /// evaluation itself is `O(nnz(ΔA))`, so it re-runs only after the
    /// delta has grown by a quarter of the threshold mass since the last
    /// check, and a positive verdict latches (no re-evaluation, and no
    /// double-counted early rebind) until the next compaction.
    fn rerank_wants_rebind(&mut self, tenant: TenantId) -> SparseResult<bool> {
        let policy = self.config.rerank;
        if policy.density_threshold.is_infinite() {
            return Ok(false);
        }
        let (matrix, delta_csr, len) = {
            let t = self.tenant(tenant)?;
            if t.delta.is_empty() || t.rerank_mark == usize::MAX {
                return Ok(false);
            }
            let len = t.delta.len();
            let threshold_nnz = policy.density_threshold * t.base.nnz().max(1) as f64;
            if (len as f64) < threshold_nnz {
                return Ok(false);
            }
            let stride = (threshold_nnz / 4.0).ceil().max(1.0) as usize;
            if t.rerank_mark != 0 && len < t.rerank_mark.saturating_add(stride) {
                return Ok(false);
            }
            (t.matrix, t.delta.to_csr(), len)
        };
        let corrected = self.engine.predict_corrected_seconds(matrix, &delta_csr)?;
        let best = self
            .engine
            .plan_report(matrix)
            .and_then(|p| p.first())
            .map(|p| p.seconds)
            .unwrap_or(f64::INFINITY);
        let rebind = corrected > policy.slowdown * best;
        self.tenant_mut(tenant)?.rerank_mark = if rebind { usize::MAX } else { len };
        Ok(rebind)
    }

    /// Requests a refresh for a tenant: queues it and launches what the
    /// shared budget allows — with `async_refresh` off, that is the whole
    /// refresh, committed before this returns. Returns `false` when there
    /// is nothing to do — empty delta, or a refresh already pending.
    pub fn refresh(&mut self, tenant: TenantId) -> SparseResult<bool> {
        self.touch(tenant);
        self.poll()?;
        self.request_refresh(tenant)
    }

    /// Resets a tenant's idle clock (any sign of life counts).
    fn touch(&mut self, tenant: TenantId) {
        if let Some(t) = self.tenants.get_mut(&tenant.0) {
            t.idle_polls = 0;
        }
    }

    /// Drains finished rebuilds (non-blocking), commits their swaps, and
    /// launches queued work into the freed slots. Called internally at
    /// every entry point; call it directly when idling between events.
    /// Returns the number of swaps committed.
    pub fn poll(&mut self) -> SparseResult<usize> {
        let committed = self.land_finished()?;
        self.sweep_idle()?;
        Ok(committed)
    }

    /// The idle-eviction pass of [`poll`](Self::poll): advance every
    /// tenant's idle clock and evict those past
    /// [`max_idle_polls`](HubConfig::max_idle_polls). A tenant with a
    /// rebuild queued/in flight, queries pending, or a **non-empty
    /// delta** is skipped (its clock keeps running; it goes at a later
    /// poll once quiescent) — idle eviction must never discard
    /// acknowledged updates that were never compacted, unlike an
    /// explicit [`evict`](Self::evict), where dropping the pending
    /// delta is the caller's stated intent.
    fn sweep_idle(&mut self) -> SparseResult<()> {
        let Some(max) = self.config.max_idle_polls else {
            return Ok(());
        };
        let mut victims = Vec::new();
        for (&id, t) in self.tenants.iter_mut() {
            t.idle_polls += 1;
            if t.idle_polls > max
                && t.inflight.is_none()
                && !t.queued
                && t.delta.is_empty()
                && self.engine.pending_for(t.matrix) == 0
            {
                victims.push(TenantId(id));
            }
        }
        victims.sort();
        for v in victims {
            let stats = self.evict_now(v)?;
            self.metrics.idle_evictions.inc();
            self.retired.push((v, stats));
        }
        Ok(())
    }

    /// Evicts a tenant: its pending queries must be flushed first (the
    /// engine's ownership check refuses otherwise), any queued or
    /// in-flight background rebuild is **drained** — the grant is given
    /// up without committing, other tenants' completions commit
    /// normally — the salted binding is deregistered (overlay and cache
    /// reference released), and the tenant's catalog version chain is
    /// removed, sparing only revisions another live binding still
    /// depends on. Returns the tenant's final [`TenantStats`]; the hub
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
        self.evict_now(tenant)
    }

    /// The teardown half of an eviction; assumes the tenant is
    /// quiescent (no queue slot, no in-flight rebuild, no pending
    /// queries).
    fn evict_now(&mut self, tenant: TenantId) -> SparseResult<TenantStats> {
        let matrix = self.tenant(tenant)?.matrix;
        let head = self.engine.binding_fingerprint(matrix);
        self.engine.deregister(matrix)?;
        // Catalog sweep: drop the tenant's version chain, sparing
        // revisions other live bindings still reach.
        if let Some(head) = head {
            let live = self.engine.bound_fingerprints();
            if let Some(catalog) = self.engine.catalog_mut() {
                catalog.remove_chain(head, &live)?;
            }
        }
        let t = self
            .tenants
            .remove(&tenant.0)
            .expect("tenant validated above");
        self.order.retain(|&x| x != tenant);
        self.metrics.evictions.inc();
        let stats = t.stats_view();
        // The tenant's metric names leave the registry with it; the
        // hub-wide sums keep its contributions. (The handles in
        // `stats` above already folded their final values.)
        self.engine
            .telemetry()
            .registry
            .remove_prefix(&format!("hub.tenant.{}.", tenant.0));
        Ok(stats)
    }

    /// Final stats of tenants the idle policy evicted, in eviction
    /// order (an explicit [`evict`](Self::evict) returns them to the
    /// caller instead of retiring them here).
    pub fn retired(&self) -> &[(TenantId, TenantStats)] {
        &self.retired
    }

    /// Pushes a tenant's pending correction into the engine as an
    /// overlay (no-op when already in sync).
    fn sync_overlay(&mut self, tenant: TenantId) -> SparseResult<()> {
        let (matrix, overlay) = {
            let t = self.tenant(tenant)?;
            if !t.overlay_dirty {
                return Ok(());
            }
            (t.matrix, t.overlay_csr()?)
        };
        self.engine.set_delta(matrix, overlay)?;
        self.tenant_mut(tenant)?.overlay_dirty = false;
        Ok(())
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
        self.touch(tenant);
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
        for tenant in self.order.clone() {
            self.sync_overlay(tenant)?;
        }
        self.engine.flush()
    }

    /// Answers only **one tenant's** pending queries, leaving every
    /// other tenant's queue untouched: query ownership is tracked
    /// through the salted binding, so a session can drain itself
    /// without forcing runs (or paying flush latency) for the whole
    /// hub. Batching within the tenant is identical to a hub-wide
    /// flush.
    pub fn flush_tenant(&mut self, tenant: TenantId) -> SparseResult<Vec<QueryResponse>> {
        self.touch(tenant);
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
        self.touch(tenant);
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
        Ok(t.delta.len() + t.inflight.as_ref().map_or(0, |f| f.captured.len()))
    }

    /// `true` once the tenant's live delta exceeds its budget.
    pub fn needs_refresh(&self, tenant: TenantId) -> SparseResult<bool> {
        Ok(self.tenant(tenant)?.needs_refresh())
    }

    /// The tenant's current staleness budget (as admitted, or as last
    /// re-derived by the [`AdaptiveBudget`] policy).
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
        Ok(self.tenant(tenant)?.stats_view())
    }

    /// Hub-wide counters (sums of the per-tenant ones), folded from
    /// the registry.
    pub fn stats(&self) -> HubStats {
        HubStats {
            updates: self.metrics.updates.get(),
            queries: self.metrics.queries.get(),
            refreshes_started: self.metrics.refreshes_started.get(),
            refreshes_completed: self.metrics.refreshes_completed.get(),
            refresh_failures: self.metrics.refresh_failures.get(),
            early_rebinds: self.metrics.early_rebinds.get(),
            suppressed_triggers: self.metrics.suppressed_triggers.get(),
            splice: self.metrics.splice.stats(),
            evictions: self.metrics.evictions.get(),
            idle_evictions: self.metrics.idle_evictions.get(),
            worker_restarts: self.metrics.worker_restarts.get(),
            refresh_retries: self.metrics.refresh_retries.get(),
            sync_fallbacks: self.metrics.sync_fallbacks.get(),
        }
    }

    /// The wrapped engine's serving counters.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// The wrapped engine's decomposition-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// The persistence catalog behind the engine's cache, when the hub
    /// was configured with a spill directory.
    pub fn catalog(&self) -> Option<&arrow_core::Catalog> {
        self.engine.catalog()
    }

    /// Mutable access to the persistence catalog (GC sweeps between
    /// serving bursts).
    pub fn catalog_mut(&mut self) -> Option<&mut arrow_core::Catalog> {
        self.engine.catalog_mut()
    }
}

/// A lightweight per-tenant handle borrowing the hub: the same
/// operations as the [`StreamHub`] tenant methods without repeating the
/// [`TenantId`]. Create one per interaction via
/// [`StreamHub::session`]; it is `repr`-free and costs nothing.
pub struct Session<'a> {
    hub: &'a mut StreamHub,
    tenant: TenantId,
}

impl Session<'_> {
    /// The tenant this session addresses.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// See [`StreamHub::update`].
    pub fn update(&mut self, update: Update) -> SparseResult<bool> {
        self.hub.update(self.tenant, update)
    }

    /// See [`StreamHub::submit`].
    pub fn submit(
        &mut self,
        x: Vec<f64>,
        iters: u32,
        sigma: Option<Sigma>,
    ) -> SparseResult<QueryId> {
        self.hub.submit(self.tenant, x, iters, sigma)
    }

    /// See [`StreamHub::flush_tenant`]: drains **this tenant's**
    /// pending queries only. Other tenants' queries stay queued for
    /// their own flush (or a hub-wide [`StreamHub::flush`]).
    pub fn flush(&mut self) -> SparseResult<Vec<QueryResponse>> {
        self.hub.flush_tenant(self.tenant)
    }

    /// See [`StreamHub::run_single`].
    pub fn run_single(
        &mut self,
        x: Vec<f64>,
        iters: u32,
        sigma: Option<Sigma>,
    ) -> SparseResult<QueryResponse> {
        self.hub.run_single(self.tenant, x, iters, sigma)
    }

    /// See [`StreamHub::refresh`].
    pub fn refresh(&mut self) -> SparseResult<bool> {
        self.hub.refresh(self.tenant)
    }

    /// See [`StreamHub::needs_refresh`].
    pub fn needs_refresh(&self) -> bool {
        self.hub
            .needs_refresh(self.tenant)
            .expect("session tenant is admitted")
    }

    /// See [`StreamHub::version`].
    pub fn version(&self) -> u64 {
        self.hub
            .version(self.tenant)
            .expect("session tenant is admitted")
    }

    /// See [`StreamHub::delta_nnz`].
    pub fn delta_nnz(&self) -> usize {
        self.hub
            .delta_nnz(self.tenant)
            .expect("session tenant is admitted")
    }

    /// See [`StreamHub::tenant_stats`].
    pub fn stats(&self) -> TenantStats {
        self.hub
            .tenant_stats(self.tenant)
            .expect("session tenant is admitted")
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
        assert_eq!(sa.early_rebinds + sb.early_rebinds, hs.early_rebinds);
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
    fn rerank_policy_rebinds_early() {
        let n = 40;
        let mut cfg = config(usize::MAX); // budget never trips
        cfg.budget = StalenessBudget::default();
        cfg.rerank = ReRankPolicy::at_density(0.05);
        cfg.async_refresh = false; // deterministic: rebind inline
        let mut hub = StreamHub::new(cfg).unwrap();
        let t = hub.admit(ring(n)).unwrap();
        let mut rebound = false;
        for i in 0..20u32 {
            rebound |= hub
                .update(
                    t,
                    Update::Add {
                        row: i,
                        col: (i + 13) % n,
                        delta: 1.0,
                    },
                )
                .unwrap();
            if rebound {
                break;
            }
        }
        assert!(rebound, "density 5% must trigger the re-rank hook");
        assert!(hub.tenant_stats(t).unwrap().early_rebinds >= 1);
        assert_eq!(hub.stats().refreshes_completed, 1, "rebound early");
        assert_eq!(hub.version(t).unwrap(), 1);
        assert!(!hub.needs_refresh(t).unwrap());
    }

    #[test]
    fn session_handle_round_trip() {
        let n = 28;
        let mut hub = StreamHub::new(config(3)).unwrap();
        let t = hub.admit(ring(n)).unwrap();
        let mut s = hub.session(t).unwrap();
        assert_eq!(s.tenant(), t);
        assert_eq!(s.version(), 0);
        s.update(Update::Add {
            row: 0,
            col: 14,
            delta: 2.0,
        })
        .unwrap();
        assert_eq!(s.delta_nnz(), 1);
        assert_eq!(s.stats().updates, 1);
        s.submit(vec![1.0; n as usize], 1, None).unwrap();
        let responses = s.flush().unwrap();
        assert_eq!(responses.len(), 1);
        assert!(!s.needs_refresh());
        assert!(s.refresh().unwrap());
        hub.wait_refreshes().unwrap();
        assert_eq!(hub.version(t).unwrap(), 1);
        assert!(hub.session(TenantId(99)).is_err());
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
        // Session flush drains only its own tenant.
        let mine = hub.session(a).unwrap().flush().unwrap();
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

    #[test]
    fn idle_policy_evicts_quiet_tenants() {
        let n = 24;
        let mut cfg = config(100);
        cfg.max_idle_polls = Some(3);
        let mut hub = StreamHub::new(cfg).unwrap();
        let quiet = hub.admit(ring(n)).unwrap();
        let dirty = hub.admit(ring(n)).unwrap();
        let busy = hub.admit(basic::star(n).to_adjacency()).unwrap();
        // One tenant holds un-compacted updates below its budget, then
        // goes quiet too: it must NOT be idle-evicted (that would
        // silently discard acknowledged mutations).
        hub.update(
            dirty,
            Update::Add {
                row: 0,
                col: 9,
                delta: 2.0,
            },
        )
        .unwrap();
        // Keep one tenant busy; the others go quiet.
        for i in 0..8u32 {
            hub.update(
                busy,
                Update::Add {
                    row: i,
                    col: i + 5,
                    delta: 1.0,
                },
            )
            .unwrap();
        }
        assert_eq!(hub.stats().idle_evictions, 1);
        assert_eq!(hub.stats().evictions, 1);
        let retired = hub.retired();
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].0, quiet);
        assert_eq!(hub.tenants(), &[dirty, busy]);
        // The dirty tenant's pending delta survived in full.
        assert_eq!(hub.delta_nnz(dirty).unwrap(), 1);
        // The busy tenant was touched every round and survives.
        assert!(hub.version(busy).is_ok());
    }
}
