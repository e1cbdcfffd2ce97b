//! The serving engine: registration, query batching, and execution.
//!
//! A matrix is **registered** once: fingerprinted, planned by the
//! [`planner`](crate::planner), and bound to the winning algorithm — on
//! a deployment of more than one rank after being decomposed through the
//! [`DecompositionCache`], because the distributed candidates are built
//! from a decomposition; on one rank without, because the plan there
//! reads the CSR and nothing else (see [`EngineConfig::target_ranks`]).
//! **Queries** — single-column multiply requests against a
//! registered matrix — are then submitted to a queue; [`Engine::flush`]
//! coalesces all compatible pending queries (same matrix, iteration
//! count, and σ) into one multi-RHS [`DenseMatrix`] run.
//!
//! Batching is exact, not approximate: every algorithm here — the
//! shared-memory one a default engine binds and the four distributed
//! ones — computes output columns independently (the per-column
//! accumulation order does not depend on the operand width), so a
//! batched answer is bit-identical to the per-query answer while paying
//! the per-run fixed costs — one walk over the matrix; on a distributed
//! deployment also rank dispatch and per-message latency α — once per
//! batch instead of once per query.

use crate::attribution::{AttributionMetrics, QueryCost, RunAttribution};
use crate::cache::{CacheStats, DecompositionCache};
use crate::planner::{plan, plan_local, Plan, PlannerConfig, Prediction};
use amd_chaos::failpoint;
use amd_comm::CostModel;
use amd_obs::{Counter, Gauge, Histogram, SpanId, Stopwatch, Telemetry};
use amd_sparse::{ops, CsrMatrix, DenseMatrix, Dtype, SparseError, SparseResult};
use amd_spmm::traits::Sigma;
use amd_spmm::{DeltaSpmm, DistSpmm};
use arrow_core::incremental::{decompose_snapshot_incremental, IncrementalPolicy, RefreshOutcome};
use arrow_core::{ArrowDecomposition, DecomposeConfig};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// Transient multiply errors (the `engine.multiply.transient` chaos
/// failpoint — never real planner/kernel errors) retried in place before
/// the error surfaces to the caller. Each retry counts into
/// [`EngineStats::multiply_retries`].
const MAX_MULTIPLY_RETRIES: u32 = 2;

/// Handle to a registered matrix: its content fingerprint folded with
/// the caller-supplied registration salt (zero for plain
/// [`Engine::register`], so the id *is* the fingerprint there). Distinct
/// salts keep bindings of identical content separate — a multi-tenant
/// holder can give every tenant its own binding (own overlay, own
/// version lineage) while, where one is computed at all, the
/// decomposition cache still shares the expensive LA-Decompose by
/// content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixId(pub u128);

/// Folds a registration salt into a content fingerprint (FNV-1a over the
/// salt bytes, seeded by the fingerprint). Salt zero is the identity.
fn salted_id(fingerprint: u128, salt: u128) -> u128 {
    if salt == 0 {
        return fingerprint;
    }
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = fingerprint;
    for byte in salt.to_le_bytes() {
        h ^= byte as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Handle to a submitted query; responses carry it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryId(pub u64);

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Arrow width used when decomposing registered matrices.
    pub arrow_width: u32,
    /// Seed for the decomposition's random-forest arrangement.
    pub decompose_seed: u64,
    /// Decompositions held in memory (LRU beyond this).
    pub cache_capacity: usize,
    /// Write-through spill directory for decompositions; `None`
    /// disables persistence. A one-rank engine computes none, so it
    /// leaves the directory empty.
    pub spill_dir: Option<PathBuf>,
    /// Cost model for the planner.
    pub cost: CostModel,
    /// Ranks the deployment has. The default, `1`, is the host this
    /// process runs on: every binding is the shared-memory
    /// `LocalSpmm`, no simulated machine runs, and — since that plan
    /// reads only the CSR — no decomposition is computed, cached or
    /// written to `spill_dir`, at registration or at a refresh. Above
    /// `1` the matrix is taken to be distributed: it is decomposed once
    /// through the cache and the planner ranks the four distributed
    /// algorithms with this as the baselines' rank budget.
    pub target_ranks: u32,
    /// Largest number of queries coalesced into one run.
    pub max_batch: usize,
    /// When a refresh may splice the prior decomposition instead of
    /// re-running LA-Decompose from scratch (see
    /// [`arrow_core::incremental`]).
    pub incremental: IncrementalPolicy,
    /// Serving precision: every candidate algorithm is planned and run
    /// at this dtype. `f32` halves the bytes the cost model charges per
    /// value moved and runs local tile multiplies at emulated f32
    /// precision (f64 accumulation); `f64` is the exact default.
    pub dtype: Dtype,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            arrow_width: 64,
            decompose_seed: 42,
            cache_capacity: 8,
            spill_dir: None,
            cost: CostModel::default(),
            target_ranks: 1,
            max_batch: 64,
            incremental: IncrementalPolicy::default(),
            dtype: Dtype::default(),
        }
    }
}

/// A single multiply request: `y = σ(A·…σ(A·x))`, `iters` times.
#[derive(Debug, Clone)]
pub struct MultiplyQuery {
    /// Which registered matrix to multiply by.
    pub matrix: MatrixId,
    /// The operand column (`n` entries).
    pub x: Vec<f64>,
    /// Number of multiply iterations.
    pub iters: u32,
    /// Optional element-wise activation between iterations.
    pub sigma: Option<Sigma>,
}

/// The answer to one query.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The query this answers.
    pub id: QueryId,
    /// Result column (`n` entries).
    pub y: Vec<f64>,
    /// How many queries shared the run that produced this answer.
    pub batch_size: usize,
    /// Attributed cost of the run that answered this query (shared by
    /// the whole batch — divide by `batch_size` for a per-query
    /// share). `None` when the engine's telemetry is disabled.
    pub cost: Option<QueryCost>,
}

/// Serving counters.
///
/// A point-in-time view folded from the engine's registry counters
/// (`engine.*` in a metrics snapshot) — see [`Engine::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries answered.
    pub queries: u64,
    /// Distributed runs launched.
    pub runs: u64,
    /// Largest batch coalesced so far.
    pub largest_batch: usize,
    /// Runs answered through the delta-corrected path (a non-empty
    /// overlay was pending on the queried matrix).
    pub corrected_runs: u64,
    /// Streaming refreshes absorbed: an updated matrix replaced its
    /// predecessor via [`Engine::refresh`].
    pub refreshes: u64,
    /// Bindings dropped via [`Engine::deregister`] (overlay and cache
    /// reference released with them).
    pub deregistered: u64,
    /// Rank-agreement checks where the accounted volumes, substituted
    /// back into the cost model, would have ranked a different
    /// algorithm first (see [`attribution`](crate::attribution)).
    pub mispredictions: u64,
    /// Transient multiply errors absorbed by the in-place retry loop
    /// (injected by the `engine.multiply.transient` failpoint; a real
    /// serving run never errors transiently).
    pub multiply_retries: u64,
}

struct BoundMatrix {
    n: u32,
    /// Content fingerprint of the registered matrix (unsalted) — on a
    /// many-rank engine the key under which the cache holds this
    /// binding's decomposition.
    fingerprint: u128,
    algo: Box<dyn DistSpmm + Send + Sync>,
    chosen: String,
    predictions: Vec<Prediction>,
    /// Streaming revision of this binding (0 at registration, carried
    /// forward +1 by [`Engine::refresh`]).
    version: u64,
    /// Pending sparse correction `ΔA`; runs go through
    /// [`DeltaSpmm`] while this is non-empty.
    overlay: Option<CsrMatrix<f64>>,
    /// Registration salt of this binding (see [`MatrixId`]); a refresh
    /// keeps its successor under the same salt.
    salt: u128,
    /// Mean active-prefix fraction of the levels of the decomposition
    /// the binding was planned from (Σ activeᵢ / (levels · n)) — the
    /// share of permuted rows the fused kernel actually touches; carried
    /// into trace events. `None` on one rank, where there is none.
    active_prefix: Option<f64>,
}

/// Where a registration sits in its binding's history.
struct Lineage {
    /// Streaming revision (0 for a cold registration).
    version: u64,
    /// Registration salt (see [`MatrixId`]).
    salt: u128,
    /// Content fingerprint this registration was refreshed from (0 for
    /// a cold one) — recorded in the persistence catalog so version
    /// chains track delta lineage.
    parent: u128,
}

/// The immutable half of a refresh, produced by
/// [`Engine::prepare_refresh`]: everything [`build`](Self::build) needs
/// to produce the next binding's inputs *off-thread* — while the engine
/// keeps serving the old binding — plus the identity needed to
/// [`commit`](Engine::commit_refresh) the swap afterwards. The ticket
/// borrows nothing, so it can move to another thread.
#[derive(Debug, Clone)]
pub struct RefreshTicket {
    /// The binding to replace.
    pub old: MatrixId,
    /// Dimension of that binding; a build of any other shape is refused.
    pub n: u32,
    /// Whether the build computes a decomposition of the merged matrix
    /// (splice or cold, per `prior`, `touched` and `incremental`): on a
    /// deployment of more than one rank, when the caller named the
    /// touched vertices. A one-rank binding reads no decomposition, and
    /// a refresh that cannot say what changed takes its decomposition
    /// from the cache at commit.
    pub decompose: bool,
    /// Decomposition parameters the engine would use (arrow width etc.).
    pub config: DecomposeConfig,
    /// Arrangement seed the engine would use.
    pub seed: u64,
    /// The old binding's decomposition, when it was still resident in
    /// the cache at [`prepare_refresh`](Engine::prepare_refresh) time —
    /// the splice base of an incremental re-decomposition.
    pub prior: Option<Arc<ArrowDecomposition>>,
    /// Every vertex incident to a difference between the old binding's
    /// content and the merged snapshot; `None` when unknown.
    pub touched: Option<Vec<u32>>,
    /// The engine's incremental-refresh policy, carried along so a
    /// worker thread decides incremental-vs-cold exactly as the engine
    /// would.
    pub incremental: IncrementalPolicy,
}

/// What a refresh build hands to [`Engine::commit_refresh`] beside the
/// merged matrix itself. Only [`RefreshTicket::build`] and
/// [`build_merged`](RefreshTicket::build_merged) make one, so the
/// fingerprint commit adopts is always one the build hashed.
#[derive(Debug)]
pub struct RefreshBuild {
    /// Content fingerprint of the merged matrix — hashed once, by the
    /// build; commit does not hash again.
    fingerprint: u128,
    /// The merged matrix's decomposition and what computing it did;
    /// `None` when the ticket did not ask for one.
    decomposition: Option<(ArrowDecomposition, RefreshOutcome)>,
}

impl RefreshBuild {
    /// Content fingerprint of the merged matrix.
    pub fn fingerprint(&self) -> u128 {
        self.fingerprint
    }

    /// What computing the decomposition did; `None` when the ticket did
    /// not ask for one.
    pub fn outcome(&self) -> Option<RefreshOutcome> {
        self.decomposition.as_ref().map(|(_, outcome)| *outcome)
    }
}

impl RefreshTicket {
    /// The refresh build, start to finish: merge `base + delta`,
    /// fingerprint the result, decompose it if the ticket asks. Touches
    /// no engine state, so a refresh worker runs it off the serving
    /// thread; a caller that already holds the merged matrix enters at
    /// [`build_merged`](Self::build_merged).
    pub fn build(
        &self,
        base: &CsrMatrix<f64>,
        delta: &CsrMatrix<f64>,
    ) -> SparseResult<(CsrMatrix<f64>, RefreshBuild)> {
        let merged = ops::apply_delta(base, delta)?;
        let built = self.build_merged(&merged, merged.fingerprint())?;
        Ok((merged, built))
    }

    /// [`build`](Self::build) from its merge step on. `fingerprint` is
    /// `merged.fingerprint()`, which the caller computed (once).
    pub fn build_merged(
        &self,
        merged: &CsrMatrix<f64>,
        fingerprint: u128,
    ) -> SparseResult<RefreshBuild> {
        if merged.rows() != self.n || merged.cols() != self.n {
            return Err(SparseError::ShapeMismatch {
                left: (self.n, self.n),
                right: (merged.rows(), merged.cols()),
            });
        }
        let decomposition = if self.decompose {
            Some(decompose_snapshot_incremental(
                merged,
                &self.config,
                self.seed,
                self.prior.as_deref(),
                self.touched.as_deref(),
                &self.incremental,
            )?)
        } else {
            None
        };
        Ok(RefreshBuild {
            fingerprint,
            decomposition,
        })
    }
}

/// Registry handles behind [`EngineStats`] plus the engine's latency
/// histograms — the counters are the single source of truth; the stats
/// struct is a fold over them.
struct EngineMetrics {
    queries: Counter,
    runs: Counter,
    corrected_runs: Counter,
    refreshes: Counter,
    deregistered: Counter,
    multiply_retries: Counter,
    largest_batch: Gauge,
    batch_size: Histogram,
    multiply_seconds: Histogram,
    refresh_seconds: Histogram,
    /// Serving precision in bytes per value (4 = f32, 8 = f64) — a
    /// config echo so a metrics snapshot identifies the serving mode.
    dtype_bytes: Gauge,
    /// Cost-attribution handles (`engine.plan.*`, `engine.algo.*`).
    attribution: AttributionMetrics,
}

impl EngineMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        let registry = &telemetry.registry;
        Self {
            queries: registry.counter("engine.queries"),
            runs: registry.counter("engine.runs"),
            corrected_runs: registry.counter("engine.corrected_runs"),
            refreshes: registry.counter("engine.refreshes"),
            deregistered: registry.counter("engine.deregistered"),
            multiply_retries: registry.counter("engine.multiply_retries"),
            largest_batch: registry.gauge("engine.largest_batch"),
            batch_size: registry.histogram("engine.batch_size"),
            multiply_seconds: registry.histogram("multiply.seconds"),
            refresh_seconds: registry.histogram("refresh.seconds"),
            dtype_bytes: registry.gauge("engine.dtype_bytes"),
            attribution: AttributionMetrics::new(registry),
        }
    }
}

struct Pending {
    id: QueryId,
    query: MultiplyQuery,
}

/// A batched SpMM serving engine with a decomposition cache and a
/// cost-model planner. See the [module docs](self).
pub struct Engine {
    config: EngineConfig,
    cache: DecompositionCache,
    bound: HashMap<u128, BoundMatrix>,
    pending: Vec<Pending>,
    /// Storage of the last batch's packed operand, reused by the next.
    operand: Vec<f64>,
    next_query: u64,
    telemetry: Telemetry,
    metrics: EngineMetrics,
}

impl Engine {
    /// Builds an engine; opens (creating if needed) the persistence
    /// catalog when a spill directory is configured. Telemetry is
    /// enabled with a fresh registry and tracer — use
    /// [`with_telemetry`](Self::with_telemetry) to share or disable it.
    pub fn new(config: EngineConfig) -> SparseResult<Self> {
        Self::with_telemetry(config, Telemetry::new())
    }

    /// [`new`](Self::new) observing into caller-supplied telemetry: the
    /// engine's counters and histograms (`engine.*`, `cache.*`,
    /// `catalog.*`, `decompose.seconds`, `multiply.seconds`,
    /// `refresh.seconds`) register there, and request-path trace events
    /// go to its tracer. Pass [`Telemetry::disabled`] for a zero-cost
    /// uninstrumented engine.
    pub fn with_telemetry(config: EngineConfig, telemetry: Telemetry) -> SparseResult<Self> {
        let cache = DecompositionCache::with_registry(
            config.cache_capacity,
            config.spill_dir.clone(),
            &telemetry.registry,
        )?;
        let metrics = EngineMetrics::new(&telemetry);
        Ok(Self {
            config,
            cache,
            bound: HashMap::new(),
            pending: Vec::new(),
            operand: Vec::new(),
            next_query: 0,
            telemetry,
            metrics,
        })
    }

    /// The engine's telemetry: metrics registry plus trace ring. Clone
    /// it (handles are `Arc`-shared) to snapshot metrics or read traces
    /// while the engine keeps serving.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Registers `a`: fingerprint, plan, and bind the cheapest algorithm
    /// — on more than one rank after decomposing `a` through the cache.
    /// Registering the same content twice is a no-op returning the same
    /// id.
    pub fn register(&mut self, a: &CsrMatrix<f64>) -> SparseResult<MatrixId> {
        self.register_salted(a, 0)
    }

    /// [`register`](Self::register) under a caller-chosen salt: identical
    /// content registered under distinct salts gets distinct bindings
    /// (own overlay, own version lineage, own refresh history) while the
    /// decomposition cache still dedups the LA-Decompose by content. A
    /// multi-tenant holder passes its tenant id here. Salt zero is plain
    /// registration.
    pub fn register_salted(&mut self, a: &CsrMatrix<f64>, salt: u128) -> SparseResult<MatrixId> {
        let cold = Lineage {
            version: 0,
            salt,
            parent: 0,
        };
        self.register_versioned(a, a.fingerprint(), cold, None)
    }

    /// `fingerprint` is `a.fingerprint()`, hashed once by whoever
    /// produced `a`; `precomputed` is a refresh build's decomposition of
    /// `a`, when it made one.
    fn register_versioned(
        &mut self,
        a: &CsrMatrix<f64>,
        fingerprint: u128,
        lineage: Lineage,
        precomputed: Option<Arc<ArrowDecomposition>>,
    ) -> SparseResult<MatrixId> {
        let Lineage {
            version,
            salt,
            parent,
        } = lineage;
        let id = salted_id(fingerprint, salt);
        if self.bound.contains_key(&id) {
            return Ok(MatrixId(id));
        }
        if a.rows() != a.cols() {
            return Err(SparseError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (a.cols(), a.rows()),
            });
        }
        let planner_config = PlannerConfig {
            cost: self.config.cost,
            target_ranks: self.config.target_ranks,
            k_hint: (self.config.max_batch as u32).clamp(1, 64),
            dtype: self.config.dtype,
            ..PlannerConfig::default()
        };
        // Only a plan that reads a decomposition gets one: everything
        // that computes, caches or persists it is inside this arm.
        let (planned, active_prefix, source) = if self.config.target_ranks > 1 {
            let (d, source) =
                self.cached_decomposition(a, fingerprint, version, precomputed, parent)?;
            let active_prefix = d.active_prefix_fraction();
            // Of the most recently planned binding, in permille (gauges
            // are integers); a one-rank engine never publishes the name.
            self.telemetry
                .registry
                .gauge("engine.active_prefix_permille")
                .set((active_prefix * 1000.0).round() as u64);
            (plan(a, &d, &planner_config)?, Some(active_prefix), source)
        } else {
            (plan_local(a, &planner_config)?, None, "none")
        };
        let Plan {
            algo,
            chosen,
            predictions,
        } = planned;
        self.metrics
            .dtype_bytes
            .set(self.config.dtype.bytes() as u64);
        if self.telemetry.tracer.is_enabled() {
            let mut detail = format!(
                "algo={} predicted_seconds={:.3e} cache={source} dtype={}",
                chosen, predictions[0].seconds, self.config.dtype
            );
            if let Some(active_prefix) = active_prefix {
                let _ = write!(detail, " active_prefix={active_prefix:.3}");
            }
            self.telemetry
                .tracer
                .event("plan", SpanId::NONE, None, detail);
        }
        self.bound.insert(
            id,
            BoundMatrix {
                n: a.rows(),
                fingerprint,
                algo,
                chosen,
                predictions,
                version,
                overlay: None,
                salt,
                active_prefix,
            },
        );
        Ok(MatrixId(id))
    }

    /// The decomposition a many-rank binding of `a` is planned from,
    /// through the cache: `precomputed` (a refresh build's) is admitted,
    /// anything else is looked up in memory, then in the catalog, then
    /// decomposed. Also says which of those it was, for the trace.
    fn cached_decomposition(
        &mut self,
        a: &CsrMatrix<f64>,
        fingerprint: u128,
        version: u64,
        precomputed: Option<Arc<ArrowDecomposition>>,
        parent: u128,
    ) -> SparseResult<(Arc<ArrowDecomposition>, &'static str)> {
        let decompose_config = DecomposeConfig::with_width(self.config.arrow_width);
        let before = self.cache.stats();
        let d = match precomputed {
            Some(d) => {
                if d.n() != a.rows() || d.b() != self.config.arrow_width {
                    return Err(SparseError::InvalidCsr(format!(
                        "precomputed decomposition (n = {}, b = {}) does not fit \
                         matrix (n = {}) at width {}",
                        d.n(),
                        d.b(),
                        a.rows(),
                        self.config.arrow_width
                    )));
                }
                self.cache.admit(
                    fingerprint,
                    &decompose_config,
                    self.config.decompose_seed,
                    d,
                    version,
                    parent,
                )
            }
            None => self.cache.get_or_decompose_lineage(
                a,
                fingerprint,
                &decompose_config,
                self.config.decompose_seed,
                version,
                parent,
            )?,
        };
        let after = self.cache.stats();
        let source = if after.decompositions > before.decompositions {
            "decompose"
        } else if after.disk_loads > before.disk_loads {
            "disk"
        } else if after.admitted > before.admitted {
            "admitted"
        } else {
            "hit"
        };
        Ok((d, source))
    }

    /// Replaces the binding of `old` with a re-planned binding of
    /// `merged` (the compacted `A₀ + ΔA`), carrying the streaming version
    /// forward. This is the engine half of a staleness refresh: on more
    /// than one rank the decomposition goes through the cache
    /// (write-through under the merged matrix's new fingerprint), the
    /// planner plans afresh against the merged structure, and any
    /// pending overlay on the old binding is discarded along with it.
    ///
    /// Queries already queued against `old` are answered by the *new*
    /// binding at the next flush — their [`MatrixId`] is remapped, which
    /// is sound because a refresh changes the representation, not the
    /// served operator (`A₀ + ΔA` before, merged `A₀` after).
    ///
    /// This is the refresh pipeline run inline by a caller that cannot
    /// say what changed: [`prepare_refresh`](Self::prepare_refresh)
    /// without a touched set, the ticket's build from its merge step on
    /// ([`RefreshTicket::build_merged`]), and
    /// [`commit_refresh`](Self::commit_refresh). A holder that tracks its
    /// delta passes the touched set, runs [`RefreshTicket::build`] on
    /// whichever thread it likes and commits the result.
    pub fn refresh(&mut self, old: MatrixId, merged: &CsrMatrix<f64>) -> SparseResult<MatrixId> {
        let ticket = self.prepare_refresh(old, None)?;
        let built = ticket.build_merged(merged, merged.fingerprint())?;
        self.commit_refresh(&ticket, merged, built)
    }

    /// The first step of a refresh: validates that `old` is bound and
    /// returns the [`RefreshTicket`] for its build. The old binding (and
    /// its delta overlay) keeps serving until
    /// [`commit_refresh`](Self::commit_refresh).
    ///
    /// With `touched`, on more than one rank, the ticket asks the build
    /// for a decomposition and carries what an incremental one needs —
    /// the old binding's decomposition (when still resident in the
    /// cache) and the touched set — so whoever runs the build can splice
    /// instead of rebuilding. `touched` must cover **every** vertex
    /// incident to a difference between the old binding's content and
    /// the merged matrix; an incomplete set makes the spliced
    /// decomposition serve the wrong operator. Holders that track their
    /// delta in a [`DeltaBuilder`](amd_sparse::DeltaBuilder) get it from
    /// `touched_vertices()`.
    ///
    /// Without it — and on one rank, whose binding reads no
    /// decomposition — the build decomposes nothing; where the
    /// deployment needs a decomposition, commit takes it from the cache
    /// (a hit, a catalog reload, or a counted cold LA-Decompose).
    pub fn prepare_refresh(
        &mut self,
        old: MatrixId,
        touched: Option<Vec<u32>>,
    ) -> SparseResult<RefreshTicket> {
        let old_bound = self.bound.get(&old.0).ok_or_else(|| {
            SparseError::InvalidCsr(format!("matrix {:032x} is not registered", old.0))
        })?;
        let (n, prior_fp) = (old_bound.n, old_bound.fingerprint);
        let config = DecomposeConfig::with_width(self.config.arrow_width);
        let seed = self.config.decompose_seed;
        let decompose = self.config.target_ranks > 1 && touched.is_some();
        let prior = if decompose && self.config.incremental.enabled {
            self.cache.peek(prior_fp, &config, seed)
        } else {
            None
        };
        Ok(RefreshTicket {
            old,
            n,
            decompose,
            config,
            seed,
            prior,
            touched,
            incremental: self.config.incremental,
        })
    }

    /// The last step of a refresh: swaps the binding of `ticket.old`
    /// to a fresh binding of `merged`, adopting what the ticket's build
    /// produced from it — the fingerprint (not hashed again) and, if the
    /// build decomposed, the decomposition (admitted into the cache,
    /// write-through). `built` must be that ticket's build of this
    /// `merged`. Pending queries are remapped and the version lineage
    /// carried forward exactly as in [`refresh`](Self::refresh); on error
    /// the old binding keeps serving.
    pub fn commit_refresh(
        &mut self,
        ticket: &RefreshTicket,
        merged: &CsrMatrix<f64>,
        built: RefreshBuild,
    ) -> SparseResult<MatrixId> {
        let sw = Stopwatch::start();
        let old = ticket.old;
        let old_bound = self.bound.remove(&old.0).ok_or_else(|| {
            SparseError::InvalidCsr(format!("matrix {:032x} is not registered", old.0))
        })?;
        if merged.rows() != old_bound.n || merged.cols() != old_bound.n {
            let n = old_bound.n;
            self.bound.insert(old.0, old_bound);
            return Err(SparseError::ShapeMismatch {
                left: (n, n),
                right: (merged.rows(), merged.cols()),
            });
        }
        let version = old_bound.version + 1;
        let lineage = Lineage {
            version,
            salt: old_bound.salt,
            parent: old_bound.fingerprint,
        };
        let decomposition = built.decomposition.map(|(d, _)| Arc::new(d));
        let new_id =
            match self.register_versioned(merged, built.fingerprint, lineage, decomposition) {
                Ok(id) => id,
                Err(e) => {
                    // Leave the engine serving the old binding on failure.
                    self.bound.insert(old.0, old_bound);
                    return Err(e);
                }
            };
        // The merged content may already be bound (an update stream that
        // returned the matrix to a previously served state): registration
        // then reuses the existing binding, whose version must still move
        // forward to cover this refresh's lineage.
        if let Some(bound) = self.bound.get_mut(&new_id.0) {
            bound.version = bound.version.max(version);
        }
        if new_id.0 != old.0 {
            for p in self.pending.iter_mut() {
                if p.query.matrix == old {
                    p.query.matrix = new_id;
                }
            }
        }
        self.metrics.refreshes.inc();
        self.metrics
            .refresh_seconds
            .record_seconds(sw.elapsed_seconds());
        Ok(new_id)
    }

    /// Drops the binding of `id`: its overlay goes with it, its cache
    /// reference is released (the resident decomposition is dropped
    /// unless another binding of the same content still pins it — the
    /// catalog version, if any, stays until garbage-collected), and the
    /// drop is counted in [`EngineStats::deregistered`].
    ///
    /// The **pending-query ownership check**: deregistration refuses
    /// while queries against `id` sit in the queue — answering them
    /// later would need the binding this call destroys. Flush (or the
    /// owner's per-tenant flush) first.
    pub fn deregister(&mut self, id: MatrixId) -> SparseResult<()> {
        let bound = self.bound.get(&id.0).ok_or_else(|| {
            SparseError::InvalidCsr(format!("matrix {:032x} is not registered", id.0))
        })?;
        let pending = self.pending_for(id);
        if pending > 0 {
            return Err(SparseError::InvalidCsr(format!(
                "matrix {:032x} still owns {pending} pending quer{}; flush before deregistering",
                id.0,
                if pending == 1 { "y" } else { "ies" }
            )));
        }
        let fingerprint = bound.fingerprint;
        self.bound.remove(&id.0);
        // Release the cached decomposition only when no other binding
        // (another tenant's salted registration of identical content)
        // still serves from it.
        let shared = self.bound.values().any(|b| b.fingerprint == fingerprint);
        if !shared {
            self.cache.release(
                fingerprint,
                &DecomposeConfig::with_width(self.config.arrow_width),
                self.config.decompose_seed,
            );
        }
        self.metrics.deregistered.inc();
        Ok(())
    }

    /// Queries queued against one binding.
    pub fn pending_for(&self, id: MatrixId) -> usize {
        self.pending.iter().filter(|p| p.query.matrix == id).count()
    }

    /// Content fingerprints of every live binding — the "still
    /// referenced" set a catalog sweep must not collect.
    pub fn bound_fingerprints(&self) -> Vec<u128> {
        self.bound.values().map(|b| b.fingerprint).collect()
    }

    /// Content fingerprint of a binding (the head of its catalog
    /// version chain).
    pub fn binding_fingerprint(&self, id: MatrixId) -> Option<u128> {
        self.bound.get(&id.0).map(|b| b.fingerprint)
    }

    /// The persistence catalog behind the decomposition cache, when the
    /// engine was configured with a spill directory (GC, chain removal,
    /// restore tooling).
    pub fn catalog(&self) -> Option<&arrow_core::Catalog> {
        self.cache.catalog()
    }

    /// Mutable access to the persistence catalog.
    pub fn catalog_mut(&mut self) -> Option<&mut arrow_core::Catalog> {
        self.cache.catalog_mut()
    }

    /// Sets (or replaces) the sparse correction `ΔA` pending on `id`.
    /// While the overlay is non-empty, every run against `id` goes
    /// through the delta-corrected path, serving `A₀ + ΔA` without
    /// re-decomposing. Pass an empty matrix to clear it (or use
    /// [`clear_delta`](Self::clear_delta)).
    pub fn set_delta(&mut self, id: MatrixId, delta: CsrMatrix<f64>) -> SparseResult<()> {
        let bound = self.bound.get_mut(&id.0).ok_or_else(|| {
            SparseError::InvalidCsr(format!("matrix {:032x} is not registered", id.0))
        })?;
        if delta.rows() != bound.n || delta.cols() != bound.n {
            return Err(SparseError::ShapeMismatch {
                left: (bound.n, bound.n),
                right: (delta.rows(), delta.cols()),
            });
        }
        bound.overlay = if delta.nnz() == 0 { None } else { Some(delta) };
        Ok(())
    }

    /// Drops any pending correction on `id` (no-op if there is none).
    pub fn clear_delta(&mut self, id: MatrixId) {
        if let Some(bound) = self.bound.get_mut(&id.0) {
            bound.overlay = None;
        }
    }

    /// Stored entries of the correction pending on `id` (0 if none).
    pub fn delta_nnz(&self, id: MatrixId) -> usize {
        self.bound
            .get(&id.0)
            .and_then(|b| b.overlay.as_ref())
            .map_or(0, CsrMatrix::nnz)
    }

    /// Streaming revision of `id`: 0 for a cold registration, incremented
    /// by every [`refresh`](Self::refresh) in the binding's lineage.
    pub fn matrix_version(&self, id: MatrixId) -> Option<u64> {
        self.bound.get(&id.0).map(|b| b.version)
    }

    /// The algorithm the planner bound for `id`.
    pub fn chosen_algorithm(&self, id: MatrixId) -> Option<&str> {
        self.bound.get(&id.0).map(|b| b.chosen.as_str())
    }

    /// The planner's full ranking for `id` (cheapest first).
    pub fn plan_report(&self, id: MatrixId) -> Option<&[Prediction]> {
        self.bound.get(&id.0).map(|b| b.predictions.as_slice())
    }

    /// Cache counters (the decompose-count probe lives here), folded
    /// from the registry.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Serving counters, folded from the registry.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            queries: self.metrics.queries.get(),
            runs: self.metrics.runs.get(),
            largest_batch: self.metrics.largest_batch.get() as usize,
            corrected_runs: self.metrics.corrected_runs.get(),
            refreshes: self.metrics.refreshes.get(),
            deregistered: self.metrics.deregistered.get(),
            mispredictions: self.metrics.attribution.mispredictions(),
            multiply_retries: self.metrics.multiply_retries.get(),
        }
    }

    /// Queries waiting for the next [`flush`](Engine::flush).
    pub fn pending_queries(&self) -> usize {
        self.pending.len()
    }

    /// Enqueues a query; answers arrive from [`flush`](Engine::flush).
    pub fn submit(&mut self, query: MultiplyQuery) -> SparseResult<QueryId> {
        let bound = self.bound.get(&query.matrix.0).ok_or_else(|| {
            SparseError::InvalidCsr(format!("matrix {:032x} is not registered", query.matrix.0))
        })?;
        if query.x.len() != bound.n as usize {
            return Err(SparseError::ShapeMismatch {
                left: (bound.n, 1),
                right: (query.x.len() as u32, 1),
            });
        }
        let id = QueryId(self.next_query);
        self.next_query += 1;
        self.pending.push(Pending { id, query });
        Ok(id)
    }

    /// Answers every pending query. Compatible queries — same matrix,
    /// same `iters`, same σ — are coalesced into multi-RHS runs of up to
    /// `max_batch` columns; responses are returned in submission order.
    pub fn flush(&mut self) -> SparseResult<Vec<QueryResponse>> {
        let pending = std::mem::take(&mut self.pending);
        self.flush_set(pending)
    }

    /// Answers only the pending queries **owned** by `salt` — i.e.
    /// those addressing a binding registered under that salt — leaving
    /// everyone else's queries queued. This is the per-tenant flush: a
    /// multi-tenant holder salts bindings by tenant id, so one tenant
    /// can drain its own queue without forcing runs for the whole hub.
    /// Batching within the drained set is identical to [`flush`].
    ///
    /// [`flush`]: Self::flush
    pub fn flush_owned(&mut self, salt: u128) -> SparseResult<Vec<QueryResponse>> {
        let pending = std::mem::take(&mut self.pending);
        let (mine, others): (Vec<Pending>, Vec<Pending>) = pending.into_iter().partition(|p| {
            self.bound
                .get(&p.query.matrix.0)
                .map(|b| b.salt == salt)
                .unwrap_or(false)
        });
        self.pending = others;
        self.flush_set(mine)
    }

    fn flush_set(&mut self, pending: Vec<Pending>) -> SparseResult<Vec<QueryResponse>> {
        if pending.is_empty() {
            return Ok(Vec::new());
        }
        // Group by (matrix, iters, σ identity); groups keep the order their
        // first member arrived in, members their arrival order.
        let mut groups: Vec<Vec<Pending>> = Vec::new();
        let mut group_of: HashMap<(u128, u32, usize), usize> = HashMap::new();
        for p in pending {
            let key = (
                p.query.matrix.0,
                p.query.iters,
                p.query.sigma.map(|f| f as usize).unwrap_or(0),
            );
            let group = *group_of.entry(key).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[group].push(p);
        }
        let mut responses = Vec::new();
        for members in groups {
            for chunk in members.chunks(self.config.max_batch.max(1)) {
                responses.extend(self.run_batch(chunk)?);
            }
        }
        responses.sort_by_key(|r| r.id.0);
        Ok(responses)
    }

    fn run_batch(&mut self, chunk: &[Pending]) -> SparseResult<Vec<QueryResponse>> {
        let first = &chunk[0].query;
        let bound = self.bound.get(&first.matrix.0).ok_or_else(|| {
            SparseError::InvalidCsr(format!(
                "matrix {:032x} was deregistered while queries were pending",
                first.matrix.0
            ))
        })?;
        let n = bound.n;
        let k = chunk.len() as u32;
        // Columns side by side: query j is column j.
        let columns: Vec<&[f64]> = chunk.iter().map(|p| p.query.x.as_slice()).collect();
        let x = DenseMatrix::from_columns(n, &columns, std::mem::take(&mut self.operand))?;
        // Pending updates: serve A₀ + ΔA through the corrected path.
        let overlay_algo = match &bound.overlay {
            Some(delta) => Some(DeltaSpmm::new(&*bound.algo, delta)?.with_cost(self.config.cost)),
            None => None,
        };
        // Attribution prices this run's envelope at the *served* column
        // count (the planner ranked at its k hint), through the
        // corrected path when an overlay is live, outside the timed
        // section. Skipped entirely when telemetry is off so the
        // uninstrumented engine stays the zero-cost baseline.
        let estimate = self
            .telemetry
            .registry
            .is_enabled()
            .then(|| match &overlay_algo {
                Some(corrected) => corrected.predict_volume(k),
                None => bound.algo.predict_volume(k),
            });
        let sw = Stopwatch::start();
        // The multiply is pure (no state mutated until it returns), so a
        // transient failure — only ever the `engine.multiply.transient`
        // chaos failpoint — is safely retried in place.
        let mut attempts = 0u32;
        let run = loop {
            let result = match failpoint::check(failpoint::ENGINE_MULTIPLY_TRANSIENT) {
                Err(e) => Err(e),
                Ok(()) => match &overlay_algo {
                    Some(corrected) => corrected.run_sigma(&x, first.iters, first.sigma),
                    None => bound.algo.run_sigma(&x, first.iters, first.sigma),
                },
            };
            match result {
                Ok(run) => break run,
                Err(e) if failpoint::is_injected(&e) && attempts < MAX_MULTIPLY_RETRIES => {
                    attempts += 1;
                    self.metrics.multiply_retries.inc();
                }
                Err(e) => return Err(e),
            }
        };
        if overlay_algo.is_some() {
            self.metrics.corrected_runs.inc();
        }
        let multiply_seconds = sw.elapsed_seconds();
        self.metrics
            .multiply_seconds
            .record_seconds(multiply_seconds);
        self.metrics.runs.inc();
        self.metrics.queries.add(chunk.len() as u64);
        self.metrics.batch_size.record(chunk.len() as u64);
        self.metrics.largest_batch.record_max(chunk.len() as u64);
        let cost = estimate.map(|estimate| {
            self.metrics.attribution.record(
                &RunAttribution {
                    algo: &bound.chosen,
                    predictions: &bound.predictions,
                    estimate,
                    corrected: bound.overlay.is_some(),
                    iters: first.iters,
                    cost: self.config.cost,
                    target_ranks: self.config.target_ranks,
                },
                &run.stats,
            )
        });
        if self.telemetry.tracer.is_enabled() {
            // Predicted cost is per iteration per the planner contract.
            let predicted = bound
                .predictions
                .first()
                .map(|p| p.seconds * first.iters as f64)
                .unwrap_or(0.0);
            let mut detail = format!(
                "algo={} batch={} queries={}..={} iters={} corrected={} \
                 dtype={} predicted_seconds={:.3e} actual_seconds={:.3e}",
                bound.chosen,
                chunk.len(),
                chunk[0].id.0,
                chunk[chunk.len() - 1].id.0,
                first.iters,
                bound.overlay.is_some(),
                self.config.dtype,
                predicted,
                multiply_seconds
            );
            if let Some(active_prefix) = bound.active_prefix {
                let _ = write!(detail, " active_prefix={active_prefix:.3}");
            }
            if let Some(c) = &cost {
                let _ = write!(
                    detail,
                    " predicted_rank_bytes={:.0} accounted_rank_bytes={:.0}",
                    c.predicted_rank_bytes, c.accounted_rank_bytes
                );
            }
            self.telemetry
                .tracer
                .event("multiply", SpanId::NONE, None, detail);
        }
        let answers = run.y.to_columns();
        self.operand = x.into_vec();
        Ok(chunk
            .iter()
            .zip(answers)
            .map(|(p, y)| QueryResponse {
                id: p.id,
                y,
                batch_size: chunk.len(),
                cost: cost.clone(),
            })
            .collect())
    }

    /// Runs one query immediately, bypassing the batcher (the unbatched
    /// baseline the serving example compares against).
    pub fn run_single(&mut self, query: MultiplyQuery) -> SparseResult<QueryResponse> {
        self.submit(query)?;
        let pending = self.pending.pop().expect("just submitted");
        let mut responses = self.run_batch(&[pending])?;
        Ok(responses.pop().expect("one response per query"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amd_graph::generators::basic;

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            target_ranks: 4,
            ..EngineConfig::default()
        })
        .unwrap()
    }

    fn ring(n: u32) -> CsrMatrix<f64> {
        basic::cycle(n).to_adjacency()
    }

    #[test]
    fn register_is_idempotent() {
        let mut e = engine();
        let a = ring(64);
        let id1 = e.register(&a).unwrap();
        let id2 = e.register(&a).unwrap();
        assert_eq!(id1, id2);
        assert_eq!(e.cache_stats().decompositions, 1);
        assert!(e.chosen_algorithm(id1).is_some());
        assert_eq!(e.plan_report(id1).unwrap().len(), 4);
    }

    #[test]
    fn unregistered_matrix_rejected() {
        let mut e = engine();
        let q = MultiplyQuery {
            matrix: MatrixId(7),
            x: vec![0.0; 4],
            iters: 1,
            sigma: None,
        };
        assert!(e.submit(q).is_err());
    }

    #[test]
    fn wrong_operand_length_rejected() {
        let mut e = engine();
        let id = e.register(&ring(32)).unwrap();
        let q = MultiplyQuery {
            matrix: id,
            x: vec![0.0; 31],
            iters: 1,
            sigma: None,
        };
        assert!(e.submit(q).is_err());
    }

    #[test]
    fn batched_answers_match_reference() {
        let mut e = engine();
        let a = ring(48);
        let id = e.register(&a).unwrap();
        let queries: Vec<Vec<f64>> = (0..6)
            .map(|q| (0..48).map(|r| ((q * 7 + r) % 5) as f64 - 2.0).collect())
            .collect();
        for x in &queries {
            e.submit(MultiplyQuery {
                matrix: id,
                x: x.clone(),
                iters: 2,
                sigma: None,
            })
            .unwrap();
        }
        let responses = e.flush().unwrap();
        assert_eq!(responses.len(), 6);
        assert_eq!(e.stats().runs, 1, "compatible queries must share one run");
        for (q, resp) in responses.iter().enumerate() {
            assert_eq!(resp.batch_size, 6);
            let x = DenseMatrix::from_vec(48, 1, queries[q].clone()).unwrap();
            let want = amd_spmm::reference::iterated_spmm(&a, &x, 2).unwrap();
            assert_eq!(resp.y, want.data(), "query {q} mismatch");
        }
    }

    #[test]
    fn incompatible_queries_split_runs() {
        let mut e = engine();
        let id = e.register(&ring(32)).unwrap();
        let x = vec![1.0; 32];
        e.submit(MultiplyQuery {
            matrix: id,
            x: x.clone(),
            iters: 1,
            sigma: None,
        })
        .unwrap();
        e.submit(MultiplyQuery {
            matrix: id,
            x: x.clone(),
            iters: 2,
            sigma: None,
        })
        .unwrap();
        e.submit(MultiplyQuery {
            matrix: id,
            x,
            iters: 1,
            sigma: Some(relu),
        })
        .unwrap();
        let responses = e.flush().unwrap();
        assert_eq!(responses.len(), 3);
        assert_eq!(e.stats().runs, 3);
    }

    #[test]
    fn max_batch_caps_run_width() {
        let mut e = Engine::new(EngineConfig {
            target_ranks: 4,
            max_batch: 2,
            ..EngineConfig::default()
        })
        .unwrap();
        let id = e.register(&ring(32)).unwrap();
        for _ in 0..5 {
            e.submit(MultiplyQuery {
                matrix: id,
                x: vec![1.0; 32],
                iters: 1,
                sigma: None,
            })
            .unwrap();
        }
        let responses = e.flush().unwrap();
        assert_eq!(responses.len(), 5);
        assert_eq!(e.stats().runs, 3); // 2 + 2 + 1
        assert_eq!(e.stats().largest_batch, 2);
    }

    fn relu(v: f64) -> f64 {
        v.max(0.0)
    }

    /// An integer-valued delta on the ring: adds two chords, drops an edge.
    fn ring_delta(n: u32) -> CsrMatrix<f64> {
        let mut coo = amd_sparse::CooMatrix::new(n, n);
        coo.push_sym(0, n / 2, 1.0).unwrap();
        coo.push_sym(3, n / 3, 2.0).unwrap();
        coo.push_sym(0, 1, -1.0).unwrap();
        coo.to_csr()
    }

    #[test]
    fn overlay_serves_merged_matrix_exactly() {
        let mut e = engine();
        let n = 36;
        let a = ring(n);
        let id = e.register(&a).unwrap();
        let delta = ring_delta(n);
        e.set_delta(id, delta.clone()).unwrap();
        assert_eq!(e.delta_nnz(id), delta.nnz());
        let x: Vec<f64> = (0..n).map(|r| ((r % 7) as f64) - 3.0).collect();
        let resp = e
            .run_single(MultiplyQuery {
                matrix: id,
                x: x.clone(),
                iters: 2,
                sigma: None,
            })
            .unwrap();
        // Integer data: the corrected answer equals the rebuilt-matrix
        // reference bit for bit.
        let merged = amd_sparse::ops::apply_delta(&a, &delta).unwrap();
        let xm = DenseMatrix::from_vec(n, 1, x).unwrap();
        let want = amd_spmm::reference::iterated_spmm(&merged, &xm, 2).unwrap();
        assert_eq!(resp.y, want.data());
        assert_eq!(e.stats().corrected_runs, 1);
        // Clearing the overlay restores the base path.
        e.clear_delta(id);
        assert_eq!(e.delta_nnz(id), 0);
    }

    #[test]
    fn empty_overlay_is_a_no_op() {
        let mut e = engine();
        let n = 32;
        let id = e.register(&ring(n)).unwrap();
        e.set_delta(id, CsrMatrix::zeros(n, n)).unwrap();
        assert_eq!(e.delta_nnz(id), 0);
        e.run_single(MultiplyQuery {
            matrix: id,
            x: vec![1.0; n as usize],
            iters: 1,
            sigma: None,
        })
        .unwrap();
        assert_eq!(e.stats().corrected_runs, 0);
    }

    #[test]
    fn overlay_shape_and_registration_validated() {
        let mut e = engine();
        let id = e.register(&ring(32)).unwrap();
        assert!(e.set_delta(id, CsrMatrix::zeros(16, 16)).is_err());
        assert!(e.set_delta(MatrixId(9), CsrMatrix::zeros(32, 32)).is_err());
        assert_eq!(e.matrix_version(MatrixId(9)), None);
    }

    #[test]
    fn refresh_rebinds_replans_and_bumps_version() {
        let mut e = engine();
        let n = 40;
        let a = ring(n);
        let id = e.register(&a).unwrap();
        assert_eq!(e.matrix_version(id), Some(0));
        let decomposes_before = e.cache_stats().decompositions;
        let delta = ring_delta(n);
        e.set_delta(id, delta.clone()).unwrap();
        let merged = amd_sparse::ops::apply_delta(&a, &delta).unwrap();
        let new_id = e.refresh(id, &merged).unwrap();
        assert_ne!(new_id, id, "merged content has a new fingerprint");
        assert_eq!(e.matrix_version(new_id), Some(1));
        assert_eq!(e.matrix_version(id), None, "old binding dropped");
        assert_eq!(e.stats().refreshes, 1);
        assert_eq!(
            e.cache_stats().decompositions,
            decomposes_before + 1,
            "refresh re-decomposes the merged matrix once"
        );
        // The new binding is freshly planned and serves without overlay.
        assert!(e.chosen_algorithm(new_id).is_some());
        assert_eq!(e.plan_report(new_id).unwrap().len(), 4);
        let x: Vec<f64> = (0..n).map(|r| (r % 5) as f64).collect();
        let resp = e
            .run_single(MultiplyQuery {
                matrix: new_id,
                x: x.clone(),
                iters: 1,
                sigma: None,
            })
            .unwrap();
        let xm = DenseMatrix::from_vec(n, 1, x).unwrap();
        let want = amd_spmm::reference::iterated_spmm(&merged, &xm, 1).unwrap();
        assert_eq!(resp.y, want.data());
        assert_eq!(e.stats().corrected_runs, 0, "no overlay after refresh");
    }

    #[test]
    fn refresh_remaps_pending_queries() {
        let mut e = engine();
        let n = 32;
        let a = ring(n);
        let id = e.register(&a).unwrap();
        e.submit(MultiplyQuery {
            matrix: id,
            x: vec![1.0; n as usize],
            iters: 1,
            sigma: None,
        })
        .unwrap();
        let delta = ring_delta(n);
        let merged = amd_sparse::ops::apply_delta(&a, &delta).unwrap();
        let new_id = e.refresh(id, &merged).unwrap();
        let responses = e.flush().unwrap();
        assert_eq!(responses.len(), 1);
        let xm = DenseMatrix::from_vec(n, 1, vec![1.0; n as usize]).unwrap();
        let want = amd_spmm::reference::iterated_spmm(&merged, &xm, 1).unwrap();
        assert_eq!(responses[0].y, want.data());
        assert_eq!(e.matrix_version(new_id), Some(1));
    }

    #[test]
    fn refresh_onto_existing_content_still_bumps_version() {
        // A stream that mutates B back into already-bound content A must
        // land on A's binding with the version moved forward, not reset.
        let mut e = engine();
        let n = 32;
        let a = ring(n);
        let delta = ring_delta(n);
        let b = amd_sparse::ops::apply_delta(&a, &delta).unwrap();
        let id_a = e.register(&a).unwrap();
        let id_b = e.register(&b).unwrap();
        assert_ne!(id_a, id_b);
        // Refreshing B with A's exact content collides with A's binding.
        let new_id = e.refresh(id_b, &a).unwrap();
        assert_eq!(new_id, id_a);
        assert_eq!(
            e.matrix_version(new_id),
            Some(1),
            "the refresh lineage must advance the shared binding"
        );
        assert_eq!(e.matrix_version(id_b), None, "B's binding is gone");
        assert_eq!(e.stats().refreshes, 1);
    }

    /// The refresh pipeline as a holder that tracks its delta runs it,
    /// inline: ticket with the touched set, build, commit. Returns the
    /// new binding and what the build's decompose did.
    fn refresh_touched(
        e: &mut Engine,
        old: MatrixId,
        merged: &CsrMatrix<f64>,
        touched: &[u32],
    ) -> (MatrixId, Option<RefreshOutcome>) {
        let ticket = e.prepare_refresh(old, Some(touched.to_vec())).unwrap();
        let built = ticket.build_merged(merged, merged.fingerprint()).unwrap();
        let outcome = built.outcome();
        let id = e.commit_refresh(&ticket, merged, built).unwrap();
        (id, outcome)
    }

    #[test]
    fn localized_refresh_splices_from_the_cached_prior() {
        let mut e = Engine::new(EngineConfig {
            arrow_width: 8,
            target_ranks: 4,
            ..EngineConfig::default()
        })
        .unwrap();
        let n = 128;
        let a = ring(n);
        let id = e.register(&a).unwrap();
        assert_eq!(e.cache_stats().decompositions, 1);
        // One localized chord.
        let mut coo = amd_sparse::CooMatrix::new(n, n);
        coo.push_sym(10, 13, 2.0).unwrap();
        let delta = coo.to_csr();
        let merged = amd_sparse::ops::apply_delta(&a, &delta).unwrap();
        let (new_id, outcome) = refresh_touched(&mut e, id, &merged, &[10, 13]);
        let outcome = outcome.expect("more than one rank decomposes");
        assert!(outcome.incremental, "fallback: {:?}", outcome.fallback);
        assert!(outcome.reused_fraction() > 0.5);
        assert_eq!(
            e.cache_stats().decompositions,
            1,
            "the refresh must not run a cold LA-Decompose"
        );
        assert_eq!(e.cache_stats().admitted, 1, "splice admitted write-through");
        assert_eq!(e.matrix_version(new_id), Some(1));
        // Served answers on the spliced binding are exact.
        let x: Vec<f64> = (0..n).map(|r| ((r % 7) as f64) - 3.0).collect();
        let resp = e
            .run_single(MultiplyQuery {
                matrix: new_id,
                x: x.clone(),
                iters: 2,
                sigma: None,
            })
            .unwrap();
        let xm = DenseMatrix::from_vec(n, 1, x).unwrap();
        let want = amd_spmm::reference::iterated_spmm(&merged, &xm, 2).unwrap();
        assert_eq!(resp.y, want.data());
    }

    #[test]
    fn localized_refresh_falls_back_when_prior_is_evicted() {
        let mut e = Engine::new(EngineConfig {
            arrow_width: 8,
            target_ranks: 4,
            cache_capacity: 1,
            ..EngineConfig::default()
        })
        .unwrap();
        let n = 64;
        let a = ring(n);
        let id = e.register(&a).unwrap();
        // Evict a's decomposition from the one-slot cache.
        e.register(&basic::star(n).to_adjacency()).unwrap();
        let mut coo = amd_sparse::CooMatrix::new(n, n);
        coo.push_sym(3, 6, 1.0).unwrap();
        let merged = amd_sparse::ops::apply_delta(&a, &coo.to_csr()).unwrap();
        let (new_id, outcome) = refresh_touched(&mut e, id, &merged, &[3, 6]);
        let outcome = outcome.expect("more than one rank decomposes");
        assert!(!outcome.incremental);
        assert_eq!(
            outcome.fallback,
            Some(arrow_core::incremental::FallbackReason::NoPrior)
        );
        assert_eq!(e.matrix_version(new_id), Some(1), "fallback still commits");
    }

    #[test]
    fn localized_refresh_reports_no_outcome_on_one_rank() {
        let mut e = Engine::new(EngineConfig::default()).unwrap();
        let n = 64;
        let a = ring(n);
        let id = e.register(&a).unwrap();
        let mut coo = amd_sparse::CooMatrix::new(n, n);
        coo.push_sym(3, 6, 1.0).unwrap();
        let merged = amd_sparse::ops::apply_delta(&a, &coo.to_csr()).unwrap();
        let (new_id, outcome) = refresh_touched(&mut e, id, &merged, &[3, 6]);
        assert!(outcome.is_none(), "nothing was decomposed: {outcome:?}");
        assert_eq!(e.matrix_version(new_id), Some(1));
        assert_eq!(e.binding_fingerprint(new_id), Some(merged.fingerprint()));
        assert_eq!(e.cache_stats().decompositions, 0);
    }

    #[test]
    fn refresh_validates_inputs() {
        let mut e = engine();
        let n = 32;
        let a = ring(n);
        let id = e.register(&a).unwrap();
        // Unknown id.
        assert!(e.refresh(MatrixId(5), &a).is_err());
        // Shape change is rejected and the old binding survives.
        assert!(e.refresh(id, &ring(16)).is_err());
        assert_eq!(e.matrix_version(id), Some(0));
        assert!(e.chosen_algorithm(id).is_some());
    }

    #[test]
    fn deregister_drops_binding_and_releases_cache() {
        let mut e = engine();
        let a = ring(40);
        let id = e.register(&a).unwrap();
        e.deregister(id).unwrap();
        assert_eq!(e.stats().deregistered, 1);
        assert_eq!(e.matrix_version(id), None, "binding gone");
        assert!(e.deregister(id).is_err(), "double deregister rejected");
        // The decomposition was released from memory: re-registering
        // without a catalog decomposes again.
        let id2 = e.register(&a).unwrap();
        assert_eq!(id2, id, "same content, same unsalted id");
        assert_eq!(e.cache_stats().decompositions, 2);
        assert_eq!(e.cache_stats().released, 1);
    }

    #[test]
    fn deregister_keeps_cache_entry_shared_by_another_salt() {
        let mut e = engine();
        let a = ring(36);
        let id1 = e.register_salted(&a, 1).unwrap();
        let id2 = e.register_salted(&a, 2).unwrap();
        assert_ne!(id1, id2);
        assert_eq!(e.cache_stats().decompositions, 1, "content shared");
        e.deregister(id1).unwrap();
        // Tenant 2 still serves; its decomposition must not have been
        // released.
        assert_eq!(e.cache_stats().released, 0);
        let resp = e
            .run_single(MultiplyQuery {
                matrix: id2,
                x: vec![1.0; 36],
                iters: 1,
                sigma: None,
            })
            .unwrap();
        assert_eq!(resp.y.len(), 36);
        // Now the last reference goes, and the memory with it.
        e.deregister(id2).unwrap();
        assert_eq!(e.cache_stats().released, 1);
    }

    #[test]
    fn deregister_refuses_while_queries_pend() {
        let mut e = engine();
        let id = e.register(&ring(32)).unwrap();
        e.submit(MultiplyQuery {
            matrix: id,
            x: vec![1.0; 32],
            iters: 1,
            sigma: None,
        })
        .unwrap();
        let err = e.deregister(id).unwrap_err();
        assert!(
            err.to_string().contains("pending"),
            "ownership check names the cause: {err}"
        );
        assert_eq!(e.pending_for(id), 1);
        e.flush().unwrap();
        e.deregister(id).unwrap();
    }

    #[test]
    fn flush_owned_drains_only_one_salt() {
        let mut e = engine();
        let n = 32;
        let a = ring(n);
        let id1 = e.register_salted(&a, 1).unwrap();
        let id2 = e.register_salted(&a, 2).unwrap();
        let x = vec![1.0; n as usize];
        let q1 = e
            .submit(MultiplyQuery {
                matrix: id1,
                x: x.clone(),
                iters: 1,
                sigma: None,
            })
            .unwrap();
        e.submit(MultiplyQuery {
            matrix: id2,
            x: x.clone(),
            iters: 1,
            sigma: None,
        })
        .unwrap();
        e.submit(MultiplyQuery {
            matrix: id1,
            x,
            iters: 1,
            sigma: None,
        })
        .unwrap();
        let mine = e.flush_owned(1).unwrap();
        assert_eq!(mine.len(), 2, "only salt-1 queries drained");
        assert!(mine.iter().any(|r| r.id == q1));
        assert_eq!(mine[0].batch_size, 2, "owned queries still batch");
        assert_eq!(e.pending_queries(), 1, "salt-2 query still queued");
        let rest = e.flush().unwrap();
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn sigma_batches_match_single_runs() {
        let mut e = engine();
        let a = ring(40);
        let id = e.register(&a).unwrap();
        let xs: Vec<Vec<f64>> = (0..4)
            .map(|q| (0..40).map(|r| ((q + r) % 7) as f64 - 3.0).collect())
            .collect();
        let singles: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| {
                e.run_single(MultiplyQuery {
                    matrix: id,
                    x: x.clone(),
                    iters: 3,
                    sigma: Some(relu),
                })
                .unwrap()
                .y
            })
            .collect();
        for x in &xs {
            e.submit(MultiplyQuery {
                matrix: id,
                x: x.clone(),
                iters: 3,
                sigma: Some(relu),
            })
            .unwrap();
        }
        let batched = e.flush().unwrap();
        for (single, resp) in singles.iter().zip(&batched) {
            assert_eq!(
                single, &resp.y,
                "batched σ run must bit-match the single run"
            );
        }
    }

    #[test]
    fn responses_carry_attributed_costs() {
        let mut e = engine();
        // Large enough that the Arrow winner spans several ranks and
        // actually communicates (tiny graphs fit one rank: volume 0).
        let a = basic::star(256).to_adjacency();
        let id = e.register(&a).unwrap();
        for q in 0..6 {
            e.submit(MultiplyQuery {
                matrix: id,
                x: (0..256).map(|r| ((q + r) % 5) as f64).collect(),
                iters: 2,
                sigma: None,
            })
            .unwrap();
        }
        let responses = e.flush().unwrap();
        assert_eq!(responses.len(), 6);
        for r in &responses {
            let cost = r.cost.as_ref().expect("telemetry is enabled");
            assert_eq!(cost.algo, e.chosen_algorithm(id).unwrap());
            assert!(!cost.corrected);
            assert_eq!(cost.iters, 2);
            assert!(cost.accounted_rank_bytes > 0.0);
            assert!(cost.predicted_rank_bytes > 0.0);
            assert!(cost.sim_seconds > 0.0);
            // The planner ranked 4 candidates, so the check ran — and
            // on the star graph the accounted volumes confirm the
            // planner's (Arrow-first) ranking.
            assert_eq!(cost.rank_agreement, Some(true));
        }
        let snap = e.telemetry().registry.snapshot();
        assert_eq!(snap.counter("engine.plan.rank_checks"), Some(1));
        assert_eq!(snap.counter("engine.plan.mispredictions"), Some(0));
        assert!(snap.counter("engine.plan.predicted_bytes").unwrap_or(0) > 0);
        assert!(snap.counter("engine.plan.accounted_bytes").unwrap_or(0) > 0);
        assert_eq!(snap.counter("engine.algo.arrow.runs"), Some(1));
        assert!(
            snap.histogram("engine.rank_volume.bytes").unwrap().count > 0,
            "per-rank volumes sampled"
        );
        assert_eq!(e.stats().mispredictions, 0);
    }

    #[test]
    fn corrected_runs_attribute_without_a_rank_check() {
        let mut e = engine();
        let n = 256;
        let id = e.register(&ring(n)).unwrap();
        e.set_delta(id, ring_delta(n)).unwrap();
        let resp = e
            .run_single(MultiplyQuery {
                matrix: id,
                x: (0..n).map(|r| (r % 3) as f64).collect(),
                iters: 1,
                sigma: None,
            })
            .unwrap();
        let cost = resp.cost.expect("telemetry is enabled");
        assert!(cost.corrected);
        assert_eq!(
            cost.rank_agreement, None,
            "the planner never ranked the correction traffic"
        );
        let snap = e.telemetry().registry.snapshot();
        assert_eq!(snap.counter("engine.plan.rank_checks"), Some(0));
        assert!(snap.counter("engine.plan.accounted_bytes").unwrap_or(0) > 0);
    }

    #[test]
    fn disabled_telemetry_skips_attribution() {
        let mut e = Engine::with_telemetry(
            EngineConfig {
                target_ranks: 4,
                ..EngineConfig::default()
            },
            Telemetry::disabled(),
        )
        .unwrap();
        let id = e.register(&ring(32)).unwrap();
        let resp = e
            .run_single(MultiplyQuery {
                matrix: id,
                x: vec![1.0; 32],
                iters: 1,
                sigma: None,
            })
            .unwrap();
        assert_eq!(resp.cost, None, "no attribution without a registry");
    }

    #[test]
    fn f32_engine_serves_integer_data_exactly() {
        // Small-integer values and operands round-trip f32 without
        // rounding, so the half-bandwidth engine must answer bit-
        // identically to the exact one.
        let n = 96;
        let a = ring(n);
        let x: Vec<f64> = (0..n).map(|r| ((r % 9) as f64) - 4.0).collect();
        let mut answers = Vec::new();
        for dtype in [Dtype::F64, Dtype::F32] {
            let mut e = Engine::new(EngineConfig {
                target_ranks: 4,
                dtype,
                ..EngineConfig::default()
            })
            .unwrap();
            let id = e.register(&a).unwrap();
            let resp = e
                .run_single(MultiplyQuery {
                    matrix: id,
                    x: x.clone(),
                    iters: 2,
                    sigma: None,
                })
                .unwrap();
            answers.push(resp.y);
        }
        assert_eq!(answers[0], answers[1], "f32 must be exact on integers");
    }

    #[test]
    fn trace_events_carry_dtype_and_active_prefix() {
        let mut e = Engine::new(EngineConfig {
            target_ranks: 4,
            dtype: Dtype::F32,
            ..EngineConfig::default()
        })
        .unwrap();
        let id = e.register(&ring(48)).unwrap();
        e.run_single(MultiplyQuery {
            matrix: id,
            x: vec![1.0; 48],
            iters: 1,
            sigma: None,
        })
        .unwrap();
        let events = e.telemetry().tracer.snapshot();
        let plan = events
            .iter()
            .find(|ev| ev.name == "plan")
            .expect("plan event traced");
        assert!(plan.detail.contains("dtype=f32"), "{}", plan.detail);
        assert!(plan.detail.contains("active_prefix="), "{}", plan.detail);
        let mul = events
            .iter()
            .find(|ev| ev.name == "multiply")
            .expect("multiply event traced");
        assert!(mul.detail.contains("dtype=f32"), "{}", mul.detail);
        assert!(mul.detail.contains("active_prefix="), "{}", mul.detail);
    }
}
