//! The serving engine: registration, query batching, and execution.
//!
//! A matrix is **registered** once: fingerprinted, planned by the
//! [`planner`](crate::planner), and bound to the winning algorithm — on
//! a deployment of more than one rank after being decomposed through the
//! decomposition cache, which only such an engine builds; on one rank
//! without, because the plan there reads the CSR and nothing else (see
//! [`EngineConfig::target_ranks`]). **Queries** — single-column multiply requests against a
//! registered matrix — are then submitted to a queue; [`Engine::flush`]
//! coalesces all compatible pending queries (same matrix, iteration
//! count, and σ) into one multi-RHS [`DenseMatrix`] run.
//!
//! Batching is exact: every algorithm computes output columns
//! independently (the per-column accumulation order does not depend on
//! the operand width), so a batched answer is bit-identical to the
//! per-query one, while the per-run fixed costs — one walk over the
//! matrix; on a distributed deployment also rank dispatch and latency
//! α — are paid once per batch.

use crate::cache::CacheStats;
use crate::distributed::{DecomposeJob, Distributed};
use crate::planner::{plan_local, Plan, PlannerConfig, Prediction};
use amd_chaos::failpoint;
use amd_comm::CostModel;
use amd_obs::{SpanId, Stopwatch, Telemetry};
use amd_sparse::{ops, CsrMatrix, DeltaBuilder, DenseMatrix, Dtype, SparseError, SparseResult};
use amd_spmm::traits::Sigma;
use amd_spmm::{DeltaSpmm, DistSpmm};
use arrow_core::incremental::{IncrementalPolicy, RefreshOutcome};
use arrow_core::ArrowDecomposition;
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
    /// Arrow width used when decomposing registered matrices (read on
    /// more than one rank only).
    pub arrow_width: u32,
    /// Seed for the decomposition's random-forest arrangement (read on
    /// more than one rank only).
    pub decompose_seed: u64,
    /// Decompositions held in memory (LRU beyond this). Read on more
    /// than one rank only, where `0` is refused with an error.
    pub cache_capacity: usize,
    /// Write-through spill directory for decompositions; `None`
    /// disables persistence. Read on more than one rank only: a one-rank
    /// engine computes no decomposition, and neither creates nor opens
    /// the directory.
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
    /// [`arrow_core::incremental`]). Read on more than one rank only.
    pub incremental: IncrementalPolicy,
    /// Unread: the engine serves at `f64` only. It stays, with
    /// [`Dtype`], until the benchmark package stops naming
    /// `PlannerConfig::dtype` (ROADMAP item 29 step 1).
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
    /// Result column (`n` entries), in the storage of the query's own
    /// [`MultiplyQuery::x`]: the vector submitted comes back holding
    /// the answer, so serving it allocates nothing per query.
    pub y: Vec<f64>,
    /// How many queries shared the run that produced this answer.
    pub batch_size: usize,
}

amd_obs::stats_view! {
    /// Serving counters: a point-in-time view of the engine's registry
    /// metrics (`engine.*` in a metrics snapshot) — see [`Engine::stats`].
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct EngineStats {
        /// Queries answered: the sum of `engine.batch_size`.
        queries: u64 = m.batch_size.sum(),
        /// Distributed runs launched: the count of `engine.batch_size`.
        runs: u64 = m.batch_size.count(),
        /// Largest batch coalesced so far: the max of `engine.batch_size`.
        largest_batch: usize = m.batch_size.max() as usize,
        /// Runs answered through the delta-corrected path (a non-empty
        /// overlay was pending on the queried matrix).
        corrected_runs: Counter,
        /// Streaming refreshes absorbed: an updated matrix replaced its
        /// predecessor via [`Engine::refresh`]. The count of
        /// `refresh.seconds`.
        refreshes: u64 = m.refresh_seconds.count(),
        /// Bindings dropped via [`Engine::deregister`] (overlay and cache
        /// reference released with them).
        deregistered: Counter,
        /// Retired: always 0. Runs are no longer re-checked against the
        /// planner's prediction, which is exact (`amd-spmm`'s
        /// `tests/predict.rs`); the field stays for readers of its name.
        mispredictions: u64 = 0,
        /// Transient multiply errors absorbed by the in-place retry loop
        /// (injected by the `engine.multiply.transient` failpoint; a real
        /// serving run never errors transiently).
        multiply_retries: Counter,
    }
    /// The engine's registry handles: the counters above plus its
    /// histograms.
    struct EngineCells |m| {
        /// Queries per run, one sample per run.
        batch_size: Histogram = "engine.batch_size",
        /// Packing a run's query vectors into its operand, one sample
        /// per run.
        pack_seconds: Histogram = "pack.seconds",
        multiply_seconds: Histogram = "multiply.seconds",
        /// Writing a run's answer columns back into its queries'
        /// vectors, one sample per run.
        unpack_seconds: Histogram = "unpack.seconds",
        refresh_seconds: Histogram = "refresh.seconds",
    }
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
    /// share of positions that may host entries; carried into trace
    /// events. `None` on one rank, where there is none.
    active_prefix: Option<f64>,
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
    /// What the build needs to decompose the merged matrix; `None` on
    /// one rank and when the caller passed no delta (see
    /// [`Engine::prepare_refresh`]).
    decompose: Option<DecomposeJob>,
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
        let decomposition = match &self.decompose {
            Some(job) => Some(job.run(merged)?),
            None => None,
        };
        Ok(RefreshBuild {
            fingerprint,
            decomposition,
        })
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
    /// The many-rank arm; `None` on one rank.
    distributed: Option<Distributed>,
    bound: HashMap<u128, BoundMatrix>,
    pending: Vec<Pending>,
    /// Storage of the last batch's packed operand, reused by the next.
    operand: Vec<f64>,
    next_query: u64,
    telemetry: Telemetry,
    metrics: EngineCells,
}

impl Engine {
    /// Builds an engine; on more than one rank, opens (creating if
    /// needed) the persistence catalog when a spill directory is
    /// configured, and refuses a `cache_capacity` of 0. Telemetry is
    /// enabled with a fresh registry and tracer — use
    /// [`with_telemetry`](Self::with_telemetry) to share or disable it.
    pub fn new(config: EngineConfig) -> SparseResult<Self> {
        Self::with_telemetry(config, Telemetry::new())
    }

    /// [`new`](Self::new) observing into caller-supplied telemetry: the
    /// engine's counters and histograms (`engine.*`, `pack.seconds`,
    /// `multiply.seconds`, `unpack.seconds`, `refresh.seconds`) register
    /// there — on more than one rank also the cache's and the catalog's
    /// (`cache.*`, `catalog.*`, `decompose.seconds`), which a one-rank
    /// engine never registers — and request-path trace events go to its
    /// tracer. Pass [`Telemetry::disabled`] for a zero-cost
    /// uninstrumented engine.
    pub fn with_telemetry(config: EngineConfig, telemetry: Telemetry) -> SparseResult<Self> {
        let distributed = Distributed::new(&config, &telemetry.registry)?;
        let metrics = EngineCells::new(&telemetry.registry, "engine.");
        Ok(Self {
            config,
            distributed,
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

    /// Registers a copy of `a`: fingerprint, plan, and bind the cheapest
    /// algorithm — on more than one rank after decomposing `a` through
    /// the cache. Registering the same content twice is a no-op returning
    /// the same id. A caller done with `a` hands it over through
    /// [`register_salted`](Self::register_salted) with salt zero instead,
    /// and nothing is copied.
    pub fn register(&mut self, a: &CsrMatrix<f64>) -> SparseResult<MatrixId> {
        self.register_salted(a.clone(), 0)
    }

    /// [`register`](Self::register) under a caller-chosen salt: identical
    /// content registered under distinct salts gets distinct bindings
    /// (own overlay, own version lineage, own refresh history) while the
    /// decomposition cache still dedups the LA-Decompose by content. A
    /// multi-tenant holder passes its tenant id here. Salt zero is plain
    /// registration.
    ///
    /// `a` is shared, not copied: a one-rank binding multiplies by this
    /// very allocation, so a holder that keeps the matrix too (a hub
    /// tenant's base) passes a clone of its `Arc`.
    pub fn register_salted(
        &mut self,
        a: impl Into<Arc<CsrMatrix<f64>>>,
        salt: u128,
    ) -> SparseResult<MatrixId> {
        let a = a.into();
        let fingerprint = a.fingerprint();
        self.register_versioned(a, fingerprint, salt, (0, 0), None)
    }

    /// `fingerprint` is `a.fingerprint()`, hashed once by whoever
    /// produced `a`; `version` is the streaming revision and `parent` the
    /// fingerprint it was refreshed from (both 0 when cold; the catalog
    /// chains versions by it); `precomputed` is a refresh build's
    /// decomposition of `a`, when it made one.
    fn register_versioned(
        &mut self,
        a: Arc<CsrMatrix<f64>>,
        fingerprint: u128,
        salt: u128,
        (version, parent): (u64, u128),
        precomputed: Option<Arc<ArrowDecomposition>>,
    ) -> SparseResult<MatrixId> {
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
        let n = a.rows();
        let planner = PlannerConfig {
            cost: self.config.cost,
            k_hint: (self.config.max_batch as u32).clamp(1, 64),
            ..PlannerConfig::default()
        };
        // Only a plan that reads a decomposition gets one: everything
        // that computes, caches or persists it is in the many-rank arm.
        let (planned, active_prefix, source) = match &mut self.distributed {
            Some(d) => d.plan(&a, fingerprint, (version, parent), precomputed, planner)?,
            None => (plan_local(a, &planner)?, None, "none"),
        };
        let Plan {
            algo,
            chosen,
            predictions,
        } = planned;
        if self.telemetry.tracer.is_enabled() {
            let mut detail = format!(
                "algo={} predicted_sim_seconds={:.3e} cache={source}",
                chosen, predictions[0].seconds
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
                n,
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

    /// Replaces the binding of `old` with a binding of `merged` (the
    /// compacted `A₀ + ΔA`) planned afresh, carrying the streaming
    /// version forward and discarding any pending overlay; on more than
    /// one rank the merged matrix's decomposition goes through the cache
    /// (write-through under its new fingerprint).
    ///
    /// Queries already queued against `old` are answered by the *new*
    /// binding at the next flush — their [`MatrixId`] is remapped, which
    /// is sound because a refresh changes the representation, not the
    /// served operator (`A₀ + ΔA` before, merged `A₀` after).
    ///
    /// This is the refresh pipeline run inline by a caller that cannot
    /// say what changed: [`prepare_refresh`](Self::prepare_refresh)
    /// without a delta, [`RefreshTicket::build_merged`] and
    /// [`commit_refresh`](Self::commit_refresh) of a copy of `merged`. A
    /// holder that tracks its delta passes it and runs
    /// [`RefreshTicket::build`] on whichever thread it likes.
    pub fn refresh(&mut self, old: MatrixId, merged: &CsrMatrix<f64>) -> SparseResult<MatrixId> {
        let ticket = self.prepare_refresh(old, None)?;
        let built = ticket.build_merged(merged, merged.fingerprint())?;
        self.commit_refresh(&ticket, merged.clone(), built)
    }

    /// The first step of a refresh: validates that `old` is bound and
    /// returns the [`RefreshTicket`] for its build. The old binding (and
    /// its delta overlay) keeps serving until
    /// [`commit_refresh`](Self::commit_refresh).
    ///
    /// With `delta`, on more than one rank, the build decomposes the
    /// merged matrix — spliced from the old binding's decomposition when
    /// that is still cached, around the delta's touched vertices, which
    /// only this arm collects. `delta` must be **the whole** difference
    /// between the old binding's content and the merged matrix (a
    /// partial one makes the splice serve the wrong operator). Otherwise
    /// — one rank, or no delta — the build decomposes nothing, and where
    /// the deployment needs a decomposition, commit takes it from the
    /// cache (a hit, a catalog reload, or a cold LA-Decompose).
    pub fn prepare_refresh(
        &mut self,
        old: MatrixId,
        delta: Option<&DeltaBuilder<f64>>,
    ) -> SparseResult<RefreshTicket> {
        let old_bound = self.bound.get(&old.0).ok_or_else(|| {
            SparseError::InvalidCsr(format!("matrix {:032x} is not registered", old.0))
        })?;
        let (n, fingerprint) = (old_bound.n, old_bound.fingerprint);
        let decompose = match (&mut self.distributed, delta) {
            (Some(d), Some(delta)) => Some(d.refresh_job(fingerprint, delta)),
            _ => None,
        };
        Ok(RefreshTicket { old, n, decompose })
    }

    /// The last step of a refresh: swaps the binding of `ticket.old`
    /// to a fresh binding of `merged`, adopting what the ticket's build
    /// produced from it — the fingerprint (not hashed again) and, if the
    /// build decomposed, the decomposition (admitted into the cache,
    /// write-through). `built` must be that ticket's build of this
    /// `merged`. Pending queries are remapped and the version lineage
    /// carried forward exactly as in [`refresh`](Self::refresh); on error
    /// the old binding keeps serving. Like
    /// [`register_salted`](Self::register_salted), `merged` is shared,
    /// not copied: a holder that keeps it as its new base passes a clone
    /// of its `Arc`.
    pub fn commit_refresh(
        &mut self,
        ticket: &RefreshTicket,
        merged: impl Into<Arc<CsrMatrix<f64>>>,
        built: RefreshBuild,
    ) -> SparseResult<MatrixId> {
        let sw = Stopwatch::start();
        let merged = merged.into();
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
        let lineage = (version, old_bound.fingerprint);
        let decomposition = built.decomposition.map(|(d, _)| Arc::new(d));
        let (fingerprint, salt) = (built.fingerprint, old_bound.salt);
        let new_id =
            match self.register_versioned(merged, fingerprint, salt, lineage, decomposition) {
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
        self.metrics
            .refresh_seconds
            .record_seconds(sw.elapsed_seconds());
        Ok(new_id)
    }

    /// Drops the binding of `id` and its overlay, counted in
    /// [`EngineStats::deregistered`]. On more than one rank it also
    /// tears down what the binding held there: its cached decomposition
    /// is released unless another binding of the same content (another
    /// tenant's salted registration) still serves from it, and its
    /// catalog version chain is removed, sparing every revision a live
    /// binding still reaches. A catalog error comes back after the
    /// binding is gone.
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
        self.metrics.deregistered.inc();
        if let Some(distributed) = &mut self.distributed {
            let live: Vec<u128> = self.bound.values().map(|b| b.fingerprint).collect();
            distributed.release(fingerprint, &live)?;
        }
        Ok(())
    }

    /// Queries queued against one binding.
    pub fn pending_for(&self, id: MatrixId) -> usize {
        self.pending.iter().filter(|p| p.query.matrix == id).count()
    }

    /// Content fingerprint of a binding (the head of its catalog
    /// version chain).
    pub fn binding_fingerprint(&self, id: MatrixId) -> Option<u128> {
        self.bound.get(&id.0).map(|b| b.fingerprint)
    }

    /// The persistence catalog behind the decomposition cache, when the
    /// engine has more than one rank and a spill directory (inspection
    /// and restore tooling; [`deregister`](Self::deregister) removes a
    /// binding's chain).
    pub fn catalog(&self) -> Option<&arrow_core::Catalog> {
        self.distributed.as_ref()?.cache.catalog()
    }

    /// Sets (or replaces) the sparse correction `ΔA` pending on `id`.
    /// While the overlay is non-empty, every run against `id` goes
    /// through the delta-corrected path, serving `A₀ + ΔA` without
    /// re-decomposing. Pass an empty matrix to clear it.
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
    /// from the registry; all zero on one rank, which has no cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.distributed
            .as_ref()
            .map_or_else(CacheStats::default, |d| d.cache.stats())
    }

    /// Serving counters, folded from the registry.
    pub fn stats(&self) -> EngineStats {
        self.metrics.view()
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
        let width = self.config.max_batch.max(1);
        for mut members in groups {
            while !members.is_empty() {
                let rest = members.split_off(width.min(members.len()));
                responses.extend(self.run_batch(members)?);
                members = rest;
            }
        }
        responses.sort_by_key(|r| r.id.0);
        Ok(responses)
    }

    fn run_batch(&mut self, mut chunk: Vec<Pending>) -> SparseResult<Vec<QueryResponse>> {
        let first = &chunk[0].query;
        let (matrix, iters, sigma) = (first.matrix, first.iters, first.sigma);
        let bound = self.bound.get(&matrix.0).ok_or_else(|| {
            SparseError::InvalidCsr(format!(
                "matrix {:032x} was deregistered while queries were pending",
                matrix.0
            ))
        })?;
        let n = bound.n;
        // Columns side by side: query j is column j.
        let columns: Vec<&[f64]> = chunk.iter().map(|p| p.query.x.as_slice()).collect();
        let sw = Stopwatch::start();
        let x = DenseMatrix::from_columns(n, &columns, std::mem::take(&mut self.operand))?;
        self.metrics.pack_seconds.record(sw.elapsed_nanos());
        // Pending updates: serve A₀ + ΔA through the corrected path.
        let overlay_algo = match &bound.overlay {
            Some(delta) => Some(DeltaSpmm::new(&*bound.algo, delta)?.with_cost(self.config.cost)),
            None => None,
        };
        let sw = Stopwatch::start();
        // A transient failure — only ever the `engine.multiply.transient`
        // chaos failpoint — fires before the operand is handed over, so
        // it is safely retried in place with the same operand.
        let mut attempts = 0u32;
        while let Err(e) = failpoint::check(failpoint::ENGINE_MULTIPLY_TRANSIENT) {
            if !failpoint::is_injected(&e) || attempts == MAX_MULTIPLY_RETRIES {
                return Err(e);
            }
            attempts += 1;
            self.metrics.multiply_retries.inc();
        }
        // The run may answer in the operand's own storage, which then
        // becomes the next batch's operand.
        let run = match &overlay_algo {
            Some(corrected) => corrected.run_owned(x, iters, sigma),
            None => bound.algo.run_owned(x, iters, sigma),
        }?;
        if overlay_algo.is_some() {
            self.metrics.corrected_runs.inc();
        }
        let multiply_seconds = sw.elapsed_seconds();
        self.metrics
            .multiply_seconds
            .record_seconds(multiply_seconds);
        self.metrics.batch_size.record(chunk.len() as u64);
        if self.telemetry.tracer.is_enabled() {
            // Predicted cost is per iteration per the planner contract. The
            // prediction and the run's makespan are simulated seconds; the
            // multiply's own time is wall seconds.
            let predicted = bound
                .predictions
                .first()
                .map(|p| p.seconds * iters as f64)
                .unwrap_or(0.0);
            let mut detail = format!(
                "algo={} batch={} queries={}..={} iters={} corrected={} \
                 predicted_sim_seconds={:.3e} sim_seconds={:.3e} \
                 wall_seconds={:.3e} max_rank_bytes={}",
                bound.chosen,
                chunk.len(),
                chunk[0].id.0,
                chunk[chunk.len() - 1].id.0,
                iters,
                bound.overlay.is_some(),
                predicted,
                run.stats.sim_time(),
                multiply_seconds,
                run.stats.max_volume()
            );
            if let Some(active_prefix) = bound.active_prefix {
                let _ = write!(detail, " active_prefix={active_prefix:.3}");
            }
            self.telemetry
                .tracer
                .event("multiply", SpanId::NONE, None, detail);
        }
        // Each query's own vector carries its answer back.
        let mut columns: Vec<&mut [f64]> =
            chunk.iter_mut().map(|p| p.query.x.as_mut_slice()).collect();
        let sw = Stopwatch::start();
        run.y.write_columns(&mut columns)?;
        self.metrics.unpack_seconds.record(sw.elapsed_nanos());
        self.operand = run.y.into_vec();
        let batch_size = chunk.len();
        Ok(chunk
            .into_iter()
            .map(|p| QueryResponse {
                id: p.id,
                y: p.query.x,
                batch_size,
            })
            .collect())
    }

    /// Runs one query immediately, bypassing the batcher (the unbatched
    /// baseline the serving example compares against).
    pub fn run_single(&mut self, query: MultiplyQuery) -> SparseResult<QueryResponse> {
        self.submit(query)?;
        let pending = self.pending.pop().expect("just submitted");
        let mut responses = self.run_batch(vec![pending])?;
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
    fn zero_cache_capacity_is_refused_on_many_ranks_and_ignored_on_one() {
        let zero = |target_ranks| {
            Engine::new(EngineConfig {
                cache_capacity: 0,
                target_ranks,
                ..EngineConfig::default()
            })
        };
        let mut local = zero(1).expect("a one-rank engine has no cache to size");
        let id = local.register(&ring(16)).unwrap();
        assert!(local.chosen_algorithm(id).is_some());
        let err = zero(4).err().expect("a many-rank engine needs a slot");
        assert!(err.to_string().contains("cache_capacity"), "{err}");
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
        // An empty overlay clears it and restores the base path.
        e.set_delta(id, CsrMatrix::zeros(n, n)).unwrap();
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
    /// inline: ticket with the delta, build, commit. `chords` are
    /// symmetric additions to `a`. Returns the merged matrix, the new
    /// binding and what the build's decompose did.
    fn refresh_delta(
        e: &mut Engine,
        old: MatrixId,
        a: &CsrMatrix<f64>,
        chords: &[(u32, u32, f64)],
    ) -> (CsrMatrix<f64>, MatrixId, Option<RefreshOutcome>) {
        let n = a.rows();
        let mut delta = DeltaBuilder::new(n, n);
        for &(r, c, v) in chords {
            delta.add_sym(r, c, v).unwrap();
        }
        let ticket = e.prepare_refresh(old, Some(&delta)).unwrap();
        let (merged, built) = ticket.build(a, &delta.to_csr()).unwrap();
        let outcome = built.outcome();
        let id = e.commit_refresh(&ticket, merged.clone(), built).unwrap();
        (merged, id, outcome)
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
        let (merged, new_id, outcome) = refresh_delta(&mut e, id, &a, &[(10, 13, 2.0)]);
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
        let (_, new_id, outcome) = refresh_delta(&mut e, id, &a, &[(3, 6, 1.0)]);
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
        let (merged, new_id, outcome) = refresh_delta(&mut e, id, &a, &[(3, 6, 1.0)]);
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
        let id1 = e.register_salted(a.clone(), 1).unwrap();
        let id2 = e.register_salted(a.clone(), 2).unwrap();
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
    fn deregister_removes_the_catalog_chain_no_live_binding_reaches() {
        let dir = std::env::temp_dir().join(format!("amd-engine-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut e = Engine::new(EngineConfig {
            target_ranks: 4,
            spill_dir: Some(dir.clone()),
            ..EngineConfig::default()
        })
        .unwrap();
        let (a, b) = (ring(36), ring(40));
        let mut chord = amd_sparse::CooMatrix::new(40, 40);
        chord.push_sym(0, 20, 1.0).unwrap();
        let b2 = ops::apply_delta(&b, &chord.to_csr()).unwrap();
        let shared1 = e.register_salted(a.clone(), 1).unwrap();
        let shared2 = e.register_salted(a.clone(), 2).unwrap();
        // The third binding's chain is two versions long: b, then b2.
        let other = e.register_salted(b.clone(), 3).unwrap();
        let other = e.refresh(other, &b2).unwrap();
        let versions = |e: &Engine| {
            let catalog = e
                .catalog()
                .expect("a many-rank engine with a spill directory");
            [&a, &b, &b2].map(|m| catalog.versions(m.fingerprint()).len())
        };
        assert_eq!(versions(&e), [1, 1, 1]);
        // Salt 2 still serves `a`, and `other` reaches both of its versions.
        e.deregister(shared1).unwrap();
        assert_eq!(versions(&e), [1, 1, 1]);
        // The last binding of `a` takes its chain along.
        e.deregister(shared2).unwrap();
        assert_eq!(versions(&e), [0, 1, 1]);
        e.deregister(other).unwrap();
        assert_eq!(versions(&e), [0, 0, 0]);
        assert_eq!(e.stats().deregistered, 3);
        let _ = std::fs::remove_dir_all(&dir);
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
        let id1 = e.register_salted(a.clone(), 1).unwrap();
        let id2 = e.register_salted(a.clone(), 2).unwrap();
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
        assert_eq!(e.pending_for(id2), 1, "salt-2 query still queued");
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

    /// Named when the events carried the serving dtype, which is `f64`
    /// alone now and no longer traced.
    #[test]
    fn trace_events_carry_dtype_and_active_prefix() {
        let mut e = Engine::new(EngineConfig {
            target_ranks: 4,
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
        assert!(plan.detail.contains("active_prefix="), "{}", plan.detail);
        let mul = events
            .iter()
            .find(|ev| ev.name == "multiply")
            .expect("multiply event traced");
        assert!(mul.detail.contains("active_prefix="), "{}", mul.detail);
        assert!(mul.detail.contains("max_rank_bytes="), "{}", mul.detail);
    }

    /// Simulated and wall seconds are never reported under one name: a
    /// traced batch on four ranks names the prediction and the makespan
    /// as simulated seconds and the multiply's own time as wall seconds,
    /// and the plan names its prediction as simulated.
    #[test]
    fn trace_events_name_simulated_and_wall_seconds_apart() {
        let mut e = engine();
        let id = e.register(&ring(48)).unwrap();
        for column in 0..3 {
            let x = (0..48).map(|r| f64::from((r + column) % 5)).collect();
            let (matrix, iters, sigma) = (id, 2, None);
            e.submit(MultiplyQuery {
                matrix,
                x,
                iters,
                sigma,
            })
            .unwrap();
        }
        assert_eq!(e.flush().unwrap().len(), 3);
        let events = e.telemetry().tracer.snapshot();
        let detail = |name: &str| {
            let event = events.iter().find(|ev| ev.name == name);
            event.expect("event traced").detail.clone()
        };
        let (plan, mul) = (detail("plan"), detail("multiply"));
        assert!(mul.contains("batch=3"), "{mul}");
        for name in ["predicted_sim_seconds=", "sim_seconds=", "wall_seconds="] {
            assert!(mul.contains(name), "{mul}");
        }
        assert!(!mul.contains("actual_seconds"), "{mul}");
        assert!(plan.contains("predicted_sim_seconds="), "{plan}");
        assert!(!plan.contains(" predicted_seconds"), "{plan}");
    }
}
