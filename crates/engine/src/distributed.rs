//! The engine's many-rank arm: everything a deployment of more than one
//! rank needs and a one-rank deployment does not.
//!
//! The distributed candidates are built from an arrow decomposition, so
//! a many-rank engine decomposes every matrix it binds — once, through
//! the [`DecompositionCache`] and, with a spill directory, its catalog —
//! and a refresh that names its touched vertices may splice the old
//! decomposition instead of rebuilding it. A one-rank plan reads the CSR
//! alone ([`plan_local`](crate::plan_local)): there [`Distributed::new`]
//! returns `None`, so that engine holds no cache, opens no catalog and
//! registers none of their metric names.

use crate::cache::DecompositionCache;
use crate::engine::EngineConfig;
use crate::planner::{plan, Plan, PlannerConfig};
use amd_obs::Registry;
use amd_sparse::{CsrMatrix, SparseError, SparseResult};
use arrow_core::incremental::{decompose_snapshot_incremental, IncrementalPolicy, RefreshOutcome};
use arrow_core::{ArrowDecomposition, DecomposeConfig};
use std::sync::Arc;

/// The many-rank half of an [`Engine`](crate::Engine): its decomposition
/// cache and the settings every decomposition it computes is made with.
pub(crate) struct Distributed {
    /// The deployment's rank count, above 1.
    ranks: u32,
    /// The cache, and through it the persistence catalog and the
    /// counters [`Engine::cache_stats`](crate::Engine::cache_stats) reads.
    pub(crate) cache: DecompositionCache,
    config: DecomposeConfig,
    seed: u64,
    incremental: IncrementalPolicy,
    /// Where `engine.active_prefix_permille` is published.
    registry: Registry,
}

/// What a refresh build needs to decompose the merged matrix — carried
/// by a [`RefreshTicket`](crate::RefreshTicket) only when the build
/// decomposes.
#[derive(Debug, Clone)]
pub(crate) struct DecomposeJob {
    config: DecomposeConfig,
    seed: u64,
    /// The old binding's decomposition, when it was still resident in
    /// the cache when the ticket was made — the splice base.
    prior: Option<Arc<ArrowDecomposition>>,
    /// Every vertex incident to a difference between the old binding's
    /// content and the merged matrix.
    touched: Vec<u32>,
    /// Carried along so a worker thread decides incremental-vs-cold
    /// exactly as the engine would.
    incremental: IncrementalPolicy,
}

impl DecomposeJob {
    /// Decomposes `merged`: spliced from the prior where the policy
    /// allows, cold otherwise. Touches no engine state.
    pub(crate) fn run(
        &self,
        merged: &CsrMatrix<f64>,
    ) -> SparseResult<(ArrowDecomposition, RefreshOutcome)> {
        decompose_snapshot_incremental(
            merged,
            &self.config,
            self.seed,
            self.prior.as_deref(),
            Some(&self.touched),
            &self.incremental,
        )
    }
}

impl Distributed {
    /// The many-rank arm of an engine built from `config`, publishing
    /// into `registry`; `None` on one rank. Opens (creating if needed)
    /// the persistence catalog when a spill directory is configured.
    pub(crate) fn new(config: &EngineConfig, registry: &Registry) -> SparseResult<Option<Self>> {
        if config.target_ranks <= 1 {
            return Ok(None);
        }
        let cache = DecompositionCache::with_registry(
            config.cache_capacity,
            config.spill_dir.clone(),
            registry,
        )?;
        Ok(Some(Self {
            ranks: config.target_ranks,
            cache,
            config: DecomposeConfig::with_width(config.arrow_width),
            seed: config.decompose_seed,
            incremental: config.incremental,
            registry: registry.clone(),
        }))
    }

    /// Plans a many-rank binding of `a` (content `fingerprint`, at
    /// `version`, refreshed from `parent`) from its decomposition, which
    /// comes through the cache: `precomputed` (a refresh build's) is
    /// admitted, anything else is looked up in memory, then in the
    /// catalog, then decomposed. Returns the plan, the decomposition's
    /// mean active-prefix fraction (always present here, absent from a
    /// one-rank plan) and which of those sources it was, for the trace.
    pub(crate) fn plan(
        &mut self,
        a: &CsrMatrix<f64>,
        fingerprint: u128,
        (version, parent): (u64, u128),
        precomputed: Option<Arc<ArrowDecomposition>>,
        planner: PlannerConfig,
    ) -> SparseResult<(Plan, Option<f64>, &'static str)> {
        let (d, source) = match precomputed {
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
                self.cache
                    .admit(fingerprint, &self.config, self.seed, d, version, parent)
            }
            None => self.cache.get_or_decompose_lineage(
                a,
                fingerprint,
                &self.config,
                self.seed,
                version,
                parent,
            )?,
        };
        let active_prefix = d.active_prefix_fraction();
        // Of the most recently planned binding, in permille (gauges are
        // integers); a one-rank engine never publishes the name.
        self.registry
            .gauge("engine.active_prefix_permille")
            .set((active_prefix * 1000.0).round() as u64);
        let planner = PlannerConfig {
            target_ranks: self.ranks,
            ..planner
        };
        Ok((plan(a, &d, &planner)?, Some(active_prefix), source))
    }

    /// What a refresh build of the binding with content `fingerprint`
    /// needs to decompose its merged matrix, `touched` being every
    /// vertex the refresh changed. The prior is looked up in memory
    /// only, and only when the policy allows a splice: a miss sends the
    /// build cold.
    pub(crate) fn refresh_job(&mut self, fingerprint: u128, touched: Vec<u32>) -> DecomposeJob {
        let prior = if self.incremental.enabled {
            self.cache.peek(fingerprint, &self.config, self.seed)
        } else {
            None
        };
        DecomposeJob {
            config: self.config,
            seed: self.seed,
            prior,
            touched,
            incremental: self.incremental,
        }
    }

    /// Drops the resident decomposition of `fingerprint` (its catalog
    /// version, if any, stays until garbage-collected).
    pub(crate) fn release(&mut self, fingerprint: u128) {
        self.cache.release(fingerprint, &self.config, self.seed);
    }
}
