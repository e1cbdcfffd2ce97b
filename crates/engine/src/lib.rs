//! # amd-engine — a batched SpMM serving engine
//!
//! The paper's workflow (§5, §7) decomposes a matrix **once** and
//! amortizes that cost over many SpMM iterations. This crate turns that
//! shape into a serving subsystem — one that computes a decomposition
//! only when the plan it is about to bind reads one, which a one-rank
//! plan does not:
//!
//! * the decomposition cache — an LRU keyed by
//!   [`CsrMatrix::fingerprint`](amd_sparse::CsrMatrix::fingerprint),
//!   write-through persisted into the versioned
//!   [`arrow_core::catalog`] (lineage-tracked version chains) so warm
//!   restarts skip LA-Decompose entirely. Only an engine of more than
//!   one rank builds it (with the catalog, and the decomposition
//!   settings of [`EngineConfig`]); a one-rank engine reads none of
//!   those settings and has no cache, catalog or `cache.*` metrics —
//!   [`Engine::cache_stats`] reads all zero there,
//! * [`planner`] — binds one [`DistSpmm`](amd_spmm::DistSpmm) per
//!   matrix. On the default one-rank deployment
//!   ([`EngineConfig::target_ranks`]` = 1`: the host this process runs
//!   on) that is the shared-memory [`LocalSpmm`](amd_spmm::LocalSpmm),
//!   alone; on a distributed one it predicts per-iteration cost for
//!   every distributed algorithm from its planned distribution
//!   ([`DistSpmm::predict_volume`](amd_spmm::DistSpmm::predict_volume))
//!   under the α-β [`CostModel`](amd_comm::CostModel), and binds the
//!   winner,
//! * [`Engine`] — registration plus a request batcher that coalesces
//!   compatible multiply queries into one multi-RHS run; batching is
//!   exact (bit-identical to per-query runs) because every algorithm
//!   computes output columns independently.
//!
//! A prediction is not re-checked against the run it priced: every
//! algorithm's `predict_volume` equals the machine's per-iteration
//! accounting exactly, which `amd-spmm`'s `tests/predict.rs` holds over
//! generated inputs.
//!
//! For **mutating** matrices the engine additionally supports a sparse
//! delta overlay ([`Engine::set_delta`]) — runs are answered as
//! `A₀ + ΔA` through [`amd_spmm::DeltaSpmm`] without re-decomposing —
//! and a staleness [`Engine::refresh`] that rebinds a matrix to its
//! compacted successor (new fingerprint, full planner re-ranking,
//! version carried forward; on more than one rank a fresh decomposition
//! through the cache). A refresh is one pipeline, whoever runs it:
//! [`Engine::prepare_refresh`] (the ticket; with the touched vertices a
//! many-rank build may splice the old decomposition instead of
//! rebuilding), one *build* — [`RefreshTicket::build`]: merge,
//! fingerprint, decompose only if the ticket asks — that touches no
//! engine state, so a holder can run it on another thread, and
//! [`Engine::commit_refresh`]. [`Engine::refresh`] is those three steps
//! inline, without a touched set. The `amd-stream` crate drives them
//! from a budgeted update stream.
//!
//! Bindings have a full lifecycle: [`Engine::deregister`] drops one
//! (refusing while it still owns pending queries, releasing its cache
//! reference once no other binding shares the content), and
//! [`Engine::flush_owned`] drains just the queries registered under one
//! salt — the per-tenant flush of a multi-tenant holder.
//!
//! ```
//! use amd_engine::{Engine, EngineConfig, MultiplyQuery};
//! use amd_graph::generators::basic;
//! use amd_sparse::CsrMatrix;
//!
//! let a: CsrMatrix<f64> = basic::star(64).to_adjacency();
//! let mut engine = Engine::new(EngineConfig::default()).unwrap();
//! let id = engine.register(&a).unwrap();          // fingerprint + plan once
//! for q in 0..8 {
//!     let x = (0..64).map(|r| ((q + r) % 5) as f64).collect();
//!     engine.submit(MultiplyQuery { matrix: id, x, iters: 2, sigma: None }).unwrap();
//! }
//! let answers = engine.flush().unwrap();          // one 8-column run
//! assert_eq!(answers.len(), 8);
//! assert_eq!(engine.stats().runs, 1);
//! ```

pub mod cache;
mod distributed;
pub mod engine;
pub mod planner;

pub use cache::CacheStats;
pub use engine::{
    Engine, EngineConfig, EngineStats, MatrixId, MultiplyQuery, QueryId, QueryResponse,
    RefreshBuild, RefreshTicket,
};
pub use planner::{plan, plan_local, Plan, PlannerConfig, Prediction};

// Incremental-refresh vocabulary, re-exported so serving layers can
// configure the policy and read outcomes without a direct
// `arrow_core` dependency.
pub use arrow_core::incremental::{FallbackReason, IncrementalPolicy, RefreshOutcome};
