//! # amd-stream — streaming updates for served arrow decompositions
//!
//! The paper's workload shape is decompose-once, multiply-many; the
//! serving engine (`amd-engine`) hardcodes that assumption — any change
//! to the matrix means a cold LA-Decompose. This crate absorbs
//! edge/weight updates **between** queries without paying full
//! re-decomposition on every change. A served matrix becomes
//!
//! ```text
//! A  =  A₀ (decomposed base)  +  ΔA (sparse coalescing delta)
//! ```
//!
//! * multiplies are answered as arrow-SpMM on `A₀` plus a per-iteration
//!   delta correction (see [`amd_spmm::DeltaSpmm`]) — exact under the
//!   subsystem's fixed reduction order,
//! * value-only updates to stored entries can bypass the delta entirely
//!   and patch the decomposition in place
//!   ([`arrow_core::ArrowDecomposition::patch_values`]),
//! * delta size/mass is tracked against a configurable
//!   [`StalenessBudget`]; when it trips, a background-style **refresh**
//!   compacts `ΔA` into `A₀`, bumps the version and re-ranks the
//!   planner — on a deployment of more than one rank after re-running
//!   LA-Decompose (incrementally where it can) and writing the result
//!   through to the persist layer; on one rank, whose plan reads no
//!   decomposition, without.
//!
//! Three entry points:
//!
//! * [`DynamicMatrix`] — the self-contained kernel object (base +
//!   decomposition + delta), sequential corrected multiply, catalog
//!   version-chain persistence with point-in-time
//!   [`restore_at`](DynamicMatrix::restore_at), and a measured-signal
//!   adaptive budget. Use it for library/batch workloads.
//! * [`StreamHub`] — the multi-tenant serving hub around
//!   [`amd_engine::Engine`]: many mutating matrices behind one engine,
//!   per-tenant budgets and [`Session`] handles, **double-buffered
//!   background refresh** (a worker thread merges, fingerprints and —
//!   on more than one rank — decomposes the next base while the old
//!   binding + delta overlay keeps serving; the swap commits at the
//!   next poll point), FIFO fairness under a shared
//!   refresh budget, delta-aware early rebinds, and the full tenant
//!   **lifecycle**: per-tenant flush, [`evict`](StreamHub::evict) with
//!   catalog garbage collection, and idle eviction. Use it to serve
//!   traffic.
//! * [`StreamingEngine`] — the original single-tenant API, kept as a
//!   thin wrapper over a one-tenant hub with synchronous refresh.
//!
//! ```
//! use amd_graph::generators::basic;
//! use amd_sparse::CsrMatrix;
//! use amd_stream::{StalenessBudget, StreamingConfig, StreamingEngine, Update};
//!
//! let a: CsrMatrix<f64> = basic::cycle(64).to_adjacency();
//! // A 4-rank deployment: the matrix is decomposed, once, at admission.
//! // (The default is one rank, which decomposes nothing.)
//! let mut config = StreamingConfig::with_budget(StalenessBudget::nnz_cap(8));
//! config.engine.target_ranks = 4;
//! let mut s = StreamingEngine::new(a, config).unwrap();
//! // Mutate the graph between queries: add a chord.
//! for u in (Update::Add { row: 0, col: 32, delta: 1.0 }).sym_pair() {
//!     s.update(u).unwrap();
//! }
//! // Queries keep flowing — served as A₀ + ΔA, zero re-decompositions.
//! s.submit(vec![1.0; 64], 2, None).unwrap();
//! let answers = s.flush().unwrap();
//! assert_eq!(answers.len(), 1);
//! assert_eq!(s.cache_stats().decompositions, 1);
//! assert_eq!(s.engine_stats().corrected_runs, 1);
//! ```

pub mod budget;
pub mod dynamic;
pub mod hub;
pub mod session;
pub mod splice;
pub mod update;
mod worker;

pub use budget::{AdaptiveBudget, StalenessBudget};
pub use dynamic::{DynamicConfig, DynamicMatrix, StreamStats};
pub use hub::{
    FairnessPolicy, HubConfig, HubStats, ReRankPolicy, Session, StreamHub, TenantId, TenantStats,
};
pub use session::{StreamingConfig, StreamingEngine};
pub use splice::SpliceStats;
pub use update::Update;

// Incremental-refresh vocabulary (policy + outcome), re-exported so
// holders can configure fallback thresholds without a direct
// `arrow_core` dependency.
pub use arrow_core::incremental::{FallbackReason, IncrementalPolicy, RefreshOutcome};
