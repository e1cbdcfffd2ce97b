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
//! * delta size/mass is tracked against a configurable
//!   [`StalenessBudget`]; when it trips, a background-style **refresh**
//!   compacts `ΔA` into `A₀`, bumps the version and re-ranks the
//!   planner — on a deployment of more than one rank after re-running
//!   LA-Decompose (incrementally where it can) and writing the result
//!   through to the persist layer; on one rank, whose plan reads no
//!   decomposition, without.
//!
//! One entry point: [`StreamHub`], the multi-tenant serving hub around
//! [`amd_engine::Engine`] — many mutating matrices behind one engine,
//! per-tenant budgets and [`Session`] handles, **double-buffered
//! background refresh** (a worker thread merges, fingerprints and — on
//! more than one rank — decomposes the next base while the old binding +
//! delta overlay keeps serving; the swap commits at the next poll
//! point), FIFO fairness under a shared refresh budget, delta-aware
//! early rebinds, and the full tenant **lifecycle**: per-tenant flush,
//! [`evict`](StreamHub::evict) with catalog garbage collection, and idle
//! eviction. One mutating matrix is a hub with one tenant; with
//! [`HubConfig::async_refresh`] off, a budget trip compacts inline in
//! the call that tripped it.
//!
//! ```
//! use amd_graph::generators::basic;
//! use amd_sparse::CsrMatrix;
//! use amd_stream::{HubConfig, StalenessBudget, StreamHub, Update};
//!
//! let a: CsrMatrix<f64> = basic::cycle(64).to_adjacency();
//! // A 4-rank deployment: the matrix is decomposed, once, at admission.
//! // (The default is one rank, which decomposes nothing.)
//! let mut config = HubConfig::with_budget(StalenessBudget::nnz_cap(8));
//! config.engine.target_ranks = 4;
//! let mut hub = StreamHub::new(config).unwrap();
//! let t = hub.admit(a).unwrap();
//! // Mutate the graph between queries: add a chord.
//! for u in (Update::Add { row: 0, col: 32, delta: 1.0 }).sym_pair() {
//!     hub.update(t, u).unwrap();
//! }
//! // Queries keep flowing — served as A₀ + ΔA, zero re-decompositions.
//! hub.submit(t, vec![1.0; 64], 2, None).unwrap();
//! let answers = hub.flush().unwrap();
//! assert_eq!(answers.len(), 1);
//! assert_eq!(hub.cache_stats().decompositions, 1);
//! assert_eq!(hub.engine_stats().corrected_runs, 1);
//! ```

pub mod budget;
pub mod hub;
mod refresh;
pub mod splice;
pub mod update;
mod worker;

pub use budget::{AdaptiveBudget, StalenessBudget};
pub use hub::{
    FairnessPolicy, HubConfig, HubStats, ReRankPolicy, Session, StreamHub, TenantId, TenantStats,
};
pub use splice::SpliceStats;
pub use update::Update;

// Incremental-refresh vocabulary (policy + outcome), re-exported so
// holders can configure fallback thresholds without a direct
// `arrow_core` dependency.
pub use arrow_core::incremental::{FallbackReason, IncrementalPolicy, RefreshOutcome};
