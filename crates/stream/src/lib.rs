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
//! per-tenant budgets, **double-buffered background refresh** (one
//! builder thread, fed over `std::sync::mpsc`, merges, fingerprints and
//! — on more than one rank — decomposes the next base while the old
//! binding + delta overlay keeps serving; the swap commits at the next
//! poll point), one refresh at a time granted in FIFO order, and the
//! tenant **lifecycle**: per-tenant flush and
//! [`evict`](StreamHub::evict) with catalog garbage collection. One
//! mutating matrix is a hub with one tenant; with
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
//! let mut config = HubConfig {
//!     budget: StalenessBudget::nnz_cap(8),
//!     ..HubConfig::default()
//! };
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

pub use budget::StalenessBudget;
pub use hub::{HubConfig, HubStats, StreamHub, TenantId, TenantStats};
pub use splice::SpliceStats;
pub use update::Update;

// Incremental-refresh vocabulary (policy + outcome), re-exported so
// holders can configure fallback thresholds without a direct
// `arrow_core` dependency.
pub use arrow_core::incremental::{FallbackReason, IncrementalPolicy, RefreshOutcome};

/// What the refresh builder's channels must do for the hub: build jobs
/// in submission order, carry a build back across threads, and release
/// an idle builder when the job queue closes.
#[cfg(test)]
mod tests {
    use crate::hub::TenantId;
    use crate::worker::{RefreshJob, RefreshWorker};
    use amd_engine::{Engine, EngineConfig};
    use amd_graph::generators::basic;
    use amd_obs::{SpanId, Tracer};
    use amd_sparse::{ops, CooMatrix};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// A one-rank refresh of a ring: one chord weighted by `tenant`.
    fn job(engine: &mut Engine, tenant: u64) -> RefreshJob {
        let base = basic::cycle(16).to_adjacency();
        let id = engine.register(&base).unwrap();
        let mut delta = CooMatrix::new(16, 16);
        delta.push(0, 8, tenant as f64).unwrap();
        RefreshJob {
            tenant: TenantId(tenant),
            ticket: engine.prepare_refresh(id, None).unwrap(),
            base: Arc::new(base),
            delta: delta.to_csr(),
            delay: None,
            span: SpanId::NONE,
        }
    }

    #[test]
    fn fifo_order() {
        let mut engine = Engine::new(EngineConfig::default()).unwrap();
        let worker = RefreshWorker::spawn(Tracer::disabled());
        for tenant in 1..=3 {
            worker.submit(job(&mut engine, tenant));
        }
        let built: Vec<u64> = (0..3)
            .map(|_| worker.wait_done().unwrap().tenant.0)
            .collect();
        assert_eq!(built, [1, 2, 3]);
    }

    #[test]
    fn cross_thread_delivery() {
        let mut engine = Engine::new(EngineConfig::default()).unwrap();
        let worker = RefreshWorker::spawn(Tracer::disabled());
        let job = job(&mut engine, 5);
        let want = ops::apply_delta(&job.base, &job.delta).unwrap();
        worker.submit(job);
        let done = worker.wait_done().expect("the builder's completion");
        assert!(!done.panicked);
        assert_eq!(done.result.unwrap().0, want);
    }

    #[test]
    fn disconnect_unblocks_recv() {
        // An idle builder waits in `recv` on the job queue; dropping the
        // worker closes the queue, which must release and join it.
        let worker = RefreshWorker::spawn(Tracer::disabled());
        let (dropped, done) = mpsc::channel();
        std::thread::spawn(move || {
            drop(worker);
            dropped.send(()).unwrap();
        });
        done.recv_timeout(Duration::from_secs(30))
            .expect("dropping an idle worker must return");
    }
}
