//! # arrow-matrix
//!
//! A Rust reproduction of *"Arrow Matrix Decomposition: A Novel Approach
//! for Communication-Efficient Sparse Matrix Multiplication"*
//! (Gianinazzi et al., PPoPP 2024).
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`sparse`] — CSR/COO/dense matrices, SpMM kernels, permutations,
//!   bandwidth and arrow-width measures.
//! * [`graph`] — graphs, traversals, spanning forests, separators, dataset
//!   generators, Zipf-degree analysis.
//! * [`linarr`] — linear arrangement algorithms (Separator-LA,
//!   smallest-first tree layout, random spanning forest LA, RCM).
//! * [`core`] — the arrow matrix decomposition itself (LA-Decompose with
//!   high-degree pruning, arrow matrices, decomposition statistics) and
//!   the **versioned persistence catalog** (`core::catalog`): one
//!   crash-safe on-disk directory of `fingerprint → version chain`
//!   manifests and checksummed AMD3 payloads — the one on-disk format —
//!   shared by every serving layer, with point-in-time restore and
//!   garbage collection.
//! * [`comm`] — the message-passing machine with α-β cost accounting.
//! * [`exec`] — the persistent work-stealing executor: one shared
//!   thread pool for machine ranks (cached blocking rank slots),
//!   data-parallel kernel chunks (the sparse kernels' row blocks), and
//!   the refresh worker's decompose. Sized once per process
//!   (`--threads N` / `AMD_EXEC_THREADS` / `available_parallelism`);
//!   results never depend on the pool size.
//! * [`partition`] — partitioning baselines (HYPE-style neighborhood
//!   expansion).
//! * [`spmm`] — distributed SpMM algorithms (arrow, 1.5D/1D/2D
//!   A-stationary, HP-1D), each with a [`predict_volume`]
//!   hook deriving per-iteration cost from the planned distribution.
//! * [`engine`] — the batched SpMM **serving engine**: an LRU
//!   decomposition cache keyed by content fingerprint (written through
//!   to the catalog, so warm restarts skip LA-Decompose), a request
//!   batcher coalescing concurrent multiply queries into multi-RHS runs,
//!   and a cost-model planner that binds the cheapest algorithm per
//!   matrix. See `examples/serving.rs` for a throughput demonstration
//!   and `arrow-matrix-cli serve` for the command-line front end.
//! * [`stream`] — the **streaming-update subsystem**: a served matrix
//!   becomes `A₀ + ΔA` (decomposed base + sparse delta), multiplies are
//!   answered through a per-iteration delta correction without
//!   re-decomposing. `StreamHub`, the one streaming holder, serves many
//!   mutating matrices behind one engine with per-tenant staleness budgets,
//!   **double-buffered background refresh** (one builder thread
//!   decomposes the merged snapshot while the old binding + overlay keeps
//!   serving), one refresh at a time granted in FIFO order, and a
//!   **tenant lifecycle**: per-tenant flush and explicit `evict` (binding
//!   deregistered, catalog chain garbage-collected). `arrow-matrix-cli stream [--tenants N]
//!   [--async-refresh] [--catalog DIR]` drives a synthetic mutation
//!   stream end to end, with warm restarts across runs.
//! * [`chaos`] — the **fault-injection harness**: named, deterministic
//!   failpoints threaded through catalog I/O, the refresh worker, and
//!   the serving path (compiled to relaxed-atomic no-ops when
//!   disarmed), fault plans, recorded mutation/query traces, and
//!   adversarial delta generators. The [`scenario`] module replays
//!   those traces against a live [`stream::StreamHub`] under a fault
//!   plan and asserts crash-exact recovery: every answer bit-matches a
//!   fault-free reference, and restarting after any injected crash
//!   reloads the catalog with zero orphans. `arrow-matrix-cli chaos`
//!   runs the built-in scenario suite.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.
//!
//! [`predict_volume`]: spmm::DistSpmm::predict_volume
//!
//! ```
//! use arrow_matrix::core::{la_decompose, DecomposeConfig, RandomForestLa};
//! use arrow_matrix::graph::generators::basic;
//! use arrow_matrix::sparse::{CsrMatrix, DenseMatrix, spmm};
//! use arrow_matrix::spmm::{ArrowSpmm, DistSpmm};
//!
//! // A star graph: high bandwidth under every ordering, arrow-width 1.
//! let a: CsrMatrix<f64> = basic::star(100).to_adjacency();
//! let d = la_decompose(&a, &DecomposeConfig::with_width(16),
//!                      &mut RandomForestLa::new(1)).unwrap();
//! assert_eq!(d.validate(&a).unwrap(), 0.0);
//!
//! // Multiply distributed and compare against a direct SpMM.
//! let x = DenseMatrix::from_fn(100, 4, |r, c| (r + c) as f64);
//! let run = ArrowSpmm::new(&d).unwrap().run(&x, 2).unwrap();
//! let mut direct = x.clone();
//! for _ in 0..2 { direct = spmm::spmm(&a, &direct).unwrap(); }
//! assert!(run.y.max_abs_diff(&direct).unwrap() < 1e-9);
//! ```

pub use amd_chaos as chaos;
pub use amd_comm as comm;
pub use amd_engine as engine;
pub use amd_exec as exec;
pub use amd_graph as graph;
pub use amd_linarr as linarr;
pub use amd_obs as obs;
pub use amd_partition as partition;
pub use amd_sparse as sparse;
pub use amd_spmm as spmm;
pub use amd_stream as stream;
pub use arrow_core as core;

pub mod scenario;

pub use amd_sparse::{CooMatrix, CsrMatrix, DenseMatrix, Permutation};
