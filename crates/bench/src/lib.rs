//! The paper reproduction.
//!
//! `cargo run --release -p amd-bench --bin repro` regenerates the
//! paper's evidence in one run (it takes no flags):
//!
//! * [`paper`] — E1–E11, Tables 1–3, Figs. 1 and 4–6 and the §3–§5
//!   ablations, each with the paper's claims as data — and [`refresh`],
//!   the cold-vs-incremental refresh sweep, go to the exact ledger
//!   `BENCH_repro.json`: simulated clocks, bytes, messages, rank counts
//!   and decomposition shapes, no host stamp, byte-identical from run to
//!   run;
//! * [`wall`] — every wall-clock table (decomposition phases, the K1–K5
//!   kernels, refresh latency) goes to `BENCH_wall.json`, stamped with
//!   the host that timed it.
//!
//! Both files are written through [`ledger`] and `amd_obs::JsonWriter`.
//! The rest is shared with examples and tests: the dataset registry at
//! bench scale, algorithm constructors, and plain-text tables.

pub mod datasets;
pub mod ledger;
pub mod paper;
pub mod refresh;
pub mod runner;
pub mod table;
pub mod wall;

pub use datasets::bench_graph;
pub use runner::{arrow_for, arrow_with_ranks, best_c, hp1d_for, spmm_15d_for};
pub use table::Table;

/// Fixed seed so every bench is reproducible run-to-run.
pub const BENCH_SEED: u64 = 0x5eed_2024;

/// The base vertex count the ledger's experiments scale from.
pub const BENCH_N: u32 = 30_000;
