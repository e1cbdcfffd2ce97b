//! Distributed SpMM algorithms on the α-β machine.
//!
//! Implements the paper's algorithm (§4.1) and the baselines it is
//! evaluated against (§3, §7):
//!
//! * [`ArrowSpmm`] — Algorithms 1 & 2: per-level arrow-matrix multiplies
//!   with forward X propagation and backward Y aggregation,
//! * [`A15dSpmm`] — the 1.5D A-stationary algorithm with replication
//!   factor `c` (the `c = 1` case is the 1D algorithm),
//! * [`A2dSpmm`] — the 2D A-stationary algorithm (feature matrix sliced
//!   along both dimensions, `√p` phases),
//! * [`Hp1dSpmm`] — the PETSc-style 1D hypergraph-partitioning baseline
//!   with local/non-local overlap,
//! * [`LocalSpmm`] — the `p = 1` member: plain CSR × dense on the shared
//!   `amd-exec` pool, one rank, zero bytes and zero messages — how a
//!   matrix that lives in one process is served (the four above are for
//!   matrices that are physically distributed, and the instrument that
//!   reproduces the paper's volume claims),
//! * [`DeltaSpmm`] — the streaming layer's corrected path: any of the
//!   above on a decomposed base `A₀` plus a per-iteration sparse-delta
//!   correction, serving `A₀ + ΔA` without re-decomposing,
//! * [`mod@reference`] — the serial reference every algorithm is verified
//!   against.
//!
//! Every member accepts a serving [`amd_sparse::Dtype`] via
//! `with_dtype`: `f32` halves the bytes charged per value moved and runs
//! local tile multiplies at emulated f32 precision (f64 accumulation, the
//! machine's wire format), `f64` is the exact default.
//!
//! All algorithms implement [`DistSpmm`]: a `run(x, iters)` producing the
//! final iterate (in original row order) and the machine's communication
//! accounting, and a `dry_run(k, iters)` giving that accounting bit for
//! bit without running. The four distributed ones share one shape: each
//! states its iteration once, as every rank's list of `amd_comm::Step`s
//! built on the host — its part in an `amd_comm::Plan` on one of its
//! buffers, or a piece of local work: a multiply, whose flops its
//! descriptor gives, or an uncharged step that moves a buffer. The list is
//! the rank's program and there is no other: one driver scatters the
//! operand, runs every rank's list through `amd_comm::execute`, and
//! gathers `Y` (see [`layout`]), and `amd_comm::walk` reads the same lists
//! for `dry_run` and `predict_ranks`. Reordering a rank's work is an edit
//! of its list.

pub mod a15d;
pub mod a2d;
pub mod arrow;
pub mod corrected;
pub mod hp1d;
pub mod layout;
pub mod local;
pub mod reference;
pub mod storage;
pub mod traits;
pub mod verify;

pub use a15d::{best_c, A15dSpmm};
pub use a2d::A2dSpmm;
pub use arrow::{ArrowSpmm, Feed};
pub use corrected::DeltaSpmm;
pub use hp1d::Hp1dSpmm;
pub use local::LocalSpmm;
pub use traits::{CommEstimate, DistSpmm, SpmmRun};
