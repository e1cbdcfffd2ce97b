//! Sparse and dense matrix substrate for the arrow matrix decomposition.
//!
//! This crate provides the matrix containers and kernels everything else is
//! built on:
//!
//! * [`CooMatrix`] — a coordinate-format builder for sparse matrices,
//! * [`CsrMatrix`] — compressed sparse row storage, multiplied by the
//!   serial, pool-parallel and borrowed-slice SpMM entry points of
//!   [`spmm`], all of them one row walker (a one-sum loop at `k = 1`,
//!   register-blocked strips above it, up to 64 columns wide on an
//!   AVX-512 CPU, the widest prefetching the `x` rows of coming entries),
//! * [`DenseMatrix`] — row-major dense storage for the tall-skinny feature
//!   matrices `X ∈ R^{n×k}` of the paper,
//! * [`Permutation`] — vertex/row permutations `π` and the symmetric
//!   reorderings `PᵀAP` used throughout the decomposition,
//! * [`DeltaBuilder`] — the coalescing `ΔA` accumulator of the streaming
//!   update layer, with [`ops::apply_delta`] folding a delta into a base,
//! * bandwidth and arrow-width measures ([`band`]).
//!
//! Conventions follow the paper (Gianinazzi et al., PPoPP'24): matrices are
//! square `n × n` adjacency matrices unless stated otherwise, indices are
//! `u32`, and a matrix has *arrow-width* `b` if all nonzeros `(i, j)` with
//! `i > b` and `j > b` satisfy `|i − j| ≤ b`.

pub mod band;
pub mod coo;
pub mod csr;
pub mod delta;
pub mod dense;
pub mod error;
pub mod io;
pub mod ops;
pub mod permutation;
pub mod scalar;
pub mod spmm;

pub use band::{arrow_width, bandwidth};
pub use coo::CooMatrix;
pub use csr::{CsrBuilder, CsrMatrix};
pub use delta::DeltaBuilder;
pub use dense::DenseMatrix;
pub use error::{SparseError, SparseResult};
pub use permutation::Permutation;
pub use scalar::{Dtype, Scalar};
