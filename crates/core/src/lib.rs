//! # arrow-core — the arrow matrix decomposition
//!
//! Implements the primary contribution of *"Arrow Matrix Decomposition: A
//! Novel Approach for Communication-Efficient Sparse Matrix
//! Multiplication"* (Gianinazzi et al., PPoPP 2024):
//!
//! * [`ArrowMatrix`] — an `n × n` matrix with arrow-width `b`, stored as
//!   `b × b` tiles (row arm `B(0,j)`, column arm `B(i,0)`, block diagonal
//!   `B(i,i)`; Figure 2 of the paper),
//! * [`ArrowDecomposition`] — `A = Σᵢ P_πᵢ Bᵢ Pᵀ_πᵢ` with validation,
//!   reconstruction and the level-by-level multiply of Eq. 1,
//! * [`CompiledDecomposition`] — the decomposition lowered to `f64` or
//!   `f32`, multiplied by the same Eq. 1 function,
//! * [`la_decompose()`] — the LA-Decompose framework (§5.1): prune the `b`
//!   highest-degree vertices, lay out the remainder with a pluggable
//!   [`ArrangementStrategy`], peel off the arrow-shaped part, recurse,
//! * [`incremental`] — delta-localized re-decomposition: refresh a
//!   streamed matrix by re-arranging only the affected region of the
//!   prior decomposition and splicing, with policy-driven fallback to a
//!   cold rebuild,
//! * [`catalog`] — the versioned persistence catalog: one on-disk
//!   directory (manifest of fingerprint → version chains, crash-safe
//!   atomic writes, point-in-time restore, GC) shared by every serving
//!   layer that keeps decompositions warm across restarts,
//! * [`pruning`] — the power-law pruning analysis of §5.6 (Theorem 1,
//!   Lemma 5, Corollary 2),
//! * [`stats`] — compaction factors (Lemma 1) and the nonzero-block
//!   comparison against a direct 1.5D tiling (§7.2).
//!
//! ## Block-diagonal band
//!
//! §4.1 notes: *"To further enhance efficiency, we consider a
//! block-diagonal band."* We follow that choice: a level's band consists
//! of the entries whose endpoints fall in the same `b × b` diagonal tile
//! (rather than a sliding `|i−j| ≤ b` band), which makes every nonzero of
//! `Bᵢ` live in exactly one of the three tile families the distributed
//! algorithm communicates. Entries at block boundaries spill to later
//! levels; the geometric compaction of Lemma 1 is preserved (the expected
//! in-block fraction of an edge of length `d ≤ b` is `1 − d/b`).

pub mod arrow_matrix;
pub mod catalog;
pub mod compiled;
pub mod decomposition;
pub mod incremental;
pub mod la_decompose;
pub mod persist;
pub mod pruning;
pub mod stats;
pub mod strategy;

pub use arrow_matrix::ArrowMatrix;
pub use catalog::{Catalog, CatalogStats, GcReport, RetainPolicy, VersionRecord};
pub use compiled::CompiledDecomposition;
pub use decomposition::{ArrowDecomposition, ArrowLevel};
pub use incremental::{
    decompose_snapshot_incremental, FallbackReason, IncrementalPolicy, RefreshOutcome,
};
pub use la_decompose::{
    decompose_snapshot, la_decompose, la_decompose_timed, DecomposeConfig, DecomposeTimings,
};
pub use persist::CatalogMeta;
pub use strategy::{ArrangementStrategy, IdentityLa, RandomForestLa, RcmLa, SeparatorLaStrategy};
