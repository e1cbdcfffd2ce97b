//! Linear arrangement algorithms (§5 of the paper).
//!
//! A *linear arrangement* of a graph `G` is a permutation `π` of its
//! vertices; its cost is `λ_π(G) = Σ_{(u,v) ∈ E} |π(u) − π(v)|` (§5.1).
//! LA-Decompose turns low-cost arrangements into compact arrow matrix
//! decompositions, so this crate provides the arrangement constructions
//! the paper analyses:
//!
//! * [`separator_la()`] — recursive separator-based layout (§5.2, Lemma 2),
//! * [`tree_layout`] — the smallest-first order for trees (§5.4, Lemma 3),
//! * [`spanning_forest_la()`] — the near-linear random spanning forest
//!   heuristic used in the paper's evaluation (§5.3),
//! * [`rcm`] — reverse Cuthill-McKee, the classic bandwidth-reduction
//!   baseline the paper contrasts against (§3, "Graph Reordering").
//!
//! Cost, bandwidth and band-occupancy metrics are in [`arrangement`].

pub mod arrangement;
pub mod exact;
pub mod rcm;
pub mod separator_la;
pub mod spanning_forest_la;
pub mod tree_layout;

pub use arrangement::{la_bandwidth, la_cost};
pub use exact::minimum_linear_arrangement;
pub use rcm::reverse_cuthill_mckee;
pub use separator_la::separator_la;
pub use spanning_forest_la::{spanning_forest_la, spanning_forest_la_of_edges};
pub use tree_layout::smallest_first_order;
