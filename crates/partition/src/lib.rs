//! Partitioning baselines for the HP-1D SpMM comparison.
//!
//! The paper's hypergraph-partitioning baseline permutes the matrix by a
//! partition computed with HYPE (Mayer et al., IEEE BigData'18), a
//! neighbourhood-expansion heuristic. This crate reimplements that
//! algorithm ([`hype`]) together with trivial block/random partitioners
//! ([`block`]) and the quality metrics ([`metrics`]) that explain the
//! baseline's failure mode on star-heavy graphs (§7.2: "the partitioning
//! cost is lower bounded by the maximum degree").

pub mod block;
pub mod hype;
pub mod metrics;

pub use block::{block_partition, random_partition};
pub use hype::{hype_partition, HypeConfig};
pub use metrics::PartitionQuality;

/// A partition assignment: `assign[v]` is the part id of vertex `v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Part id per vertex, values in `0..parts`.
    pub assign: Vec<u32>,
    /// Number of parts.
    pub parts: u32,
}

impl Partition {
    /// Builds and validates an assignment.
    pub fn new(assign: Vec<u32>, parts: u32) -> Self {
        assert!(parts >= 1);
        debug_assert!(assign.iter().all(|&p| p < parts));
        Self { assign, parts }
    }

    /// Number of vertices.
    pub fn n(&self) -> u32 {
        self.assign.len() as u32
    }

    /// Vertices of each part, in increasing vertex order.
    pub fn groups(&self) -> Vec<Vec<u32>> {
        let mut groups = vec![Vec::new(); self.parts as usize];
        for (v, &p) in self.assign.iter().enumerate() {
            groups[p as usize].push(v as u32);
        }
        groups
    }

    /// Part sizes.
    pub fn sizes(&self) -> Vec<u32> {
        let mut sizes = vec![0u32; self.parts as usize];
        for &p in &self.assign {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// Load imbalance: `max size / ceil(n / parts)` (1.0 = perfectly
    /// balanced).
    pub fn imbalance(&self) -> f64 {
        let max = self.sizes().into_iter().max().unwrap_or(0) as f64;
        let ideal = (self.n() as f64 / self.parts as f64).ceil();
        if ideal == 0.0 {
            1.0
        } else {
            max / ideal
        }
    }

    /// The permutation that sorts vertices by part (stable within a part),
    /// i.e. the row reordering HP-1D applies before the 1D row split.
    pub fn to_permutation(&self) -> amd_sparse::Permutation {
        // Counting placement by part: vertices land in increasing order
        // within a part, i.e. sorted by (part, vertex).
        let mut next = vec![0usize; self.parts as usize];
        let mut start = 0usize;
        for (slot, size) in next.iter_mut().zip(self.sizes()) {
            *slot = start;
            start += size as usize;
        }
        let mut order = vec![0u32; self.assign.len()];
        for (v, &p) in self.assign.iter().enumerate() {
            order[next[p as usize]] = v as u32;
            next[p as usize] += 1;
        }
        amd_sparse::Permutation::from_order(order).expect("sorted vertex list is a bijection")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_and_sizes() {
        let p = Partition::new(vec![0, 1, 0, 1, 2], 3);
        assert_eq!(p.sizes(), vec![2, 2, 1]);
        assert_eq!(p.groups()[0], vec![0, 2]);
        assert_eq!(p.n(), 5);
    }

    #[test]
    fn imbalance_perfect_and_skewed() {
        let p = Partition::new(vec![0, 0, 1, 1], 2);
        assert_eq!(p.imbalance(), 1.0);
        let q = Partition::new(vec![0, 0, 0, 1], 2);
        assert_eq!(q.imbalance(), 1.5);
    }

    #[test]
    fn permutation_sorts_by_part() {
        let p = Partition::new(vec![1, 0, 1, 0], 2);
        let pi = p.to_permutation();
        // Positions 0,1 hold part-0 vertices {1, 3}; positions 2,3 part 1.
        assert_eq!(pi.vertex_at(0), 1);
        assert_eq!(pi.vertex_at(1), 3);
        assert_eq!(pi.vertex_at(2), 0);
        assert_eq!(pi.vertex_at(3), 2);
    }
}
