//! Dataset registry at bench scale.
//!
//! The paper runs 50M–226M rows; the stand-ins are generated at tens of
//! thousands ([`BENCH_N`](crate::BENCH_N)) so the whole ledger
//! regenerates in seconds while keeping the relative claims measurable.

use crate::BENCH_SEED;
use amd_graph::generators::datasets::DatasetKind;
use amd_graph::Graph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Generates a dataset stand-in deterministically at the requested size.
pub fn bench_graph(kind: DatasetKind, n: u32) -> Graph {
    // Per-kind stream so adding datasets never perturbs existing ones.
    let salt = kind
        .name()
        .bytes()
        .fold(0xdead_beefu64, |acc, b| acc.rotate_left(7) ^ b as u64);
    let mut rng = ChaCha8Rng::seed_from_u64(BENCH_SEED ^ salt);
    kind.generate(n, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphs_deterministic() {
        let a = bench_graph(DatasetKind::GenBank, 2000);
        let b = bench_graph(DatasetKind::GenBank, 2000);
        assert_eq!(a, b);
    }

    #[test]
    fn kinds_get_distinct_streams() {
        let a = bench_graph(DatasetKind::Mawi, 2000);
        let b = bench_graph(DatasetKind::WebBase, 2000);
        assert_ne!(a, b);
    }
}
