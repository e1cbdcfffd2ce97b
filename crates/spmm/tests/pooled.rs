//! Pooled-execution determinism: back-to-back runs of every
//! distributed SpMM algorithm on the shared `amd-exec` pool reproduce
//! themselves exactly — same `Y` bits, same per-rank simulated clocks,
//! same traffic. The simulation is purely logical (clocks advance by
//! the cost model, never by wall time), so which OS thread runs a rank
//! can never leak into results; `golden.rs` pins the absolute values.

use amd_graph::generators::rmat;
use amd_graph::Graph;
use amd_partition::{hype_partition, HypeConfig};
use amd_sparse::{CsrMatrix, DenseMatrix};
use amd_spmm::{best_c, A15dSpmm, A2dSpmm, ArrowSpmm, DistSpmm, Hp1dSpmm};
use arrow_core::{la_decompose, DecomposeConfig, RandomForestLa};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SEED: u64 = 0x9E37_79B9;

fn test_matrix() -> CsrMatrix<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    rmat::rmat(8, 8, rmat::RmatParams::graph500(), &mut rng).to_adjacency()
}

/// Builds all four algorithms for `a` at `p` ranks.
fn algorithms(a: &CsrMatrix<f64>, p: u32) -> Vec<Box<dyn DistSpmm>> {
    let d = la_decompose(
        a,
        &DecomposeConfig::with_width(16),
        &mut RandomForestLa::new(SEED),
    )
    .unwrap();
    let g = Graph::from_matrix_structure(a);
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 1);
    let part = hype_partition(&g, p, &HypeConfig::default(), &mut rng);
    vec![
        Box::new(ArrowSpmm::new(&d).unwrap()),
        Box::new(A15dSpmm::new(a, p, best_c(p)).unwrap()),
        // 2D A-stationary needs a square rank count.
        Box::new(A2dSpmm::new(a, 9).unwrap()),
        Box::new(Hp1dSpmm::new(a, &part).unwrap()),
    ]
}

/// Back-to-back pooled runs reuse the warm rank slots and still
/// reproduce themselves exactly (no state bleeds between runs).
#[test]
fn repeated_pooled_runs_are_self_identical() {
    let a = test_matrix();
    let n = a.rows();
    let x = DenseMatrix::from_fn(n, 2, |r, c| (((r * 5 + c) % 9) as f64) - 4.0);
    for alg in algorithms(&a, 8) {
        let first = alg.run(&x, 2).unwrap();
        for _ in 0..3 {
            let again = alg.run(&x, 2).unwrap();
            assert_eq!(first.y.data(), again.y.data(), "{}", alg.name());
            for (p, s) in first.stats.ranks.iter().zip(&again.stats.ranks) {
                assert_eq!(p.sim_time.to_bits(), s.sim_time.to_bits());
                assert_eq!(p.volume(), s.volume());
            }
        }
    }
}
