//! The hub tile `B(0,0)` shared by rows over the ranks of its level
//! (`amd_spmm::arrow`, step 2): what the split is a function of, that it
//! keeps the engine's batching contract where it could break it — on
//! non-integer data, on a level that does share — that the answer is
//! still the product, and that the flops are predicted where they run.

use amd_comm::CostModel;
use amd_graph::generators::{basic, datasets, random, rmat};
use amd_sparse::{ops, CooMatrix, CsrMatrix, DenseMatrix};
use amd_spmm::reference::iterated_spmm;
use amd_spmm::{ArrowSpmm, DistSpmm};
use arrow_core::incremental::{decompose_snapshot_incremental, IncrementalPolicy};
use arrow_core::{
    decompose_snapshot, la_decompose, ArrowDecomposition, DecomposeConfig, RandomForestLa,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rmat_matrix(scale: u32, seed: u64) -> CsrMatrix<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    rmat::rmat(scale, 8, rmat::RmatParams::graph500(), &mut rng).to_adjacency()
}

fn decompose(a: &CsrMatrix<f64>, b: u32, seed: u64) -> ArrowDecomposition {
    la_decompose(
        a,
        &DecomposeConfig::with_width(b),
        &mut RandomForestLa::new(seed),
    )
    .unwrap()
}

/// One of the four input families at about `n` vertices.
fn input(family: u8, n: u32, seed: u64) -> CsrMatrix<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match family {
        0 => rmat_matrix(n.next_power_of_two().trailing_zeros(), seed),
        1 => datasets::mawi_like(n, &mut rng).to_adjacency(),
        2 => basic::grid_2d(n.isqrt().max(2), n.isqrt().max(2)).to_adjacency(),
        _ => random::random_tree(n, &mut rng).to_adjacency(),
    }
}

/// `a`'s pattern with other (non-integer) values.
fn revalued(a: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(a.rows(), a.cols());
    for (r, c, _) in a.iter() {
        let (lo, hi) = (r.min(c), r.max(c));
        coo.push(r, c, ((lo * 13 + hi * 7) % 29) as f64 / 9.0 + 0.3)
            .unwrap();
    }
    coo.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) A level's runs are contiguous, in rank order, and cover the
    /// rows of `D(0)` once; and they are a function of the tiles' entry
    /// counts alone — not of the cost model the plan is given
    /// (nor of `k`: the plan never sees one), not of the values stored.
    #[test]
    fn runs_partition_the_hub_rows_and_read_entry_counts_only(
        family in 0u8..4,
        n in 60u32..700,
        width in 0usize..3,
        seed in 0u64..1000,
    ) {
        let b = [8u32, 32, 100][width];
        let a = input(family, n, seed);
        let d = decompose(&a, b, seed);
        if d.order() == 0 {
            return Ok(());
        }
        let plan = ArrowSpmm::new(&d).unwrap();
        let runs = plan.hub_runs();
        prop_assert_eq!(runs.len(), d.order());
        for (level, runs) in d.levels().iter().zip(&runs) {
            prop_assert_eq!(runs.len() as u32, level.active_n.div_ceil(b).max(1));
            let mut at = 0;
            for run in runs {
                prop_assert_eq!(run.start, at);
                prop_assert!(run.start <= run.end);
                at = run.end;
            }
            prop_assert_eq!(at, level.active_n.min(b));
        }
        let cheap_flops = CostModel { compute_rate: 1e15, ..CostModel::default() };
        let replanned = ArrowSpmm::new(&d).unwrap().with_cost(cheap_flops);
        prop_assert_eq!(&replanned.hub_runs(), &runs);
        // Same pattern, same arrangement seed, other values.
        let other = ArrowSpmm::new(&decompose(&revalued(&a), b, seed)).unwrap();
        prop_assert_eq!(&other.hub_runs(), &runs);
    }
}

fn column(j: u32) -> impl Fn(u32) -> f64 {
    move |r| ((r * 7 + j * 13) % 31) as f64 / 7.0 - 1.9
}

fn column_bits(m: &DenseMatrix<f64>, col: u32) -> Vec<u64> {
    (0..m.rows())
        .map(|r| m.row(r)[col as usize].to_bits())
        .collect()
}

/// (b) The batching contract (`amd-engine`: a column's accumulation
/// order does not depend on the operand width) on non-integer values and
/// operands, through a level that shares its hub tile: every column of a
/// `k = 8` and of a `k = 64` run is its `k = 1` run bit for bit. A split that looked at `k` would fail here.
#[test]
fn shared_hub_keeps_the_batching_contract_on_non_integer_data() {
    let a = revalued(&rmat_matrix(11, 13));
    let n = a.rows();
    let d = decompose(&a, n / 16, 1);
    let alg = ArrowSpmm::new(&d).unwrap();
    let sharers = alg.hub_runs()[0].iter().filter(|r| !r.is_empty()).count();
    assert!(
        sharers >= 2,
        "level 0 must share its hub tile or the test has decayed ({sharers} sharer)"
    );
    let wide = DenseMatrix::from_fn(n, 64, |r, c| column(c)(r));
    let run_wide = alg.run(&wide, 2).unwrap();
    let mid = DenseMatrix::from_fn(n, 8, |r, c| column(c * 8)(r));
    let run_mid = alg.run(&mid, 2).unwrap();
    for j in 0..64 {
        let single = DenseMatrix::from_fn(n, 1, |r, _| column(j)(r));
        let want = column_bits(&alg.run(&single, 2).unwrap().y, 0);
        assert_eq!(
            column_bits(&run_wide.y, j),
            want,
            "column {j} of the k = 64 run"
        );
        if j % 8 == 0 {
            assert_eq!(
                column_bits(&run_mid.y, j / 8),
                want,
                "column {j} in the k = 8 run"
            );
        }
    }
}

/// (c) Integer data: three iterations equal the serial reference bit for
/// bit, on a shared R-MAT level, on inputs whose roots keep their hub
/// tiles, and on a two-round spliced (non-nested) decomposition.
#[test]
fn shared_hub_answers_are_the_product() {
    let x_of = |n: u32| DenseMatrix::from_fn(n, 5, |r, c| ((r * 5 + c * 3) % 9) as f64 - 4.0);
    for (a, b) in [
        (rmat_matrix(10, 13), 64u32),
        (input(1, 900, 4), 100),
        (input(2, 900, 0), 32),
        (input(3, 400, 9), 8),
    ] {
        let alg = ArrowSpmm::new(&decompose(&a, b, 42)).unwrap();
        let x = x_of(a.rows());
        assert_eq!(
            alg.run(&x, 3).unwrap().y,
            iterated_spmm(&a, &x, 3).unwrap(),
            "{} on n = {}",
            alg.name(),
            a.rows()
        );
    }

    // Two chained splices of an R-MAT, each joining low-degree vertices
    // (a delta at a hub re-decomposes everything): the lifted levels sit
    // below levels that dropped their vertices.
    let base = rmat_matrix(10, 3);
    let n = base.rows();
    let quiet: Vec<u32> = (0..n).filter(|&v| base.row_nnz(v) == 1).collect();
    let cfg = DecomposeConfig::with_width(32);
    let mut d = decompose_snapshot(&base, &cfg, 31).unwrap();
    let mut current = base;
    for (round, ends) in quiet[..8].chunks(4).enumerate() {
        let mut delta = CooMatrix::new(n, n);
        delta.push_sym(ends[0], ends[1], 1.0).unwrap();
        delta.push_sym(ends[2], ends[3], 1.0).unwrap();
        current = ops::apply_delta(&current, &delta.to_csr()).unwrap();
        let (next, outcome) = decompose_snapshot_incremental(
            &current,
            &cfg,
            31,
            Some(&d),
            Some(ends),
            &IncrementalPolicy::default(),
        )
        .unwrap();
        assert!(
            outcome.incremental,
            "round {round} must splice: {:?}",
            outcome.fallback
        );
        d = next;
    }
    let alg = ArrowSpmm::new(&d).unwrap();
    assert!(
        alg.hub_runs()
            .iter()
            .any(|runs| runs.iter().filter(|r| !r.is_empty()).count() >= 2),
        "a level of the spliced plan must share its hub tile"
    );
    let x = x_of(n);
    assert_eq!(
        alg.run(&x, 3).unwrap().y,
        iterated_spmm(&current, &x, 3).unwrap()
    );
}

/// (d) Flops are predicted where they run: the largest per-rank compute
/// time of a run, per iteration, is the estimate's `max_rank_flops` over
/// the compute rate — exactly, the way predicted bytes equal accounted
/// bytes. At one flop a second every charge is an integer, so the
/// comparison has no rounding to allow for.
#[test]
fn predicted_flops_are_the_flops_charged() {
    let cost = CostModel {
        compute_rate: 1.0,
        ..CostModel::default()
    };
    for (a, b, k) in [
        (rmat_matrix(11, 13), 128u32, 16u32),
        (input(1, 1200, 4), 100, 8),
        (input(2, 900, 0), 32, 3),
    ] {
        let alg = ArrowSpmm::new(&decompose(&a, b, 1))
            .unwrap()
            .with_cost(cost);
        let iters = 3;
        let x = DenseMatrix::from_fn(a.rows(), k, |r, c| ((r + c) % 7) as f64 - 3.0);
        let run = alg.run(&x, iters).unwrap();
        let charged = run
            .stats
            .ranks
            .iter()
            .map(|r| r.compute_time)
            .fold(0.0, f64::max);
        assert_eq!(
            alg.predict_volume(k).max_rank_flops / cost.compute_rate,
            charged / iters as f64,
            "{} on n = {}",
            alg.name(),
            a.rows()
        );
    }
}
