//! `predict_volume` is exact: on generated inputs, for every algorithm,
//! the prediction equals what the simulated machine charges per
//! iteration — its busiest rank's bytes (scaled to the serving dtype: the
//! machine ships `f64`, a plan prices its own wire), its busiest rank's
//! messages and its busiest rank's flops — and the same three rank by
//! rank. The serving planner ranks by these figures, so this is where
//! they are checked, once, rather than on every served batch. A mismatch is a bug on one side and is fixed
//! there; nothing here is a tolerance.

use amd_comm::{CostModel, MachineStats};
use amd_graph::generators::datasets::DatasetKind;
use amd_graph::generators::{basic, rmat};
use amd_graph::Graph;
use amd_partition::{hype_partition, HypeConfig};
use amd_sparse::{CooMatrix, CsrMatrix, DenseMatrix, Dtype, SparseError};
use amd_spmm::{A15dSpmm, A2dSpmm, ArrowSpmm, DeltaSpmm, DistSpmm, Feed, Hp1dSpmm, LocalSpmm};
use arrow_core::{decompose_snapshot, la_decompose, DecomposeConfig, RandomForestLa};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The operand widths the engine serves most: one query, a few, a full
/// batch.
const WIDTHS: [u32; 4] = [1, 6, 16, 64];

/// The default α and β, so every collective takes the schedule it serves
/// with, at one flop a second, so a rank's charged compute time is its
/// flop count.
fn cost() -> CostModel {
    CostModel {
        compute_rate: 1.0,
        ..CostModel::default()
    }
}

fn dtype(narrow: bool) -> Dtype {
    if narrow {
        Dtype::F32
    } else {
        Dtype::F64
    }
}

/// Generator `family` at about `n` vertices: a (not always square) grid,
/// a star, a cycle, an R-MAT, and the MAWI, GenBank, OSM-Europe and
/// WebBase stand-ins.
fn graph(family: u8, n: u32, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match family {
        0 => basic::grid_2d(n.isqrt(), n / n.isqrt()),
        1 => basic::star(n),
        2 => basic::cycle(n),
        3 => rmat::rmat(n.ilog2(), 8, rmat::RmatParams::graph500(), &mut rng),
        4 => DatasetKind::Mawi.generate(n, &mut rng),
        5 => DatasetKind::GenBank.generate(n, &mut rng),
        6 => DatasetKind::OsmEurope.generate(n, &mut rng),
        _ => DatasetKind::WebBase.generate(n, &mut rng),
    }
}

/// Algorithm `kind` (Arrow, 1.5D, 2D, HP-1D, Local) over `g` in its
/// `shape`-th configuration: an Arrow width, a `(p, c)` grid, a square
/// rank count, a part count.
fn algorithm(
    kind: u8,
    shape: usize,
    g: &Graph,
    seed: u64,
    dtype: Dtype,
) -> Box<dyn DistSpmm + Send + Sync> {
    let a: CsrMatrix<f64> = g.to_adjacency();
    match kind {
        0 => {
            let b = [16, 32, 64, 128][shape];
            let d = decompose_snapshot(&a, &DecomposeConfig::with_width(b), seed).unwrap();
            Box::new(
                ArrowSpmm::new(&d)
                    .unwrap()
                    .with_cost(cost())
                    .with_dtype(dtype),
            )
        }
        1 => {
            let (p, c) = [(6, 1), (8, 2), (9, 3), (16, 4)][shape];
            Box::new(
                A15dSpmm::new(&a, p, c)
                    .unwrap()
                    .with_cost(cost())
                    .with_dtype(dtype),
            )
        }
        2 => {
            let p = [4, 9, 16, 25][shape];
            Box::new(
                A2dSpmm::new(&a, p)
                    .unwrap()
                    .with_cost(cost())
                    .with_dtype(dtype),
            )
        }
        3 => {
            let parts = [2, 4, 7, 16][shape];
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let part = hype_partition(g, parts, &HypeConfig::default(), &mut rng);
            Box::new(
                Hp1dSpmm::new(&a, &part)
                    .unwrap()
                    .with_cost(cost())
                    .with_dtype(dtype),
            )
        }
        _ => Box::new(
            LocalSpmm::new(a.clone())
                .unwrap()
                .with_cost(cost())
                .with_dtype(dtype),
        ),
    }
}

/// Runs `alg` for two iterations on a `k`-column operand and holds the
/// prediction to the accounting, term by term: the envelope, then every
/// rank's own bytes, messages and flops.
fn exact(alg: &dyn DistSpmm, n: u32, k: u32, dtype: Dtype) -> Result<(), TestCaseError> {
    let iters = 2;
    let x = DenseMatrix::from_fn(n, k, |r, c| (((r + c) % 7) as f64) - 3.0);
    let run = alg.run(&x, iters).unwrap();
    let flops = run
        .stats
        .ranks
        .iter()
        .map(|r| r.compute_time)
        .fold(0.0, f64::max);
    let est = alg.predict_volume(k);
    let predicted = (
        est.max_rank_bytes * 8.0,
        est.max_rank_messages,
        est.max_rank_flops,
    );
    let accounted = (
        run.volume_per_iter() * dtype.bytes() as f64,
        run.messages_per_iter(),
        flops / iters as f64,
    );
    prop_assert!(
        predicted == accounted,
        "{} at k = {k}, {dtype}: (bytes, messages, flops) predicted {predicted:?} \
         vs accounted {accounted:?} (bytes scaled to 8 B per value)",
        alg.name()
    );
    let ranks = alg.predict_ranks(k);
    prop_assert_eq!(ranks.len(), run.stats.ranks.len());
    for (rank, (est, r)) in ranks.iter().zip(&run.stats.ranks).enumerate() {
        let per_iter = |v: f64| v / iters as f64;
        let predicted = (
            est.max_rank_bytes * 8.0,
            est.max_rank_messages,
            est.max_rank_flops,
        );
        let accounted = (
            per_iter(r.volume() as f64) * dtype.bytes() as f64,
            per_iter((r.sent_msgs + r.recv_msgs) as f64),
            per_iter(r.compute_time),
        );
        prop_assert!(
            predicted == accounted,
            "{} at k = {k}, {dtype}, rank {rank}: predicted {predicted:?} vs accounted {accounted:?}",
            alg.name()
        );
    }
    // The dry method is the run's accounting, rank by rank, bit for bit.
    let exact = |stats: &MachineStats| {
        (stats.ranks.iter())
            .map(|r| {
                let (t, c) = (r.sim_time.to_bits(), r.compute_time.to_bits());
                (r.sent_bytes, r.recv_bytes, r.sent_msgs, r.recv_msgs, t, c)
            })
            .collect::<Vec<_>>()
    };
    let (dry, ran) = (exact(&alg.dry_run(k, iters)), exact(&run.stats));
    prop_assert!(
        dry == ran,
        "{} at k = {k}, {dtype}: dry {dry:?} vs run {ran:?}",
        alg.name()
    );
    Ok(())
}

/// `entries` random integer-valued positions of an `n × n` correction.
fn delta(n: u32, entries: u32, seed: u64) -> CsrMatrix<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(n, n);
    for _ in 0..entries {
        let (r, c) = (rng.gen_range(0..n), rng.gen_range(0..n));
        coo.push(r, c, rng.gen_range(1..4) as f64).unwrap();
    }
    coo.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arrow_prediction_tracks_measurement(
        family in 0u8..8,
        n in 64u32..600,
        shape in 0usize..4,
        width in 0usize..4,
        narrow in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let g = graph(family, n, seed);
        let alg = algorithm(0, shape, &g, seed, dtype(narrow));
        exact(&*alg, g.n(), WIDTHS[width], dtype(narrow))?;
    }

    #[test]
    fn a15d_prediction_tracks_measurement(
        family in 0u8..8,
        n in 64u32..600,
        shape in 0usize..4,
        width in 0usize..4,
        narrow in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let g = graph(family, n, seed);
        let alg = algorithm(1, shape, &g, seed, dtype(narrow));
        exact(&*alg, g.n(), WIDTHS[width], dtype(narrow))?;
    }

    #[test]
    fn a2d_prediction_tracks_measurement(
        family in 0u8..8,
        n in 64u32..600,
        shape in 0usize..4,
        width in 0usize..4,
        narrow in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let g = graph(family, n, seed);
        let alg = algorithm(2, shape, &g, seed, dtype(narrow));
        exact(&*alg, g.n(), WIDTHS[width], dtype(narrow))?;
    }

    #[test]
    fn hp1d_prediction_is_exact(
        family in 0u8..8,
        n in 64u32..600,
        shape in 0usize..4,
        width in 0usize..4,
        narrow in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let g = graph(family, n, seed);
        let alg = algorithm(3, shape, &g, seed, dtype(narrow));
        exact(&*alg, g.n(), WIDTHS[width], dtype(narrow))?;
    }

    #[test]
    fn local_prediction_is_exact(
        family in 0u8..8,
        n in 64u32..600,
        width in 0usize..4,
        narrow in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let g = graph(family, n, seed);
        let alg = algorithm(4, 0, &g, seed, dtype(narrow));
        exact(&*alg, g.n(), WIDTHS[width], dtype(narrow))?;
    }

    /// Over every base. The correction ships `f64` whatever the base
    /// serves at (`corrected.rs`), so a corrected wire has no one dtype
    /// to scale by: the bases here serve at `f64`.
    #[test]
    fn delta_prediction_is_exact(
        family in 0u8..8,
        n in 64u32..600,
        kind in 0u8..5,
        shape in 0usize..4,
        width in 0usize..4,
        entries in 1u32..64,
        seed in 0u64..1000,
    ) {
        let g = graph(family, n, seed);
        let base = algorithm(kind, shape, &g, seed, Dtype::F64);
        let dm = delta(g.n(), entries, seed);
        let corrected = DeltaSpmm::new(&*base, &dm).unwrap().with_cost(cost());
        exact(&corrected, g.n(), WIDTHS[width], Dtype::F64)?;
    }
}

/// The two shapes the prediction used to miss: 1.5D on a row block its
/// `c` does not divide (the ring cuts whole rows; a 30 × 30 grid at
/// p = 16, c = 4 was under-predicted by one row, 9 000 B against 9 008 at
/// k = 1), and a corrected run, whose correction was priced but never
/// charged (Arrow on MAWI at b = 64 with 20 delta entries: 5 696 B, 13
/// messages and 384 flops predicted per iteration against 4 096 B, 8
/// messages and 344 flops accounted).
#[test]
fn the_shapes_once_mispredicted_are_exact() {
    let grid = basic::grid_2d(30, 30);
    for k in [1, 64] {
        let alg = algorithm(1, 3, &grid, 0, Dtype::F64);
        exact(&*alg, 900, k, Dtype::F64).unwrap();
    }
    let mawi = graph(4, 600, 7);
    let a: CsrMatrix<f64> = mawi.to_adjacency();
    let d = la_decompose(
        &a,
        &DecomposeConfig::with_width(64),
        &mut RandomForestLa::new(7),
    )
    .unwrap();
    let base = ArrowSpmm::new(&d).unwrap().with_cost(cost());
    let dm = delta(a.rows(), 20, 7);
    let corrected = DeltaSpmm::new(&base, &dm).unwrap().with_cost(cost());
    exact(&corrected, a.rows(), 1, Dtype::F64).unwrap();
}

/// Arrow's three feeds, each where it is taken, at `f64` and `f32`, all at
/// `b = n / 16`: a grid at 16 columns multiplies its deeper rows on the
/// level-0 ranks that hold them; an R-MAT at scale 10 and one column keeps
/// the relay through the level root; the R-MAT at scale 13 and 16 columns
/// feeds its deeper levels directly from the ranks that hold their rows,
/// since gathering there would load its busiest rank with 416 256 B in 44
/// messages against 362 624 B in 38. Bytes, messages and flops are exact
/// on every side.
#[test]
fn every_arrow_feed_is_exact() {
    let seeded = ChaCha8Rng::seed_from_u64;
    let graph500 = rmat::RmatParams::graph500();
    let cases = [
        (basic::grid_2d(64, 64), 16, Feed::Gather),
        (rmat::rmat(10, 8, graph500, &mut seeded(13)), 1, Feed::Relay),
        (
            rmat::rmat(13, 8, graph500, &mut seeded(13)),
            16,
            Feed::Direct,
        ),
    ];
    for (g, k, feed) in cases {
        let a: CsrMatrix<f64> = g.to_adjacency();
        let config = DecomposeConfig::with_width(a.rows() / 16);
        let d = decompose_snapshot(&a, &config, 1).unwrap();
        assert!(d.order() > 1, "one level: no feed to choose");
        for narrow in [false, true] {
            let alg = ArrowSpmm::new(&d)
                .unwrap()
                .with_cost(cost())
                .with_dtype(dtype(narrow));
            assert_eq!(alg.feed(k), feed);
            exact(&alg, a.rows(), k, dtype(narrow)).unwrap();
        }
    }
}

/// A zero-column operand: every algorithm answers it, and predicts what
/// it charges exactly — nothing but the messages its schedule still
/// sends. Arrow's packed receives once split an empty buffer into
/// zero-width rows and panicked every rank.
#[test]
fn a_zero_column_operand_is_exact() {
    let g = graph(6, 600, 3);
    for kind in 0..5 {
        let alg = algorithm(kind, 1, &g, 3, Dtype::F64);
        exact(&*alg, g.n(), 0, Dtype::F64).unwrap();
    }
}

/// Every algorithm refuses an operand of the wrong height, borrowed or
/// handed over, with the shape error rather than a panic on some rank.
#[test]
fn an_operand_of_the_wrong_height_is_a_shape_error() {
    let g = graph(0, 100, 5);
    let n = g.n();
    for kind in 0..5 {
        let alg = algorithm(kind, 1, &g, 5, Dtype::F64);
        let x = DenseMatrix::zeros(n + 1, 2);
        let want = SparseError::ShapeMismatch {
            left: (n, n),
            right: (n + 1, 2),
        };
        assert_eq!(alg.run(&x, 1).unwrap_err(), want, "{}", alg.name());
        assert_eq!(
            alg.run_owned(x, 1, None).unwrap_err(),
            want,
            "{}",
            alg.name()
        );
    }
}
