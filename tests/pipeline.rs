//! End-to-end integration tests: dataset generation → LA-Decompose →
//! distributed SpMM → verification, across all datasets and algorithms.

use arrow_matrix::core::stats::DecompositionStats;
use arrow_matrix::core::{la_decompose, DecomposeConfig, RandomForestLa, SeparatorLaStrategy};
use arrow_matrix::graph::generators::datasets::DatasetKind;
use arrow_matrix::partition::{hype_partition, HypeConfig};
use arrow_matrix::sparse::{CsrMatrix, DenseMatrix};
use arrow_matrix::spmm::reference::iterated_spmm;
use arrow_matrix::spmm::verify::assert_matches_reference;
use arrow_matrix::spmm::{A15dSpmm, ArrowSpmm, DistSpmm, Hp1dSpmm};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const N: u32 = 1200;

fn dataset(kind: DatasetKind) -> (arrow_matrix::graph::Graph, CsrMatrix<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA11CE);
    let g = kind.generate(N, &mut rng);
    let a = g.to_adjacency();
    (g, a)
}

#[test]
fn every_dataset_decomposes_and_multiplies() {
    for kind in DatasetKind::ALL {
        let (_, a) = dataset(kind);
        let d = la_decompose(
            &a,
            &DecomposeConfig::with_width(96),
            &mut RandomForestLa::new(1),
        )
        .unwrap_or_else(|e| panic!("{}: decomposition failed: {e}", kind.name()));
        assert_eq!(
            d.validate(&a).unwrap(),
            0.0,
            "{}: reconstruction mismatch",
            kind.name()
        );
        let s = DecompositionStats::of(&d);
        assert!(
            s.order <= 12,
            "{}: order {} unexpectedly deep",
            kind.name(),
            s.order
        );
        let alg = ArrowSpmm::new(&d).unwrap();
        assert_matches_reference(&alg, &a, 8, 2, 1e-7);
    }
}

#[test]
fn all_three_algorithms_agree() {
    let (g, a) = dataset(DatasetKind::WebBase);
    let x = DenseMatrix::from_fn(N, 6, |r, c| (((r + 3 * c) % 11) as f64) - 5.0);
    let expected = iterated_spmm(&a, &x, 2).unwrap();

    let d = la_decompose(
        &a,
        &DecomposeConfig::with_width(128),
        &mut RandomForestLa::new(2),
    )
    .unwrap();
    let arrow = ArrowSpmm::new(&d).unwrap().run(&x, 2).unwrap();
    assert!(arrow.y.max_abs_diff(&expected).unwrap() < 1e-7);

    let a15 = A15dSpmm::new(&a, 8, 2).unwrap().run(&x, 2).unwrap();
    assert!(a15.y.max_abs_diff(&expected).unwrap() < 1e-7);

    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let part = hype_partition(&g, 6, &HypeConfig::default(), &mut rng);
    let hp = Hp1dSpmm::new(&a, &part).unwrap().run(&x, 2).unwrap();
    assert!(hp.y.max_abs_diff(&expected).unwrap() < 1e-7);

    // And the three distributed results agree with each other.
    assert!(arrow.y.max_abs_diff(&a15.y).unwrap() < 1e-7);
    assert!(a15.y.max_abs_diff(&hp.y).unwrap() < 1e-7);
}

#[test]
fn separator_strategy_works_end_to_end() {
    let (_, a) = dataset(DatasetKind::OsmEurope);
    let d = la_decompose(
        &a,
        &DecomposeConfig::with_width(128),
        &mut SeparatorLaStrategy,
    )
    .unwrap();
    assert_eq!(d.validate(&a).unwrap(), 0.0);
    let alg = ArrowSpmm::new(&d).unwrap();
    assert_matches_reference(&alg, &a, 4, 1, 1e-8);
}

#[test]
fn iterated_multiply_with_sigma_matches_direct() {
    let (_, a) = dataset(DatasetKind::GenBank);
    let d = la_decompose(
        &a,
        &DecomposeConfig::with_width(96),
        &mut RandomForestLa::new(4),
    )
    .unwrap();
    let x0 = DenseMatrix::from_fn(N, 4, |r, c| ((r * c) % 3) as f64 - 1.0);
    let relu = |v: f64| v.max(0.0);
    let via = d.iterate(&x0, 3, relu).unwrap();
    // Direct computation.
    let mut direct = x0.clone();
    for _ in 0..3 {
        let mut y = arrow_matrix::sparse::spmm::spmm(&a, &direct).unwrap();
        y.map_inplace(relu);
        direct = y;
    }
    assert!(via.max_abs_diff(&direct).unwrap() < 1e-9);
}

#[test]
fn distributed_sigma_matches_sequential_iterate() {
    // X ← σ(A·X) distributed must equal the sequential Eq. 1 path, for
    // every algorithm.
    let (g, a) = dataset(DatasetKind::WebBase);
    let d = la_decompose(
        &a,
        &DecomposeConfig::with_width(128),
        &mut RandomForestLa::new(6),
    )
    .unwrap();
    let x0 = DenseMatrix::from_fn(N, 5, |r, c| (((r * 7 + c) % 9) as f64) - 4.0);
    let relu: fn(f64) -> f64 = |v| v.max(0.0);
    let expected = d.iterate(&x0, 3, relu).unwrap();

    let arrow = ArrowSpmm::new(&d).unwrap();
    let ra = arrow.run_sigma(&x0, 3, Some(relu)).unwrap();
    assert!(
        ra.y.max_abs_diff(&expected).unwrap() < 1e-8,
        "arrow σ mismatch"
    );

    let a15 = A15dSpmm::new(&a, 8, 2).unwrap();
    let r15 = a15.run_sigma(&x0, 3, Some(relu)).unwrap();
    assert!(
        r15.y.max_abs_diff(&expected).unwrap() < 1e-8,
        "1.5D σ mismatch"
    );

    let a2d = arrow_matrix::spmm::A2dSpmm::new(&a, 9).unwrap();
    let r2d = a2d.run_sigma(&x0, 3, Some(relu)).unwrap();
    assert!(
        r2d.y.max_abs_diff(&expected).unwrap() < 1e-8,
        "2D σ mismatch"
    );

    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let part = hype_partition(&g, 5, &HypeConfig::default(), &mut rng);
    let hp = Hp1dSpmm::new(&a, &part).unwrap();
    let rhp = hp.run_sigma(&x0, 3, Some(relu)).unwrap();
    assert!(
        rhp.y.max_abs_diff(&expected).unwrap() < 1e-8,
        "HP-1D σ mismatch"
    );
}

#[test]
fn decomposition_deterministic_across_runs() {
    let (_, a) = dataset(DatasetKind::Mawi);
    let d1 = la_decompose(
        &a,
        &DecomposeConfig::with_width(64),
        &mut RandomForestLa::new(9),
    )
    .unwrap();
    let d2 = la_decompose(
        &a,
        &DecomposeConfig::with_width(64),
        &mut RandomForestLa::new(9),
    )
    .unwrap();
    assert_eq!(d1, d2);
}

#[test]
fn engine_batched_queries_bit_match_per_query_runs() {
    // The serving engine coalesces compatible queries into one multi-RHS
    // run; answers must bit-match individual DistSpmm runs of the bound
    // algorithm on each single column.
    use arrow_matrix::engine::{Engine, EngineConfig, MultiplyQuery};
    let (_, a) = dataset(DatasetKind::WebBase);
    let mut engine = Engine::new(EngineConfig {
        arrow_width: 96,
        target_ranks: 8,
        ..EngineConfig::default()
    })
    .unwrap();
    let id = engine.register(&a).unwrap();

    let columns: Vec<Vec<f64>> = (0..5)
        .map(|q| (0..N).map(|r| (((q * 13 + r) % 9) as f64) - 4.0).collect())
        .collect();
    // Per-query runs through the same bound algorithm.
    let singles: Vec<Vec<f64>> = columns
        .iter()
        .map(|x| {
            engine
                .run_single(MultiplyQuery {
                    matrix: id,
                    x: x.clone(),
                    iters: 2,
                    sigma: None,
                })
                .unwrap()
                .y
        })
        .collect();
    // One batched flush.
    for x in &columns {
        engine
            .submit(MultiplyQuery {
                matrix: id,
                x: x.clone(),
                iters: 2,
                sigma: None,
            })
            .unwrap();
    }
    let runs_before = engine.stats().runs;
    let responses = engine.flush().unwrap();
    assert_eq!(
        engine.stats().runs,
        runs_before + 1,
        "one run for the whole batch"
    );
    for (single, resp) in singles.iter().zip(&responses) {
        assert_eq!(
            single, &resp.y,
            "batched answer must bit-match the per-query run"
        );
        assert_eq!(resp.batch_size, columns.len());
    }
    // And both match the serial reference (within tolerance — different
    // algorithms round differently).
    for (x, resp) in columns.iter().zip(&responses) {
        let x = DenseMatrix::from_vec(N, 1, x.clone()).unwrap();
        let want = iterated_spmm(&a, &x, 2).unwrap();
        let got = DenseMatrix::from_vec(N, 1, resp.y.clone()).unwrap();
        assert!(got.max_abs_diff(&want).unwrap() < 1e-7);
    }
}

/// The batching contract on non-integer data, across the points where the
/// arrow multiply's collectives change schedule: a one-column run and a
/// 64-column batch of the same bound plan take different schedules, and
/// both must sum every column in the same order. On MAWI-like data the
/// level broadcast moves from the binomial tree to the sparse schedule
/// (the reduce is sparse at both widths); on WebBase-like data level 0's
/// reduce moves from the tree to the large-message schedule while level
/// 1 stays sparse. Between them the three schedules all run.
#[test]
fn engine_batched_float_queries_bit_match_across_the_schedule_crossover() {
    use arrow_matrix::comm::Schedule;
    use arrow_matrix::engine::{Engine, EngineConfig, MultiplyQuery};
    let mut ran = Vec::new();
    for (kind, arrow_width, target_ranks) in
        [(DatasetKind::Mawi, 150, 16), (DatasetKind::WebBase, 200, 8)]
    {
        let (_, a) = dataset(kind);
        let config = EngineConfig {
            arrow_width,
            target_ranks,
            max_batch: 64,
            ..EngineConfig::default()
        };
        // The plan the engine binds, rebuilt to read its schedules.
        let plan = ArrowSpmm::new(
            &la_decompose(
                &a,
                &DecomposeConfig::with_width(arrow_width),
                &mut RandomForestLa::new(config.decompose_seed),
            )
            .unwrap(),
        )
        .unwrap();
        let (single, batch) = (plan.schedules(1), plan.schedules(64));
        assert_ne!(
            single,
            batch,
            "{}: both widths take one schedule",
            kind.name()
        );
        ran.extend(single.into_iter().chain(batch).flatten());

        let mut engine = Engine::new(config).unwrap();
        let id = engine.register(&a).unwrap();
        let chosen = engine.chosen_algorithm(id).unwrap();
        assert!(
            chosen.starts_with("Arrow"),
            "{}: bound {chosen}, not the arrow plan",
            kind.name()
        );

        let query = |q: u32| MultiplyQuery {
            matrix: id,
            x: (0..N)
                .map(|r| ((q * 13 + r * 7) % 31) as f64 / 7.0 - 1.9)
                .collect(),
            iters: 2,
            sigma: None,
        };
        let singles: Vec<_> = (0..64)
            .map(|q| engine.run_single(query(q)).unwrap())
            .collect();
        for q in 0..64 {
            engine.submit(query(q)).unwrap();
        }
        let batched = engine.flush().unwrap();
        assert_eq!(batched.len(), 64);
        // On one schedule the batch would move exactly 64 times the
        // bytes of a single column; the bound plan switched. The
        // prediction is the accounting (`amd-spmm`'s `tests/predict.rs`).
        let bytes = |k| plan.predict_volume(k).max_rank_bytes;
        assert!(
            bytes(64) < 64.0 * bytes(1),
            "{}: batch {} B vs single {} B",
            kind.name(),
            bytes(64),
            bytes(1)
        );
        for (single, resp) in singles.iter().zip(&batched) {
            assert_eq!(resp.batch_size, 64);
            let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&single.y),
                bits(&resp.y),
                "{}: batched answer must bit-match the per-query run",
                kind.name()
            );
        }
    }
    for schedule in [Schedule::Tree, Schedule::Large, Schedule::Sparse] {
        assert!(ran.contains(&schedule), "{schedule:?} never ran: {ran:?}");
    }
}

#[test]
fn engine_cache_hit_skips_redecomposition() {
    use arrow_matrix::engine::{Engine, EngineConfig, MultiplyQuery};
    let (_, a) = dataset(DatasetKind::GenBank);
    let spill = std::env::temp_dir().join(format!("amd-pipeline-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill);
    let config = EngineConfig {
        arrow_width: 96,
        target_ranks: 8,
        spill_dir: Some(spill.clone()),
        ..EngineConfig::default()
    };

    // Cold engine: exactly one LA-Decompose.
    let mut engine = Engine::new(config.clone()).unwrap();
    let id = engine.register(&a).unwrap();
    assert_eq!(engine.cache_stats().decompositions, 1);
    let x: Vec<f64> = (0..N).map(|r| (r % 5) as f64).collect();
    let first = engine
        .run_single(MultiplyQuery {
            matrix: id,
            x: x.clone(),
            iters: 1,
            sigma: None,
        })
        .unwrap();
    // Second query against the same matrix: zero further decompositions.
    engine
        .run_single(MultiplyQuery {
            matrix: id,
            x: x.clone(),
            iters: 1,
            sigma: None,
        })
        .unwrap();
    assert_eq!(
        engine.cache_stats().decompositions,
        1,
        "warm query must not decompose"
    );
    drop(engine);

    // Warm restart from the spill directory: zero decompositions, the
    // decomposition comes back from disk, and answers are identical.
    let mut engine = Engine::new(config).unwrap();
    let id2 = engine.register(&a).unwrap();
    assert_eq!(id2, id, "content fingerprint is stable across restarts");
    assert_eq!(
        engine.cache_stats().decompositions,
        0,
        "restart must reload, not decompose"
    );
    assert_eq!(engine.cache_stats().disk_loads, 1);
    let again = engine
        .run_single(MultiplyQuery {
            matrix: id2,
            x,
            iters: 1,
            sigma: None,
        })
        .unwrap();
    assert_eq!(
        first.y, again.y,
        "reloaded decomposition must serve identical answers"
    );
    let _ = std::fs::remove_dir_all(&spill);
}

#[test]
fn distributed_stats_are_deterministic() {
    let (_, a) = dataset(DatasetKind::GenBank);
    let d = la_decompose(
        &a,
        &DecomposeConfig::with_width(96),
        &mut RandomForestLa::new(5),
    )
    .unwrap();
    let alg = ArrowSpmm::new(&d).unwrap();
    let x = DenseMatrix::from_fn(N, 4, |r, _| r as f64);
    let r1 = alg.run(&x, 2).unwrap();
    let r2 = alg.run(&x, 2).unwrap();
    assert_eq!(r1.stats.max_volume(), r2.stats.max_volume());
    assert!((r1.stats.sim_time() - r2.stats.sim_time()).abs() < 1e-12);
    assert_eq!(r1.y, r2.y);
}
