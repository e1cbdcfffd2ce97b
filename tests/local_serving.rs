//! The default deployment end to end: an engine built from
//! `EngineConfig::default()` binds the one-rank `LocalSpmm`, answers
//! without ever starting a simulated machine, batches bit-exactly, and
//! serves a pending delta exactly as a cold rebuild would.
//!
//! Lives in a test binary of its own: `amd_exec::global().stats()` is
//! process-wide, so the "no rank run happened" check only means something
//! where no other test runs ranks — every engine in this file is the
//! default one.

use arrow_matrix::engine::{Engine, EngineConfig, MatrixId, MultiplyQuery};
use arrow_matrix::graph::generators::rmat;
use arrow_matrix::sparse::{ops, CooMatrix, CsrMatrix, DenseMatrix};
use arrow_matrix::spmm::reference::iterated_spmm;
use arrow_matrix::spmm::{DistSpmm, LocalSpmm};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// 1 000 rows: 31 full blocks of the pack/unpack transpose and a ragged
/// one. Integer-valued (an adjacency matrix).
fn matrix() -> CsrMatrix<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x10ca1);
    let g = rmat::rmat(10, 6, rmat::RmatParams::graph500(), &mut rng);
    let full: CsrMatrix<f64> = g.to_adjacency();
    let mut coo = CooMatrix::new(1000, 1000);
    for r in 0..1000 {
        for (&c, &v) in full.row_indices(r).iter().zip(full.row_values(r)) {
            if c < 1000 {
                coo.push(r, c, v).unwrap();
            }
        }
    }
    coo.to_csr()
}

fn column(n: u32, q: u32, integer: bool) -> Vec<f64> {
    (0..n)
        .map(|r| {
            let v = ((q * 13 + 3 * r) % 11) as f64 - 5.0;
            if integer {
                v
            } else {
                v / 7.0
            }
        })
        .collect()
}

fn query(matrix: MatrixId, x: Vec<f64>, iters: u32) -> MultiplyQuery {
    MultiplyQuery {
        matrix,
        x,
        iters,
        sigma: None,
    }
}

#[test]
fn default_engine_binds_local_and_runs_no_ranks() {
    let a = matrix();
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let id = engine.register(&a).unwrap();
    let local = LocalSpmm::new(&a).unwrap();
    assert_eq!(engine.chosen_algorithm(id), Some(local.name().as_str()));
    assert_eq!(engine.plan_report(id).unwrap().len(), 1);

    let before = arrow_matrix::exec::global().stats();
    for q in 0..5 {
        engine.submit(query(id, column(1000, q, true), 2)).unwrap();
    }
    let responses = engine.flush().unwrap();
    engine
        .run_single(query(id, column(1000, 9, true), 1))
        .unwrap();
    let after = arrow_matrix::exec::global().stats();
    assert_eq!(after.rank_runs, before.rank_runs, "a machine was started");
    assert_eq!(after.rank_threads_spawned, before.rank_threads_spawned);

    assert_eq!(responses.len(), 5);
    for (q, response) in responses.iter().enumerate() {
        let x = DenseMatrix::from_vec(1000, 1, column(1000, q as u32, true)).unwrap();
        assert_eq!(response.y, iterated_spmm(&a, &x, 2).unwrap().data());
        let cost = response.cost.as_ref().expect("telemetry is on");
        assert_eq!(cost.accounted_rank_bytes, 0.0);
        assert_eq!(cost.predicted_rank_bytes, 0.0);
        assert_eq!(cost.rank_agreement, None, "nothing to rank against");
    }
    let snapshot = engine.telemetry().registry.snapshot();
    assert_eq!(snapshot.counter("engine.algo.local.runs"), Some(2));
    assert_eq!(
        snapshot.counter("engine.algo.local.accounted_bytes"),
        Some(0)
    );
    assert_eq!(
        snapshot.counter("engine.algo.local.predicted_bytes"),
        Some(0)
    );
}

#[test]
fn batched_answers_bit_match_single_runs_at_every_width() {
    let a = matrix();
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let id = engine.register(&a).unwrap();
    for width in [1u32, 3, 64] {
        // Non-integer operands: any change of summation order would show.
        let columns: Vec<Vec<f64>> = (0..width).map(|q| column(1000, q, false)).collect();
        let singles: Vec<Vec<f64>> = columns
            .iter()
            .map(|x| engine.run_single(query(id, x.clone(), 3)).unwrap().y)
            .collect();
        for x in &columns {
            engine.submit(query(id, x.clone(), 3)).unwrap();
        }
        let batched = engine.flush().unwrap();
        assert_eq!(batched.len(), width as usize);
        for (j, (response, single)) in batched.iter().zip(&singles).enumerate() {
            assert_eq!(response.batch_size, width as usize);
            let got: Vec<u64> = response.y.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = single.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "width {width}, column {j}");
        }
    }
}

#[test]
fn a_pending_delta_is_served_as_a_cold_rebuild_would() {
    let a = matrix();
    let mut delta = CooMatrix::new(1000, 1000);
    delta.push_sym(0, 500, 2.0).unwrap();
    delta.push_sym(7, 8, -1.0).unwrap();
    delta.push(999, 3, 4.0).unwrap();
    let delta = delta.to_csr();
    let merged = ops::apply_delta(&a, &delta).unwrap();

    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let id = engine.register(&a).unwrap();
    engine.set_delta(id, delta).unwrap();
    let mut rebuilt = Engine::new(EngineConfig::default()).unwrap();
    let rebuilt_id = rebuilt.register(&merged).unwrap();
    for iters in [1u32, 3] {
        for q in 0..4 {
            let x = column(1000, q, true);
            engine.submit(query(id, x.clone(), iters)).unwrap();
            rebuilt.submit(query(rebuilt_id, x, iters)).unwrap();
        }
        let corrected = engine.flush().unwrap();
        let cold = rebuilt.flush().unwrap();
        for (c, r) in corrected.iter().zip(&cold) {
            assert_eq!(c.y, r.y, "iters {iters}");
            let cost = c.cost.as_ref().expect("telemetry is on");
            assert!(cost.corrected);
            assert_eq!(cost.predicted_rank_bytes, 0.0, "nobody to broadcast to");
        }
    }
    assert_eq!(engine.stats().corrected_runs, 2);
}
