//! Serving-engine demonstration: batched vs unbatched query throughput.
//!
//! The paper's workflow decomposes once and amortizes over many SpMM
//! iterations; the serving engine extends the amortization across
//! *queries*. This example drives a synthetic stream of multiply queries
//! against one R-MAT matrix three ways — unbatched (one run per query),
//! batch = 8, and batch = 64 — and reports throughput, on two
//! deployments. On 16 simulated ranks the per-run fixed costs (rank
//! dispatch, per-message latency) dominate single-column runs, so
//! coalescing 64 compatible queries into one 64-column run is far more
//! than 2× faster — that is the claim asserted here. On the default
//! one-rank deployment (this host's shared memory) a run has almost no
//! fixed cost to amortise; its numbers are printed beside the others,
//! where what batching still buys is one pass over the matrix for 64
//! columns instead of 64 passes.
//!
//! Run with `cargo run --release --example serving`.

use arrow_matrix::engine::{Engine, EngineConfig, MatrixId, MultiplyQuery};
use arrow_matrix::graph::generators::rmat;
use arrow_matrix::sparse::CsrMatrix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs `stream` through `engine`, flushing after every `batch`
/// submissions (`batch = 1` uses the true unbatched single-run path).
/// Returns (seconds, answers in stream order).
fn drive(
    engine: &mut Engine,
    id: MatrixId,
    stream: &[Vec<f64>],
    iters: u32,
    batch: usize,
) -> (f64, Vec<Vec<f64>>) {
    let t0 = arrow_matrix::obs::Stopwatch::start();
    let mut answers = Vec::with_capacity(stream.len());
    if batch > 1 {
        for group in stream.chunks(batch) {
            for x in group {
                engine
                    .submit(MultiplyQuery {
                        matrix: id,
                        x: x.clone(),
                        iters,
                        sigma: None,
                    })
                    .expect("registered matrix accepts queries");
            }
            let responses = engine.flush().expect("flush succeeds");
            answers.extend(responses.into_iter().map(|r| r.y));
        }
    } else {
        for x in stream {
            let r = engine
                .run_single(MultiplyQuery {
                    matrix: id,
                    x: x.clone(),
                    iters,
                    sigma: None,
                })
                .expect("single runs succeed");
            answers.push(r.y);
        }
    }
    (t0.elapsed_seconds(), answers)
}

fn main() {
    // An R-MAT graph: the skewed-degree workload the decomposition targets.
    let mut rng = ChaCha8Rng::seed_from_u64(0x5e21);
    let g = rmat::rmat(10, 8, rmat::RmatParams::graph500(), &mut rng);
    let a: CsrMatrix<f64> = g.to_adjacency();
    let n = a.rows();
    println!("matrix: R-MAT scale 10 (n = {n}, nnz = {})", a.nnz());

    let queries = 64usize;
    let iters = 2u32;
    let stream: Vec<Vec<f64>> = (0..queries)
        .map(|q| {
            (0..n)
                .map(|r| (((q as u32 + 3 * r) % 13) as f64) / 13.0 - 0.5)
                .collect()
        })
        .collect();

    // Per deployment: one engine — one decomposition, one planner
    // decision — serves every policy; only the batching changes.
    let speedup_of = |label: &str, target_ranks: u32| -> f64 {
        let mut engine = Engine::new(EngineConfig {
            arrow_width: 64,
            target_ranks,
            ..EngineConfig::default()
        })
        .expect("engine builds");
        let id = engine.register(&a).expect("registration succeeds");
        println!(
            "{label}: planner bound {} (decompositions so far: {})",
            engine.chosen_algorithm(id).expect("registered"),
            engine.cache_stats().decompositions
        );

        let mut throughputs = Vec::new();
        let mut reference: Option<Vec<Vec<f64>>> = None;
        for &batch in &[1usize, 8, 64] {
            let runs_before = engine.stats().runs;
            let (secs, answers) = drive(&mut engine, id, &stream, iters, batch);
            let qps = queries as f64 / secs;
            throughputs.push(qps);
            println!(
                "  batch={batch:<3} {:>8.1} ms total  {:>9.1} queries/s  ({} runs)",
                secs * 1e3,
                qps,
                engine.stats().runs - runs_before
            );
            // Batched answers must bit-match the unbatched ones.
            match &reference {
                None => reference = Some(answers),
                Some(want) => assert_eq!(want, &answers, "batched results diverged"),
            }
        }
        let speedup = throughputs[throughputs.len() - 1] / throughputs[0];
        println!("  speedup batch-64 vs unbatched: {speedup:.1}×");
        speedup
    };

    let distributed = speedup_of("16 simulated ranks", 16);
    speedup_of("this host (1 rank)", EngineConfig::default().target_ranks);
    assert!(
        distributed >= 2.0,
        "on 16 ranks batching should win by ≥2×, measured {distributed:.2}×"
    );
}
