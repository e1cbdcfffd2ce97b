//! E-ENGINE — serving-engine throughput: queries/sec vs batch size.
//!
//! Drives the same synthetic query stream through one engine at batch
//! sizes 1, 8, and 64 against an R-MAT dataset, reporting both criterion
//! timings and the runner-style summary table the other bench targets
//! print. Batch 1 goes through the unbatched single-run path; larger
//! sizes coalesce into multi-RHS runs. The engine is pinned to a
//! 16-rank deployment: per-run fixed cost — rank dispatch, per-message
//! latency — is what batching amortises, and a one-rank binding has
//! almost none.

use amd_bench::{Table, BENCH_SEED};
use amd_engine::{Engine, EngineConfig, MatrixId, MultiplyQuery};
use amd_graph::generators::rmat;
use amd_sparse::CsrMatrix;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const QUERIES: usize = 64;
const ITERS: u32 = 2;

fn rmat_matrix() -> CsrMatrix<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(BENCH_SEED);
    rmat::rmat(10, 8, rmat::RmatParams::graph500(), &mut rng).to_adjacency()
}

fn stream(n: u32) -> Vec<Vec<f64>> {
    (0..QUERIES)
        .map(|q| {
            (0..n)
                .map(|r| (((q as u32 + 3 * r) % 13) as f64) / 13.0 - 0.5)
                .collect()
        })
        .collect()
}

/// Serves the whole stream at one batch size, returning elapsed seconds.
fn serve(engine: &mut Engine, id: MatrixId, stream: &[Vec<f64>], batch: usize) -> f64 {
    let t0 = amd_obs::Stopwatch::start();
    if batch > 1 {
        for group in stream.chunks(batch) {
            for x in group {
                engine
                    .submit(MultiplyQuery {
                        matrix: id,
                        x: x.clone(),
                        iters: ITERS,
                        sigma: None,
                    })
                    .expect("submit succeeds");
            }
            engine.flush().expect("flush succeeds");
        }
    } else {
        for x in stream {
            engine
                .run_single(MultiplyQuery {
                    matrix: id,
                    x: x.clone(),
                    iters: ITERS,
                    sigma: None,
                })
                .expect("single run succeeds");
        }
    }
    t0.elapsed_seconds()
}

fn bench_engine_throughput(c: &mut Criterion) {
    let a = rmat_matrix();
    let queries = stream(a.rows());
    let mut engine = Engine::new(EngineConfig {
        arrow_width: 64,
        target_ranks: 16,
        ..EngineConfig::default()
    })
    .unwrap();
    let id = engine.register(&a).unwrap();

    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(QUERIES as u64));
    let mut rows = Vec::new();
    for &batch in &[1usize, 8, 64] {
        let mut secs = f64::INFINITY;
        group.bench_with_input(BenchmarkId::new("batch", batch), &batch, |b, &batch| {
            b.iter(|| {
                let s = serve(&mut engine, id, &queries, batch);
                secs = secs.min(s);
                s
            })
        });
        rows.push((batch, QUERIES as f64 / secs));
    }
    group.finish();

    let mut table = Table::new(vec![
        "batch",
        "queries/s",
        "speedup vs batch=1",
        "bound algorithm",
    ]);
    let base = rows[0].1;
    for (batch, qps) in rows {
        table.row(vec![
            batch.to_string(),
            format!("{qps:.0}"),
            format!("{:.1}x", qps / base),
            engine.chosen_algorithm(id).expect("registered").to_string(),
        ]);
    }
    table.print(&format!(
        "E-ENGINE — serving throughput vs batch size (R-MAT scale 10, {QUERIES} queries, {ITERS} iters)"
    ));
}

criterion_group!(engine_throughput, bench_engine_throughput);
criterion_main!(engine_throughput);
