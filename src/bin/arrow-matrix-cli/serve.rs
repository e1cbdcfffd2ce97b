//! `serve`: stand up the serving engine on one matrix and drive a
//! synthetic query stream through it, unbatched and then batched.

use crate::args::{Args, Outcome};
use crate::sink::Sink;
use arrow_matrix::engine::{Engine, EngineConfig, MultiplyQuery};
use arrow_matrix::obs::Stopwatch;

pub fn run(args: &Args) -> Outcome {
    let input = args.str("matrix.mtx");
    let a = crate::load_square(args)?;
    let config = crate::engine_config(args)?;
    let queries: usize = args.parse("queries")?;
    let batch: usize = args.parse("batch")?;
    let iters: u32 = args.parse("iters")?;
    let dtype = config.dtype;

    let mut engine = Engine::new(EngineConfig {
        max_batch: batch.max(1),
        ..config
    })?;
    let mut sink = Sink::open(args, engine.telemetry())?;

    let (n, nnz) = (a.rows(), a.nnz());
    let t0 = Stopwatch::start();
    // Handed over, not copied: the engine's binding is the one copy.
    let id = engine.register_salted(a, 0)?;
    println!(
        "registered {input} in {:.1} ms (n = {n}, nnz = {nnz})",
        t0.elapsed_seconds() * 1e3
    );
    // First checkpoint: registration (at more than one rank, its
    // decompose or disk load) done.
    sink.checkpoint()?;
    let cache = engine.cache_stats();
    println!(
        "cache   : decompositions = {}, disk loads = {}, spills = {}",
        cache.decompositions, cache.disk_loads, cache.spills
    );
    let bound = engine.chosen_algorithm(id).expect("just registered");
    println!("planner : bound {bound} (dtype = {dtype})");
    for p in engine.plan_report(id).expect("just registered") {
        println!(
            "  {:<22} p = {:<5} predicted {:>9.3} µs/iter ({:.1} KiB, {:.0} msgs)",
            p.name,
            p.ranks,
            p.seconds * 1e6,
            p.estimate.max_rank_bytes / 1024.0,
            p.estimate.max_rank_messages
        );
    }

    // Synthetic query stream, deterministic per query index.
    let query = |q: usize| MultiplyQuery {
        matrix: id,
        x: (0..n)
            .map(|r| (((q as u32 + 3 * r) % 13) as f64) / 13.0 - 0.5)
            .collect(),
        iters,
        sigma: None,
    };
    let stream: Vec<MultiplyQuery> = (0..queries).map(query).collect();

    // Unbatched baseline: every query pays a full run.
    let t0 = Stopwatch::start();
    for q in &stream {
        engine.run_single(q.clone())?;
    }
    let single = t0.elapsed_seconds();
    // Second checkpoint: the unbatched half of the run.
    sink.checkpoint()?;

    // Batched: the same stream through the coalescing queue.
    let t0 = Stopwatch::start();
    for q in &stream {
        engine.submit(q.clone())?;
    }
    let responses = engine.flush()?;
    let batched = t0.elapsed_seconds();
    assert_eq!(responses.len(), queries);

    println!(
        "serving : {queries} queries × {iters} iterations\n\
         unbatched: {:>8.1} ms total, {:>8.1} queries/s\n\
         batch={batch:<3}: {:>8.1} ms total, {:>8.1} queries/s ({:.1}× speedup)",
        single * 1e3,
        queries as f64 / single,
        batched * 1e3,
        queries as f64 / batched,
        single / batched
    );
    sink.finish()
}
