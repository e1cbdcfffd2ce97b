//! `multiply`: run Arrow SpMM against a saved decomposition and verify
//! it against the serial reference; an answer off by more than
//! `1e-9 · max(1, max |ref|)` is an error.

use crate::args::{Args, Outcome};
use crate::sink::Sink;
use arrow_matrix::core::Catalog;
use arrow_matrix::obs::{Stopwatch, Telemetry};
use arrow_matrix::sparse::DenseMatrix;
use arrow_matrix::spmm::{ArrowSpmm, DistSpmm};

pub fn run(args: &Args) -> Outcome {
    let (input, damd) = (args.str("matrix.mtx"), args.str("decomp.amd"));
    let a = crate::load_matrix(input)?;
    let (d, meta) = Catalog::load_file(damd).map_err(|e| format!("{damd}: {e}"))?;
    if meta.fingerprint != a.fingerprint() {
        return Err(format!(
            "{damd}: decomposition is for matrix {:032x} (n = {}), {input} is {:032x} (n = {})",
            meta.fingerprint,
            d.n(),
            a.fingerprint(),
            a.rows()
        )
        .into());
    }
    let k: u32 = args.parse("k")?;
    let iters: u32 = args.parse("iters")?;
    let alg = ArrowSpmm::new(&d)?;
    let x = DenseMatrix::from_fn(a.rows(), k, |r, c| (((r * 31 + c * 7) % 17) as f64) / 17.0);
    println!(
        "running {} on {} ranks, k = {k}, {iters} iterations…",
        alg.name(),
        alg.ranks()
    );
    let sw = Stopwatch::start();
    let run = alg.run(&x, iters)?;
    let wall = sw.elapsed_seconds();
    let reference = arrow_matrix::spmm::reference::iterated_spmm(&a, &x, iters)?;
    let err = run.y.max_abs_diff(&reference)?;
    let max_abs_ref = reference.data().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let bound = 1e-9 * max_abs_ref.max(1.0);
    if err > bound {
        return Err(format!("max |Δ| vs serial reference = {err:.2e} exceeds {bound:.2e}").into());
    }
    println!(
        "verified: max |Δ| vs serial reference = {err:.2e}\n\
         per iteration: simulated time = {:.3} ms, max per-rank volume = {:.1} KiB, \
         wall = {:.1} ms total",
        run.sim_time_per_iter() * 1e3,
        run.volume_per_iter() / 1024.0,
        run.stats.wall_seconds * 1e3,
    );
    let telemetry = Telemetry::new();
    let multiply = telemetry.registry.histogram("multiply.seconds");
    multiply.record_seconds(wall);
    Sink::open(args, &telemetry)?.finish()
}
