//! `decompose`: LA-Decompose a matrix once, validate the reconstruction
//! and save it as a catalog payload that `multiply` checks its matrix
//! against.

use crate::args::{Args, Outcome};
use crate::sink::Sink;
use arrow_matrix::core::stats::DecompositionStats;
use arrow_matrix::core::{la_decompose, Catalog, CatalogMeta, DecomposeConfig, RandomForestLa};
use arrow_matrix::obs::{Stopwatch, Telemetry};

pub fn run(args: &Args) -> Outcome {
    let (input, out) = (args.str("matrix.mtx"), args.str("out.amd"));
    let a = crate::load_matrix(input)?;
    let b: u32 = args.parse("b")?;
    let seed: u64 = args.parse("seed")?;
    let config = DecomposeConfig::with_width(b);
    let t0 = Stopwatch::start();
    let d = la_decompose(&a, &config, &mut RandomForestLa::new(seed))?;
    let elapsed = t0.elapsed_seconds();
    let err = d.validate(&a)?;
    if err != 0.0 {
        return Err(format!("reconstruction error {err} — refusing to save").into());
    }
    let stats = DecompositionStats::of(&d);
    // A one-shot file is a catalog payload outside a catalog: a chain
    // root with the identity `multiply` checks its matrix against.
    let meta = CatalogMeta {
        fingerprint: a.fingerprint(),
        version: 0,
        parent: 0,
        created_at: 0,
        seed,
        config,
    };
    Catalog::save_file(out, &d, &meta)?;
    println!(
        "decomposed {input} in {:.1} ms: order = {}, b = {b}, \
         compaction factor = {:.2}, second-level nonzero rows = {:.2}% of n, \
         active prefix = {:.1}% of positions",
        elapsed * 1e3,
        stats.order,
        stats.compaction_factor,
        stats.second_level_row_fraction * 100.0,
        stats.active_prefix_fraction * 100.0,
    );
    for l in &stats.levels {
        println!(
            "  level {}: nnz = {}, nonzero rows = {}, active n = {} ({:.1}% of n), \
             arrow tiles = {}",
            l.level,
            l.nnz,
            l.nonzero_rows,
            l.active_n,
            l.active_fraction * 100.0,
            l.nonzero_tiles
        );
    }
    println!("saved {out} (validated: exact reconstruction)");
    let telemetry = Telemetry::new();
    let registry = &telemetry.registry;
    registry
        .histogram("decompose.seconds")
        .record_seconds(elapsed);
    registry.gauge("matrix.n").set(a.rows() as u64);
    registry.gauge("matrix.nnz").set(a.nnz() as u64);
    registry
        .gauge("decompose.levels")
        .set(stats.levels.len() as u64);
    Sink::open(args, &telemetry)?.finish()
}
