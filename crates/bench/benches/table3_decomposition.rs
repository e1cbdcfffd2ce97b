//! E7 — **§7.2 "Decomposition Results"** of the paper (presented here as a
//! table):
//!
//! * order of the decomposition stays at 1–4 across datasets and widths,
//! * the second matrix holds 0.1%–13% of the rows,
//! * the arrow decomposition uses 15×–100× fewer nonzero blocks than a
//!   direct 1.5D tiling at the same block size (fewer as `b` shrinks).
//!
//! Beside them, what the decomposition cost: wall-clock milliseconds of
//! one `la_decompose` call (best of three), that time per stored
//! nonzero — the constant behind the paper's near-linear-time claim for
//! the random-forest heuristic (§5.3) — and where the best call spent it
//! (`DecomposeTimings`: the five phase columns, in milliseconds, add up
//! to the call but for the clock reads between them).

use amd_bench::{bench_graph, BenchScale, Table, BENCH_SEED};
use amd_graph::generators::datasets::DatasetKind;
use amd_sparse::CsrMatrix;
use arrow_core::stats::{direct_tiling_nonzero_blocks, DecompositionStats};
use arrow_core::{la_decompose_timed, DecomposeConfig, RandomForestLa};
use std::time::Instant;

fn main() {
    let scale = BenchScale::from_env();
    let n = scale.base_n();
    // Scaled analogue of the paper's b ∈ {0.5e6 … 5e6} on 50M–226M rows:
    // widths at ~1/100 and ~1/10 of n.
    let widths = [n / 100, n / 30, n / 10];
    let mut table = Table::new(vec![
        "dataset",
        "b",
        "order",
        "2nd-level rows %",
        "compaction x",
        "arrow blocks",
        "1.5D blocks",
        "ratio",
        "decompose ms",
        "ns / nnz",
        "edges",
        "select",
        "forest",
        "layout",
        "place",
    ]);
    for kind in DatasetKind::ALL {
        let g = bench_graph(kind, n);
        let a: CsrMatrix<f64> = g.to_adjacency();
        for &b in &widths {
            let b = b.max(16);
            let decompose = || {
                let started = Instant::now();
                let (d, phases) = la_decompose_timed(
                    &a,
                    &DecomposeConfig::with_width(b),
                    &mut RandomForestLa::new(BENCH_SEED),
                )
                .expect("decomposition succeeds");
                (d, started.elapsed().as_secs_f64(), phases)
            };
            let (d, mut seconds, mut phases) = decompose();
            for _ in 0..2 {
                let (_, again, its_phases) = decompose();
                if again < seconds {
                    (seconds, phases) = (again, its_phases);
                }
            }
            debug_assert_eq!(d.validate(&a).unwrap(), 0.0);
            let s = DecompositionStats::of(&d);
            let direct = direct_tiling_nonzero_blocks(&a, b);
            let arrow = s.total_nonzero_tiles();
            table.row(vec![
                kind.name().to_string(),
                format!("{b}"),
                format!("{}", s.order),
                format!("{:.2}", 100.0 * s.second_level_row_fraction),
                if s.compaction_factor.is_finite() {
                    format!("{:.1}", s.compaction_factor)
                } else {
                    "inf".to_string()
                },
                format!("{arrow}"),
                format!("{direct}"),
                format!("{:.1}x", direct as f64 / arrow.max(1) as f64),
                format!("{:.2}", seconds * 1e3),
                format!("{:.0}", seconds * 1e9 / a.nnz().max(1) as f64),
                format!("{:.2}", phases.edges * 1e3),
                format!("{:.2}", phases.select * 1e3),
                format!("{:.2}", phases.forest * 1e3),
                format!("{:.2}", phases.layout * 1e3),
                format!("{:.2}", phases.place * 1e3),
            ]);
        }
    }
    table.print(&format!("§7.2 decomposition quality (n = {n})"));
    println!(
        "\npaper: order ≤ 4; second matrix 0.1%–13% of rows; 15–20x fewer blocks at \
         large b, >100x at small b (largest effects on the starriest graphs)"
    );
}
