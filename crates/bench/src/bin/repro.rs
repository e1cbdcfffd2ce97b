//! Regenerates the paper's evidence in one run:
//!
//! ```text
//! cargo run --release -p amd-bench --bin repro
//! ```
//!
//! It takes no flags and reads no environment. It prints every table and
//! the paper's claims with their verdicts, then writes two files at the
//! workspace root: `BENCH_repro.json`, the exact ledger (E1–E11 and the
//! refresh paths — byte-identical from run to run, so CI diffs it
//! against the committed copy), and `BENCH_wall.json`, every wall-clock
//! table under the stamp of the host that timed it.

use amd_bench::{ledger, paper, refresh, wall, BENCH_N, BENCH_SEED};
use std::path::Path;

fn main() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut experiments = paper::all(BENCH_N);
    experiments.push(refresh::paths());
    for e in &experiments {
        e.print();
    }
    write(
        &root.join("BENCH_repro.json"),
        &ledger::ledger_json(BENCH_N, BENCH_SEED, &experiments),
    );
    let tables = wall::all(BENCH_N);
    for t in &tables {
        t.print();
    }
    write(
        &root.join("BENCH_wall.json"),
        &wall::wall_json(root, &tables),
    );
}

fn write(path: &Path, body: &str) {
    std::fs::write(path, body).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("wrote {}", path.display());
}
