//! The refresh sweep: cold LA-Decompose against delta-localized
//! incremental re-decomposition, over delta locality (the fraction of
//! vertices touched) and matrix size. A refresh blocks (inline) or
//! occupies the builder (background) for exactly this long, so the
//! staleness a serving layer can afford follows from these numbers.
//!
//! Which path each case takes, and how far the affected region reached,
//! is exact and goes to the ledger ([`paths`]); the two latencies go to
//! the wall file ([`latency`]).

use crate::ledger::{Experiment, Row, Section};
use crate::wall::best_ms;
use amd_sparse::{ops, CooMatrix, CsrMatrix, DeltaBuilder};
use arrow_core::incremental::{decompose_snapshot_incremental, IncrementalPolicy, RefreshOutcome};
use arrow_core::{decompose_snapshot, ArrowDecomposition, DecomposeConfig};

const SEED: u64 = 21;
const ARROW_WIDTH: u32 = 64;
const SIZES: [u32; 2] = [10_000, 50_000];
/// Fraction of the vertices touched by the delta (window-confined).
const LOCALITIES: [f64; 3] = [0.001, 0.01, 0.10];

/// Ring plus short chords: banded, several levels, localized structure.
fn banded(n: u32) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(n, n);
    for v in 0..n {
        coo.push_sym(v, (v + 1) % n, 1.0).unwrap();
        coo.push_sym(v, (v + 4) % n, 1.0).unwrap();
    }
    coo.to_csr()
}

/// One point of the sweep: the base's decomposition, the merged matrix
/// and the vertices the delta touched.
struct Case {
    n: u32,
    locality: f64,
    prior: ArrowDecomposition,
    merged: CsrMatrix<f64>,
    touched: Vec<u32>,
}

impl Case {
    fn incremental(&self) -> (ArrowDecomposition, RefreshOutcome) {
        decompose_snapshot_incremental(
            &self.merged,
            &config(),
            SEED,
            Some(&self.prior),
            Some(&self.touched),
            &IncrementalPolicy::default(),
        )
        .expect("refresh decomposes")
    }
}

fn config() -> DecomposeConfig {
    DecomposeConfig::with_width(ARROW_WIDTH)
}

/// Chord inserts confined to a window of ~`locality · n` vertices, one
/// third into the ring.
fn cases() -> impl Iterator<Item = Case> {
    SIZES.into_iter().flat_map(|n| {
        let base = banded(n);
        let prior = decompose_snapshot(&base, &config(), SEED).expect("base decomposes");
        LOCALITIES.into_iter().map(move |locality| {
            let window = ((locality * n as f64) as u32).max(4);
            let start = n / 3;
            let mut delta = DeltaBuilder::new(n, n);
            let mut v = start;
            while v + 2 < start + window {
                delta.add_sym(v, v + 2, 1.0).unwrap();
                v += 3;
            }
            Case {
                n,
                locality,
                prior: prior.clone(),
                merged: ops::apply_delta(&base, &delta.to_csr()).expect("delta applies"),
                touched: delta.touched_vertices(),
            }
        })
    })
}

fn key(row: Row, case: &Case) -> Row {
    row.int("n", case.n as u64)
        .num("locality", case.locality, 3)
}

/// R1 — the path each refresh takes: touched and affected vertex counts
/// and whether it spliced or fell back cold.
pub fn paths() -> Experiment {
    let rows = cases()
        .map(|case| {
            let (_, outcome) = case.incremental();
            key(Row::new(), &case)
                .int("touched", case.touched.len() as u64)
                .int("affected", outcome.affected_vertices as u64)
                .text(
                    "path",
                    if outcome.incremental {
                        "splice"
                    } else {
                        "fallback"
                    },
                )
        })
        .collect();
    let title = format!("Refresh paths — cold vs incremental decompose (b = {ARROW_WIDTH})");
    Experiment::new("R1", "refresh_latency", title, rows, Vec::new())
}

/// The cold and the incremental refresh latency of every case.
pub fn latency() -> Section {
    let rows = cases()
        .map(|case| {
            let cold = best_ms(|| decompose_snapshot(&case.merged, &config(), SEED));
            let incremental = best_ms(|| case.incremental());
            key(Row::new(), &case)
                .num("cold_ms", cold, 2)
                .num("incremental_ms", incremental, 2)
                .num("speedup", cold / incremental, 1)
        })
        .collect();
    Section::new(
        "refresh_latency",
        format!("Refresh latency — cold vs incremental decompose (b = {ARROW_WIDTH})"),
        rows,
    )
}
