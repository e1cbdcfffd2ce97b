//! Which rows of `D(0)` an arrow level's ranks actually use — the table
//! behind the sparse row schedule of `amd_comm`'s collectives.
//!
//! Rank `i` of a level reads only `Sᵢ = colsupp B(i,0) ∪ colsupp
//! B(0,0)[runᵢ]` of the broadcast `D(0)`, and its partial is non-zero
//! only on `Rᵢ = rowsupp B(0,i) ∪ rowsupp B(0,0)[runᵢ]`. Per input, width
//! and level this prints every non-root's `|Sᵢ| / d0_rows` and
//! `|Rᵢ| / d0_rows` and the schedule the level's broadcast and reduce
//! take under `CostModel::default()`. Every figure is exact and
//! seed-stable; run with `--nocapture` for the table.

use amd_graph::generators::{basic, datasets, rmat};
use amd_sparse::CsrMatrix;
use amd_spmm::ArrowSpmm;
use arrow_core::{la_decompose, DecomposeConfig, RandomForestLa};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn inputs() -> Vec<(&'static str, CsrMatrix<f64>)> {
    let seeded = |seed| ChaCha8Rng::seed_from_u64(seed);
    vec![
        ("grid160", basic::grid_2d(160, 160).to_adjacency()),
        (
            "rmat13",
            rmat::rmat(13, 8, rmat::RmatParams::graph500(), &mut seeded(13)).to_adjacency(),
        ),
        (
            "mawi4096",
            datasets::mawi_like(4096, &mut seeded(77)).to_adjacency(),
        ),
        (
            "osm16384",
            datasets::osm_like(16_384, &mut seeded(6)).to_adjacency(),
        ),
    ]
}

/// One level's shares: per non-root, `|Sᵢ|` and `|Rᵢ|` over `d0_rows`.
struct Level {
    reads: Vec<f64>,
    writes: Vec<f64>,
    schedules: String,
}

fn mean(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |sum, s| sum + s) / v.len().max(1) as f64
}

fn shares(v: &[f64]) -> String {
    v.iter()
        .map(|s| format!("{s:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The table for `a` at `b = n / parts` and operand width `k`, level by
/// level.
fn table(name: &str, a: &CsrMatrix<f64>, parts: u32, k: u32) -> Vec<Level> {
    let b = a.rows() / parts;
    let d = la_decompose(
        a,
        &DecomposeConfig::with_width(b),
        &mut RandomForestLa::new(1),
    )
    .unwrap();
    let arrow = ArrowSpmm::new(&d).unwrap();
    let mut levels = Vec::new();
    for (j, (([reads, writes], schedules), runs)) in arrow
        .supports()
        .into_iter()
        .zip(arrow.schedules(k))
        .zip(arrow.hub_runs())
        .enumerate()
    {
        let d0_rows = runs.last().map_or(0, |r| r.end) as f64;
        let share = |s: &[Vec<u32>]| -> Vec<f64> {
            s[1..].iter().map(|s| s.len() as f64 / d0_rows).collect()
        };
        let level = Level {
            reads: share(reads),
            writes: share(writes),
            schedules: format!("{:?}/{:?}", schedules[0], schedules[1]),
        };
        println!(
            "{name:<9} {b:>5} {k:>3} {j:>2} {:>3} {:>13} {:>6.3} {:>6.3}  S: {}  R: {}",
            reads.len(),
            level.schedules,
            mean(&level.reads),
            mean(&level.writes),
            shares(&level.reads),
            shares(&level.writes),
        );
        levels.push(level);
    }
    levels
}

#[test]
fn support_shares_per_level_and_rank() {
    println!(
        "{:<9} {:>5} {:>3} {:>2} {:>3} {:>13} {:>6} {:>6}  per non-root",
        "input", "b", "k", "l", "nb", "bcast/reduce", "S̄", "R̄"
    );
    for (name, a) in inputs() {
        // `dist-repro`'s width, then `tests/claims.rs`' MAWI volume claim.
        for (parts, k) in [(16, 16), (8, 64), (16, 64)] {
            let levels = table(name, &a, parts, k);
            if (parts, k) != (16, 16) {
                continue;
            }
            match name {
                "grid160" => {
                    let share = mean(&levels[0].reads);
                    assert!(
                        share <= 0.05,
                        "grid160: level 0's non-roots read {share:.3} of D(0) on average"
                    );
                    assert_eq!(levels[0].schedules, "Sparse/Sparse");
                }
                "rmat13" => assert_eq!(
                    levels[0].schedules, "Large/Large",
                    "rmat13: level 0 reads nearly all of D(0) and stays dense"
                ),
                _ => {}
            }
        }
    }
}
