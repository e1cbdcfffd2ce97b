//! Which rows of `D(0)` an arrow level's ranks actually use — the table
//! behind the sparse row schedule of `amd_comm`'s collectives.
//!
//! Rank `i` of a level reads only `Sᵢ = colsupp B(i,0) ∪ colsupp
//! B(0,0)[runᵢ]` of the broadcast `D(0)`, and its partial is non-zero
//! only on `Rᵢ = rowsupp B(0,i) ∪ rowsupp B(0,0)[runᵢ]`. Per input, width
//! and level this prints the feed the levels below the first take, every
//! non-root's `|Sᵢ| / d0_rows` and `|Rᵢ| / d0_rows`, and the schedule the
//! level's broadcast and reduce take under `CostModel::default()` — or
//! `direct` for a level fed without them. A second table counts, per
//! level, the busiest rank's bytes and messages of its broadcast and its
//! reduce under each of Tree, Large and Sparse, from `amd_comm`'s plan
//! builders over the same supports, beside the schedule taken. Every
//! figure is exact and seed-stable; run with `--nocapture` for the tables.

use amd_comm::{Collective, CostModel, Schedule};
use amd_graph::generators::{basic, datasets, rmat};
use amd_sparse::CsrMatrix;
use amd_spmm::{ArrowSpmm, Feed};
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
/// level, and the feed the plan takes.
fn table(name: &str, a: &CsrMatrix<f64>, parts: u32, k: u32) -> (Feed, Vec<Level>) {
    let b = a.rows() / parts;
    let d = la_decompose(
        a,
        &DecomposeConfig::with_width(b),
        &mut RandomForestLa::new(1),
    )
    .unwrap();
    let arrow = ArrowSpmm::new(&d).unwrap();
    let (feed, schedules) = (arrow.feed(k), arrow.schedules(k));
    let mut levels = Vec::new();
    for (j, ([reads, writes], runs)) in arrow
        .supports()
        .into_iter()
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
            schedules: schedules
                .get(j)
                .map_or("direct".into(), |s| format!("{:?}/{:?}", s[0], s[1])),
        };
        println!(
            "{name:<9} {b:>5} {k:>3} {:>6} {j:>2} {:>3} {:>13} {:>6.3} {:>6.3}  S: {}  R: {}",
            format!("{feed:?}"),
            reads.len(),
            level.schedules,
            mean(&level.reads),
            mean(&level.writes),
            shares(&level.reads),
            shares(&level.writes),
        );
        levels.push(level);
    }
    (feed, levels)
}

#[test]
fn support_shares_per_level_and_rank() {
    println!(
        "{:<9} {:>5} {:>3} {:>6} {:>2} {:>3} {:>13} {:>6} {:>6}  per non-root",
        "input", "b", "k", "feed", "l", "nb", "bcast/reduce", "S̄", "R̄"
    );
    for (name, a) in inputs() {
        // `dist-repro`'s width, then `tests/claims.rs`' MAWI volume claim.
        for (parts, k) in [(16, 16), (8, 64), (16, 64)] {
            let (feed, levels) = table(name, &a, parts, k);
            if (parts, k) != (16, 16) {
                continue;
            }
            match name {
                "grid160" => {
                    assert_eq!(
                        feed,
                        Feed::Direct,
                        "grid160: the deeper levels must be fed from the ranks that hold their rows"
                    );
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

/// The busiest rank's `(bytes, messages)` of `plans` under each schedule
/// at `k` columns, `None` where the schedule cannot run, and the one the
/// selection takes.
fn loads(plans: &Collective, k: usize) -> ([Option<(u64, u64)>; 3], Schedule) {
    let schedules = [Schedule::Tree, Schedule::Large, Schedule::Sparse];
    let loads = schedules.map(|s| plans.plan(s).map(|plan| plan.busiest(k)));
    let picked = plans.pick(k, &CostModel::default()).schedule().unwrap();
    (loads, picked)
}

#[test]
fn schedule_loads_per_level() {
    println!(
        "{:<9} {:>5} {:>3} {:>2} {:>3}  {:<9} {:>15} {:>15} {:>15}  taken",
        "input", "b", "k", "l", "nb", "op", "tree B/msg", "large B/msg", "sparse B/msg"
    );
    let show = |load: Option<(u64, u64)>| load.map_or("-".into(), |(b, m)| format!("{b}/{m}"));
    for (name, a) in inputs() {
        for (parts, k) in [(16, 16), (8, 64), (16, 64)] {
            let b = a.rows() / parts;
            let d = la_decompose(
                &a,
                &DecomposeConfig::with_width(b),
                &mut RandomForestLa::new(1),
            )
            .unwrap();
            let arrow = ArrowSpmm::new(&d).unwrap();
            let taken = arrow.schedules(k);
            for (j, ([reads, writes], runs)) in arrow
                .supports()
                .into_iter()
                .zip(arrow.hub_runs())
                .enumerate()
            {
                let (nb, rows) = (reads.len(), runs.last().map_or(0, |r| r.end) as usize);
                let ops = [
                    ("broadcast", Collective::broadcast(nb, rows, Some(reads))),
                    ("reduce", Collective::reduce(nb, rows, Some(writes))),
                ];
                for (o, (op, plans)) in ops.iter().enumerate() {
                    let (loads, picked) = loads(plans, k as usize);
                    let run = taken.get(j).map(|t| t[o]);
                    println!(
                        "{name:<9} {b:>5} {k:>3} {j:>2} {nb:>3}  {op:<9} {:>15} {:>15} {:>15}  {}",
                        show(loads[0]),
                        show(loads[1]),
                        show(loads[2]),
                        run.map_or("direct".into(), |s| format!("{s:?}")),
                    );
                    // The level's collective took the plan the rule picks,
                    // and a sparse pick is never heavier than the dense
                    // schedules on either count.
                    assert!(run.is_none_or(|run| run == picked), "{name} l={j} {op}");
                    if picked == Schedule::Sparse {
                        let sparse = loads[2].unwrap();
                        let dense = loads[..2].iter().flatten();
                        assert!(dense.clone().any(|d| sparse.0 <= d.0 && sparse.1 <= d.1));
                    }
                    if (name, parts, k, j) == ("grid160", 16, 16, 0) {
                        let (large, sparse) = (loads[1].unwrap(), loads[2].unwrap());
                        assert!(
                            sparse.0 < large.0 && sparse.1 <= large.1,
                            "grid160 level 0 {op}: sparse {sparse:?} vs large {large:?}"
                        );
                    }
                }
            }
        }
    }
}
