//! Which rows of `D(0)` an arrow level's ranks actually use — the table
//! behind the sparse row schedule of `amd_comm`'s collectives.
//!
//! Rank `i` of a level reads only `Sᵢ = colsupp B(i,0) ∪ colsupp
//! B(0,0)[runᵢ]` of the broadcast `D(0)`, and its partial is non-zero
//! only on `Rᵢ = rowsupp B(0,i) ∪ rowsupp B(0,0)[runᵢ]`. Per input, width
//! and level this prints the feed the levels below the first take, every
//! non-root's `|Sᵢ| / d0_rows` and `|Rᵢ| / d0_rows`, and the schedule the
//! level's broadcast and reduce take under `CostModel::default()` — or
//! the feed's name for a level that runs without them. A second table
//! counts, per level, the busiest rank's bytes and messages of its
//! broadcast and its reduce under each of Tree, Large and Sparse, from
//! `amd_comm`'s plan builders over the same supports, beside the schedule
//! taken. A third prints, per input, width and operand width, the busiest
//! rank's bytes and messages under each feed — Relay, Direct, Gather — and
//! marks the one taken, and holds every cell of it to a pinned value.
//! Every figure is exact and seed-stable; run with `--nocapture` for the
//! tables.

use amd_comm::{Collective, CostModel, Plan, Schedule};
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
    let arrow = decompose(a, parts);
    let b = arrow.b();
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
                .map_or(format!("{feed:?}"), |s| format!("{:?}/{:?}", s[0], s[1])),
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
                        Feed::Gather,
                        "grid160: the deeper rows must be multiplied where their vertices are held"
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

fn decompose(a: &CsrMatrix<f64>, parts: u32) -> ArrowSpmm {
    let config = DecomposeConfig::with_width(a.rows() / parts);
    let d = la_decompose(a, &config, &mut RandomForestLa::new(1)).unwrap();
    ArrowSpmm::new(&d).unwrap()
}

/// The feed table, row by row in [`feed_loads_per_input`]'s order: the
/// busiest rank's `(bytes, messages)` under Relay, Direct and Gather, and
/// the feed taken.
#[rustfmt::skip]
const FEED_TABLE: [([(u64, u64); 3], Feed); 12] = [
    ([(669_440, 34), (574_464, 30), (95_360, 16)], Feed::Gather),
    ([(2_401_280, 14), (2_401_280, 14), (625_152, 14)], Feed::Gather),
    ([(2_677_760, 34), (2_297_856, 30), (381_440, 16)], Feed::Gather),
    ([(371_456, 38), (362_624, 38), (416_256, 44)], Feed::Direct),
    ([(1_943_552, 18), (1_943_552, 18), (1_943_040, 20)], Feed::Relay),
    ([(1_398_784, 38), (1_450_496, 38), (1_665_024, 44)], Feed::Relay),
    ([(262_144, 8); 3], Feed::Relay),
    ([(389_120, 14); 3], Feed::Relay),
    ([(250_880, 28); 3], Feed::Relay),
    ([(399_104, 30); 3], Feed::Relay),
    ([(1_274_880, 14); 3], Feed::Relay),
    ([(1_596_416, 30); 3], Feed::Relay),
];

/// The busiest rank's bytes and messages under each feed, and the one
/// taken: the rule weighs Relay, Direct, Gather in turn, and a later feed
/// replaces the one held when it is no heavier on either count and
/// lighter on one. Every figure is pinned ([`FEED_TABLE`]): a feed whose
/// traffic moves by one row fails here.
#[test]
fn feed_loads_per_input() {
    println!(
        "{:<9} {:>5} {:>3}  {:>17} {:>17} {:>17}  taken",
        "input", "b", "k", "relay B/msg", "direct B/msg", "gather B/msg"
    );
    let feeds = [Feed::Relay, Feed::Direct, Feed::Gather];
    let mut pinned = FEED_TABLE.iter();
    for (name, a) in inputs() {
        for (parts, k) in [(16, 16), (8, 64), (16, 64)] {
            let arrow = decompose(&a, parts);
            let loads = feeds.map(|feed| arrow.busiest(k, feed));
            let mut held = 0;
            for f in 1..feeds.len() {
                let (load, was) = (loads[f], loads[held]);
                if load.0 <= was.0 && load.1 <= was.1 && load != was {
                    held = f;
                }
            }
            let taken = arrow.feed(k);
            let show = |f: usize| {
                let (bytes, msgs) = loads[f];
                let mark = if feeds[f] == taken { "*" } else { " " };
                format!("{bytes}/{msgs}{mark}")
            };
            println!(
                "{name:<9} {:>5} {k:>3}  {:>17} {:>17} {:>17}  {taken:?}",
                arrow.b(),
                show(0),
                show(1),
                show(2),
            );
            assert_eq!(taken, feeds[held], "{name} b={} k={k}", arrow.b());
            let &(want, feed) = pinned.next().expect("one pinned row per table row");
            assert_eq!((loads, taken), (want, feed), "{name} b={} k={k}", arrow.b());
        }
    }
    assert!(pinned.next().is_none(), "every pinned row is checked");
}

/// The busiest rank's `(bytes, messages)` of `plans` under each schedule
/// at `k` columns, `None` where the schedule cannot run, and the one the
/// selection takes.
fn loads(plans: &Collective, k: usize) -> ([Option<(u64, u64)>; 3], Schedule) {
    let schedules = [Schedule::Tree, Schedule::Large, Schedule::Sparse];
    let cost = CostModel::default();
    let busiest = |plan: &Plan| {
        let stats = plan.alone(k, &cost);
        (stats.max_volume(), stats.max_messages())
    };
    let loads = schedules.map(|s| plans.plan(s).map(busiest));
    let picked = plans.pick(k, &cost).schedule().unwrap();
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
            let arrow = decompose(&a, parts);
            let (b, taken) = (arrow.b(), arrow.schedules(k));
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
                        run.map_or(format!("{:?}", arrow.feed(k)), |s| format!("{s:?}")),
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
