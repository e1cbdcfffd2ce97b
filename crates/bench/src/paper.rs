//! E1–E11: the paper's tables, figures and ablations as ledger
//! experiments, each scaled from a base vertex count `n`
//! ([`BENCH_N`](crate::BENCH_N) in `repro`).
//!
//! Every quantity here comes from fixed seeds and the simulated α-β
//! clock, never from a wall clock, so two runs — at any pool size —
//! produce the same rows. Each experiment states the paper's claims as
//! data; how a claim is read, where that is a choice, is in
//! its note.

use crate::ledger::{stated, Claim, Experiment, Row, Section};
use crate::runner::{arrow_for, arrow_with_ranks, hp1d_for, spmm_15d_for};
use crate::{bench_graph, BENCH_SEED};
use amd_graph::degree::DegreeStats;
use amd_graph::generators::datasets::DatasetKind;
use amd_graph::generators::random::tree_with_degree_targets;
use amd_graph::generators::{basic, random, structured};
use amd_graph::separator::{BfsLevelSeparator, CentroidSeparator};
use amd_graph::zipf::{survival_bound, TruncatedZipf};
use amd_graph::Graph;
use amd_linarr::arrangement::{edges_within, ArrangementQuality};
use amd_linarr::tree_layout::{root_tree, smallest_first_order};
use amd_linarr::{la_cost, reverse_cuthill_mckee, separator_la};
use amd_sparse::{CsrMatrix, DenseMatrix, Permutation};
use amd_spmm::{A15dSpmm, A2dSpmm, DistSpmm};
use arrow_core::pruning::{count_above, recommended_width};
use arrow_core::stats::{direct_tiling_nonzero_blocks, DecompositionStats, StructureProfile};
use arrow_core::{la_decompose, DecomposeConfig, RandomForestLa};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Multiply iterations per distributed run; every figure is per iteration.
const ITERS: u32 = 2;

/// No upper end.
const OPEN: f64 = f64::INFINITY;

/// All eleven, in the paper's order.
pub fn all(n: u32) -> Vec<Experiment> {
    vec![
        table1_la_cost(n),
        table2_datasets(n),
        fig1_structure(n),
        fig4_weak_15d(n),
        fig5_strong(n),
        fig6_weak_arrow(n),
        table3_decomposition(n),
        ablation_pruning(n),
        ablation_tree_layout(n),
        ablation_compaction(n),
        ablation_2d_vs_15d(n),
    ]
}

/// What one distributed run contributes to a row.
struct Run {
    name: String,
    ranks: u32,
    sim_ms: f64,
    bytes: f64,
    msgs: f64,
}

impl Run {
    fn of(alg: &dyn DistSpmm, x: &DenseMatrix<f64>) -> Self {
        let run = alg.run(x, ITERS).expect("distributed run succeeds");
        Self {
            name: alg.name(),
            ranks: alg.ranks(),
            sim_ms: run.sim_time_per_iter() * 1e3,
            bytes: run.volume_per_iter(),
            msgs: run.messages_per_iter(),
        }
    }

    /// The simulated clock, busiest-rank bytes and messages per iteration.
    fn cells(&self, row: Row) -> Row {
        row.num("sim_ms_per_iter", self.sim_ms, 3)
            .num("max_rank_bytes_per_iter", self.bytes, 0)
            .num("max_rank_msgs_per_iter", self.msgs, 1)
    }
}

fn decompose(a: &CsrMatrix<f64>, b: u32, prune: bool) -> DecompositionStats {
    let cfg = DecomposeConfig {
        prune,
        ..DecomposeConfig::with_width(b)
    };
    let d = la_decompose(a, &cfg, &mut RandomForestLa::new(BENCH_SEED))
        .expect("decomposition succeeds at bench scale");
    DecompositionStats::of(&d)
}

fn tree_arrangement(g: &Graph) -> Permutation {
    Permutation::from_order(smallest_first_order(&root_tree(g, 0)))
        .expect("tree layout covers every vertex")
}

/// E1 — **Table 1**, "Bounds on the cost of a linear arrangement": the
/// arrangement each bound refers to (smallest-first on trees,
/// Separator-LA on the separator families), its cost `λ_π(G)` next to
/// the bound evaluated with unit constant.
pub fn table1_la_cost(n: u32) -> Experiment {
    let n = (n / 4).max(1024);
    let mut rng = ChaCha8Rng::seed_from_u64(BENCH_SEED);
    let side = (n as f64).sqrt() as u32;
    let families = [
        ("Tree (random)", random::random_tree(n, &mut rng)),
        ("Tree (binary)", basic::complete_ary_tree(2, n)),
        ("Caterpillar", structured::caterpillar(n / 4, 3)),
        ("Series-parallel", structured::series_parallel(n, &mut rng)),
        ("Treewidth 3 (3-tree)", structured::k_tree(n, 3, &mut rng)),
        ("Planar (grid)", basic::grid_2d(side, side)),
    ];
    let mut rows = Vec::new();
    let mut claims = Vec::new();
    for (i, (family, g)) in families.iter().enumerate() {
        let nd = g.n() as f64 * g.max_degree() as f64;
        let log_n = (g.n() as f64).log2().max(1.0);
        let separator = || separator_la(g, &BfsLevelSeparator);
        // The paper cites Δ-free bounds for series-parallel and bounded-
        // treewidth graphs via specialised MLA algorithms; Separator-LA
        // realises Lemma 2's form, with s ≤ 3 and s = τ + 1.
        let (label, bound, pi) = match i {
            0..=2 => ("n*Delta", nd, tree_arrangement(g)),
            3 => ("n*Delta*log n (Lemma 2)", nd * log_n, separator()),
            4 => (
                "n*Delta*(tau+1)*log n (Lemma 2)",
                nd * 4.0 * log_n,
                separator(),
            ),
            _ => ("n*Delta*sqrt(n)", nd * (g.n() as f64).sqrt(), separator()),
        };
        let cost = la_cost(g, &pi);
        let ratio = cost as f64 / bound;
        rows.push(
            Row::new()
                .text("family", *family)
                .text("bound", label)
                .int("n", g.n() as u64)
                .int("m", g.m() as u64)
                .int("max_degree", g.max_degree() as u64)
                .int("cost", cost)
                .num("bound_value", bound, 0)
                .num("ratio", ratio, 3),
        );
        let claim = format!("{family}: λ_π(G) ≤ {label} (cost ÷ bound)");
        claims.push(
            Claim::new("Table 1", claim, [0.0, 1.0], [ratio])
                .note("Table 1 states O(·) bounds; read here at unit constant"),
        );
    }
    let title = "Table 1: linear arrangement cost vs paper bound (unit constants)";
    Experiment::new("E1", "table1_la_cost", title, rows, claims)
}

/// How Table 2 prints a dataset's maximum degree.
enum MaxDegree {
    /// A share of `n`, with the decimals the paper prints.
    Share(f64, i32),
    /// An absolute bound.
    AtMost(u32),
}

/// Table 2 as the paper prints it: average degree (with its decimals)
/// and maximum degree.
const TABLE2: [(DatasetKind, f64, i32, MaxDegree); 6] = {
    use DatasetKind::*;
    use MaxDegree::*;
    [
        (Mawi, 2.1, 1, Share(0.93, 2)),
        (GenBank, 2.1, 1, AtMost(35)),
        (WebBase, 8.63, 2, Share(0.007, 3)),
        (OsmEurope, 2.12, 2, AtMost(13)),
        (GapTwitter, 23.85, 2, Share(0.0125, 4)),
        (Sk2005, 38.5, 1, Share(0.17, 2)),
    ]
};

/// E2 — **Table 2**, "Summary of the datasets' density properties": the
/// stand-ins' `nnz/n` and `Δ` against the published signature.
pub fn table2_datasets(n: u32) -> Experiment {
    let mut rows = Vec::new();
    let mut claims = Vec::new();
    for (kind, avg, avg_decimals, max_degree) in &TABLE2 {
        let s = DegreeStats::of(&bench_graph(*kind, n));
        let name = kind.name();
        rows.push(
            Row::new()
                .text("dataset", name)
                .int("n", s.n as u64)
                .num("nnz_per_n", s.avg_degree, 2)
                .int("max_degree", s.max_degree as u64)
                .num("max_degree_share", s.max_degree_fraction(), 4)
                .int("isolated", s.isolated as u64),
        );
        let printed = |claim, paper, value| {
            Claim::new("Table 2", claim, paper, [value])
                .note("the printed value, ± half its last digit")
        };
        let nnz = format!("{name}: nnz/n = {avg}");
        claims.push(printed(nnz, stated(*avg, *avg_decimals), s.avg_degree));
        claims.push(match max_degree {
            MaxDegree::Share(share, decimals) => {
                let claim = format!("{name}: Δ/n = {share}");
                printed(claim, stated(*share, *decimals), s.max_degree_fraction())
            }
            MaxDegree::AtMost(bound) => {
                let claim = format!("{name}: Δ ≤ {bound}");
                Claim::new(
                    "Table 2",
                    claim,
                    [1.0, *bound as f64],
                    [s.max_degree as f64],
                )
            }
        });
    }
    let title = format!("Table 2: dataset density properties (scale n = {n})");
    Experiment::new("E2", "table2_datasets", title, rows, claims)
}

/// Renders counts as a heat strip with log-scaled shades.
fn strip(counts: &[usize]) -> String {
    const SHADES: [char; 6] = ['.', ':', '-', '=', '#', '@'];
    let max = counts.iter().copied().max().unwrap_or(0).max(1) as f64;
    counts
        .iter()
        .map(|&c| {
            if c == 0 {
                ' '
            } else {
                let t = ((c as f64).ln() / max.ln().max(1e-9)).clamp(0.0, 1.0);
                SHADES[((t * (SHADES.len() - 1) as f64).round()) as usize]
            }
        })
        .collect()
}

/// E3 — **Figure 1**, "Non-zero structure of the first matrix B0": the
/// per-block nnz of B0's three tile families as heat strips (the paper's
/// colour plots), and how the nonzeros split between the arms and the
/// diagonal band.
pub fn fig1_structure(n: u32) -> Experiment {
    let b = (n / 24).max(64);
    let mut rows = Vec::new();
    let mut arm_over_band = Vec::new();
    let kinds = {
        use DatasetKind::*;
        [GenBank, Mawi, WebBase, OsmEurope, GapTwitter]
    };
    for kind in kinds {
        let a: CsrMatrix<f64> = bench_graph(kind, n).to_adjacency();
        let d = la_decompose(
            &a,
            &DecomposeConfig::with_width(b),
            &mut RandomForestLa::new(BENCH_SEED),
        )
        .expect("decomposition succeeds at bench scale");
        let p = StructureProfile::of_first_level(&d).expect("order >= 1");
        let arm: usize = p.row_arm.iter().sum::<usize>() + p.col_arm.iter().sum::<usize>();
        let band: usize = p.diagonal.iter().sum();
        let arm_pct = 100.0 * arm as f64 / (arm + band).max(1) as f64;
        rows.push(
            Row::new()
                .text("dataset", kind.name())
                .int("order", d.order() as u64)
                .text("row_arm", strip(&p.row_arm))
                .text("col_arm", strip(&p.col_arm))
                .text("diagonal", strip(&p.diagonal))
                .int("arm_nnz", arm as u64)
                .int("band_nnz", band as u64)
                .num("arm_pct", arm_pct, 1),
        );
        arm_over_band.push(arm as f64 / band.max(1) as f64);
    }
    let ratio = |k| arm_over_band[kinds.iter().position(|&kind| kind == k).expect("profiled")];
    let mawi = ratio(DatasetKind::Mawi);
    let claims = vec![
        Claim::new(
            "Fig. 1",
            "MAWI's B0 is arm-dominated (arm nnz ÷ band nnz)",
            [1.0, OPEN],
            [mawi],
        ),
        Claim::new(
            "Fig. 1",
            "GenBank's and OSM's B0 are band-dominated (arm nnz ÷ band nnz)",
            [0.0, 1.0],
            [ratio(DatasetKind::GenBank), ratio(DatasetKind::OsmEurope)],
        ),
        Claim::new(
            "Fig. 1",
            "WebBase and GAP-twitter are mixed: less arm-dominated than MAWI \
             (arm ÷ band, over MAWI's)",
            [0.0, 1.0],
            [
                ratio(DatasetKind::WebBase) / mawi,
                ratio(DatasetKind::GapTwitter) / mawi,
            ],
        ),
    ];
    let title = format!("Figure 1: nonzero structure of B0 (n = {n}, b = {b}, shades log-scaled)");
    Experiment::new("E3", "fig1_structure", title, rows, claims)
}

/// The weak-scaling series of Figs. 4 and 6: `n` and `p` grow together.
fn weak_series(n: u32) -> [(u32, u32); 3] {
    let base = n / 2;
    [(base, 8), (2 * base, 16), (4 * base, 32)]
}

/// E4 — **Figure 4**, "Weak scaling of the 1D/1.5D baseline for varying
/// replication factors c on the MAWI datasets".
pub fn fig4_weak_15d(n: u32) -> Experiment {
    let series = weak_series(n);
    let graphs: Vec<CsrMatrix<f64>> = series
        .iter()
        .map(|&(n, _)| bench_graph(DatasetKind::Mawi, n).to_adjacency())
        .collect();
    let mut rows = Vec::new();
    // (k, c, series index) → simulated ms per iteration.
    let mut times: Vec<((u32, u32, usize), f64)> = Vec::new();
    for k in [32u32, 64, 128] {
        for c in [1u32, 2, 4, 8] {
            for (i, (&(n, p), a)) in series.iter().zip(&graphs).enumerate() {
                if p % c != 0 {
                    continue;
                }
                let alg = A15dSpmm::new(a, p, c).expect("valid grid");
                let x = DenseMatrix::from_fn(n, k, |r, cc| ((r + cc) % 7) as f64);
                let run = Run::of(&alg, &x);
                rows.push(
                    Row::new()
                        .int("k", k as u64)
                        .int("c", c as u64)
                        .int("n", n as u64)
                        .int("p", p as u64)
                        .num("sim_ms_per_iter", run.sim_ms, 3)
                        .num("max_rank_bytes_per_iter", run.bytes, 0),
                );
                times.push(((k, c, i), run.sim_ms));
            }
        }
    }
    let t = |key: (u32, u32, usize)| times.iter().find(|(k, _)| *k == key).map(|&(_, t)| t);
    let doubling = times
        .iter()
        .filter_map(|&((k, c, i), time)| Some(time / t((k, 2 * c, i))?));
    let growth = times
        .iter()
        .filter(|((_, _, i), _)| *i == 0)
        .filter_map(|&((k, c, _), time)| Some(t((k, c, series.len() - 1))? / time));
    let claims = vec![
        Claim::new(
            "Fig. 4",
            "1.5D: a larger replication factor c is faster (t(c) ÷ t(2c))",
            [1.0, OPEN],
            doubling,
        )
        .note("every doubling of c at every (k, n, p)"),
        Claim::new(
            "Fig. 4",
            "1.5D slows ~3× from the smallest to the largest dataset \
             (t(4n, 32 ranks) ÷ t(n, 8 ranks), every k and c)",
            stated(3.0, 0),
            growth,
        )
        .note("'~3×' read as what rounds to 3"),
    ];
    let title = "Figure 4: 1D/1.5D weak scaling on MAWI-like series";
    Experiment::new("E4", "fig4_weak_15d", title, rows, claims)
}

/// E5 — **Figure 5**, "Strong scaling results for varying feature sizes",
/// the headline comparison: Arrow (`b` chosen so the decomposition fills
/// about `p` ranks), 1.5D with `c = ⌊√p⌋` and HP-1D (HYPE partition) on
/// every stand-in.
pub fn fig5_strong(n: u32) -> Experiment {
    let mut rows = Vec::new();
    // (dataset, k, p) → the three runs, Arrow first.
    let mut cases: Vec<((DatasetKind, u32, u32), [Run; 3])> = Vec::new();
    for kind in DatasetKind::ALL {
        let g = bench_graph(kind, n);
        let a: CsrMatrix<f64> = g.to_adjacency();
        for k in [32u32, 128] {
            let x = DenseMatrix::from_fn(n, k, |r, c| (((r * 3 + c) % 5) as f64) - 2.0);
            for p in [8u32, 16, 32] {
                let (_, arrow) = arrow_with_ranks(&a, p).expect("arrow setup");
                let runs = [
                    Run::of(&arrow, &x),
                    Run::of(&spmm_15d_for(&a, p).expect("1.5D setup"), &x),
                    Run::of(&hp1d_for(&g, &a, p).expect("HP-1D setup"), &x),
                ];
                for run in &runs {
                    let row = Row::new()
                        .text("dataset", kind.name())
                        .int("k", k as u64)
                        .int("p", p as u64)
                        .text("algorithm", run.name.clone())
                        .int("ranks", run.ranks as u64);
                    rows.push(
                        run.cells(row)
                            .num("vs_arrow", run.sim_ms / runs[0].sim_ms, 2),
                    );
                }
                cases.push(((kind, k, p), runs));
            }
        }
    }
    let speedup = |r: &[Run; 3]| r[1].sim_ms / r[0].sim_ms;
    let at = |key: (DatasetKind, u32, u32)| {
        let (_, runs) = cases.iter().find(|(k, _)| *k == key)?;
        Some(speedup(runs))
    };
    let with_k = cases
        .iter()
        .filter(|((_, k, _), _)| *k == 32)
        .filter_map(|((kind, _, p), r)| Some(at((*kind, 128, *p))? / speedup(r)));
    let with_p = cases
        .iter()
        .filter(|((_, _, p), _)| *p == 8)
        .filter_map(|((kind, k, _), r)| Some(at((*kind, *k, 32))? / speedup(r)));
    let mawi = cases
        .iter()
        .filter(|((kind, _, _), _)| *kind == DatasetKind::Mawi);
    let claims = vec![
        Claim::new(
            "§7.3",
            "Arrow is 1.7×–14× faster than 1.5D (t(1.5D) ÷ t(Arrow))",
            [1.7, 14.0],
            cases.iter().map(|(_, r)| speedup(r)),
        ),
        Claim::new(
            "§7.3",
            "HP-1D collapses on MAWI, up to 58× slower than Arrow (t(HP-1D) ÷ t(Arrow))",
            [1.0, 58.0],
            mawi.map(|(_, r)| r[2].sim_ms / r[0].sim_ms),
        )
        .note("read as a bound: slower, by at most 58×"),
        Claim::new(
            "Fig. 5",
            "Arrow's advantage over 1.5D grows with k (speedup at k = 128 ÷ at k = 32)",
            [1.0, OPEN],
            with_k,
        ),
        Claim::new(
            "Fig. 5",
            "Arrow's advantage over 1.5D grows with p (speedup at p = 32 ÷ at p = 8)",
            [1.0, OPEN],
            with_p,
        ),
        Claim::new(
            "§1",
            "Arrow moves 3–5× fewer bytes than 1.5D (busiest rank, 1.5D ÷ Arrow)",
            [3.0, 5.0],
            cases.iter().map(|(_, r)| r[1].bytes / r[0].bytes),
        ),
    ];
    let title = format!("Figure 5: strong scaling comparison (n = {n})");
    Experiment::new("E5", "fig5_strong", title, rows, claims)
}

/// E6 — **Figure 6**, "Weak scaling on the MAWI datasets": the arrow
/// width is held constant (constant load per rank) while the dataset and
/// the rank count grow together.
pub fn fig6_weak_arrow(n: u32) -> Experiment {
    /// Arrow, 1.5D and HP-1D planned on one input.
    type Three = [Box<dyn DistSpmm>; 3];
    let series = weak_series(n);
    let b = (series[0].0 / 8).max(64);
    let points: Vec<(u32, u32, Three)> = series
        .iter()
        .map(|&(n, p)| {
            let g = bench_graph(DatasetKind::Mawi, n);
            let a: CsrMatrix<f64> = g.to_adjacency();
            let algs: Three = [
                Box::new(arrow_for(&a, b).expect("arrow setup").1),
                Box::new(spmm_15d_for(&a, p).expect("1.5D setup")),
                Box::new(hp1d_for(&g, &a, p).expect("HP-1D setup")),
            ];
            (n, p, algs)
        })
        .collect();
    const NAMES: [&str; 3] = ["Arrow", "1.5D", "HP-1D"];
    let mut rows = Vec::new();
    // Per k and algorithm: time at the largest point ÷ at the smallest.
    let mut growth: Vec<[f64; 3]> = Vec::new();
    for k in [32u32, 64, 128] {
        let mut first = [0.0; 3];
        let mut last = [0.0; 3];
        for (i, (n, p, algs)) in points.iter().enumerate() {
            let x = DenseMatrix::from_fn(*n, k, |r, c| ((r + 2 * c) % 9) as f64 - 4.0);
            for (j, alg) in algs.iter().enumerate() {
                let run = Run::of(alg.as_ref(), &x);
                if i == 0 {
                    first[j] = run.sim_ms;
                }
                last[j] = run.sim_ms;
                let row = Row::new()
                    .int("k", k as u64)
                    .int("n", *n as u64)
                    .int("p_base", *p as u64)
                    .text("algorithm", NAMES[j])
                    .int("ranks", run.ranks as u64);
                rows.push(run.cells(row).num(
                    "growth_pct",
                    100.0 * (run.sim_ms / first[j] - 1.0),
                    1,
                ));
            }
        }
        growth.push([0, 1, 2].map(|j| last[j] / first[j]));
    }
    let n_growth = series[2].0 as f64 / series[0].0 as f64;
    let claims = vec![
        Claim::new(
            "Fig. 6",
            "Arrow's time per iteration grows only 2.4–6.2 % as n and p grow 4× \
             (t(largest) ÷ t(smallest))",
            [1.0, 1.062],
            growth.iter().map(|g| g[0]),
        )
        .note("read as a ceiling: flat weak scaling, no line above +6.2 %"),
        Claim::new(
            "Fig. 6",
            "1.5D slows ~3× over the series (t(largest) ÷ t(smallest))",
            stated(3.0, 0),
            growth.iter().map(|g| g[1]),
        )
        .note("'~3×' read as what rounds to 3"),
        Claim::new(
            "Fig. 6",
            "HP-1D grows near-linearly with n (its growth ÷ n's)",
            stated(1.0, 0),
            growth.iter().map(|g| g[2] / n_growth),
        )
        .note("'near-linearly' read as what rounds to 1"),
    ];
    let title = format!("Figure 6: weak scaling on MAWI-like series (b = {b})");
    Experiment::new("E6", "fig6_weak_arrow", title, rows, claims)
}

/// The widths of E7: scaled analogues of the paper's `b ∈ {0.5e6 … 5e6}`
/// on 50M–226M rows, at about 1/100, 1/30 and 1/10 of `n`.
pub(crate) fn table3_widths(n: u32) -> [u32; 3] {
    [n / 100, n / 30, n / 10].map(|b| b.max(16))
}

/// E7 — **§7.2 "Decomposition Results"** (as a table): order, the
/// second level's share of the rows, compaction, and nonzero blocks
/// against a direct 1.5D tiling at the same block size. What a
/// decomposition costs in wall-clock time is `wall`'s.
pub fn table3_decomposition(n: u32) -> Experiment {
    let widths = table3_widths(n);
    let mut rows = Vec::new();
    // (b, order, second-level row %, 1.5D ÷ arrow blocks)
    let mut shapes: Vec<(u32, usize, f64, f64)> = Vec::new();
    for kind in DatasetKind::ALL {
        let a: CsrMatrix<f64> = bench_graph(kind, n).to_adjacency();
        for b in widths {
            let s = decompose(&a, b, true);
            let direct = direct_tiling_nonzero_blocks(&a, b);
            let arrow = s.total_nonzero_tiles();
            let ratio = direct as f64 / arrow.max(1) as f64;
            let second = 100.0 * s.second_level_row_fraction;
            rows.push(
                Row::new()
                    .text("dataset", kind.name())
                    .int("b", b as u64)
                    .int("order", s.order as u64)
                    .num("second_level_rows_pct", second, 2)
                    .num("compaction", s.compaction_factor, 1)
                    .int("arrow_blocks", arrow as u64)
                    .int("blocks_15d", direct as u64)
                    .num("block_ratio", ratio, 1),
            );
            shapes.push((b, s.order, second, ratio));
        }
    }
    let at = |b: u32| shapes.iter().filter(move |s| s.0 == b).map(|s| s.3);
    let claims = vec![
        Claim::new(
            "§7.2",
            "the decomposition's order stays within 1–4",
            [1.0, 4.0],
            shapes.iter().map(|s| s.1 as f64),
        ),
        Claim::new(
            "§7.2",
            "the second matrix holds 0.1–13 % of the rows (percent, order ≥ 2)",
            [0.1, 13.0],
            shapes.iter().filter(|s| s.1 >= 2).map(|s| s.2),
        ),
        Claim::new(
            "§7.2",
            "15–20× fewer nonzero blocks than a 1.5D tiling at large b \
             (1.5D ÷ arrow blocks, b = n/10)",
            [15.0, 20.0],
            at(widths[2]),
        )
        .note("the paper's b is 0.5–5 M on 50–226 M rows"),
        Claim::new(
            "§7.2",
            "more than 100× fewer at small b (1.5D ÷ arrow blocks, b = n/100)",
            [100.0, OPEN],
            at(widths[0]),
        )
        .note("the paper's b is 0.5–5 M on 50–226 M rows"),
    ];
    let title = format!("§7.2 decomposition quality (n = {n})");
    Experiment::new("E7", "table3_decomposition", title, rows, claims)
}

/// E8 — ablation for **§5.6 / Corollary 2**, high-degree pruning in
/// power-law graphs: Theorem 1's survival bound against empirical Zipf
/// tails, then LA-Decompose with and without pruning on Zipf-degree
/// trees (at Corollary 2's width `b ≈ n^{1/α}`) and the skewed stand-ins.
pub fn ablation_pruning(n: u32) -> Experiment {
    let mut rng = ChaCha8Rng::seed_from_u64(BENCH_SEED);
    let mut theorem1 = Vec::new();
    let mut tail_over_bound = Vec::new();
    for alpha in [1.5f64, 2.0, 2.5] {
        let z = TruncatedZipf::new(n as u64, alpha);
        let degrees: Vec<u32> = (0..n).map(|_| z.sample(&mut rng) as u32).collect();
        for x in [16u32, 64, 256] {
            let empirical = count_above(&degrees, x);
            let bound = n as f64 * survival_bound(x as f64, alpha);
            theorem1.push(
                Row::new()
                    .num("alpha", alpha, 1)
                    .int("threshold", x as u64)
                    .int("empirical", empirical as u64)
                    .num("bound", bound, 1),
            );
            tail_over_bound.push(empirical as f64 / bound);
        }
    }
    let mut inputs: Vec<(String, String, Graph, u32)> = Vec::new();
    for alpha in [1.5f64, 2.0] {
        let z = TruncatedZipf::new(n as u64, alpha);
        let mut degrees: Vec<u32> = (0..n).map(|_| z.sample(&mut rng) as u32).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let b = (recommended_width(n as u64, alpha) as u32).max(16);
        let g = tree_with_degree_targets(&degrees);
        inputs.push(("zipf-tree".into(), format!("{alpha}"), g, b));
    }
    for kind in [
        DatasetKind::Mawi,
        DatasetKind::GapTwitter,
        DatasetKind::Sk2005,
    ] {
        let g = bench_graph(kind, n / 2);
        inputs.push((kind.name().into(), "-".into(), g, (n / 40).max(64)));
    }
    let mut corollary2 = Vec::new();
    let mut deeper = Vec::new();
    let mut inflated = Vec::new();
    for (graph, alpha, g, b) in inputs {
        let a: CsrMatrix<f64> = g.to_adjacency();
        let with = decompose(&a, b, true);
        let without = decompose(&a, b, false);
        let pct = |s: &DecompositionStats| 100.0 * s.second_level_row_fraction;
        corollary2.push(
            Row::new()
                .text("graph", graph)
                .text("alpha", alpha)
                .int("b", b as u64)
                .int("order_prune", with.order as u64)
                .int("order_no_prune", without.order as u64)
                .num("second_rows_pct_prune", pct(&with), 2)
                .num("second_rows_pct_no_prune", pct(&without), 2),
        );
        deeper.push(without.order as f64 / with.order as f64);
        inflated.push(pct(&without) - pct(&with));
    }
    let claims = vec![
        Claim::new(
            "Thm. 1",
            "n·S(x) bounds the empirical Zipf degree tail (empirical ÷ bound)",
            [0.0, 1.0],
            tail_over_bound,
        ),
        Claim::new(
            "Cor. 2",
            "pruning never deepens the decomposition (order without ÷ with)",
            [1.0, OPEN],
            deeper,
        ),
        Claim::new(
            "Cor. 2",
            "without pruning the second level holds no fewer rows \
             (percentage points, without − with)",
            [0.0, OPEN],
            inflated,
        ),
    ];
    let sections = vec![
        Section::new(
            "theorem1",
            "Theorem 1: survival bound vs empirical Zipf tail",
            theorem1,
        ),
        Section::new(
            "corollary2",
            "Corollary 2 ablation: pruning on/off",
            corollary2,
        ),
    ];
    let (id, name) = ("E8", "ablation_pruning");
    Experiment {
        id,
        name,
        sections,
        claims,
    }
}

/// E9 — ablation for **§5.4 vs §5.2 vs §3**, tree layouts: the
/// smallest-first order (Lemma 3), Separator-LA with exact centroids
/// (Lemma 2), reverse Cuthill–McKee and a random order.
pub fn ablation_tree_layout(n: u32) -> Experiment {
    let n = (n / 2).max(2048);
    let mut rng = ChaCha8Rng::seed_from_u64(BENCH_SEED);
    let graphs: Vec<(&str, Graph)> = vec![
        ("random tree", random::random_tree(n, &mut rng)),
        ("binary tree", basic::complete_ary_tree(2, n)),
        ("preferential tree", random::preferential_tree(n, &mut rng)),
        ("path", basic::path(n)),
    ];
    let mut rows = Vec::new();
    let mut separator_over_sf = Vec::new();
    let mut sf_in_band = Vec::new();
    for (name, g) in &graphs {
        let delta = g.max_degree();
        let mut shuffled: Vec<u32> = (0..g.n()).collect();
        let layouts: Vec<(&str, Permutation)> = vec![
            ("smallest-first", tree_arrangement(g)),
            ("separator-la", separator_la(g, &CentroidSeparator)),
            ("rcm", reverse_cuthill_mckee(g)),
            ("random", {
                shuffled.shuffle(&mut rng);
                Permutation::from_order(shuffled).expect("a permutation")
            }),
        ];
        let costs: Vec<u64> = layouts
            .iter()
            .map(|(layout, pi)| {
                let q = ArrangementQuality::of(g, pi);
                let in_band = edges_within(g, pi, 2 * delta) as f64 / g.m().max(1) as f64;
                if *layout == "smallest-first" {
                    sf_in_band.push(in_band);
                }
                rows.push(
                    Row::new()
                        .text("graph", *name)
                        .text("layout", *layout)
                        .int("cost", q.cost)
                        .num("avg_edge_len", q.avg_length, 2)
                        .int("bandwidth", q.bandwidth as u64)
                        .num("in_band_share", in_band, 3),
                );
                q.cost
            })
            .collect();
        separator_over_sf.push(costs[1] as f64 / costs[0] as f64);
    }
    let claims = vec![
        Claim::new(
            "Lemmas 2–3",
            "smallest-first costs no more than Separator-LA on trees \
             (Separator-LA ÷ smallest-first cost)",
            [1.0, OPEN],
            separator_over_sf,
        ),
        Claim::new(
            "Lemma 3",
            "smallest-first keeps at least half the edges within 2Δ",
            [0.5, 1.0],
            sf_in_band,
        ),
    ];
    let title = format!("Tree layout ablation (n = {n})");
    Experiment::new("E9", "ablation_tree_layout", title, rows, claims)
}

/// E10 — ablation for **Lemma 1 / §4**, compaction versus arrow width:
/// LA-Decompose is `x`-compacting for `x = b·m / max_i λ(G'_i)`, so the
/// compaction factor grows with `b`.
pub fn ablation_compaction(n: u32) -> Experiment {
    let mut rows = Vec::new();
    let mut grows = Vec::new();
    let mut shrinks = Vec::new();
    for kind in [
        DatasetKind::GenBank,
        DatasetKind::OsmEurope,
        DatasetKind::WebBase,
    ] {
        let a: CsrMatrix<f64> = bench_graph(kind, n).to_adjacency();
        let mut prev: Option<DecompositionStats> = None;
        for shift in [7u32, 6, 5, 4, 3] {
            let b = (n >> shift).max(16);
            let s = decompose(&a, b, true);
            let level_nnz: Vec<String> = s.levels.iter().map(|l| l.nnz.to_string()).collect();
            rows.push(
                Row::new()
                    .text("dataset", kind.name())
                    .int("b", b as u64)
                    .int("order", s.order as u64)
                    .text("level_nnz", level_nnz.join(" > "))
                    .num("compaction", s.compaction_factor, 1)
                    .text("x_compacting_2", s.is_x_compacting(2.0).to_string()),
            );
            if let Some(p) = prev {
                grows.push(s.compaction_factor / p.compaction_factor);
                shrinks.push(p.order as f64 / s.order as f64);
            }
            prev = Some(s);
        }
    }
    let claims = vec![
        Claim::new(
            "Lemma 1",
            "the compaction factor grows with b (x(2b) ÷ x(b))",
            [1.0, OPEN],
            grows.into_iter().filter(|g| g.is_finite()),
        ),
        Claim::new(
            "Lemma 1",
            "the order shrinks accordingly (order(b) ÷ order(2b))",
            [1.0, OPEN],
            shrinks,
        ),
    ];
    let title = format!("Lemma 1 compaction vs arrow width (n = {n})");
    Experiment::new("E10", "ablation_compaction", title, rows, claims)
}

/// E11 — ablation for the **§3 "2D A-stationary"** discussion: 2D saves
/// `√p`× storage over 1.5D but pays `Θ(√p)` more latency and `Θ(log p)`
/// more bandwidth on tall-skinny operands; all three algorithms on one
/// workload.
pub fn ablation_2d_vs_15d(n: u32) -> Experiment {
    let n = n / 2;
    let a: CsrMatrix<f64> = bench_graph(DatasetKind::WebBase, n).to_adjacency();
    let mut rows = Vec::new();
    let mut cases: Vec<[Run; 3]> = Vec::new();
    for k in [32u32, 128] {
        let x = DenseMatrix::from_fn(n, k, |r, c| ((r + c) % 7) as f64 - 3.0);
        for p in [16u32, 64] {
            let q = (p as f64).sqrt() as u32;
            let runs = [
                Run::of(&A15dSpmm::new(&a, p, q).expect("1.5D"), &x),
                Run::of(&A2dSpmm::new(&a, p).expect("2D"), &x),
                Run::of(&arrow_with_ranks(&a, p).expect("arrow setup").1, &x),
            ];
            for run in &runs {
                let row = Row::new()
                    .int("k", k as u64)
                    .int("p", p as u64)
                    .text("algorithm", run.name.clone());
                rows.push(run.cells(row));
            }
            cases.push(runs);
        }
    }
    let claims = vec![
        Claim::new(
            "§3",
            "2D sends more messages per rank than 1.5D with c = √p (2D ÷ 1.5D)",
            [1.0, OPEN],
            cases.iter().map(|[d15, d2, _]| d2.msgs / d15.msgs),
        ),
        Claim::new(
            "§3",
            "2D is slower than 1.5D: Θ(√p) more latency (sim time, 2D ÷ 1.5D)",
            [1.0, OPEN],
            cases.iter().map(|[d15, d2, _]| d2.sim_ms / d15.sim_ms),
        ),
        Claim::new(
            "§3",
            "2D moves Θ(log p) more bytes per rank than 1.5D (busiest rank, 2D ÷ 1.5D)",
            [1.0, OPEN],
            cases.iter().map(|[d15, d2, _]| d2.bytes / d15.bytes),
        ),
        Claim::new(
            "§3",
            "Arrow moves fewer bytes than both (busiest rank, min(1.5D, 2D) ÷ Arrow)",
            [1.0, OPEN],
            cases
                .iter()
                .map(|[d15, d2, arrow]| d15.bytes.min(d2.bytes) / arrow.bytes),
        ),
    ];
    let title = format!("§3 ablation: 2D vs 1.5D vs arrow (WebBase-like, n = {n})");
    Experiment::new("E11", "ablation_2d_vs_15d", title, rows, claims)
}
