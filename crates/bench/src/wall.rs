//! Every wall-clock table: what a decomposition costs (E7's timing
//! half), the K1–K8 kernels, and refresh latency. Each cell is the best
//! of five runs; the file is stamped with the host that ran them
//! ([`wall_json`]), because these numbers mean nothing without it.
//!
//! * K1 — local SpMM at the serving widths: a scalar-loop floor, the
//!   serial kernel and the pool-parallel kernel.
//! * K2–K5 — LA-Decompose, random spanning forests, the smallest-first
//!   layout and rooting, and the binomial broadcast of the comm
//!   substrate.
//! * K6 / K8 — the fused active-prefix level multiply against the naive
//!   three-pass reference, over operand widths and splice depths (the
//!   spliced levels have tiny active prefixes, so the naive path's
//!   full-`n` permutes dominate as refreshes stack).
//! * K7 — compiled `f32` against `f64` serving (the same fused kernel at
//!   half the bytes per value).

use crate::ledger::{Row, Section};
use crate::paper::table3_widths;
use crate::refresh::banded;
use crate::{bench_graph, BENCH_SEED};
use amd_comm::{Group, Machine};
use amd_graph::generators::datasets::DatasetKind;
use amd_graph::generators::random::random_tree;
use amd_graph::mst::random_spanning_forest;
use amd_linarr::tree_layout::{root_tree, smallest_first_order};
use amd_obs::{JsonWriter, Stopwatch};
use amd_sparse::{ops, spmm, CsrMatrix, DeltaBuilder, DenseMatrix, Dtype};
use arrow_core::incremental::{decompose_snapshot_incremental, IncrementalPolicy};
use arrow_core::{
    decompose_snapshot, la_decompose, la_decompose_timed, ArrowDecomposition, DecomposeConfig,
    RandomForestLa,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::path::Path;

/// Timed runs per cell; every cell reports the fastest.
pub(crate) const SAMPLES: usize = 5;

/// The fastest of [`SAMPLES`] runs of `f`, in milliseconds.
pub(crate) fn best_ms<T>(f: impl FnMut() -> T) -> f64 {
    best(f).0
}

/// The fastest of [`SAMPLES`] runs of `f`, in milliseconds, and what
/// that run returned.
fn best<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    (0..SAMPLES)
        .map(|_| {
            let t = Stopwatch::start();
            let out = black_box(f());
            (t.elapsed_seconds() * 1e3, out)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one sample")
}

/// All wall tables, decomposition costs first.
pub fn all(n: u32) -> Vec<Section> {
    vec![
        decomposition(n),
        local_spmm(),
        single_kernels(),
        fused_vs_naive(),
        dtype(),
        crate::refresh::latency(),
    ]
}

/// The wall file: every timed table under the stamp of the host that
/// timed it — cores, pool threads, the `rustc` on the path and the
/// revision checked out at `root`.
pub fn wall_json(root: &Path, sections: &[Section]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string());
    let mut w = JsonWriter::object();
    w.field_str("schema", "amd-wall/1");
    w.field_u64("host_cores", cores as u64);
    w.field_u64("pool_threads", amd_exec::global().threads() as u64);
    w.field_str("rustc", rustc.as_deref().unwrap_or("unknown"));
    w.field_str("git_revision", &git_revision(root));
    w.field_u64("samples_per_cell", SAMPLES as u64);
    w.begin_object("tables");
    for s in sections {
        s.write(&mut w);
    }
    w.end_object();
    w.finish()
}

/// The checked-out revision, read from `.git` without running git
/// (`"unknown"` where the ref is packed or there is no repository).
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map_or_else(|_| "unknown".into(), |hash| hash.trim().to_string()),
        None if !head.is_empty() => head.trim().to_string(),
        None => "unknown".into(),
    }
}

/// E7's timing half: one `la_decompose` call per E7 row (best of
/// [`SAMPLES`]), per stored nonzero — the constant behind the paper's
/// near-linear-time claim for the random-forest heuristic (§5.3) — and
/// where the best call spent it (`DecomposeTimings`' five phases, which
/// add up to the call but for the clock reads between them).
fn decomposition(n: u32) -> Section {
    let mut rows = Vec::new();
    for kind in DatasetKind::ALL {
        let a: CsrMatrix<f64> = bench_graph(kind, n).to_adjacency();
        for b in table3_widths(n) {
            let cfg = DecomposeConfig::with_width(b);
            let (ms, (_, p)) = best(|| {
                la_decompose_timed(&a, &cfg, &mut RandomForestLa::new(BENCH_SEED))
                    .expect("decomposition succeeds")
            });
            rows.push(
                Row::new()
                    .text("dataset", kind.name())
                    .int("b", b as u64)
                    .num("decompose_ms", ms, 2)
                    .num("ns_per_nnz", ms * 1e6 / a.nnz().max(1) as f64, 0)
                    .num("edges_ms", p.edges * 1e3, 2)
                    .num("select_ms", p.select * 1e3, 2)
                    .num("forest_ms", p.forest * 1e3, 2)
                    .num("layout_ms", p.layout * 1e3, 2)
                    .num("place_ms", p.place * 1e3, 2),
            );
        }
    }
    Section::new(
        "table3_decomposition",
        format!("§7.2 decomposition cost (n = {n})"),
        rows,
    )
}

/// The plain CSR × row-major loop anyone would write first — one
/// load–add–store of the output row per stored entry. The floor the
/// library's kernel has to beat.
fn scalar_floor(a: &CsrMatrix<f64>, x: &[f64], k: usize, y: &mut [f64]) {
    y.fill(0.0);
    for r in 0..a.rows() {
        let out = &mut y[r as usize * k..(r as usize + 1) * k];
        for (&c, &v) in a.row_indices(r).iter().zip(a.row_values(r)) {
            let xr = &x[c as usize * k..(c as usize + 1) * k];
            for (o, &xv) in out.iter_mut().zip(xr) {
                *o += v * xv;
            }
        }
    }
}

/// K1 — into one kept output buffer, as a server multiplies.
fn local_spmm() -> Section {
    let a: CsrMatrix<f64> = bench_graph(DatasetKind::WebBase, 10_000).to_adjacency();
    let rows = [1u32, 8, 16, 64]
        .into_iter()
        .map(|k| {
            let x = DenseMatrix::from_fn(a.cols(), k, |r, c| ((r + c) % 13) as f64 / 3.0 - 2.0);
            let mut y = DenseMatrix::zeros(a.rows(), k);
            let floor = best_ms(|| scalar_floor(&a, x.data(), k as usize, y.data_mut()));
            let floor_y = y.clone();
            let serial = best_ms(|| {
                let (x, y) = (x.data(), y.data_mut());
                spmm::spmm_slices(&a, x, k, None, y, spmm::Finish::Overwrite, Dtype::F64)
                    .expect("shapes agree")
            });
            assert_eq!(y, floor_y, "the kernel and the floor agree bit for bit");
            let pool =
                best_ms(|| spmm::spmm_parallel(&a, &x, &mut y, Dtype::F64).expect("shapes agree"));
            Row::new()
                .int("n", a.rows() as u64)
                .int("nnz", a.nnz() as u64)
                .int("k", k as u64)
                .num("floor_ms", floor, 3)
                .num("serial_ms", serial, 3)
                .num("pool_ms", pool, 3)
                .num("floor_over_serial", floor / serial, 2)
        })
        .collect();
    Section::new("local_spmm", "K1 — local SpMM (WebBase-like)", rows)
}

/// K2–K5, one timing each.
fn single_kernels() -> Section {
    let row = |id: &str, kernel: &str, input: &str, ms: f64| {
        Row::new()
            .text("id", id)
            .text("kernel", kernel)
            .text("input", input)
            .num("best_ms", ms, 3)
    };
    let mut rows = Vec::new();
    for kind in [DatasetKind::GenBank, DatasetKind::Mawi] {
        let a: CsrMatrix<f64> = bench_graph(kind, 20_000).to_adjacency();
        let ms = best_ms(|| {
            let cfg = DecomposeConfig::with_width(512);
            la_decompose(&a, &cfg, &mut RandomForestLa::new(BENCH_SEED))
        });
        rows.push(row(
            "K2",
            "la_decompose b=512",
            &format!("{} 20k", kind.name()),
            ms,
        ));
    }
    let web = bench_graph(DatasetKind::WebBase, 20_000);
    let ms = best_ms(|| random_spanning_forest(&web, &mut ChaCha8Rng::seed_from_u64(BENCH_SEED)));
    rows.push(row("K3", "random_spanning_forest", "WebBase 20k", ms));
    let mut rng = ChaCha8Rng::seed_from_u64(BENCH_SEED);
    let forest = random_spanning_forest(&bench_graph(DatasetKind::GenBank, 20_000), &mut rng);
    let ms = best_ms(|| smallest_first_order(&forest));
    rows.push(row("K4", "smallest_first_order", "GenBank forest 20k", ms));
    let tree = random_tree(20_000, &mut rng);
    rows.push(row(
        "K4",
        "root_tree",
        "random tree 20k",
        best_ms(|| root_tree(&tree, 0)),
    ));
    for p in [8u32, 32] {
        let ms = best_ms(|| {
            Machine::new(p).run(|ctx| {
                let g = Group::world(ctx);
                let data = (g.my_idx() == 0).then(|| vec![1.0f64; 4096]);
                g.broadcast(ctx, 0, data).len()
            })
        });
        rows.push(row("K5", "broadcast 32 KiB", &format!("p = {p}"), ms));
    }
    Section::new("kernels", "K2–K5 — construction and comm kernels", rows)
}

/// Splices `rounds` localized deltas onto `d`, deepening the level stack
/// with small-active-prefix levels.
fn splice_rounds(
    base: &CsrMatrix<f64>,
    d: &ArrowDecomposition,
    cfg: &DecomposeConfig,
    rounds: u32,
) -> ArrowDecomposition {
    let n = base.rows();
    let policy = IncrementalPolicy {
        max_affected_fraction: 1.0,
        max_order: 256,
        ..Default::default()
    };
    let mut cur = base.clone();
    let mut dec = d.clone();
    for round in 0..rounds {
        let start = 1000 + round * 50;
        let mut delta = DeltaBuilder::<f64>::new(n, n);
        for i in 0..12u32 {
            let u = (start + 3 * i) % n;
            delta.add_sym(u, (u + 2) % n, 1.0).unwrap();
        }
        let merged = ops::apply_delta(&cur, &delta.to_csr()).expect("delta applies");
        let (next, outcome) = decompose_snapshot_incremental(
            &merged,
            cfg,
            BENCH_SEED,
            Some(&dec),
            Some(&delta.touched_vertices()),
            &policy,
        )
        .expect("refresh decomposes");
        assert!(
            outcome.incremental,
            "splice fell back: {:?}",
            outcome.fallback
        );
        cur = merged;
        dec = next;
    }
    dec
}

/// K6 / K8 — fused against naive, over RHS widths and splice depths.
fn fused_vs_naive() -> Section {
    let n = 20_000u32;
    let base = banded(n);
    let cfg = DecomposeConfig::with_width(64);
    let cold = decompose_snapshot(&base, &cfg, BENCH_SEED).expect("decomposes");
    let mut rows = Vec::new();
    for rounds in [0u32, 4, 8] {
        let d = splice_rounds(&base, &cold, &cfg, rounds);
        for k in [8u32, 64] {
            let x = DenseMatrix::from_fn(n, k, |r, c| (((r + c) % 9) as f64) - 4.0);
            let naive = best_ms(|| d.multiply_unfused(&x).expect("shapes agree"));
            let fused = best_ms(|| d.multiply(&x).expect("shapes agree"));
            rows.push(
                Row::new()
                    .int("n", n as u64)
                    .int("k", k as u64)
                    .int("splice_rounds", rounds as u64)
                    .int("levels", d.order() as u64)
                    .num("active_prefix", d.active_prefix_fraction(), 4)
                    .num("naive_ms", naive, 3)
                    .num("fused_ms", fused, 3)
                    .num("speedup", naive / fused, 2),
            );
        }
    }
    Section::new(
        "fused_vs_naive",
        "K6/K8 — fused vs naive level multiply",
        rows,
    )
}

/// K7 — compiled `f32` against `f64`.
fn dtype() -> Section {
    let n = 20_000u32;
    let d = decompose_snapshot(&banded(n), &DecomposeConfig::with_width(64), BENCH_SEED)
        .expect("decomposes");
    let (c64, c32) = (d.compile::<f64>(), d.compile::<f32>());
    let rows = [8u32, 64]
        .into_iter()
        .map(|k| {
            let x64 = DenseMatrix::from_fn(n, k, |r, c| (((r + c) % 9) as f64) - 4.0);
            let x32 = DenseMatrix::from_fn(n, k, |r, c| (((r + c) % 9) as f32) - 4.0);
            let f64_ms = best_ms(|| c64.multiply(&x64).expect("shapes agree"));
            let f32_ms = best_ms(|| c32.multiply(&x32).expect("shapes agree"));
            Row::new()
                .int("n", n as u64)
                .int("k", k as u64)
                .num("f64_ms", f64_ms, 3)
                .num("f32_ms", f32_ms, 3)
                .num("speedup", f64_ms / f32_ms, 2)
        })
        .collect();
    Section::new("dtype", "K7 — compiled f32 vs f64 serving multiply", rows)
}
