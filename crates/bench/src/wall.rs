//! Every wall-clock table: what a decomposition costs (E7's timing
//! half), the K1–K5 kernels, and refresh latency. Each cell is the best
//! of five runs; the file is stamped with the host that ran them
//! ([`wall_json`]), because these numbers mean nothing without it.
//!
//! * K1 — local SpMM at the serving widths: a scalar-loop floor, the
//!   serial kernel and the pool-parallel kernel.
//! * K2–K5 — LA-Decompose, random spanning forests, the smallest-first
//!   layout and rooting, and the binomial broadcast of the comm
//!   substrate, run as one-step lists in the one loop.

use crate::ledger::{Row, Section};
use crate::paper::table3_widths;
use crate::{bench_graph, BENCH_SEED};
use amd_comm::{run, Collective, CostModel, Schedule, Step};
use amd_graph::generators::datasets::DatasetKind;
use amd_graph::generators::random::random_tree;
use amd_graph::generators::rmat::{rmat, RmatParams};
use amd_graph::mst::random_spanning_forest;
use amd_linarr::tree_layout::{root_tree, smallest_first_order};
use amd_obs::{JsonWriter, Stopwatch};
use amd_sparse::{spmm, CsrMatrix, DenseMatrix};
use arrow_core::{la_decompose, la_decompose_timed, DecomposeConfig, RandomForestLa};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

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

/// K1 — into one kept output buffer, as a server multiplies: WebBase-like
/// at `k` ∈ {1, 8, 16, 64}, and R-MAT scale 14 at `k = 64`, the shape of
/// the benchmark's wide serving workload.
fn local_spmm() -> Section {
    let webbase: CsrMatrix<f64> = bench_graph(DatasetKind::WebBase, 10_000).to_adjacency();
    let mut rng = ChaCha8Rng::seed_from_u64(BENCH_SEED);
    let rmat14: CsrMatrix<f64> = rmat(14, 8, RmatParams::graph500(), &mut rng).to_adjacency();
    let cells = [1u32, 8, 16, 64]
        .map(|k| ("WebBase 10k", &webbase, k))
        .into_iter()
        .chain([("R-MAT 14", &rmat14, 64)]);
    let rows = cells
        .map(|(input, a, k)| {
            let x = DenseMatrix::from_fn(a.cols(), k, |r, c| ((r + c) % 13) as f64 / 3.0 - 2.0);
            let mut y = DenseMatrix::zeros(a.rows(), k);
            let floor = best_ms(|| scalar_floor(a, x.data(), k as usize, y.data_mut()));
            let floor_y = y.clone();
            let serial = best_ms(|| {
                let (x, y) = (x.data(), y.data_mut());
                spmm::spmm_slices(a, x, k, None, y, spmm::Finish::Overwrite).expect("shapes agree")
            });
            assert_eq!(y, floor_y, "the kernel and the floor agree bit for bit");
            let pool = best_ms(|| spmm::spmm_parallel(a, &x, &mut y).expect("shapes agree"));
            Row::new()
                .text("input", input)
                .int("n", a.rows() as u64)
                .int("nnz", a.nnz() as u64)
                .int("k", k as u64)
                .num("floor_ms", floor, 3)
                .num("serial_ms", serial, 3)
                .num("pool_ms", pool, 3)
                .num("floor_over_serial", floor / serial, 2)
        })
        .collect();
    Section::new("local_spmm", "K1 — local SpMM", rows)
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
    // 32 KiB from rank 0 down the binomial tree, as each rank's one-step list.
    let (words, cost) = (4096, CostModel::default());
    for p in [8u32, 32] {
        let bcast = Collective::broadcast(p as usize, words, None);
        let plan = bcast
            .plan(Schedule::Tree)
            .expect("every broadcast has a tree");
        let members: Arc<[u32]> = (0..p).collect();
        let list: [Step; 1] = [Step::run(plan, &members, 0, None, 1, 0, 0)];
        let lists = vec![list; p as usize];
        let root = Arc::new(vec![1.0f64; words]);
        let (ms, bufs) = best(|| {
            let mut bufs = vec![[Arc::default()]; p as usize];
            bufs[0] = [Arc::clone(&root)];
            run(&lists, 1, &cost, bufs, |_, _| {}).1
        });
        assert!(
            bufs.iter().all(|[b]| b == &root),
            "every rank holds the root's words"
        );
        rows.push(row("K5", "broadcast 32 KiB", &format!("p = {p}"), ms));
    }
    Section::new("kernels", "K2–K5 — construction and comm kernels", rows)
}
