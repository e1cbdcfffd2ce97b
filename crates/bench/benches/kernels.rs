//! K1–K8 — criterion microbenchmarks of the computational kernels.
//!
//! These cover the building blocks whose constants determine the end-to-
//! end numbers: local SpMM (a scalar-loop floor vs the serial and the
//! pool-parallel kernel), LA-Decompose construction, random spanning
//! forests, the smallest-first layout, and the binomial broadcast of the
//! comm substrate — plus the serving-path kernels: the fused
//! active-prefix level multiply vs the naive three-pass reference, `f32`
//! vs `f64` compiled serving, and a splice-depth sweep showing the
//! fusion's advantage grow as incremental refreshes stack shallow
//! levels. The local-SpMM and serving-kernel sweeps are written to
//! `BENCH_kernels.json` at the workspace root so future changes can diff
//! them machine-readably.

use amd_bench::{bench_graph, BENCH_SEED};
use amd_comm::{Group, Machine};
use amd_graph::generators::datasets::DatasetKind;
use amd_graph::mst::random_spanning_forest;
use amd_linarr::tree_layout::{root_tree, smallest_first_order};
use amd_sparse::{ops, spmm, CooMatrix, CsrMatrix, DeltaBuilder, DenseMatrix, Dtype};
use arrow_core::incremental::{decompose_snapshot_incremental, IncrementalPolicy};
use arrow_core::{
    decompose_snapshot, la_decompose, ArrowDecomposition, DecomposeConfig, RandomForestLa,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io::Write;

struct LocalCase {
    n: u32,
    nnz: usize,
    k: u32,
    floor_ms: f64,
    serial_ms: f64,
    pool_ms: f64,
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

/// K1 — local SpMM at the serving widths: the scalar floor, the serial
/// kernel and the pool-parallel kernel, all into one kept output buffer.
fn bench_local_spmm(c: &mut Criterion, cases: &mut Vec<LocalCase>) {
    let mut group = c.benchmark_group("local_spmm");
    let g = bench_graph(DatasetKind::WebBase, 10_000);
    let a: CsrMatrix<f64> = g.to_adjacency();
    for k in [1u32, 8, 16, 64] {
        let x = DenseMatrix::from_fn(a.cols(), k, |r, cc| ((r + cc) % 13) as f64 / 3.0 - 2.0);
        let mut y = DenseMatrix::zeros(a.rows(), k);
        group.throughput(Throughput::Elements((a.nnz() as u64) * k as u64));
        let mut best = [f64::INFINITY; 3];
        group.bench_with_input(BenchmarkId::new("floor", k), &k, |bch, _| {
            bch.iter(|| {
                let t = amd_obs::Stopwatch::start();
                scalar_floor(&a, x.data(), k as usize, y.data_mut());
                best[0] = best[0].min(t.elapsed_seconds());
            })
        });
        let floor = y.clone();
        group.bench_with_input(BenchmarkId::new("serial", k), &k, |bch, _| {
            bch.iter(|| {
                let t = amd_obs::Stopwatch::start();
                spmm::spmm_slices(
                    &a,
                    x.data(),
                    k,
                    None,
                    y.data_mut(),
                    spmm::Finish::Overwrite,
                    Dtype::F64,
                )
                .unwrap();
                best[1] = best[1].min(t.elapsed_seconds());
            })
        });
        assert_eq!(y, floor, "the kernel and the floor agree bit for bit");
        // The serving shape: one output buffer kept across multiplies.
        group.bench_with_input(BenchmarkId::new("pool", k), &k, |bch, _| {
            bch.iter(|| {
                let t = amd_obs::Stopwatch::start();
                spmm::spmm_parallel(&a, &x, &mut y, Dtype::F64).unwrap();
                best[2] = best[2].min(t.elapsed_seconds());
            })
        });
        cases.push(LocalCase {
            n: a.rows(),
            nnz: a.nnz(),
            k,
            floor_ms: best[0] * 1e3,
            serial_ms: best[1] * 1e3,
            pool_ms: best[2] * 1e3,
        });
    }
    group.finish();
}

fn bench_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("la_decompose");
    group.sample_size(10);
    for kind in [DatasetKind::GenBank, DatasetKind::Mawi] {
        let g = bench_graph(kind, 20_000);
        let a: CsrMatrix<f64> = g.to_adjacency();
        group.bench_function(kind.name(), |bch| {
            bch.iter(|| {
                la_decompose(
                    &a,
                    &DecomposeConfig::with_width(512),
                    &mut RandomForestLa::new(BENCH_SEED),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_spanning_forest(c: &mut Criterion) {
    let g = bench_graph(DatasetKind::WebBase, 20_000);
    c.bench_function("random_spanning_forest_20k", |bch| {
        bch.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(BENCH_SEED);
            random_spanning_forest(&g, &mut rng)
        })
    });
}

fn bench_tree_layout(c: &mut Criterion) {
    let g = bench_graph(DatasetKind::GenBank, 20_000);
    let mut rng = ChaCha8Rng::seed_from_u64(BENCH_SEED);
    let forest = random_spanning_forest(&g, &mut rng);
    c.bench_function("smallest_first_order_20k", |bch| {
        bch.iter(|| smallest_first_order(&forest))
    });
    let tree = amd_graph::generators::random::random_tree(20_000, &mut rng);
    c.bench_function("root_tree_20k", |bch| bch.iter(|| root_tree(&tree, 0)));
}

fn bench_broadcast(c: &mut Criterion) {
    let mut group = c.benchmark_group("comm_broadcast");
    group.sample_size(10);
    for p in [8u32, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |bch, &p| {
            bch.iter(|| {
                Machine::new(p).run(|ctx| {
                    let g = Group::world(ctx);
                    let data = if g.my_idx() == 0 {
                        Some(vec![1.0f64; 4096])
                    } else {
                        None
                    };
                    g.broadcast(ctx, 0, data).len()
                })
            })
        });
    }
    group.finish();
}

/// Ring plus short chords: banded, several levels.
fn banded(n: u32) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(n, n);
    for v in 0..n {
        coo.push_sym(v, (v + 1) % n, 1.0).unwrap();
        coo.push_sym(v, (v + 4) % n, 1.0).unwrap();
    }
    coo.to_csr()
}

/// Splices `rounds` localized deltas onto `d`, deepening the level stack
/// with small-active-prefix levels. Returns the spliced decomposition and
/// the merged matrix.
fn splice_rounds(
    base: &CsrMatrix<f64>,
    d: &ArrowDecomposition,
    cfg: &DecomposeConfig,
    rounds: u32,
) -> (ArrowDecomposition, CsrMatrix<f64>) {
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
    (dec, cur)
}

struct FusedCase {
    n: u32,
    k: u32,
    splice_rounds: u32,
    levels: u32,
    active_prefix: f64,
    naive_ms: f64,
    fused_ms: f64,
}

struct DtypeCase {
    n: u32,
    k: u32,
    f64_ms: f64,
    f32_ms: f64,
}

/// K6/K8 — fused active-prefix multiply vs the naive three-pass
/// reference, over RHS widths and splice depths. The spliced levels have
/// tiny active prefixes, so the naive path's full-`n` permute passes
/// dominate and the fused advantage grows with depth.
fn bench_fused_vs_naive(c: &mut Criterion, cases: &mut Vec<FusedCase>) {
    let mut group = c.benchmark_group("fused_vs_naive");
    group.sample_size(10);
    let n = 20_000u32;
    let base = banded(n);
    let cfg = DecomposeConfig::with_width(64);
    let cold = decompose_snapshot(&base, &cfg, BENCH_SEED).expect("decomposes");
    for rounds in [0u32, 4, 8] {
        let (d, _) = splice_rounds(&base, &cold, &cfg, rounds);
        for k in [8u32, 64] {
            let x = DenseMatrix::from_fn(n, k, |r, cc| (((r + cc) % 9) as f64) - 4.0);
            let label = format!("n={n}/splices={rounds}");
            let mut naive_secs = f64::INFINITY;
            group.bench_with_input(BenchmarkId::new(format!("naive/{label}"), k), &k, |b, _| {
                b.iter(|| {
                    let t = amd_obs::Stopwatch::start();
                    let y = d.multiply_unfused(&x).unwrap();
                    naive_secs = naive_secs.min(t.elapsed_seconds());
                    y
                })
            });
            let mut fused_secs = f64::INFINITY;
            group.bench_with_input(BenchmarkId::new(format!("fused/{label}"), k), &k, |b, _| {
                b.iter(|| {
                    let t = amd_obs::Stopwatch::start();
                    let y = d.multiply(&x).unwrap();
                    fused_secs = fused_secs.min(t.elapsed_seconds());
                    y
                })
            });
            cases.push(FusedCase {
                n,
                k,
                splice_rounds: rounds,
                levels: d.order() as u32,
                active_prefix: d.active_prefix_fraction(),
                naive_ms: naive_secs * 1e3,
                fused_ms: fused_secs * 1e3,
            });
        }
    }
    group.finish();
}

/// K7 — compiled `f32` vs `f64` serving multiply (same fused kernel,
/// half the bytes per value).
fn bench_dtype(c: &mut Criterion, cases: &mut Vec<DtypeCase>) {
    let mut group = c.benchmark_group("dtype");
    group.sample_size(10);
    let n = 20_000u32;
    let base = banded(n);
    let d = decompose_snapshot(&base, &DecomposeConfig::with_width(64), BENCH_SEED)
        .expect("decomposes");
    let c64 = d.compile::<f64>();
    let c32 = d.compile::<f32>();
    for k in [8u32, 64] {
        let x64 = DenseMatrix::from_fn(n, k, |r, cc| (((r + cc) % 9) as f64) - 4.0);
        let x32 = DenseMatrix::from_fn(n, k, |r, cc| (((r + cc) % 9) as f32) - 4.0);
        let mut f64_secs = f64::INFINITY;
        group.bench_with_input(BenchmarkId::new("f64", k), &k, |b, _| {
            b.iter(|| {
                let t = amd_obs::Stopwatch::start();
                let y = c64.multiply(&x64).unwrap();
                f64_secs = f64_secs.min(t.elapsed_seconds());
                y
            })
        });
        let mut f32_secs = f64::INFINITY;
        group.bench_with_input(BenchmarkId::new("f32", k), &k, |b, _| {
            b.iter(|| {
                let t = amd_obs::Stopwatch::start();
                let y = c32.multiply(&x32).unwrap();
                f32_secs = f32_secs.min(t.elapsed_seconds());
                y
            })
        });
        cases.push(DtypeCase {
            n,
            k,
            f64_ms: f64_secs * 1e3,
            f32_ms: f32_secs * 1e3,
        });
    }
    group.finish();
}

fn bench_serving_kernels(c: &mut Criterion) {
    let mut local = Vec::new();
    let mut fused = Vec::new();
    let mut dtype = Vec::new();
    bench_local_spmm(c, &mut local);
    bench_fused_vs_naive(c, &mut fused);
    bench_dtype(c, &mut dtype);
    write_json(&local, &fused, &dtype);
}

/// Machine-readable summary for the perf trajectory of future PRs.
/// Hand-formatted (no serde in the offline workspace).
fn write_json(local: &[LocalCase], fused: &[FusedCase], dtype: &[DtypeCase]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let mut body = String::new();
    body.push_str("{\n  \"bench\": \"kernels\",\n  \"local_spmm\": [\n");
    for (i, c) in local.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"n\": {}, \"nnz\": {}, \"k\": {}, \"floor_ms\": {:.3}, \
             \"serial_ms\": {:.3}, \"pool_ms\": {:.3}, \"floor_over_serial\": {:.2}}}{}\n",
            c.n,
            c.nnz,
            c.k,
            c.floor_ms,
            c.serial_ms,
            c.pool_ms,
            c.floor_ms / c.serial_ms,
            if i + 1 < local.len() { "," } else { "" }
        ));
    }
    body.push_str("  ],\n  \"fused_vs_naive\": [\n");
    for (i, c) in fused.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"n\": {}, \"k\": {}, \"splice_rounds\": {}, \"levels\": {}, \
             \"active_prefix\": {:.4}, \"naive_ms\": {:.3}, \"fused_ms\": {:.3}, \
             \"speedup\": {:.2}}}{}\n",
            c.n,
            c.k,
            c.splice_rounds,
            c.levels,
            c.active_prefix,
            c.naive_ms,
            c.fused_ms,
            c.naive_ms / c.fused_ms,
            if i + 1 < fused.len() { "," } else { "" }
        ));
    }
    body.push_str("  ],\n  \"dtype\": [\n");
    for (i, c) in dtype.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"n\": {}, \"k\": {}, \"f64_ms\": {:.3}, \"f32_ms\": {:.3}, \
             \"speedup\": {:.2}}}{}\n",
            c.n,
            c.k,
            c.f64_ms,
            c.f32_ms,
            c.f64_ms / c.f32_ms,
            if i + 1 < dtype.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    match std::fs::File::create(path).and_then(|mut f| f.write_all(body.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(
    kernels,
    bench_decomposition,
    bench_spanning_forest,
    bench_tree_layout,
    bench_broadcast,
    bench_serving_kernels
);
criterion_main!(kernels);
