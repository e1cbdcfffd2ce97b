//! `arrow-matrix-cli` — command-line front end for the library.
//!
//! ```text
//! arrow-matrix-cli generate <dataset> <n> <out.mtx> [seed]
//! arrow-matrix-cli info <matrix.mtx>
//! arrow-matrix-cli decompose <matrix.mtx> <b> <out.amd> [seed] [--metrics-json PATH]
//! arrow-matrix-cli multiply <matrix.mtx> <decomp.amd> [k] [iters] [--dtype f32|f64]
//!                           [--metrics-json PATH]
//! arrow-matrix-cli serve <matrix.mtx> <b> [queries] [batch] [iters] [--catalog DIR]
//!                        [--dtype f32|f64] [--ranks P]
//!                        [--metrics-json PATH] [--timeseries PATH] [--trace-json PATH]
//! arrow-matrix-cli stream <matrix.mtx> <b> [updates] [queries] [budget-frac] [seed]
//!                         [--tenants N] [--async-refresh] [--catalog DIR]
//!                         [--dtype f32|f64] [--ranks P]
//!                         [--metrics-json PATH] [--timeseries PATH] [--trace-json PATH]
//! arrow-matrix-cli stats <metrics.json>
//! arrow-matrix-cli top <timeseries.jsonl>
//! arrow-matrix-cli catalog ls <dir>
//! arrow-matrix-cli catalog gc <dir> <retain-last-k>
//! arrow-matrix-cli catalog restore <dir> <fingerprint-hex> <version> <out.amd>
//! arrow-matrix-cli chaos [all|<scenario>] [--seed N] [--out PATH]
//! arrow-matrix-cli chaos record <scenario> <out.trace> [--seed N]
//! arrow-matrix-cli chaos replay <in.trace> [--seed N]
//! ```
//!
//! Mirrors the paper's artifact workflow: generate (or download) a
//! SuiteSparse-format matrix, decompose it once, persist the
//! decomposition, and run distributed multiplies against it. `serve`
//! goes one step further: it stands up the `amd-engine` serving engine —
//! decomposition cache, cost-model planner, request batcher — drives a
//! synthetic query stream through it, and reports batched vs unbatched
//! throughput. `stream` exercises the `amd-stream` subsystem: it
//! interleaves a synthetic mutation stream (edge inserts, removals, and
//! re-weightings) with multiply queries, serving every answer from the
//! warm binding plus a delta correction, and lets the staleness
//! budget trigger compacting refreshes — each answer is verified against
//! a serial reference of the mutated matrix. With `--tenants N` the
//! stream drives `N` mutating tenants through one `StreamHub`, and
//! `--async-refresh` moves the refresh build onto the hub's background
//! worker (double-buffered: the old binding plus delta overlay keeps
//! serving while the next base is merged, fingerprinted and — at
//! `--ranks` above 1 — decomposed off-thread); without it the same build
//! and the same commit run inside the update that trips the budget.
//!
//! Persistence goes through the versioned **catalog** (`arrow_core::
//! catalog`): `serve`/`stream` take `--catalog DIR` to write every
//! decomposition through to disk — a restarted server reloads instead
//! of re-decomposing — and the `catalog` subcommand inspects (`ls`),
//! prunes (`gc`), and point-in-time-restores (`restore`) the chains.
//! Decompositions exist at `--ranks` above 1 only, so at the default
//! the directory stays empty.
//!
//! Telemetry: `serve`/`stream` take `--metrics-json PATH` to dump the
//! engine's metrics registry (counters, gauges, and latency
//! histograms) as JSON — rewritten periodically while the run is in
//! flight and once more on exit — and `stats` pretty-prints such a
//! snapshot back. `decompose`/`multiply` accept the same flag for
//! their one-shot runs. Two more observability surfaces:
//!
//! * `--timeseries PATH` appends one `amd-metrics-ts/1` JSONL line per
//!   checkpoint (windowed QPS, refresh rates, windowed multiply
//!   latency quantiles); `top <timeseries.jsonl>` renders the latest
//!   window as a terminal dashboard.
//! * `--trace-json PATH` exports the tracer ring as a Chrome Trace
//!   Event Format file, loadable in Perfetto / `chrome://tracing`
//!   (spans nest under their parents; tenants get their own lanes).
//!
//! Deployment: `serve` and `stream` take `--ranks P` (default `1`). One
//! rank means the matrix lives in this process: every query is answered
//! by plain CSR × dense on the shared execution pool (the `Local`
//! binding — no simulated machine, zero communication), and since that
//! binding reads no decomposition none is computed, at registration or
//! at a refresh: both summaries print `decompositions = 0`, `serve`
//! also `disk loads = 0, spills = 0`, and `stream` a `splice :` line of
//! zeros. `P > 1` says the matrix is spread over `P` ranks: the planner
//! ranks the four distributed algorithms for that budget and the winner
//! runs on the simulated α-β machine — the reproduction side of the
//! repository, and the only deployment that moves bytes.
//!
//! Serving precision: `multiply`, `serve`, and `stream` take `--dtype
//! f32|f64` (default `f64`). `f32` halves the communication volume by
//! narrowing matrix values and operand entries to single precision
//! (products accumulate in `f64`); answers stay exact on integer-valued
//! data and within the documented error bound
//! (`arrow_core::f32_multiply_error_bound`) otherwise. A metrics snapshot
//! records the serving dtype (`engine.dtype_bytes`) and, above one rank,
//! the decomposition's active-prefix fraction
//! (`engine.active_prefix_permille`); `stats` prints both.

use arrow_matrix::core::catalog::RetainPolicy;
use arrow_matrix::core::stats::DecompositionStats;
use arrow_matrix::core::{la_decompose, Catalog, CatalogMeta, DecomposeConfig, RandomForestLa};
use arrow_matrix::engine::{Engine, EngineConfig, MultiplyQuery};
use arrow_matrix::graph::degree::DegreeStats;
use arrow_matrix::graph::generators::datasets::DatasetKind;
use arrow_matrix::graph::Graph;
use arrow_matrix::obs::{
    chrome_trace_json, parse_json, parse_ts_line, JsonValue, Stopwatch, Telemetry,
    TimeSeriesRecorder, TsPoint,
};
use arrow_matrix::sparse::io::{read_matrix_market, write_matrix_market};
use arrow_matrix::sparse::{bandwidth, CooMatrix, CsrMatrix, DenseMatrix, Dtype};
use arrow_matrix::spmm::{ArrowSpmm, DistSpmm};
use arrow_matrix::stream::{HubConfig, StalenessBudget, StreamHub, TenantId, Update};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Global flag, accepted by every subcommand: strip `--threads N`
    // and size the shared execution pool before anything touches it.
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let parsed = args
            .get(i + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0);
        let Some(n) = parsed else {
            eprintln!("error: --threads needs a positive integer");
            return ExitCode::from(2);
        };
        arrow_matrix::exec::configure_global_threads(n);
        args.drain(i..=i + 1);
    }
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("decompose") => cmd_decompose(&args[1..]),
        Some("multiply") => cmd_multiply(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("stream") => cmd_stream(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("catalog") => cmd_catalog(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        _ => {
            eprintln!(
                "usage:\n  arrow-matrix-cli generate <dataset> <n> <out.mtx> [seed]\n  \
                 arrow-matrix-cli info <matrix.mtx>\n  \
                 arrow-matrix-cli decompose <matrix.mtx> <b> <out.amd> [seed] [--metrics-json PATH]\n  \
                 arrow-matrix-cli multiply <matrix.mtx> <decomp.amd> [k] [iters] [--dtype f32|f64]\n  \
                 \u{20}                         [--metrics-json PATH]\n  \
                 arrow-matrix-cli serve <matrix.mtx> <b> [queries] [batch] [iters] [--catalog DIR]\n  \
                 \u{20}                      [--dtype f32|f64] [--ranks P]\n  \
                 \u{20}                      [--metrics-json PATH] [--timeseries PATH] [--trace-json PATH]\n  \
                 arrow-matrix-cli stream <matrix.mtx> <b> [updates] [queries] [budget-frac] [seed]\n  \
                 \u{20}                       [--tenants N] [--async-refresh] [--catalog DIR]\n  \
                 \u{20}                       [--dtype f32|f64] [--ranks P]\n  \
                 \u{20}                       [--metrics-json PATH] [--timeseries PATH] [--trace-json PATH]\n  \
                 arrow-matrix-cli stats <metrics.json>\n  \
                 arrow-matrix-cli top <timeseries.jsonl>\n  \
                 arrow-matrix-cli catalog ls <dir>\n  \
                 arrow-matrix-cli catalog gc <dir> <retain-last-k>\n  \
                 arrow-matrix-cli catalog restore <dir> <fingerprint-hex> <version> <out.amd>\n  \
                 arrow-matrix-cli chaos [all|<scenario>] [--seed N] [--out PATH]\n  \
                 arrow-matrix-cli chaos record <scenario> <out.trace> [--seed N]\n  \
                 arrow-matrix-cli chaos replay <in.trace> [--seed N]\n\
                 global: [--threads N] sizes the shared execution pool (default: all cores)\n\
                 serve/stream: [--ranks P] ranks the matrix is spread over (default 1: served\n\
                 \u{20}             in shared memory on this host; P > 1 plans and runs the distributed\n\
                 \u{20}             algorithms on a simulated P-rank machine)\n\
                 datasets: mawi genbank webbase osm gap-twitter sk-2005"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn kind_by_name(name: &str) -> Result<DatasetKind, String> {
    match name.to_lowercase().as_str() {
        "mawi" => Ok(DatasetKind::Mawi),
        "genbank" => Ok(DatasetKind::GenBank),
        "webbase" => Ok(DatasetKind::WebBase),
        "osm" | "osm-europe" => Ok(DatasetKind::OsmEurope),
        "gap-twitter" | "twitter" => Ok(DatasetKind::GapTwitter),
        "sk-2005" | "sk2005" => Ok(DatasetKind::Sk2005),
        other => Err(format!("unknown dataset '{other}'")),
    }
}

fn load_matrix(path: &str) -> Result<CsrMatrix<f64>, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let coo = read_matrix_market(BufReader::new(file)).map_err(|e| e.to_string())?;
    Ok(coo.to_csr())
}

/// Dumps the registry behind `telemetry` as metrics JSON. Called at
/// periodic checkpoints while `serve`/`stream` run and once more on
/// exit, so the file always holds a consistent (if slightly stale)
/// snapshot.
fn write_metrics_json(path: &str, telemetry: &Telemetry) -> Result<(), String> {
    std::fs::write(path, telemetry.registry.snapshot().to_json())
        .map_err(|e| format!("write {path}: {e}"))
}

/// Exports the tracer ring as a Chrome Trace Event Format file
/// (Perfetto / `chrome://tracing`). Written once, at exit, so the file
/// holds the final ring contents.
fn write_trace_json(path: &str, telemetry: &Telemetry) -> Result<(), String> {
    std::fs::write(path, chrome_trace_json(&telemetry.tracer.snapshot()))
        .map_err(|e| format!("write {path}: {e}"))
}

/// The `--timeseries PATH` sink: appends one `amd-metrics-ts/1` line
/// per checkpoint to a JSONL log created fresh at startup. `top` and
/// the smoke tests read it back with `parse_ts_line`.
struct TsLog {
    recorder: TimeSeriesRecorder,
    file: File,
}

impl TsLog {
    fn create(path: &str, telemetry: &Telemetry) -> Result<Self, String> {
        let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        Ok(Self {
            recorder: TimeSeriesRecorder::new(&telemetry.registry),
            file,
        })
    }

    fn sample(&mut self) -> Result<(), String> {
        use std::io::Write as _;
        let line = self.recorder.sample();
        writeln!(self.file, "{line}").map_err(|e| format!("append timeseries: {e}"))
    }
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("stats needs <metrics.json>".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let Some(members) = doc.members() else {
        return Err(format!("{path}: metrics snapshot must be a JSON object"));
    };
    // Duration histograms record nanoseconds (the `.seconds` naming
    // convention); everything else prints raw.
    let ms = |nanos: u64| nanos as f64 / 1e6;
    for (name, value) in members {
        match value {
            JsonValue::Num(_) => {
                let v = value
                    .as_u64()
                    .map(|u| u.to_string())
                    .unwrap_or_else(|| format!("{}", value.as_f64().unwrap_or(f64::NAN)));
                println!("{name:<44} {v}");
            }
            JsonValue::Obj(_) => {
                let field = |k: &str| value.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
                if name.ends_with(".seconds") {
                    println!(
                        "{name:<44} count = {}, p50 = {:.3} ms, p90 = {:.3} ms, \
                         p99 = {:.3} ms, p999 = {:.3} ms, max = {:.3} ms",
                        field("count"),
                        ms(field("p50")),
                        ms(field("p90")),
                        ms(field("p99")),
                        ms(field("p999")),
                        ms(field("max")),
                    );
                } else {
                    println!(
                        "{name:<44} count = {}, p50 = {}, p90 = {}, p99 = {}, \
                         p999 = {}, max = {}",
                        field("count"),
                        field("p50"),
                        field("p90"),
                        field("p99"),
                        field("p999"),
                        field("max"),
                    );
                }
            }
            JsonValue::Str(s) => println!("{name:<44} {s}"),
            other => println!("{name:<44} {other:?}"),
        }
    }
    Ok(())
}

/// Renders the tail of a `--timeseries` JSONL log as a one-shot
/// terminal dashboard: the latest window's rates and multiply
/// latency, plus cumulative splice/cache efficiency and the busiest
/// tenants.
fn cmd_top(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("top needs <timeseries.jsonl>".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let points: Vec<TsPoint> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_ts_line)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{path}: {e}"))?;
    let Some(last) = points.last() else {
        return Err(format!("{path}: no time-series lines"));
    };
    println!(
        "arrow-matrix top — sample {} of {}, t = {:.1} s, window = {:.1} s",
        last.seq + 1,
        points.len(),
        last.t_seconds,
        last.window_seconds
    );
    println!(
        "rates   : {:>8.1} queries/s, {:>6.1} runs/s, {:>6.1} updates/s, {:>5.2} refreshes/s",
        last.qps, last.runs_per_s, last.updates_per_s, last.refreshes_per_s
    );
    println!(
        "multiply: {:>8} in window, p50 = {:.3} ms, p99 = {:.3} ms",
        last.multiply_window_count, last.multiply_p50_ms, last.multiply_p99_ms
    );
    let c = |name: &str| last.counter(name);
    let pct = |part: u64, whole: u64| {
        if whole == 0 {
            "n/a".to_string()
        } else {
            format!("{:.1}%", 100.0 * part as f64 / whole as f64)
        }
    };
    let incremental = c("hub.splice.incremental_refreshes");
    let fallback = c("hub.splice.fallback_refreshes");
    println!(
        "splice  : {} incremental / {} cold — incremental ratio {}",
        incremental,
        fallback,
        pct(incremental, incremental + fallback)
    );
    let hits = c("cache.hits");
    let misses = c("cache.misses");
    println!(
        "cache   : {} hit(s) / {} miss(es) — hit rate {}",
        hits,
        misses,
        pct(hits, hits + misses)
    );
    // Busiest tenants by cumulative queries + updates.
    let mut tenants: Vec<(u64, u64, u64)> = Vec::new(); // (id, queries, updates)
    for (name, value) in &last.counters {
        let Some(rest) = name.strip_prefix("hub.tenant.") else {
            continue;
        };
        let Some((id, leaf)) = rest.split_once('.') else {
            continue;
        };
        let Ok(id) = id.parse::<u64>() else { continue };
        let entry = match tenants.iter_mut().find(|t| t.0 == id) {
            Some(entry) => entry,
            None => {
                tenants.push((id, 0, 0));
                tenants.last_mut().expect("just pushed")
            }
        };
        match leaf {
            "queries" => entry.1 += *value,
            "updates" => entry.2 += *value,
            _ => {}
        }
    }
    tenants.sort_by_key(|&(id, q, u)| (std::cmp::Reverse(q + u), id));
    if !tenants.is_empty() {
        println!(
            "tenants : top {} of {}",
            tenants.len().min(5),
            tenants.len()
        );
        for &(id, queries, updates) in tenants.iter().take(5) {
            println!("  tenant {id:<4} {queries:>8} queries, {updates:>8} updates");
        }
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let [kind, n, out, rest @ ..] = args else {
        return Err("generate needs <dataset> <n> <out.mtx> [seed]".into());
    };
    let kind = kind_by_name(kind)?;
    let n: u32 = n.parse().map_err(|e| format!("bad n: {e}"))?;
    let seed: u64 = rest
        .first()
        .map_or(Ok(42), |s| s.parse())
        .map_err(|e| format!("bad seed: {e}"))?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = kind.generate(n, &mut rng);
    let a: CsrMatrix<f64> = g.to_adjacency();
    let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    write_matrix_market(&a, BufWriter::new(file)).map_err(|e| e.to_string())?;
    let s = DegreeStats::of(&g);
    println!(
        "wrote {out}: {} ({} vertices, {} edges, nnz/n = {:.2}, Δ = {})",
        kind.name(),
        s.n,
        s.m,
        s.avg_degree,
        s.max_degree
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("info needs <matrix.mtx>".into());
    };
    let a = load_matrix(path)?;
    println!("matrix : {} x {}, nnz = {}", a.rows(), a.cols(), a.nnz());
    if a.rows() == a.cols() {
        let g = Graph::from_matrix_structure(&a);
        let s = DegreeStats::of(&g);
        println!(
            "graph  : m = {}, avg degree = {:.2}, Δ = {} ({:.2}% of n), isolated = {}",
            s.m,
            s.avg_degree,
            s.max_degree,
            100.0 * s.max_degree_fraction(),
            s.isolated
        );
        println!(
            "bounds : natural-order bandwidth = {}, §3 bandwidth lower bound = {}",
            bandwidth(&a),
            arrow_matrix::graph::bounds::bandwidth_lower_bound(&g)
        );
    }
    Ok(())
}

fn cmd_decompose(args: &[String]) -> Result<(), String> {
    let (positional, metrics_json, dtype) = split_metrics_flag(args)?;
    if dtype.is_some() {
        return Err(
            "decompose does not take --dtype (serving precision is chosen at \
                    multiply/serve/stream time)"
                .into(),
        );
    }
    let [input, b, out, rest @ ..] = positional.as_slice() else {
        return Err(
            "decompose needs <matrix.mtx> <b> <out.amd> [seed] [--metrics-json PATH]".into(),
        );
    };
    let a = load_matrix(input)?;
    let b: u32 = b.parse().map_err(|e| format!("bad b: {e}"))?;
    let seed: u64 = rest
        .first()
        .map_or(Ok(42), |s| s.parse())
        .map_err(|e| format!("bad seed: {e}"))?;
    let config = DecomposeConfig::with_width(b);
    let t0 = Stopwatch::start();
    let d = la_decompose(&a, &config, &mut RandomForestLa::new(seed)).map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed_seconds();
    let err = d.validate(&a).map_err(|e| e.to_string())?;
    if err != 0.0 {
        return Err(format!("reconstruction error {err} — refusing to save"));
    }
    let stats = DecompositionStats::of(&d);
    // A one-shot file is a catalog payload outside a catalog: a chain
    // root with the identity `multiply` checks its matrix against.
    let meta = CatalogMeta {
        fingerprint: a.fingerprint(),
        version: 0,
        parent: 0,
        created_at: 0,
        seed,
        config,
    };
    Catalog::save_file(out, &d, &meta).map_err(|e| e.to_string())?;
    println!(
        "decomposed {input} in {:.1} ms: order = {}, b = {b}, \
         compaction factor = {:.2}, second-level nonzero rows = {:.2}% of n, \
         active prefix = {:.1}% of positions",
        elapsed * 1e3,
        stats.order,
        stats.compaction_factor,
        stats.second_level_row_fraction * 100.0,
        stats.active_prefix_fraction * 100.0,
    );
    for l in &stats.levels {
        println!(
            "  level {}: nnz = {}, nonzero rows = {}, active n = {} ({:.1}% of n), \
             arrow tiles = {}",
            l.level,
            l.nnz,
            l.nonzero_rows,
            l.active_n,
            l.active_fraction * 100.0,
            l.nonzero_tiles
        );
    }
    println!("saved {out} (validated: exact reconstruction)");
    if let Some(path) = &metrics_json {
        let telemetry = Telemetry::new();
        telemetry
            .registry
            .histogram("decompose.seconds")
            .record_seconds(elapsed);
        telemetry.registry.gauge("matrix.n").set(a.rows() as u64);
        telemetry.registry.gauge("matrix.nnz").set(a.nnz() as u64);
        telemetry
            .registry
            .gauge("decompose.levels")
            .set(stats.levels.len() as u64);
        write_metrics_json(path, &telemetry)?;
        println!("metrics : wrote {path}");
    }
    Ok(())
}

/// Parses trailing/interleaved `--metrics-json PATH` and
/// `--dtype f32|f64` flags out of a positional argument list (the
/// flags `decompose`/`multiply` accept — `decompose` rejects a dtype
/// itself, decompositions are precision-agnostic).
#[allow(clippy::type_complexity)]
fn split_metrics_flag(
    args: &[String],
) -> Result<(Vec<&String>, Option<String>, Option<Dtype>), String> {
    let mut positional = Vec::new();
    let mut metrics_json = None;
    let mut dtype = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--metrics-json" => {
                let v = it.next().ok_or("--metrics-json needs a path")?;
                metrics_json = Some(v.clone());
            }
            "--dtype" => {
                let v = it.next().ok_or("--dtype needs f32 or f64")?;
                dtype = Some(parse_dtype(v)?);
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}"));
            }
            _ => positional.push(arg),
        }
    }
    Ok((positional, metrics_json, dtype))
}

/// Parses a `--dtype` value.
fn parse_dtype(s: &str) -> Result<Dtype, String> {
    Dtype::parse(s).ok_or_else(|| format!("bad --dtype: {s} (expected f32 or f64)"))
}

/// Parses a `--ranks` value: the deployment's rank count, at least 1.
fn parse_ranks(s: &str) -> Result<u32, String> {
    match s.parse::<u32>() {
        Ok(p) if p >= 1 => Ok(p),
        _ => Err(format!("bad --ranks: {s} (expected an integer >= 1)")),
    }
}

fn cmd_multiply(args: &[String]) -> Result<(), String> {
    let (positional, metrics_json, dtype) = split_metrics_flag(args)?;
    let dtype = dtype.unwrap_or_default();
    let [input, damd, rest @ ..] = positional.as_slice() else {
        return Err("multiply needs <matrix.mtx> <decomp.amd> [k] [iters] \
                    [--dtype f32|f64] [--metrics-json PATH]"
            .into());
    };
    let a = load_matrix(input)?;
    let (d, meta) = Catalog::load_file(damd).map_err(|e| format!("{damd}: {e}"))?;
    if meta.fingerprint != a.fingerprint() {
        return Err(format!(
            "{damd}: decomposition is for matrix {:032x} (n = {}), {input} is {:032x} (n = {})",
            meta.fingerprint,
            d.n(),
            a.fingerprint(),
            a.rows()
        ));
    }
    let k: u32 = rest
        .first()
        .map_or(Ok(32), |s| s.parse())
        .map_err(|e| format!("bad k: {e}"))?;
    let iters: u32 = rest
        .get(1)
        .map_or(Ok(5), |s| s.parse())
        .map_err(|e| format!("bad iters: {e}"))?;
    let alg = ArrowSpmm::new(&d)
        .map_err(|e| e.to_string())?
        .with_dtype(dtype);
    let x = DenseMatrix::from_fn(a.rows(), k, |r, c| (((r * 31 + c * 7) % 17) as f64) / 17.0);
    println!(
        "running {} on {} ranks, k = {k}, {iters} iterations, dtype = {dtype}…",
        alg.name(),
        alg.ranks()
    );
    let sw = Stopwatch::start();
    let run = alg.run(&x, iters).map_err(|e| e.to_string())?;
    let wall = sw.elapsed_seconds();
    let reference =
        arrow_matrix::spmm::reference::iterated_spmm(&a, &x, iters).map_err(|e| e.to_string())?;
    let err = run.y.max_abs_diff(&reference).map_err(|e| e.to_string())?;
    println!(
        "verified: max |Δ| vs serial reference = {err:.2e}\n\
         per iteration: simulated time = {:.3} ms, max per-rank volume = {:.1} KiB, \
         wall = {:.1} ms total",
        run.sim_time_per_iter() * 1e3,
        run.volume_per_iter() / 1024.0,
        run.stats.wall_seconds * 1e3,
    );
    if let Some(path) = &metrics_json {
        let telemetry = Telemetry::new();
        telemetry
            .registry
            .histogram("multiply.seconds")
            .record_seconds(wall);
        write_metrics_json(path, &telemetry)?;
        println!("metrics : wrote {path}");
    }
    Ok(())
}

fn cmd_stream(args: &[String]) -> Result<(), String> {
    // Flags first (`--tenants N`, `--async-refresh`, `--catalog DIR`),
    // positionals after.
    let mut tenants_flag = 1usize;
    let mut async_refresh = false;
    let mut catalog_dir: Option<std::path::PathBuf> = None;
    let mut metrics_json: Option<String> = None;
    let mut timeseries: Option<String> = None;
    let mut trace_json: Option<String> = None;
    let mut dtype = Dtype::default();
    let mut target_ranks = EngineConfig::default().target_ranks;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tenants" => {
                let v = it.next().ok_or("--tenants needs a value")?;
                tenants_flag = v.parse().map_err(|e| format!("bad --tenants: {e}"))?;
                if tenants_flag == 0 {
                    return Err("bad --tenants: must be at least 1".into());
                }
            }
            "--async-refresh" => async_refresh = true,
            "--catalog" => {
                let v = it.next().ok_or("--catalog needs a directory")?;
                catalog_dir = Some(std::path::PathBuf::from(v));
            }
            "--dtype" => {
                let v = it.next().ok_or("--dtype needs f32 or f64")?;
                dtype = parse_dtype(v)?;
            }
            "--ranks" => {
                let v = it.next().ok_or("--ranks needs a rank count")?;
                target_ranks = parse_ranks(v)?;
            }
            "--metrics-json" => {
                let v = it.next().ok_or("--metrics-json needs a path")?;
                metrics_json = Some(v.clone());
            }
            "--timeseries" => {
                let v = it.next().ok_or("--timeseries needs a path")?;
                timeseries = Some(v.clone());
            }
            "--trace-json" => {
                let v = it.next().ok_or("--trace-json needs a path")?;
                trace_json = Some(v.clone());
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}"));
            }
            _ => positional.push(arg),
        }
    }
    let [input, b, rest @ ..] = positional.as_slice() else {
        return Err(
            "stream needs <matrix.mtx> <b> [updates] [queries] [budget-frac] [seed] \
             [--tenants N] [--async-refresh] [--dtype f32|f64] [--ranks P] [--catalog DIR] \
             [--metrics-json PATH] [--timeseries PATH] [--trace-json PATH]"
                .into(),
        );
    };
    let a = load_matrix(input)?;
    if a.rows() != a.cols() {
        return Err(format!(
            "stream needs a square matrix, got {}×{}",
            a.rows(),
            a.cols()
        ));
    }
    let b: u32 = b.parse().map_err(|e| format!("bad b: {e}"))?;
    let updates: usize = rest
        .first()
        .map_or(Ok(64), |s| s.parse())
        .map_err(|e| format!("bad updates: {e}"))?;
    let queries: usize = rest
        .get(1)
        .map_or(Ok(16), |s| s.parse())
        .map_err(|e| format!("bad queries: {e}"))?;
    let budget_frac: f64 = rest
        .get(2)
        .map_or(Ok(0.05), |s| s.parse())
        .map_err(|e| format!("bad budget-frac: {e}"))?;
    if budget_frac.is_nan() || budget_frac <= 0.0 {
        return Err(format!("bad budget-frac: {budget_frac} (must be > 0)"));
    }
    let seed: u64 = rest
        .get(3)
        .map_or(Ok(42), |s| s.parse())
        .map_err(|e| format!("bad seed: {e}"))?;

    let n = a.rows();
    let base_nnz = a.nnz();
    let t0 = Stopwatch::start();
    let mut hub = StreamHub::new(HubConfig {
        engine: EngineConfig {
            arrow_width: b,
            spill_dir: catalog_dir,
            dtype,
            target_ranks,
            ..EngineConfig::default()
        },
        budget: StalenessBudget::nnz_fraction(budget_frac),
        async_refresh,
        ..HubConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let mut ts_log = timeseries
        .as_deref()
        .map(|path| TsLog::create(path, hub.telemetry()))
        .transpose()?;
    let ids: Vec<TenantId> = (0..tenants_flag)
        .map(|_| hub.admit(a.clone()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut truth: Vec<CsrMatrix<f64>> = vec![a.clone(); tenants_flag];
    println!(
        "registered {input} × {tenants_flag} tenant(s) in {:.1} ms (n = {n}, nnz = {base_nnz}, \
         staleness budget = {:.1}% of base nnz, refresh = {})",
        t0.elapsed_seconds() * 1e3,
        budget_frac * 100.0,
        if async_refresh {
            "background"
        } else {
            "synchronous"
        }
    );
    println!(
        "planner : bound {}",
        hub.chosen_algorithm(ids[0]).map_err(|e| e.to_string())?
    );

    // The corrected path is bit-exact vs the rebuilt reference only when
    // every reduction is exact; the synthetic updates and operands are
    // integer-valued, so that holds iff the input matrix is too — at
    // either dtype (small-integer products round-trip f32). Float-
    // weighted matrices verify to rounding instead: f64 accumulation
    // noise, or the f32 product error when serving at half bandwidth.
    let exact = a.values().iter().all(|v| v.fract() == 0.0);

    // Deterministic synthetic mutation stream: rotate over inserts,
    // re-weightings, and removals, round-robin across tenants. Mutations
    // draw from a slowly sliding *window* of the vertex space — real
    // update streams are localized, and locality is what lets a refresh
    // re-decompose incrementally instead of falling back cold (watch the
    // `splice :` line). Only the subsystem calls (update / submit /
    // flush) are timed — truth mirroring and reference verification
    // stay outside the clock.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let window = (n / 50).clamp(8.min(n), n);
    let mut max_abs_err = 0.0f64;
    let mut max_abs_ref = 0.0f64;
    let mut verified = 0usize;
    let expected = queries * tenants_flag;
    let mut stream_secs = 0.0f64;
    for step in 0..updates.max(queries) {
        // Periodic checkpoints: a tailing `stats`/`top` sees the run
        // progress without waiting for the final snapshot.
        if step % 32 == 0 {
            if let Some(path) = &metrics_json {
                write_metrics_json(path, hub.telemetry())?;
            }
            if let Some(log) = &mut ts_log {
                log.sample()?;
            }
        }
        if step < updates {
            use rand::Rng;
            let tenant_idx = step % tenants_flag;
            let start = ((step as u64 / 64) * (window as u64 / 2) % n as u64) as u32;
            let u = (start + rng.gen_range(0..window)) % n;
            let v = (start + rng.gen_range(0..window)) % n;
            let update = match step % 3 {
                0 => Update::Add {
                    row: u,
                    col: v,
                    delta: 1.0 + (step % 4) as f64,
                },
                1 => Update::Set {
                    row: u,
                    col: v,
                    value: (step % 5) as f64,
                },
                _ => Update::Set {
                    row: u,
                    col: v,
                    value: 0.0,
                },
            };
            for part in update.sym_pair() {
                let (r, c) = part.position();
                // Mirror onto the tenant's truth matrix through a
                // one-entry delta.
                let old_value = truth[tenant_idx].get(r, c);
                let new_value = match part {
                    Update::Add { delta, .. } => old_value + delta,
                    Update::Set { value, .. } => value,
                };
                let mut patch = CooMatrix::new(n, n);
                patch
                    .push(r, c, new_value - old_value)
                    .map_err(|e| e.to_string())?;
                truth[tenant_idx] =
                    arrow_matrix::sparse::ops::apply_delta(&truth[tenant_idx], &patch.to_csr())
                        .map_err(|e| e.to_string())?;
                let t0 = Stopwatch::start();
                hub.update(ids[tenant_idx], part)
                    .map_err(|e| e.to_string())?;
                stream_secs += t0.elapsed_seconds();
                if r == c {
                    break; // diagonal: the pair addresses one entry
                }
            }
        }
        if step < queries {
            let x: Vec<f64> = (0..n)
                .map(|r| (((step as u32 + 3 * r) % 11) as f64) - 5.0)
                .collect();
            let t0 = Stopwatch::start();
            // One query per tenant per query step; the flush answers the
            // whole hub (same-tenant queries coalesce into shared runs)
            // in submission order, i.e. tenant j answers at index j.
            for &id in &ids {
                hub.submit(id, x.clone(), 2, None)
                    .map_err(|e| e.to_string())?;
            }
            let responses = hub.flush().map_err(|e| e.to_string())?;
            stream_secs += t0.elapsed_seconds();
            for (j, resp) in responses.iter().enumerate() {
                let xm =
                    DenseMatrix::from_fn(n, 1, |r, _| (((step as u32 + 3 * r) % 11) as f64) - 5.0);
                let want = arrow_matrix::spmm::reference::iterated_spmm(&truth[j], &xm, 2)
                    .map_err(|e| e.to_string())?;
                let got = DenseMatrix::from_vec(n, 1, resp.y.clone()).map_err(|e| e.to_string())?;
                max_abs_err = max_abs_err.max(got.max_abs_diff(&want).map_err(|e| e.to_string())?);
                max_abs_ref = want.data().iter().fold(max_abs_ref, |m, v| m.max(v.abs()));
                verified += 1;
            }
        }
    }
    // Settle in-flight background rebuilds before the final report.
    let t0 = Stopwatch::start();
    hub.wait_refreshes().map_err(|e| e.to_string())?;
    stream_secs += t0.elapsed_seconds();
    let tolerance = if exact {
        0.0
    } else if dtype == Dtype::F32 {
        // f32 product error compounds over iterations; scale to the
        // reference magnitude.
        1e-5 * max_abs_ref.max(1.0)
    } else {
        1e-9
    };
    if max_abs_err > tolerance {
        return Err(format!(
            "corrected serving diverged from the rebuilt reference: \
             max |Δ| = {max_abs_err:.3e} (tolerance {tolerance:.0e})"
        ));
    }
    let engine = hub.engine_stats();
    let cache = hub.cache_stats();
    let hstats = hub.stats();
    println!(
        "stream  : {updates} updates + {expected} queries × 2 iters in {:.1} ms ({:.0} events/s)",
        stream_secs * 1e3,
        (updates + expected) as f64 / stream_secs
    );
    println!(
        "serving : runs = {}, corrected runs = {}, verified {verified}/{expected} answers {}",
        engine.runs,
        engine.corrected_runs,
        if exact {
            "exactly".to_string()
        } else {
            format!("within {tolerance:.0e}")
        }
    );
    let versions: Vec<u64> = ids
        .iter()
        .map(|&id| hub.version(id).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let pending: usize = ids.iter().map(|&id| hub.delta_nnz(id).unwrap_or(0)).sum();
    println!(
        "refresh : refreshes = {} ({} suppressed mid-flight), versions = {versions:?}, \
         pending delta nnz = {pending}",
        hstats.refreshes_completed, hstats.suppressed_triggers
    );
    println!(
        "splice  : incremental = {}, cold fallbacks = {}, reused vertices = {:.1}%",
        hstats.splice.incremental_refreshes,
        hstats.splice.fallback_refreshes,
        hstats.splice.reused_vertex_fraction() * 100.0
    );
    println!(
        "cache   : decompositions = {}, admitted from workers = {}, disk loads = {}",
        cache.decompositions, cache.admitted, cache.disk_loads
    );
    println!(
        "planner : now bound {} (dtype = {dtype})",
        hub.chosen_algorithm(ids[0]).map_err(|e| e.to_string())?
    );
    if let Some(path) = &metrics_json {
        write_metrics_json(path, hub.telemetry())?;
        println!("metrics : wrote {path}");
    }
    if let Some(log) = &mut ts_log {
        log.sample()?;
        println!("timeseries : wrote {}", timeseries.as_deref().unwrap_or(""));
    }
    if let Some(path) = &trace_json {
        write_trace_json(path, hub.telemetry())?;
        println!("trace   : wrote {path} (Chrome Trace Event Format)");
    }
    Ok(())
}

fn cmd_catalog(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("ls") => {
            let [_, dir] = args else {
                return Err("catalog ls needs <dir>".into());
            };
            let catalog = Catalog::open(dir.as_str()).map_err(|e| e.to_string())?;
            let stats = catalog.stats();
            if stats.recovered_records > 0 {
                println!(
                    "recovered {} record(s) from payload headers (manifest was stale or lost)",
                    stats.recovered_records
                );
            }
            println!("catalog {dir}: {} version(s)", catalog.len());
            for r in catalog.records() {
                let size = std::fs::metadata(catalog.payload_path(r))
                    .map(|m| m.len())
                    .unwrap_or(0);
                println!(
                    "  {:032x} v{} parent={:032x} created={} b={} seed={} {:>9} B  {}",
                    r.fingerprint,
                    r.version,
                    r.parent,
                    r.created_at,
                    r.config.arrow_width,
                    r.seed,
                    size,
                    r.payload
                );
            }
            // Chain shape: roots start lineages, everything else extends
            // one (parent edges within the catalog).
            let fps: std::collections::HashSet<u128> =
                catalog.records().iter().map(|r| r.fingerprint).collect();
            let roots = catalog
                .records()
                .iter()
                .filter(|r| r.parent == 0 || !fps.contains(&r.parent))
                .count();
            println!(
                "totals : {} version(s) in {} chain(s), payload bytes = {}",
                catalog.len(),
                roots,
                catalog.payload_bytes()
            );
            println!(
                "io     : puts = {}, loads = {}, load failures = {}, gc-removed = {}, \
                 recovered = {}",
                stats.puts,
                stats.loads,
                stats.load_failures,
                stats.removed,
                stats.recovered_records
            );
            Ok(())
        }
        Some("gc") => {
            let [_, dir, keep] = args else {
                return Err("catalog gc needs <dir> <retain-last-k>".into());
            };
            let keep: usize = keep
                .parse()
                .map_err(|e| format!("bad retain-last-k: {e}"))?;
            let mut catalog = Catalog::open(dir.as_str()).map_err(|e| e.to_string())?;
            let report = catalog
                .gc(&RetainPolicy::last(keep))
                .map_err(|e| e.to_string())?;
            println!(
                "gc {dir}: removed {} version(s), kept {} (newest {keep} per lineage), \
                 remaining payload bytes = {}",
                report.removed,
                report.kept,
                catalog.payload_bytes()
            );
            Ok(())
        }
        Some("restore") => {
            let [_, dir, fp, version, out] = args else {
                return Err(
                    "catalog restore needs <dir> <fingerprint-hex> <version> <out.amd>".into(),
                );
            };
            let fp = u128::from_str_radix(fp.trim_start_matches("0x"), 16)
                .map_err(|e| format!("bad fingerprint: {e}"))?;
            let version: u64 = version.parse().map_err(|e| format!("bad version: {e}"))?;
            let mut catalog = Catalog::open(dir.as_str()).map_err(|e| e.to_string())?;
            let Some((d, record)) = catalog
                .restore_head_at(fp, version)
                .map_err(|e| e.to_string())?
            else {
                return Err(format!(
                    "no version {version} reachable from {fp:032x} in {dir}"
                ));
            };
            Catalog::save_file(out, &d, &record.meta()).map_err(|e| e.to_string())?;
            println!(
                "restored {:032x} v{} (b = {}, created = {}) -> {out}",
                record.fingerprint, record.version, record.config.arrow_width, record.created_at
            );
            Ok(())
        }
        _ => Err("catalog needs ls|gc|restore".into()),
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut catalog_dir: Option<std::path::PathBuf> = None;
    let mut metrics_json: Option<String> = None;
    let mut timeseries: Option<String> = None;
    let mut trace_json: Option<String> = None;
    let mut dtype = Dtype::default();
    let mut target_ranks = EngineConfig::default().target_ranks;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--catalog" => {
                let v = it.next().ok_or("--catalog needs a directory")?;
                catalog_dir = Some(std::path::PathBuf::from(v));
            }
            "--dtype" => {
                let v = it.next().ok_or("--dtype needs f32 or f64")?;
                dtype = parse_dtype(v)?;
            }
            "--ranks" => {
                let v = it.next().ok_or("--ranks needs a rank count")?;
                target_ranks = parse_ranks(v)?;
            }
            "--metrics-json" => {
                let v = it.next().ok_or("--metrics-json needs a path")?;
                metrics_json = Some(v.clone());
            }
            "--timeseries" => {
                let v = it.next().ok_or("--timeseries needs a path")?;
                timeseries = Some(v.clone());
            }
            "--trace-json" => {
                let v = it.next().ok_or("--trace-json needs a path")?;
                trace_json = Some(v.clone());
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}"));
            }
            _ => positional.push(arg),
        }
    }
    let [input, b, rest @ ..] = positional.as_slice() else {
        return Err(
            "serve needs <matrix.mtx> <b> [queries] [batch] [iters] [--dtype f32|f64] \
             [--ranks P] [--catalog DIR] [--metrics-json PATH] [--timeseries PATH] [--trace-json PATH]"
                .into(),
        );
    };
    let a = load_matrix(input)?;
    if a.rows() != a.cols() {
        return Err(format!(
            "serve needs a square matrix, got {}×{}",
            a.rows(),
            a.cols()
        ));
    }
    let b: u32 = b.parse().map_err(|e| format!("bad b: {e}"))?;
    let queries: usize = rest
        .first()
        .map_or(Ok(64), |s| s.parse())
        .map_err(|e| format!("bad queries: {e}"))?;
    let batch: usize = rest
        .get(1)
        .map_or(Ok(64), |s| s.parse())
        .map_err(|e| format!("bad batch: {e}"))?;
    let iters: u32 = rest
        .get(2)
        .map_or(Ok(2), |s| s.parse())
        .map_err(|e| format!("bad iters: {e}"))?;

    let mut engine = Engine::new(EngineConfig {
        arrow_width: b,
        max_batch: batch.max(1),
        spill_dir: catalog_dir,
        dtype,
        target_ranks,
        ..EngineConfig::default()
    })
    .map_err(|e| e.to_string())?;

    let mut ts_log = timeseries
        .as_deref()
        .map(|path| TsLog::create(path, engine.telemetry()))
        .transpose()?;

    let n = a.rows();
    let t0 = Stopwatch::start();
    let id = engine.register(&a).map_err(|e| e.to_string())?;
    println!(
        "registered {input} in {:.1} ms (n = {n}, nnz = {})",
        t0.elapsed_seconds() * 1e3,
        a.nnz()
    );
    if let Some(path) = &metrics_json {
        // First checkpoint: registration (at more than one rank, its
        // decompose or disk load) done.
        write_metrics_json(path, engine.telemetry())?;
    }
    if let Some(log) = &mut ts_log {
        log.sample()?;
    }
    let cache = engine.cache_stats();
    println!(
        "cache   : decompositions = {}, disk loads = {}, spills = {}",
        cache.decompositions, cache.disk_loads, cache.spills
    );
    println!(
        "planner : bound {} (dtype = {dtype})",
        engine.chosen_algorithm(id).expect("just registered")
    );
    for p in engine.plan_report(id).expect("just registered") {
        println!(
            "  {:<22} p = {:<5} predicted {:>9.3} µs/iter ({:.1} KiB, {:.0} msgs)",
            p.name,
            p.ranks,
            p.seconds * 1e6,
            p.estimate.max_rank_bytes / 1024.0,
            p.estimate.max_rank_messages
        );
    }

    // Synthetic query stream, deterministic per query index.
    let stream: Vec<Vec<f64>> = (0..queries)
        .map(|q| {
            (0..n)
                .map(|r| (((q as u32 + 3 * r) % 13) as f64) / 13.0 - 0.5)
                .collect()
        })
        .collect();

    // Unbatched baseline: every query pays a full run.
    let t0 = Stopwatch::start();
    for x in &stream {
        engine
            .run_single(MultiplyQuery {
                matrix: id,
                x: x.clone(),
                iters,
                sigma: None,
            })
            .map_err(|e| e.to_string())?;
    }
    let single = t0.elapsed_seconds();
    if let Some(path) = &metrics_json {
        // Second checkpoint: the unbatched half of the run.
        write_metrics_json(path, engine.telemetry())?;
    }
    if let Some(log) = &mut ts_log {
        log.sample()?;
    }

    // Batched: the same stream through the coalescing queue.
    let t0 = Stopwatch::start();
    for x in &stream {
        engine
            .submit(MultiplyQuery {
                matrix: id,
                x: x.clone(),
                iters,
                sigma: None,
            })
            .map_err(|e| e.to_string())?;
    }
    let responses = engine.flush().map_err(|e| e.to_string())?;
    let batched = t0.elapsed_seconds();
    assert_eq!(responses.len(), queries);

    println!(
        "serving : {queries} queries × {iters} iterations\n\
         unbatched: {:>8.1} ms total, {:>8.1} queries/s\n\
         batch={batch:<3}: {:>8.1} ms total, {:>8.1} queries/s ({:.1}× speedup)",
        single * 1e3,
        queries as f64 / single,
        batched * 1e3,
        queries as f64 / batched,
        single / batched
    );
    if let Some(path) = &metrics_json {
        write_metrics_json(path, engine.telemetry())?;
        println!("metrics : wrote {path}");
    }
    if let Some(log) = &mut ts_log {
        log.sample()?;
        println!("timeseries : wrote {}", timeseries.as_deref().unwrap_or(""));
    }
    if let Some(path) = &trace_json {
        write_trace_json(path, engine.telemetry())?;
        println!("trace   : wrote {path} (Chrome Trace Event Format)");
    }
    Ok(())
}

/// `chaos [all|<scenario>] [--seed N] [--out PATH]` — run the built-in
/// fault-injection scenario suite (or one scenario) and optionally
/// write the `amd-scenarios/1` JSON artifact. `chaos record` saves a
/// scenario's trace in the `amd-trace/1` text format; `chaos replay`
/// re-runs a saved trace fault-free and verifies it bit-exactly.
/// Exits nonzero when any scenario fails an invariant.
fn cmd_chaos(args: &[String]) -> Result<(), String> {
    use arrow_matrix::chaos::{FaultPlan, ScenarioTrace};
    use arrow_matrix::scenario::{self, Expectation, Scenario, ScenarioReport};

    let mut seed = 7u64;
    let mut out: Option<String> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a path")?;
                out = Some(v.clone());
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            _ => positional.push(arg),
        }
    }
    fn print_report(r: &ScenarioReport) {
        println!(
            "{} {:32} {}",
            if r.passed { "PASS" } else { "FAIL" },
            r.name,
            r.detail
        );
    }
    match positional.first().map(|s| s.as_str()) {
        Some("record") => {
            let [_, name, path] = positional.as_slice() else {
                return Err("chaos record <scenario> <out.trace> [--seed N]".into());
            };
            let scenarios = scenario::builtin_scenarios(seed);
            let s = scenarios.iter().find(|s| &s.name == *name).ok_or_else(|| {
                format!(
                    "unknown scenario {name}; known: {}",
                    scenarios
                        .iter()
                        .map(|s| s.name.as_str())
                        .collect::<Vec<_>>()
                        .join(" ")
                )
            })?;
            s.trace
                .save(std::path::Path::new(path.as_str()))
                .map_err(|e| format!("write {path}: {e}"))?;
            println!(
                "recorded {} ops of scenario `{}` to {path}",
                s.trace.ops.len(),
                s.name
            );
            Ok(())
        }
        Some("replay") => {
            let [_, path] = positional.as_slice() else {
                return Err("chaos replay <in.trace> [--seed N]".into());
            };
            let trace = ScenarioTrace::load(std::path::Path::new(path.as_str()))?;
            println!(
                "replaying {} ops over {} tenant(s) (n = {})",
                trace.ops.len(),
                trace.tenants,
                trace.n
            );
            let report = scenario::run(&Scenario {
                name: "replay".to_string(),
                trace,
                plan: FaultPlan::new(seed),
                target_ranks: EngineConfig::default().target_ranks,
                with_catalog: false,
                crash_reopen: false,
                expect: Expectation::Exact,
            });
            print_report(&report);
            if report.passed {
                Ok(())
            } else {
                Err("replay failed verification".into())
            }
        }
        name => {
            let scenarios = scenario::builtin_scenarios(seed);
            let selected: Vec<Scenario> = match name {
                None | Some("all") => scenarios,
                Some(n) => {
                    let known: Vec<String> = scenarios.iter().map(|s| s.name.clone()).collect();
                    let picked: Vec<Scenario> =
                        scenarios.into_iter().filter(|s| s.name == n).collect();
                    if picked.is_empty() {
                        return Err(format!(
                            "unknown scenario {n}; known: all {}",
                            known.join(" ")
                        ));
                    }
                    picked
                }
            };
            println!(
                "chaos   : running {} scenario(s), seed = {seed}",
                selected.len()
            );
            let mut reports = Vec::new();
            for s in &selected {
                let report = scenario::run(s);
                print_report(&report);
                reports.push(report);
            }
            if let Some(path) = &out {
                std::fs::write(path, scenario::reports_to_json(seed, &reports))
                    .map_err(|e| format!("write {path}: {e}"))?;
                println!("wrote {path}");
            }
            let failed = reports.iter().filter(|r| !r.passed).count();
            if failed > 0 {
                Err(format!("{failed}/{} scenarios failed", reports.len()))
            } else {
                println!("chaos   : all {} scenario(s) passed", reports.len());
                Ok(())
            }
        }
    }
}
