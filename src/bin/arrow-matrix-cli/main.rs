//! `arrow-matrix-cli` — command-line front end for the library.
//!
//! Run it without arguments for the synopsis (README's `## CLI` block is
//! that text verbatim). Every subcommand's arguments are declared once,
//! in [`COMMANDS`]; [`args`] derives the parser, the usage text and each
//! arity error from those declarations.
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
//! prunes (`gc`), and point-in-time-restores (`restore`) the chains of an
//! existing catalog directory. Decompositions exist at `--ranks` above 1
//! only, so at the default the catalog is neither opened nor created:
//! the directory does not appear.
//!
//! Telemetry ([`sink`]): `serve`/`stream` take `--metrics-json PATH` to
//! dump the engine's metrics registry (counters, gauges, and latency
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
//! Every multiply runs at `f64`. Above one rank a metrics snapshot
//! records the decomposition's active-prefix fraction
//! (`engine.active_prefix_permille`); `stats` prints it.

mod args;
mod catalog;
mod chaos;
mod decompose;
mod generate;
mod info;
mod multiply;
mod serve;
mod sink;
mod stats;
mod stream;
mod top;

use args::{Args, Cmd};
use arrow_matrix::engine::EngineConfig;
use arrow_matrix::sparse::io::read_matrix_market;
use arrow_matrix::sparse::CsrMatrix;
use std::error::Error;
use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

/// Every subcommand, declared by its synopsis (see [`args`]), in the
/// order the usage lists them.
static COMMANDS: &[Cmd] = &[
    Cmd("generate <dataset> <n> <out.mtx> [seed=42]", generate::run),
    Cmd("info <matrix.mtx>", info::run),
    Cmd(
        "decompose <matrix.mtx> <b> <out.amd> [seed=42] [--metrics-json PATH]",
        decompose::run,
    ),
    Cmd(
        "multiply <matrix.mtx> <decomp.amd> [k=32] [iters=5] [--metrics-json PATH]",
        multiply::run,
    ),
    Cmd(
        "serve <matrix.mtx> <b> [queries=64] [batch=64] [iters=2] [--catalog DIR] \
         [--ranks P] [--metrics-json PATH] [--timeseries PATH] [--trace-json PATH]",
        serve::run,
    ),
    Cmd(
        "stream <matrix.mtx> <b> [updates=64] [queries=16] [budget-frac=0.05] [seed=42] \
         [--tenants N] [--async-refresh] [--catalog DIR] [--ranks P] [--metrics-json PATH] \
         [--timeseries PATH] [--trace-json PATH]",
        stream::run,
    ),
    Cmd("stats <metrics.json>", stats::run),
    Cmd("top <timeseries.jsonl>", top::run),
    Cmd("catalog ls <dir>", catalog::ls),
    Cmd("catalog gc <dir> <retain-last-k>", catalog::gc),
    Cmd(
        "catalog restore <dir> <fingerprint-hex> <version> <out.amd>",
        catalog::restore,
    ),
    Cmd("chaos [scenario=all] [--seed N] [--out PATH]", chaos::run),
    Cmd(
        "chaos record <scenario> <out.trace> [--seed N]",
        chaos::record,
    ),
    Cmd("chaos replay <in.trace> [--seed N]", chaos::replay),
];

/// The flags every subcommand accepts, before or after its name.
const GLOBAL: &str = "[--threads N]";

/// What the usage says after the synopses and the global flags.
const NOTES: &str = "\
sizes the shared execution pool (default: all cores)
serve/stream: [--ranks P] ranks the matrix is spread over (default 1: served
              in shared memory on this host; P > 1 plans and runs the distributed
              algorithms on a simulated P-rank machine)
datasets: mawi genbank webbase osm gap-twitter sk-2005";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (code, message) = match args::parse(&argv, COMMANDS, GLOBAL) {
        Ok(None) => (2, args::usage(COMMANDS, GLOBAL, NOTES)),
        Err((code, msg)) => (code, format!("error: {msg}")),
        Ok(Some(args)) => match args.parse_flag::<usize>("threads") {
            Ok(Some(0)) | Err(_) => (2, "error: --threads needs a positive integer".into()),
            Ok(threads) => {
                if let Some(n) = threads {
                    arrow_matrix::exec::configure_global_threads(n);
                }
                match args.run() {
                    Ok(()) => return ExitCode::SUCCESS,
                    Err(e) => (1, format!("error: {e}")),
                }
            }
        },
    };
    eprintln!("{message}");
    ExitCode::from(code)
}

fn load_matrix(path: &str) -> Result<CsrMatrix<f64>, Box<dyn Error>> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let coo = read_matrix_market(BufReader::new(file))?;
    Ok(coo.to_csr())
}

/// The `<matrix.mtx>` `serve` and `stream` run on, which must be square.
fn load_square(args: &Args) -> Result<CsrMatrix<f64>, Box<dyn Error>> {
    let a = load_matrix(args.str("matrix.mtx"))?;
    let (rows, cols) = (a.rows(), a.cols());
    if rows != cols {
        return Err(format!("{} needs a square matrix, got {rows}×{cols}", args.name()).into());
    }
    Ok(a)
}

/// The engine `serve` and `stream` stand up: arrow width `<b>`, and the
/// `--catalog` and `--ranks` flags.
fn engine_config(args: &Args) -> Result<EngineConfig, String> {
    let target_ranks = match args.flag("ranks") {
        None => EngineConfig::default().target_ranks,
        Some(s) => match s.parse::<u32>() {
            Ok(p) if p >= 1 => p,
            _ => return Err(format!("bad --ranks: {s} (expected an integer >= 1)")),
        },
    };
    Ok(EngineConfig {
        arrow_width: args.parse("b")?,
        spill_dir: args.flag("catalog").map(Into::into),
        target_ranks,
        ..EngineConfig::default()
    })
}
