//! The repository's benchmark: four named workloads, an owned plain-CSR
//! floor, and a ladder that attributes a request's time to the layers
//! from outside. See README.md beside this package for the glossary.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one process
//! benchmark run [--seed n] [--seconds s] [--trace] [--quick] [--json f]   all four, a process each
//! benchmark selfcheck [--seed n] [--seconds s] [--quick]               all four twice, compared
//! benchmark manifest                                                   print BENCHMARK.json
//! ```

mod common;
mod dist;
mod floor;
mod gen;
mod layers;
mod meta;
mod metrics;
mod mutate;
mod runner;
mod serve;
mod stats;
mod trace;

use common::{Tally, Values, Window};
use gen::Fnv64;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u32 = 15;

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One window at a twentieth of the op counts, verification on: a
    /// smoke test, never a source of recorded numbers.
    pub quick: bool,
}

/// The generated inputs of one workload and how to run a window of it.
enum Load {
    Serve(&'static serve::Spec, serve::Inputs),
    Mutate(mutate::Inputs),
    Dist(dist::Inputs),
}

fn scaled(full: usize, quick: bool) -> usize {
    if quick {
        (full / 20).max(1)
    } else {
        full
    }
}

impl Load {
    fn generate(workload: &str, seed: u64, fingerprint: &mut Fnv64) -> Option<Self> {
        Some(match workload {
            "serve-small" => Load::Serve(
                &serve::SMALL,
                serve::Inputs::generate(&serve::SMALL, seed, fingerprint),
            ),
            "serve-wide" => Load::Serve(
                &serve::WIDE,
                serve::Inputs::generate(&serve::WIDE, seed, fingerprint),
            ),
            "mutate-refresh" => Load::Mutate(mutate::Inputs::generate(seed, fingerprint)),
            "dist-repro" => Load::Dist(dist::Inputs::generate(seed, fingerprint)),
            _ => return None,
        })
    }

    fn ops_per_window(&self, quick: bool) -> String {
        match self {
            Load::Serve(spec, _) => format!(
                "{} requests x {} queries, iters {}",
                scaled(spec.requests, quick),
                spec.width,
                spec.iters
            ),
            Load::Mutate(_) => format!(
                "{} rounds x 2 tenants x ({} updates + 1 request of {} queries)",
                scaled(mutate::SPEC.rounds, quick),
                mutate::SPEC.updates,
                mutate::SPEC.width
            ),
            Load::Dist(inputs) => format!(
                "{} sweeps x {} matrices x 4 algorithms, k {}, iters {}",
                scaled(dist::SPEC.sweeps, quick),
                inputs.own.len(),
                dist::SPEC.width,
                dist::SPEC.iters
            ),
        }
    }

    fn window(
        &mut self,
        quick: bool,
        scratch: &Path,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<Window, String> {
        match self {
            Load::Serve(spec, inputs) => {
                serve::window(spec, scaled(spec.requests, quick), inputs, tracer, tally)
            }
            Load::Mutate(inputs) => mutate::window(
                scaled(mutate::SPEC.rounds, quick),
                inputs,
                scratch,
                tracer,
                tally,
            ),
            Load::Dist(inputs) => dist::window(
                &dist::SPEC,
                scaled(dist::SPEC.sweeps, quick),
                inputs,
                tracer,
                tally,
            ),
        }
    }

    /// Every matrix of the workload, as the program's type.
    fn matrices(&self) -> &[amd_sparse::CsrMatrix<f64>] {
        match self {
            Load::Serve(_, i) => &i.program,
            Load::Mutate(i) => &i.program,
            Load::Dist(i) => &i.program,
        }
    }

    /// The matrix and request shape the layer ladder replays.
    fn shape(&self, seed: u64) -> layers::Shape<'_> {
        let (own, program, width, iters) = match self {
            Load::Serve(spec, i) => (&i.own[0], &i.program[0], spec.width, spec.iters),
            Load::Mutate(i) => (
                &i.own[0],
                &i.program[0],
                mutate::SPEC.width,
                mutate::SPEC.iters,
            ),
            Load::Dist(i) => (&i.own[0], &i.program[0], dist::SPEC.width, dist::SPEC.iters),
        };
        layers::Shape {
            own,
            program,
            width,
            iters,
            seed,
        }
    }
}

/// One end-to-end metric of one run: the median of its per-window
/// values, how far the windows disagree, and the samples behind it.
pub struct Reduced {
    pub name: &'static str,
    pub value: f64,
    pub per_window: Vec<f64>,
    pub samples: usize,
}

/// Everything one workload process measured.
pub struct Outcome {
    pub workload: String,
    pub opts: Opts,
    pub inputs_fnv: u64,
    pub windows: usize,
    pub ops_per_window: String,
    pub tally: Tally,
    pub end_to_end: Vec<Reduced>,
    /// Program counters, median over the windows.
    pub counts: Values,
    /// Per-layer values of a traced run.
    pub layers: Option<Values>,
    pub trace_file: Option<PathBuf>,
    pub notes: Vec<String>,
}

/// The wall-clock view of the whole request: printed by every run and
/// reported by a traced one, but not gated (see `metrics::END_TO_END`).
fn wall_clock(windows: &[Window]) -> [(&'static str, Vec<f64>); 2] {
    [
        (
            "request_p50_ms",
            windows
                .iter()
                .map(|w| stats::median(&w.requests_s) * 1e3)
                .collect(),
        ),
        (
            "queries_per_s",
            windows.iter().map(Window::queries_per_s).collect(),
        ),
    ]
}

fn reduce(windows: &[Window], paper: (f64, f64), matrices: usize) -> Vec<Reduced> {
    let value_of = |name: &str| -> (Vec<f64>, usize) {
        match name {
            "floor_ratio" => (
                windows
                    .iter()
                    .map(|w| stats::median(&w.floor_ratios))
                    .collect(),
                windows.iter().map(|w| w.floor_ratios.len()).sum(),
            ),
            "arrow_max_rank_bytes" => (vec![paper.0], matrices),
            "arrow_sim_iter_us" => (vec![paper.1 * 1e6], matrices),
            "setup_s" => (windows.iter().map(|w| w.setup_s).collect(), windows.len()),
            "peak_rss_mb" => (vec![meta::peak_rss_mb()], 1),
            other => unreachable!("end-to-end metric {other} has no definition"),
        }
    };
    metrics::END_TO_END
        .iter()
        .map(|m| {
            let (values, samples) = value_of(m.name);
            Reduced {
                name: m.name,
                value: stats::median(&values),
                per_window: values,
                samples,
            }
        })
        .collect()
}

fn median_counts(windows: &[Window]) -> Values {
    let mut out = Values::new();
    for key in windows.iter().flat_map(|w| w.counts.keys()) {
        let per: Vec<f64> = windows
            .iter()
            .filter_map(|w| w.counts.get(key).copied())
            .collect();
        out.insert(key.clone(), stats::median(&per));
    }
    out
}

/// A directory of this process's own below the executable, inside the
/// build directory: the catalog and the trace are written nowhere else.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .join(format!("bench-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs one workload in this process.
pub fn measure(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    let mut fingerprint = Fnv64::new();
    let mut load = Load::generate(workload, opts.seed, &mut fingerprint)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let scratch = scratch_dir()?;
    let result = measure_in(workload, opts, &mut load, fingerprint.finish(), &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// The extra work of a traced run: a window with spans beside the plain
/// one, the four algorithms on the workload's own matrix, the probes and
/// the ladder. Returns the per-layer values, notes for the report, and
/// the trace as Chrome JSON.
fn trace_layers(
    opts: &Opts,
    load: &mut Load,
    plain: &Window,
    deadline: Instant,
    scratch: &Path,
    tally: &mut Tally,
) -> Result<(Values, Vec<String>, String), String> {
    let mut notes = Vec::new();
    let mut tracer = Tracer::new(true);
    let traced = load.window(opts.quick, scratch, &mut tracer, tally)?;
    let mut values = traced.counts;
    let overhead = stats::median(&traced.requests_s) / stats::median(&plain.requests_s) - 1.0;
    values.insert("bench.trace_overhead_share".into(), overhead);

    let shape = load.shape(opts.seed);
    notes.push(format!(
        "ladder working set: A = {:.1} MB (CSR arrays), X = {:.1} MB (n x k f64), \
         last-level cache = {}",
        shape.own.bytes() as f64 / 1e6,
        (shape.own.n as usize * shape.width * 8) as f64 / 1e6,
        meta::llc()
    ));
    if !matches!(load, Load::Dist(_)) {
        // The four algorithms on this workload's own matrix and request
        // shape (dist-repro's window already ran them).
        let spec = dist::Spec {
            sweeps: if opts.quick { 1 } else { 3 },
            width: shape.width,
            iters: shape.iters,
            ..dist::SPEC
        };
        let mut inputs = dist::Inputs::of(vec![shape.own.clone()], opts.seed);
        let probe = dist::window(&spec, spec.sweeps, &mut inputs, &mut tracer, tally)?;
        for (name, value) in probe.counts {
            values.entry(name).or_insert(value);
        }
    }
    // A quick run climbs the ladder once; a full one until its time is up.
    let (reps, deadline) = if opts.quick {
        (1, Instant::now())
    } else {
        (5, deadline)
    };
    layers::measure(
        &shape,
        reps,
        deadline,
        scratch,
        &mut tracer,
        tally,
        &mut values,
    )?;

    let requests = tracer.durations("request");
    let (tail, percentile) = stats::tail(&requests);
    notes.push(format!(
        "stream.request_tail_ms is p{percentile:.1} of {} hub requests",
        requests.len()
    ));
    values.insert("stream.request_tail_ms".into(), tail * 1e3);
    values.insert(
        "stream.submit_us".into(),
        stats::median(&tracer.durations("stream.submit")) * 1e6,
    );
    values.insert(
        "stream.flush_ms".into(),
        stats::median(&tracer.durations("stream.flush")) * 1e3,
    );
    let regret = values["spmm.bound_iter_ms"] / values["dist.fastest_iter_ms"];
    values.insert("engine.planner_regret".into(), regret);
    Ok((values, notes, tracer.chrome_json()))
}

fn measure_in(
    workload: &str,
    opts: &Opts,
    load: &mut Load,
    inputs_fnv: u64,
    scratch: &Path,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut tally = Tally::default();
    let mut windows = Vec::new();
    let mut notes = Vec::new();
    let mut layer_values = None;
    let mut trace_file = None;

    // Whole windows with tracing off, each a fixed op count: one when
    // the run goes on to trace the layers, else as many as the run has
    // time for and never fewer than three.
    let least = if opts.quick || opts.trace { 1 } else { 3 };
    loop {
        let began = Instant::now();
        let mut off = Tracer::new(false);
        windows.push(load.window(opts.quick, scratch, &mut off, &mut tally)?);
        let out_of_time = start.elapsed() + began.elapsed() > budget;
        if windows.len() >= least && (opts.quick || opts.trace || out_of_time) {
            break;
        }
    }
    if opts.trace {
        let plain = &windows[0];
        let (values, said, trace) =
            trace_layers(opts, load, plain, start + budget, scratch, &mut tally)?;
        // Beside the executable: the build directory is the one place
        // inside the checkout that is the benchmark's to write.
        let file = scratch.with_file_name(format!("trace-{workload}.json"));
        std::fs::write(&file, trace).map_err(|e| format!("write {}: {e}", file.display()))?;
        layer_values = Some(values);
        trace_file = Some(file);
        notes = said;
    }

    let width = load.shape(opts.seed).width;
    let paper = dist::paper_quantities(load.matrices(), width, &mut tally)?;
    let end_to_end = reduce(&windows, paper, load.matrices().len());
    let mut counts = median_counts(&windows);
    for (name, per_window) in wall_clock(&windows) {
        counts.insert(name.into(), stats::median(&per_window));
        if let Some(values) = &mut layer_values {
            values.insert(name.into(), stats::median(&per_window));
        }
    }
    for m in &end_to_end {
        if !m.value.is_finite() || m.value <= 0.0 {
            eprintln!("{}: {} is not a positive number", m.name, m.value);
            tally.failed += 1;
        }
    }
    Ok(Outcome {
        workload: workload.to_string(),
        opts: opts.clone(),
        inputs_fnv,
        windows: windows.len(),
        ops_per_window: load.ops_per_window(opts.quick),
        tally,
        end_to_end,
        counts,
        layers: layer_values,
        trace_file,
        notes,
    })
}

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  benchmark run       [--seed n] [--seconds s] [--trace] [--quick] [--json <file>]
  benchmark selfcheck [--seed n] [--seconds s] [--quick]
  benchmark manifest
workloads: serve-small, serve-wide, mutate-refresh, dist-repro";

struct Cli {
    command: String,
    workload: Option<String>,
    opts: Opts,
    json: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: String::new(),
        workload: None,
        opts: Opts {
            seed: 11,
            seconds: f64::from(RUN_SECONDS),
            trace: false,
            quick: false,
        },
        json: None,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => cli.workload = Some(value(&mut i)?.clone()),
            "--seed" => {
                cli.opts.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
                cli.opts.seconds = seconds;
            }
            "--trace" => {
                // `--trace 0|1` from the driver, bare `--trace` by hand.
                cli.opts.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => cli.opts.quick = true,
            "--json" => cli.json = Some(PathBuf::from(value(&mut i)?)),
            word if !word.starts_with('-') && cli.command.is_empty() => {
                cli.command = word.to_string()
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(64);
        }
    };
    let code = match (cli.command.as_str(), &cli.workload) {
        ("", Some(workload)) => runner::one(workload, &cli.opts),
        ("run", None) => runner::all(&cli.opts, cli.json.as_deref()),
        ("selfcheck", None) => runner::selfcheck(&cli.opts),
        ("manifest", None) => {
            print!("{}", metrics::manifest(RUN_SECONDS));
            0
        }
        _ => {
            eprintln!("{USAGE}");
            64
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(trace: bool) -> Opts {
        Opts {
            seed: 11,
            seconds: 1.0,
            trace,
            quick: true,
        }
    }

    /// The smoke test of the harness: two workloads, verification on.
    #[test]
    fn quick_serve_small_and_dist_repro_are_correct() {
        let began = Instant::now();
        for workload in ["serve-small", "dist-repro"] {
            let outcome = measure(workload, &quick(false)).expect("workload runs");
            assert_eq!(outcome.tally.failed, 0, "{workload}");
            assert!(outcome.tally.attempted > 0);
            assert_eq!(outcome.windows, 1);
            assert!(outcome.end_to_end.iter().all(|m| m.value > 0.0));
        }
        // Unoptimised builds take several times longer; only an
        // optimised one says anything about the harness's own cost.
        if !cfg!(debug_assertions) {
            assert!(
                began.elapsed() < Duration::from_secs(5),
                "quick runs are slow"
            );
        }
    }

    #[test]
    fn quick_traced_run_sets_every_layer_metric() {
        let outcome = measure("mutate-refresh", &quick(true)).expect("workload runs");
        assert_eq!(outcome.tally.failed, 0);
        let layers = outcome.layers.expect("a traced run has layer values");
        for (name, _, _) in metrics::PER_LAYER {
            let value = layers
                .get(name)
                .unwrap_or_else(|| panic!("{name} is not set"));
            assert!(value.is_finite(), "{name} = {value}");
        }
        let trace = std::fs::read_to_string(outcome.trace_file.unwrap()).unwrap();
        assert!(amd_obs::parse_json(&trace).is_ok());
    }

    #[test]
    fn same_seed_same_inputs() {
        let fnv = |seed| {
            let mut f = Fnv64::new();
            Load::generate("serve-small", seed, &mut f).unwrap();
            f.finish()
        };
        assert_eq!(fnv(11), fnv(11));
        assert_ne!(fnv(11), fnv(12));
    }

    #[test]
    fn driver_arguments_parse() {
        let args: Vec<String> = "--workload serve-wide --seed 7 --seconds 10 --trace 0"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse(&args).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("serve-wide"));
        assert_eq!((cli.opts.seed, cli.opts.trace), (7, false));
        let args: Vec<String> = "run --trace --quick".split(' ').map(String::from).collect();
        let cli = parse(&args).unwrap();
        assert_eq!(cli.command, "run");
        assert!(cli.opts.trace && cli.opts.quick);
        assert!(parse(&["--seconds".to_string(), "0".to_string()]).is_err());
    }
}
