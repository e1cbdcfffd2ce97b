//! Printing one workload's result, and running all four — a process
//! each, so peak memory and the global `amd-exec` pool are per workload.

use crate::common::Values;
use crate::metrics::{END_TO_END, LOAD_DETERMINED, PER_LAYER, WORKLOADS};
use crate::{measure, meta, stats, Opts, Outcome};
use amd_obs::{parse_json, JsonValue};
use std::path::Path;
use std::process::Command;

/// Exit code when any operation failed or any answer was wrong.
const EXIT_FAILED: i32 = 2;
/// Exit code when two runs of the same code disagree beyond the bounds.
const EXIT_DISAGREE: i32 = 3;

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn object(values: &Values) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(name, v)| format!("\"{name}\": {}", number(*v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Everything the run knows, on one line, for `run` and `selfcheck` to
/// read back.
fn detail_json(o: &Outcome) -> String {
    let end_to_end: Vec<String> = o
        .end_to_end
        .iter()
        .zip(&END_TO_END)
        .map(|(r, m)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}, \
                 \"window_spread\": {}, \"samples\": {}, \"per_window\": [{}]}}",
                r.name,
                number(r.value),
                m.unit,
                m.better,
                m.bound,
                number(stats::spread(&r.per_window)),
                r.samples,
                r.per_window
                    .iter()
                    .map(|v| number(*v))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"quick\": {}, \"trace\": {}, \"seconds\": {}, {}, \
         \"windows\": {}, \"ops_per_window\": \"{}\", \"inputs_fnv\": \"{:016x}\", \
         \"attempted\": {}, \"failed\": {}, \"end_to_end\": {{{}}}, \"counts\": {}, \
         \"per_layer\": {}}}",
        o.workload,
        o.opts.quick,
        o.opts.trace,
        number(o.opts.seconds),
        meta::stamp_json(o.opts.seed),
        o.windows,
        o.ops_per_window,
        o.inputs_fnv,
        o.tally.attempted,
        o.tally.failed,
        end_to_end.join(", "),
        object(&o.counts),
        o.layers.as_ref().map_or("null".into(), object),
    )
}

/// The line the driver reads: end-to-end metrics with tracing off,
/// per-layer metrics with tracing on.
fn result_json(o: &Outcome) -> String {
    let reported: Vec<(&str, f64, &str)> = match &o.layers {
        None => o
            .end_to_end
            .iter()
            .zip(&END_TO_END)
            .map(|(r, m)| (r.name, r.value, m.unit))
            .collect(),
        Some(layers) => PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
            .collect(),
    };
    let metrics: Vec<String> = reported
        .into_iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.tally.failed == 0,
        o.tally.attempted.max(1),
        o.tally.failed,
        metrics.join(", ")
    )
}

fn print_outcome(o: &Outcome) {
    println!(
        "workload {}  seed {}  windows {}{}{}",
        o.workload,
        o.opts.seed,
        o.windows,
        if o.opts.quick {
            "  QUICK (smoke test, not for recorded numbers)"
        } else {
            ""
        },
        if o.opts.trace { "  traced" } else { "" },
    );
    println!("  per window: {}", o.ops_per_window);
    println!("  inputs_fnv {:016x}", o.inputs_fnv);
    for note in &o.notes {
        println!("  {note}");
    }
    for (r, m) in o.end_to_end.iter().zip(&END_TO_END) {
        println!(
            "  {:<20} {:>14.4} {:<5} ({} is better, bound {:.0} %, {} samples, window spread {:.1} %)",
            r.name,
            r.value,
            m.unit,
            m.better,
            m.bound * 100.0,
            r.samples,
            stats::spread(&r.per_window) * 100.0
        );
        if r.per_window.len() > 1 {
            let each: Vec<String> = r.per_window.iter().map(|v| format!("{v:.4}")).collect();
            println!("  {:<20} per window: {}", "", each.join(" "));
        }
    }
    for name in ["request_p50_ms", "queries_per_s"] {
        let value = o.counts.get(name).copied().unwrap_or(0.0);
        println!("  {name:<20} {value:>14.4}      (wall clock: printed, not gated)");
    }
    let failed = o.tally.failed;
    println!(
        "  operations: {} attempted, {} succeeded, {} failed (fail_share {})",
        o.tally.attempted,
        o.tally.attempted - failed.min(o.tally.attempted),
        failed,
        failed as f64 / o.tally.attempted.max(1) as f64
    );
    if let Some(layers) = &o.layers {
        for (name, unit, _) in PER_LAYER {
            let value = layers.get(name).copied().unwrap_or(0.0);
            println!("  {name:<30} {value:>16.4} {unit}");
        }
    }
    if let Some(file) = &o.trace_file {
        println!("  trace written to {}", file.display());
    }
}

/// One workload in this process; the last line printed is the result.
pub fn one(workload: &str, opts: &Opts) -> i32 {
    match measure(workload, opts) {
        Ok(outcome) => {
            print_outcome(&outcome);
            println!("detail: {}", detail_json(&outcome));
            println!("{}", result_json(&outcome));
            if outcome.tally.failed == 0 {
                0
            } else {
                EXIT_FAILED
            }
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            1
        }
    }
}

/// Runs one workload in a child process, passes its report through and
/// returns its detail line, parsed.
fn child(workload: &str, opts: &Opts, show: bool) -> Result<(String, JsonValue), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command.args([
        "--workload",
        workload,
        "--seed",
        &opts.seed.to_string(),
        "--seconds",
        &opts.seconds.to_string(),
        "--trace",
        if opts.trace { "1" } else { "0" },
    ]);
    if opts.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        if let Some(json) = line.strip_prefix("detail: ") {
            detail = Some(json.to_string());
        } else if show && (line.starts_with(' ') || line.starts_with("workload")) {
            println!("{line}");
        }
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let detail =
        detail.ok_or_else(|| format!("{workload} printed no result ({})", output.status))?;
    let parsed = parse_json(&detail).map_err(|e| format!("{workload}: {e}"))?;
    Ok((detail, parsed))
}

fn failed_ops(detail: &JsonValue) -> u64 {
    detail
        .get("failed")
        .and_then(JsonValue::as_u64)
        .unwrap_or(1)
}

/// All four workloads; `--json` also writes every detail line to a file.
pub fn all(opts: &Opts, json: Option<&Path>) -> i32 {
    let mut details = Vec::new();
    let mut code = 0;
    for w in &WORKLOADS {
        match child(w.name, opts, true) {
            Ok((raw, parsed)) => {
                if failed_ops(&parsed) > 0 {
                    code = EXIT_FAILED;
                }
                details.push(raw);
            }
            Err(e) => {
                eprintln!("{e}");
                code = 1;
            }
        }
    }
    if let Some(path) = json {
        let body = format!("{{\"runs\": [\n{}\n]}}\n", details.join(",\n"));
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("write {}: {e}", path.display());
            code = 1;
        }
    }
    code
}

fn end_to_end_value(detail: &JsonValue, name: &str) -> Option<f64> {
    detail.get("end_to_end")?.get(name)?.get("value")?.as_f64()
}

/// The whole set twice in one invocation: every end-to-end metric must
/// agree within its bound, and every load-determined count exactly.
pub fn selfcheck(opts: &Opts) -> i32 {
    let mut code = 0;
    for w in &WORKLOADS {
        let pair = (child(w.name, opts, false), child(w.name, opts, false));
        let (first, second) = match pair {
            (Ok((_, a)), Ok((_, b))) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                code = 1;
                continue;
            }
        };
        println!("workload {}", w.name);
        if failed_ops(&first) + failed_ops(&second) > 0 {
            println!("  operations failed");
            code = EXIT_FAILED;
        }
        for m in &END_TO_END {
            let (a, b) = (
                end_to_end_value(&first, m.name).unwrap_or(0.0),
                end_to_end_value(&second, m.name).unwrap_or(0.0),
            );
            let difference = (b - a).abs() / a;
            // The paper's quantities follow from the inputs alone.
            let exact = m.name.starts_with("arrow_");
            let ok = if exact { a == b } else { difference <= m.bound };
            println!(
                "  {:<30} {:>16.4} {:>16.4} {:<6} differ {:>5.1} %  {}  {}",
                m.name,
                a,
                b,
                m.unit,
                difference * 100.0,
                if exact {
                    "exact    ".to_string()
                } else {
                    format!("bound {:>2.0} %", m.bound * 100.0)
                },
                if ok { "ok" } else { "DISAGREE" }
            );
            if !ok && code == 0 {
                code = EXIT_DISAGREE;
            }
        }
        for name in LOAD_DETERMINED {
            let count = |d: &JsonValue| d.get("counts")?.get(name)?.as_f64();
            if let (Some(a), Some(b)) = (count(&first), count(&second)) {
                let ok = a == b;
                println!(
                    "  {name:<30} {a:>16} {b:>16}  exact  {}",
                    if ok { "ok" } else { "DISAGREE" }
                );
                if !ok && code == 0 {
                    code = EXIT_DISAGREE;
                }
            }
        }
    }
    code
}
