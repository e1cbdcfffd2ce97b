//! `chaos`: run the built-in fault-injection scenario suite (or one
//! scenario) and optionally write the `amd-scenarios/1` JSON artifact.
//! `chaos record` saves a scenario's trace in the `amd-trace/1` text
//! format; `chaos replay` re-runs a saved trace fault-free and verifies
//! it bit-exactly. Each exits nonzero when a scenario fails an
//! invariant.

use crate::args::{Args, Outcome};
use arrow_matrix::chaos::{FaultPlan, ScenarioTrace};
use arrow_matrix::engine::EngineConfig;
use arrow_matrix::scenario::{self, Expectation, Scenario, ScenarioReport};
use std::error::Error;
use std::path::Path;

/// `--seed`, default 7.
fn seed(args: &Args) -> Result<u64, String> {
    Ok(args.parse_flag("seed")?.unwrap_or(7))
}

/// The seed, and the built-in scenarios at it that `name` selects:
/// every one for `all`.
fn scenarios(args: &Args, name: &str) -> Result<(u64, Vec<Scenario>), Box<dyn Error>> {
    let seed = seed(args)?;
    let all = scenario::builtin_scenarios(seed);
    let known: Vec<String> = all.iter().map(|s| s.name.clone()).collect();
    let picked: Vec<Scenario> = all
        .into_iter()
        .filter(|s| name == "all" || s.name == name)
        .collect();
    if picked.is_empty() {
        return Err(format!("unknown scenario {name}; known: all {}", known.join(" ")).into());
    }
    Ok((seed, picked))
}

fn print_report(r: &ScenarioReport) {
    let verdict = if r.passed { "PASS" } else { "FAIL" };
    println!("{verdict} {:32} {}", r.name, r.detail);
}

pub fn run(args: &Args) -> Outcome {
    let (seed, selected) = scenarios(args, args.str("scenario"))?;
    println!(
        "chaos   : running {} scenario(s), seed = {seed}",
        selected.len()
    );
    let run = selected.iter().map(scenario::run).inspect(print_report);
    let reports: Vec<ScenarioReport> = run.collect();
    if let Some(path) = args.flag("out") {
        std::fs::write(path, scenario::reports_to_json(seed, &reports))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    let failed = reports.iter().filter(|r| !r.passed).count();
    if failed > 0 {
        Err(format!("{failed}/{} scenarios failed", reports.len()).into())
    } else {
        println!("chaos   : all {} scenario(s) passed", reports.len());
        Ok(())
    }
}

pub fn record(args: &Args) -> Outcome {
    let (name, path) = (args.str("scenario"), args.str("out.trace"));
    let [s] = &scenarios(args, name)?.1[..] else {
        return Err(format!("bad scenario: {name} (record takes one)").into());
    };
    s.trace
        .save(Path::new(path))
        .map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "recorded {} ops of scenario `{}` to {path}",
        s.trace.ops.len(),
        s.name
    );
    Ok(())
}

pub fn replay(args: &Args) -> Outcome {
    let seed = seed(args)?;
    let trace = ScenarioTrace::load(Path::new(args.str("in.trace")))?;
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
