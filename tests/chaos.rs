//! End-to-end chaos harness tests at the facade level: built-in
//! scenarios run through `arrow_matrix::scenario`, the trace format
//! round-trips through disk, and the `chaos` CLI subcommand emits a
//! well-formed `BENCH_scenarios.json`. Lives in its own test binary so
//! the process-wide failpoint table is never shared with other tests.

use arrow_matrix::chaos::{failpoint, generators, FaultPlan, ScenarioTrace, TraceOp};
use arrow_matrix::engine::EngineConfig;
use arrow_matrix::scenario::{self, Expectation};
use arrow_matrix::sparse::{CooMatrix, CsrMatrix};
use arrow_matrix::stream::{HubConfig, StalenessBudget, StreamHub, Update};
use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("amd-chaos-test-{}-{name}", std::process::id()));
    p
}

/// A representative slice of the built-in suite: one supervised worker
/// death, one crash-window recovery, one fault-free adversarial
/// workload, and the 16-tenant power-law skew — each on the 16-rank
/// deployment and, but for the crash window (a one-rank hub never puts
/// to its catalog, so the suite has no `-p1` twin of a catalog
/// scenario), on the default one-rank deployment (`-p1`). (The full
/// 12 + 6-scenario suite runs in CI via the CLI; this keeps the
/// test-suite wall clock reasonable.)
#[test]
fn builtin_scenarios_pass_end_to_end() {
    failpoint::quiet_injected_panics();
    // (name, has a one-rank twin)
    let picks = [
        ("worker-kill", true),
        ("crash-window-payload-rename", false),
        ("adversarial-region", true),
        ("tenant-skew", true),
    ];
    let suite = scenario::builtin_scenarios(7);
    assert_eq!(suite.len(), 18);
    assert!(
        !suite.iter().any(|s| s.with_catalog && s.target_ranks == 1),
        "a one-rank catalog scenario can fire no catalog failpoint"
    );
    let variants = picks.iter().flat_map(|&(name, twin)| {
        let local = twin.then(|| (format!("{name}-p1"), 1));
        std::iter::once((name.to_string(), 16)).chain(local)
    });
    for (name, ranks) in variants {
        let s = suite
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("builtin scenario {name} missing"));
        assert_eq!(s.target_ranks, ranks, "{name}");
        let report = scenario::run(s);
        assert!(report.passed, "{name} failed: {}", report.detail);
        assert!(report.verified > 0, "{name} verified no answers");
        assert_eq!(report.max_abs_err, 0.0, "{name} served inexactly");
        // Queries ran, so the latency tails must be populated and
        // ordered (nearest-rank percentiles of the same sample).
        assert!(report.latency_p50_ms > 0.0, "{name} has no p50");
        assert!(report.latency_p99_ms >= report.latency_p50_ms);
        assert!(report.latency_p999_ms >= report.latency_p99_ms);
    }
}

/// End-to-end execution determinism: two replays of the same chaos
/// trace, each by a fresh hub on the shared `amd-exec` pool, answer
/// bit-identically. The simulated clocks are purely logical, so which
/// pool thread runs which rank — different on every replay — must be
/// invisible in every answer.
#[test]
fn chaos_trace_replays_bit_identically_on_the_pool() {
    failpoint::quiet_injected_panics();
    // Injects nothing; keeps the scenario tests' plans (a worker kill,
    // a catalog crash) away from this test's refresh workers.
    let _faults = FaultPlan::new(0).arm();
    let trace = generators::zipf_tenant_skew(48, 4, 3, 4, 1.3, 23);
    let replay = || -> Vec<Vec<f64>> {
        let n = trace.n as u32;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            coo.push(i, (i + 1) % n, 1.0).unwrap();
            coo.push((i + 1) % n, i, 1.0).unwrap();
        }
        let base: CsrMatrix<f64> = coo.to_csr();
        let mut hub = StreamHub::new(HubConfig {
            engine: EngineConfig {
                arrow_width: 16,
                // Rank threads only exist on a distributed deployment.
                target_ranks: 16,
                ..EngineConfig::default()
            },
            budget: StalenessBudget::nnz_fraction(1e9),
            auto_refresh: false,
            async_refresh: true,
            ..HubConfig::default()
        })
        .unwrap();
        let ids: Vec<_> = (0..trace.tenants)
            .map(|_| hub.admit(base.clone()).unwrap())
            .collect();
        let mut answers = Vec::new();
        for op in &trace.ops {
            match *op {
                TraceOp::Add {
                    tenant,
                    row,
                    col,
                    value,
                } => {
                    hub.update(
                        ids[tenant],
                        Update::Add {
                            row,
                            col,
                            delta: value,
                        },
                    )
                    .unwrap();
                }
                TraceOp::Set {
                    tenant,
                    row,
                    col,
                    value,
                } => {
                    hub.update(ids[tenant], Update::Set { row, col, value })
                        .unwrap();
                }
                TraceOp::Query {
                    tenant,
                    salt,
                    iters,
                } => {
                    let x: Vec<f64> = (0..n)
                        .map(|r| (((salt as u32).wrapping_add(3 * r) % 11) as f64) - 5.0)
                        .collect();
                    let resp = hub.run_single(ids[tenant], x, iters as u32, None).unwrap();
                    answers.push(resp.y);
                }
                TraceOp::Refresh { tenant } => {
                    hub.refresh(ids[tenant]).unwrap();
                }
                TraceOp::Settle => {
                    hub.wait_refreshes().unwrap();
                }
            }
        }
        hub.wait_refreshes().unwrap();
        answers
    };
    let first = replay();
    let second = replay();
    assert_eq!(first.len(), second.len());
    for (q, (a, b)) in first.iter().zip(&second).enumerate() {
        let ab: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
        assert_eq!(ab, bb, "query {q} answers must bit-match across replays");
    }
}

/// Record → save → load round-trips the trace bit-exactly, and the
/// loaded trace replays fault-free with exact serving.
#[test]
fn trace_roundtrip_and_replay() {
    failpoint::quiet_injected_panics();
    let path = tmp("roundtrip.trace");
    let trace = generators::oscillating(48, 2, 4, 99);
    trace.save(&path).unwrap();
    let loaded = ScenarioTrace::load(&path).unwrap();
    assert_eq!(loaded, trace, "the trace format must round-trip exactly");

    let replayed = scenario::run(&scenario::Scenario {
        name: "roundtrip-replay".to_string(),
        trace: loaded,
        plan: FaultPlan::new(0),
        target_ranks: EngineConfig::default().target_ranks,
        with_catalog: false,
        crash_reopen: false,
        expect: Expectation::Exact,
    });
    assert!(replayed.passed, "replay failed: {}", replayed.detail);
    let _ = std::fs::remove_file(&path);
}

/// The `chaos` CLI subcommand runs a single scenario under its fault
/// plan and writes a well-formed scenario report artifact.
#[test]
fn chaos_cli_writes_scenario_report() {
    let out_path = tmp("scenarios.json");
    let out = Command::new(env!("CARGO_BIN_EXE_arrow-matrix-cli"))
        .args([
            "chaos",
            "worker-kill",
            "--seed",
            "7",
            "--out",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn cli");
    assert!(
        out.status.success(),
        "chaos subcommand failed: {}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PASS"), "no PASS line in: {stdout}");
    let json = std::fs::read_to_string(&out_path).unwrap();
    assert!(json.contains("\"schema\": \"amd-scenarios/1\""));
    assert!(json.contains("\"name\": \"worker-kill\""));
    assert!(json.contains("\"worker_restarts\""));
    assert!(json.contains("\"latency_p50_ms\""));
    assert!(json.contains("\"latency_p99_ms\""));
    assert!(json.contains("\"latency_p999_ms\""));
    assert!(json.contains("\"passed\": true"));
    let _ = std::fs::remove_file(&out_path);
}
