//! Integration tests for the `arrow-matrix-cli` binary: the full
//! generate → info → decompose → multiply artifact workflow.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_arrow-matrix-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("amd-cli-test-{}-{name}", std::process::id()));
    p
}

/// The same command on the default one-rank deployment (no `--ranks`)
/// serves from the CSR alone and decomposes nothing.
fn assert_default_ranks_decompose_nothing(args: &[&str]) {
    let out = cli().args(args).output().expect("spawn cli");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success() && text.contains("decompositions = 0"),
        "one rank must not decompose: {text}"
    );
}

#[test]
fn full_workflow() {
    let mtx = tmp("w.mtx");
    let amd = tmp("w.amd");
    // generate
    let out = cli()
        .args(["generate", "osm", "2000", mtx.to_str().unwrap(), "3"])
        .output()
        .expect("spawn cli");
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("OSM-Europe"));
    // info
    let out = cli()
        .args(["info", mtx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("2000 x 2000"), "info output: {text}");
    assert!(text.contains("bandwidth lower bound"));
    // decompose
    let out = cli()
        .args([
            "decompose",
            mtx.to_str().unwrap(),
            "128",
            amd.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "decompose failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("exact reconstruction"));
    // multiply
    let out = cli()
        .args([
            "multiply",
            mtx.to_str().unwrap(),
            amd.to_str().unwrap(),
            "8",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "multiply failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("verified"), "multiply output: {text}");
    let _ = std::fs::remove_file(&mtx);
    let _ = std::fs::remove_file(&amd);
}

#[test]
fn stream_workflow() {
    let mtx = tmp("stream.mtx");
    let out = cli()
        .args(["generate", "osm", "800", mtx.to_str().unwrap(), "5"])
        .output()
        .expect("spawn cli");
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Drive a mutation stream with a tight budget so at least one
    // compacting refresh happens, and every answer verifies exactly.
    let out = cli()
        .args([
            "stream",
            mtx.to_str().unwrap(),
            "32",
            "40",
            "10",
            "0.02",
            "9",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stream failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains("verified 10/10 answers exactly"),
        "stream output: {text}"
    );
    assert!(text.contains("corrected runs"), "stream output: {text}");
    assert!(text.contains("refreshes = "), "stream output: {text}");
    assert!(
        text.contains("incremental = ") && text.contains("cold fallbacks = "),
        "stream output must report the incremental/fallback split: {text}"
    );
    let _ = std::fs::remove_file(&mtx);
}

#[test]
fn stream_rejects_bad_budget() {
    let mtx = tmp("stream-bad.mtx");
    cli()
        .args(["generate", "osm", "400", mtx.to_str().unwrap()])
        .output()
        .unwrap();
    let out = cli()
        .args(["stream", mtx.to_str().unwrap(), "32", "8", "4", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad budget-frac"));
    let _ = std::fs::remove_file(&mtx);
}

#[test]
fn serve_catalog_warm_restart_decomposes_zero() {
    let mtx = tmp("warm.mtx");
    let cat = tmp("warm-cat");
    let _ = std::fs::remove_dir_all(&cat);
    cli()
        .args(["generate", "osm", "1200", mtx.to_str().unwrap(), "3"])
        .output()
        .unwrap();
    assert_default_ranks_decompose_nothing(&["serve", mtx.to_str().unwrap(), "64", "8", "8", "1"]);
    // Cold run on 16 ranks: one decomposition, written through to the
    // catalog.
    let out = cli()
        .args([
            "serve",
            mtx.to_str().unwrap(),
            "64",
            "8",
            "8",
            "1",
            "--ranks",
            "16",
            "--catalog",
            cat.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "cold serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains("decompositions = 1") && text.contains("spills = 1"),
        "cold run writes through: {text}"
    );
    // Warm restart on identical traffic: reloads > 0, zero cold
    // decomposes.
    let out = cli()
        .args([
            "serve",
            mtx.to_str().unwrap(),
            "64",
            "8",
            "8",
            "1",
            "--ranks",
            "16",
            "--catalog",
            cat.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains("decompositions = 0"),
        "warm restart must not decompose: {text}"
    );
    assert!(
        text.contains("disk loads = 1"),
        "warm restart must reload from the catalog: {text}"
    );
    let _ = std::fs::remove_file(&mtx);
    let _ = std::fs::remove_dir_all(&cat);
}

#[test]
fn catalog_ls_gc_restore_workflow() {
    let mtx = tmp("catwf.mtx");
    let cat = tmp("catwf-cat");
    let restored = tmp("catwf-restored.amd");
    let _ = std::fs::remove_dir_all(&cat);
    cli()
        .args(["generate", "osm", "900", mtx.to_str().unwrap(), "5"])
        .output()
        .unwrap();
    let stream = [
        "stream",
        mtx.to_str().unwrap(),
        "32",
        "60",
        "6",
        "0.02",
        "9",
    ];
    assert_default_ranks_decompose_nothing(&stream);
    // A tight-budget stream on 16 ranks produces refreshes → a
    // multi-version chain.
    let out = cli()
        .args(stream)
        .args(["--ranks", "16", "--catalog", cat.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stream --catalog failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // ls shows a chain whose later versions carry parent lineage.
    let out = cli()
        .args(["catalog", "ls", cat.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    let versions: usize = text
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(2))
        .and_then(|v| v.parse().ok())
        .expect("ls header");
    assert!(versions >= 2, "stream must have chained versions: {text}");
    assert!(text.contains(" v1 "), "chain has a version 1: {text}");
    // Restore version 0 from the head of the chain and multiply with
    // it. Record lines are the indented ones; the totals/io summary
    // follows them.
    let head_fp = text
        .lines()
        .rfind(|l| l.starts_with("  "))
        .and_then(|l| l.split_whitespace().next())
        .expect("ls last record");
    let out = cli()
        .args([
            "catalog",
            "restore",
            cat.to_str().unwrap(),
            head_fp,
            "0",
            restored.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "restore failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("restored"));
    let out = cli()
        .args([
            "multiply",
            mtx.to_str().unwrap(),
            restored.to_str().unwrap(),
            "4",
            "1",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "multiply on restored decomposition failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("verified"));
    // GC down to the newest version per lineage.
    let out = cli()
        .args(["catalog", "gc", cat.to_str().unwrap(), "1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("removed"), "gc reports its sweep: {text}");
    let out = cli()
        .args(["catalog", "ls", cat.to_str().unwrap()])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains(": 1 version(s)"),
        "one survivor after gc: {text}"
    );
    // Unknown fingerprints fail cleanly.
    let out = cli()
        .args([
            "catalog",
            "restore",
            cat.to_str().unwrap(),
            "00000000000000000000000000000042",
            "0",
            restored.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let _ = std::fs::remove_file(&mtx);
    let _ = std::fs::remove_file(&restored);
    let _ = std::fs::remove_dir_all(&cat);
}

#[test]
fn serve_writes_metrics_json_snapshot() {
    let mtx = tmp("metrics.mtx");
    let json = tmp("metrics.json");
    cli()
        .args(["generate", "osm", "1000", mtx.to_str().unwrap(), "3"])
        .output()
        .unwrap();
    let serve = ["serve", mtx.to_str().unwrap(), "64", "8", "8", "1"];
    assert_default_ranks_decompose_nothing(&serve);
    let out = cli()
        .args(serve)
        .args(["--ranks", "16", "--metrics-json", json.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "serve --metrics-json failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("metrics"),
        "serve reports the metrics file"
    );
    // The snapshot parses with the workspace's own JSON reader and
    // carries the schema marker, the serving counters, and the latency
    // histograms with consistent counts.
    let body = std::fs::read_to_string(&json).expect("metrics file written");
    let v = arrow_matrix::obs::parse_json(&body).expect("metrics JSON parses");
    assert_eq!(
        v.get("schema").and_then(|s| s.as_str()),
        Some("amd-metrics/1")
    );
    let hist = |name: &str, field: &str| {
        v.get(name)
            .and_then(|h| h.get(field))
            .and_then(|c| c.as_u64())
            .unwrap_or(0)
    };
    let runs = hist("engine.batch_size", "count");
    assert!(runs > 0, "serve recorded its runs: {body}");
    // 8 queries through the unbatched baseline + the same 8 batched.
    let queries = hist("engine.batch_size", "sum");
    assert_eq!(queries, 16, "16 queries served: {body}");
    let decompositions = hist("decompose.seconds", "count");
    assert_eq!(decompositions, 1, "one cold decompose: {body}");
    let latencies = hist("multiply.seconds", "count");
    assert_eq!(latencies, runs, "one latency sample per run: {body}");
    // The stats subcommand renders the same file.
    let out = cli()
        .args(["stats", json.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stats failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("engine.batch_size"), "stats output: {text}");
    assert!(text.contains("multiply.seconds"), "stats output: {text}");
    let _ = std::fs::remove_file(&mtx);
    let _ = std::fs::remove_file(&json);
}

/// A million nested `[` once recursed the snapshot parser off its stack
/// and the process died of `SIGABRT`; now `stats` reports the nesting and
/// exits 1.
#[test]
fn stats_rejects_deep_nesting_with_an_error() {
    let json = tmp("deep.json");
    std::fs::write(&json, "[".repeat(1_000_000)).unwrap();
    let out = cli()
        .args(["stats", json.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("nesting deeper than 128 at byte 128"),
        "stderr: {stderr}"
    );
    let _ = std::fs::remove_file(&json);
}

#[test]
fn usage_on_no_args() {
    let out = cli().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("stream"),
        "usage must document the streaming subcommand"
    );
}

#[test]
fn unknown_dataset_fails_cleanly() {
    let out = cli()
        .args(["generate", "nonsense", "100", "/tmp/x.mtx"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset"));
}

/// Generates an `osm` matrix of `n` vertices from `seed` and decomposes
/// it at width 64; returns the two paths.
fn generated_and_decomposed(name: &str, n: &str, seed: &str) -> (PathBuf, PathBuf) {
    let mtx = tmp(&format!("{name}.mtx"));
    let amd = tmp(&format!("{name}.amd"));
    let (mtx_s, amd_s) = (mtx.to_str().unwrap(), amd.to_str().unwrap());
    assert!(cli()
        .args(["generate", "osm", n, mtx_s, seed])
        .output()
        .unwrap()
        .status
        .success());
    assert!(cli()
        .args(["decompose", mtx_s, "64", amd_s])
        .output()
        .unwrap()
        .status
        .success());
    (mtx, amd)
}

/// `multiply` exits 1 with a one-line error containing `needle`.
fn assert_multiply_refuses(mtx: &std::path::Path, amd: &std::path::Path, needle: &str) {
    let out = cli()
        .args(["multiply", mtx.to_str().unwrap(), amd.to_str().unwrap()])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains(needle), "stderr: {err}");
    assert_eq!(err.trim_end().lines().count(), 1, "one-line error: {err}");
}

#[test]
fn multiply_refuses_a_torn_decomposition_file() {
    let (mtx, amd) = generated_and_decomposed("torn", "600", "3");
    let whole = std::fs::read(&amd).unwrap();
    // Cut mid-payload, and cut exactly at the checksum footer: every
    // level byte present, nothing to vouch for them.
    for keep in [whole.len() / 2, whole.len() - 8] {
        std::fs::write(&amd, &whole[..keep]).unwrap();
        assert_multiply_refuses(&mtx, &amd, "checksum");
    }
    // One flipped payload bit.
    let mut flipped = whole.clone();
    flipped[whole.len() / 2] ^= 0x10;
    std::fs::write(&amd, &flipped).unwrap();
    assert_multiply_refuses(&mtx, &amd, "checksum mismatch");
    // The intact file still multiplies.
    std::fs::write(&amd, &whole).unwrap();
    let out = cli()
        .args(["multiply", mtx.to_str().unwrap(), amd.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    for f in [mtx, amd] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn multiply_at_zero_iterations_answers_the_operand_on_isolated_vertices() {
    // A MAWI matrix has vertices isolated in A; at zero iterations their
    // rows are the operand's, not zeros.
    let (mtx, amd) = (tmp("iso.mtx"), tmp("iso.amd"));
    let (mtx_s, amd_s) = (mtx.to_str().unwrap(), amd.to_str().unwrap());
    for args in [
        ["generate", "mawi", "300", mtx_s],
        ["decompose", mtx_s, "16", amd_s],
    ] {
        assert!(cli().args(args).output().unwrap().status.success());
    }
    let out = cli()
        .args(["multiply", mtx_s, amd_s, "4", "0"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(out.status.success(), "stdout: {text}\nstderr: {err}");
    assert!(
        text.contains("max |Δ| vs serial reference = 0.00e0"),
        "{text}"
    );
    for f in [mtx, amd] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn multiply_refuses_the_decomposition_of_another_matrix_of_the_same_size() {
    // Same generator, same n, another seed: only the recorded
    // fingerprint tells the two apart.
    let (mtx_a, amd_a) = generated_and_decomposed("same-n-a", "600", "3");
    let (mtx_b, amd_b) = generated_and_decomposed("same-n-b", "600", "4");
    assert_multiply_refuses(&mtx_b, &amd_a, "decomposition is for");
    assert_multiply_refuses(&mtx_a, &amd_b, "decomposition is for");
    for f in [mtx_a, amd_a, mtx_b, amd_b] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn multiply_refuses_a_retired_amd3_file_as_retired() {
    // An older build's file: the same layout under the AMD3 magic,
    // resealed (the checksum covers the magic). Its recorded fingerprint
    // is the one this build computes, so only the magic can refuse it.
    let (mtx, amd) = generated_and_decomposed("retired", "600", "3");
    let mut bytes = std::fs::read(&amd).unwrap();
    assert_eq!(&bytes[..4], b"AMD4");
    bytes[..4].copy_from_slice(b"AMD3");
    let body = bytes.len() - 8;
    let digest = bytes[..body]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    bytes[body..].copy_from_slice(&digest.to_le_bytes());
    std::fs::write(&amd, &bytes).unwrap();
    // One line, and it names the format, not another matrix.
    assert_multiply_refuses(
        &mtx,
        &amd,
        "bad magic AMD3: a retired arrow decomposition format",
    );
    for f in [mtx, amd] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn missing_file_fails_cleanly() {
    let out = cli()
        .args(["info", "/nonexistent/path.mtx"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn mismatched_decomposition_rejected() {
    let mtx_a = tmp("a.mtx");
    let mtx_b = tmp("b.mtx");
    let amd_a = tmp("a.amd");
    cli()
        .args(["generate", "osm", "1000", mtx_a.to_str().unwrap()])
        .output()
        .unwrap();
    cli()
        .args(["generate", "osm", "1500", mtx_b.to_str().unwrap()])
        .output()
        .unwrap();
    cli()
        .args([
            "decompose",
            mtx_a.to_str().unwrap(),
            "64",
            amd_a.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let out = cli()
        .args(["multiply", mtx_b.to_str().unwrap(), amd_a.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("decomposition is for"));
    for f in [mtx_a, mtx_b, amd_a] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn stream_multi_tenant_async_workflow() {
    let mtx = tmp("stream-hub.mtx");
    cli()
        .args(["generate", "osm", "600", mtx.to_str().unwrap(), "7"])
        .output()
        .unwrap();
    // 4 tenants behind one hub, refreshes on the background worker.
    let out = cli()
        .args([
            "stream",
            mtx.to_str().unwrap(),
            "32",
            "30",
            "8",
            "0.02",
            "7",
            "--tenants",
            "4",
            "--async-refresh",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "multi-tenant stream failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("4 tenant(s)"), "must report tenancy: {text}");
    assert!(
        text.contains("refresh = background"),
        "must report async refresh mode: {text}"
    );
    assert!(
        text.contains("verified 32/32 answers exactly"),
        "8 queries × 4 tenants, all exact: {text}"
    );
    assert!(text.contains("refreshes = "), "stream output: {text}");
    let _ = std::fs::remove_file(&mtx);
}

#[test]
fn timeseries_log_feeds_the_top_dashboard() {
    let mtx = tmp("ts.mtx");
    let ts = tmp("ts.jsonl");
    cli()
        .args(["generate", "osm", "800", mtx.to_str().unwrap(), "5"])
        .output()
        .unwrap();
    let out = cli()
        .args([
            "stream",
            mtx.to_str().unwrap(),
            "32",
            "40",
            "10",
            "0.02",
            "9",
            "--tenants",
            "2",
            // Splices and cache hits only happen where a decomposition
            // exists.
            "--ranks",
            "16",
            "--timeseries",
            ts.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stream --timeseries failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Every line parses with the workspace's own reader; sequence
    // numbers are contiguous and the final cumulative counters match
    // the whole run.
    let body = std::fs::read_to_string(&ts).expect("timeseries written");
    let points: Vec<_> = body
        .lines()
        .map(|l| arrow_matrix::obs::parse_ts_line(l).expect("ts line parses"))
        .collect();
    assert!(points.len() >= 2, "at least startup + exit samples: {body}");
    for (i, p) in points.iter().enumerate() {
        assert_eq!(p.seq, i as u64, "contiguous sequence");
    }
    let last = points.last().unwrap();
    assert_eq!(last.counter("hub.queries"), 20, "10 queries × 2 tenants");
    assert!(last.counter("hub.updates") > 0);
    // `top` renders the same log.
    let out = cli().args(["top", ts.to_str().unwrap()]).output().unwrap();
    assert!(
        out.status.success(),
        "top failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("queries/s"), "rates line: {text}");
    assert!(text.contains("splice"), "splice ratio line: {text}");
    assert!(text.contains("hit rate"), "cache line: {text}");
    assert!(
        text.contains("tenant 1") && text.contains("tenant 2"),
        "per-tenant rows: {text}"
    );
    let _ = std::fs::remove_file(&mtx);
    let _ = std::fs::remove_file(&ts);
}

#[test]
fn stream_exports_a_complete_chrome_trace() {
    let mtx = tmp("trace.mtx");
    let trace = tmp("trace.json");
    cli()
        .args(["generate", "osm", "800", mtx.to_str().unwrap(), "5"])
        .output()
        .unwrap();
    // Tight budget forces refreshes; the background worker path is the
    // one that traces a decompose child span under each refresh root.
    let out = cli()
        .args([
            "stream",
            mtx.to_str().unwrap(),
            "32",
            "40",
            "10",
            "0.02",
            "9",
            "--async-refresh",
            "--trace-json",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stream --trace-json failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&trace).expect("trace written");
    let doc = arrow_matrix::obs::parse_json(&body).expect("Chrome trace JSON parses");
    let events = match doc.get("traceEvents") {
        Some(arrow_matrix::obs::JsonValue::Arr(items)) => items,
        other => panic!("traceEvents missing: {other:?}"),
    };
    let arg_u64 = |e: &arrow_matrix::obs::JsonValue, k: &str| {
        e.get("args")
            .and_then(|a| a.get(k))
            .and_then(|v| v.as_u64())
    };
    fn name_of(e: &arrow_matrix::obs::JsonValue) -> &str {
        e.get("name").and_then(|n| n.as_str()).unwrap_or_default()
    }
    // No event references a parent outside the export.
    let ids: Vec<u64> = events.iter().filter_map(|e| arg_u64(e, "id")).collect();
    for e in events {
        if let Some(parent) = arg_u64(e, "parent") {
            assert!(
                parent == 0 || ids.contains(&parent),
                "dangling parent {parent} in {body}"
            );
        }
    }
    // The refresh span tree exports complete: a "refresh" complete
    // span with a "decompose" child nested under it.
    let refresh = events
        .iter()
        .find(|e| name_of(e) == "refresh")
        .expect("a refresh span was traced");
    assert_eq!(refresh.get("ph").and_then(|p| p.as_str()), Some("X"));
    let refresh_id = arg_u64(refresh, "id").unwrap();
    assert!(
        events
            .iter()
            .any(|e| name_of(e) == "decompose" && arg_u64(e, "parent") == Some(refresh_id)),
        "decompose nests under refresh: {body}"
    );
    // Multiply events carry the run's accounted volume.
    assert!(
        events.iter().any(|e| {
            name_of(e) == "multiply"
                && e.get("args")
                    .and_then(|a| a.get("detail"))
                    .and_then(|d| d.as_str())
                    .is_some_and(|d| d.contains("max_rank_bytes="))
        }),
        "multiply events carry accounted volumes: {body}"
    );
    // Lane metadata names the process.
    assert!(
        events.iter().any(|e| name_of(e) == "process_name"),
        "process metadata present: {body}"
    );
    let _ = std::fs::remove_file(&mtx);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn decompose_and_multiply_write_metrics_snapshots() {
    let mtx = tmp("oneshot.mtx");
    let amd = tmp("oneshot.amd");
    let djson = tmp("oneshot-d.json");
    let mjson = tmp("oneshot-m.json");
    cli()
        .args(["generate", "osm", "600", mtx.to_str().unwrap(), "3"])
        .output()
        .unwrap();
    let out = cli()
        .args([
            "decompose",
            mtx.to_str().unwrap(),
            "64",
            amd.to_str().unwrap(),
            "42",
            "--metrics-json",
            djson.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "decompose --metrics-json failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&djson).expect("decompose metrics written");
    let v = arrow_matrix::obs::parse_json(&body).expect("metrics JSON parses");
    assert_eq!(
        v.get("decompose.seconds")
            .and_then(|h| h.get("count"))
            .and_then(|c| c.as_u64()),
        Some(1),
        "one decompose duration sample: {body}"
    );
    assert_eq!(
        v.get("matrix.n").and_then(|n| n.as_u64()),
        Some(600),
        "matrix size recorded: {body}"
    );
    let out = cli()
        .args([
            "multiply",
            mtx.to_str().unwrap(),
            amd.to_str().unwrap(),
            "8",
            "2",
            "--metrics-json",
            mjson.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "multiply --metrics-json failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&mjson).expect("multiply metrics written");
    let v = arrow_matrix::obs::parse_json(&body).expect("metrics JSON parses");
    assert_eq!(
        v.get("multiply.seconds")
            .and_then(|h| h.get("count"))
            .and_then(|c| c.as_u64()),
        Some(1),
        "one multiply duration sample: {body}"
    );
    for f in [mtx, amd, djson, mjson] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn stream_rejects_bad_tenant_flag() {
    let mtx = tmp("stream-bad-tenants.mtx");
    cli()
        .args(["generate", "osm", "400", mtx.to_str().unwrap()])
        .output()
        .unwrap();
    let out = cli()
        .args([
            "stream",
            mtx.to_str().unwrap(),
            "32",
            "8",
            "4",
            "0.05",
            "42",
            "--tenants",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--tenants"));
    // Unknown flags fail cleanly too.
    let out = cli()
        .args(["stream", mtx.to_str().unwrap(), "32", "--frobnicate"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
    let _ = std::fs::remove_file(&mtx);
}

/// Every subcommand against its edge cases — zero and tiny sizes, a
/// zero-column operand, a zero arrow width, missing files and
/// directories, bad numbers, unknown flags, flags without their value.
/// Each row exits with the code it names (never 101, a panic) and names
/// what it is about: on stderr when it fails, on stdout when the case is
/// one the program answers.
#[test]
fn malformed_arguments_never_panic() {
    let dir = tmp("edge");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (mtx, amd, out, missing) = (path("m.mtx"), path("m.amd"), path("out"), path("missing"));
    let (empty, rect, in_missing) = (path("empty.mtx"), path("rect.mtx"), path("missing/out"));
    let here = dir.to_str().unwrap().to_string();
    for setup in [
        vec!["generate", "osm", "400", &mtx, "3"],
        vec!["decompose", &mtx, "32", &amd],
    ] {
        assert!(cli().args(setup).output().unwrap().status.success());
    }
    let header = "%%MatrixMarket matrix coordinate real general\n";
    std::fs::write(&empty, format!("{header}0 0 0\n")).unwrap();
    std::fs::write(&rect, format!("{header}2 3 1\n1 1 2\n")).unwrap();
    let rows: Vec<(Vec<&str>, i32, &str)> = vec![
        (vec!["generate", "osm", "0", &out], 1, "bad n: 0"),
        (vec!["generate", "mawi", "15", &out], 1, "bad n: 15"),
        (vec!["generate", "webbase", "63", &out], 1, "bad n: 63"),
        (vec!["generate", "osm", "many", &out], 1, "bad n"),
        (vec!["generate", "osm", "100", &out, "-1"], 1, "bad seed"),
        (
            vec!["generate", "nonsense", "100", &out],
            1,
            "unknown dataset",
        ),
        (vec!["generate", "osm", "100", &in_missing], 1, &in_missing),
        (vec!["generate", "osm"], 1, "generate needs <dataset>"),
        (
            vec!["generate", "osm", "100", &out, "--seed", "3"],
            1,
            "unknown flag --seed",
        ),
        (vec!["info", &missing], 1, &missing),
        (vec!["info"], 1, "info needs <matrix.mtx>"),
        (
            vec!["decompose", &mtx, "0", &out],
            1,
            "arrow width must be at least 1",
        ),
        (vec!["decompose", &mtx, "b", &out], 1, "bad b"),
        (vec!["decompose", &missing, "8", &out], 1, &missing),
        (
            vec!["decompose", &mtx, "8", &out, "--metrics-json"],
            1,
            "--metrics-json needs",
        ),
        (vec!["multiply", &mtx, &amd, "0"], 0, "k = 0"),
        (vec!["multiply", &mtx, &amd, "4", "0"], 0, "0 iterations"),
        (vec!["multiply", &mtx, &amd, "-1"], 1, "bad k"),
        (vec!["multiply", &mtx, &missing], 1, &missing),
        // Every multiply runs at f64: the serving commands take no
        // precision flag.
        (
            vec!["multiply", &mtx, &amd, "4", "2", "--dtype", "f32"],
            1,
            "unknown flag --dtype",
        ),
        (
            vec!["serve", &mtx, "32", "--dtype", "f32"],
            1,
            "unknown flag --dtype",
        ),
        (
            vec!["stream", &mtx, "32", "--dtype", "f32"],
            1,
            "unknown flag --dtype",
        ),
        (vec!["serve", &mtx, "0"], 0, "decompositions = 0"),
        (
            vec!["serve", &mtx, "0", "4", "4", "1", "--ranks", "4"],
            1,
            "arrow width",
        ),
        (vec!["serve", &mtx, "32", "0", "0", "0"], 0, "0 queries"),
        (vec!["serve", &mtx, "32", "many"], 1, "bad queries"),
        (vec!["serve", &mtx, "32", "--ranks", "0"], 1, "bad --ranks"),
        (vec!["serve", &mtx, "32", "--catalog"], 1, "--catalog needs"),
        (vec!["serve", &rect, "4"], 1, "square"),
        (vec!["stream", &mtx, "32", "0", "0"], 0, "0 updates"),
        (vec!["stream", &empty, "32"], 1, &empty),
        (
            vec!["stream", &mtx, "32", "8", "4", "-0.5"],
            1,
            "bad budget-frac",
        ),
        (
            vec!["stream", &mtx, "32", "--tenants", "x"],
            1,
            "bad --tenants",
        ),
        (
            vec!["stream", &mtx, "32", "--tenants"],
            1,
            "--tenants needs",
        ),
        (
            vec!["stream", &mtx, "32", "--frobnicate"],
            1,
            "unknown flag --frobnicate",
        ),
        (vec!["stats", &missing], 1, &missing),
        (vec!["top", &empty], 1, &empty),
        (vec!["catalog", "ls", &missing], 1, &missing),
        (vec!["catalog", "gc", &missing, "1"], 1, &missing),
        (vec!["catalog", "gc", &here, "x"], 1, "bad retain-last-k"),
        (
            vec!["catalog", "restore", &missing, "zz", "0", &out],
            1,
            "bad fingerprint",
        ),
        (
            vec!["catalog", "restore", &missing, "ab", "0", &out],
            1,
            &missing,
        ),
        (
            vec!["catalog", "prune", &missing],
            1,
            "catalog needs ls|gc|restore",
        ),
        (vec!["chaos", "nosuch"], 1, "unknown scenario nosuch"),
        (vec!["chaos", "--seed", "x"], 1, "bad --seed"),
        (vec!["chaos", "record"], 1, "chaos record needs"),
        (vec!["chaos", "replay", &missing], 1, &missing),
        (vec!["--threads", "0", "info", &mtx], 2, "--threads"),
        (vec!["info", &mtx, "--threads"], 2, "--threads"),
        (vec!["frobnicate"], 2, "usage"),
    ];
    for (args, code, needle) in &rows {
        let run = cli().args(args).output().unwrap();
        let (stdout, stderr) = (
            String::from_utf8_lossy(&run.stdout),
            String::from_utf8_lossy(&run.stderr),
        );
        assert_eq!(run.status.code(), Some(*code), "{args:?}: {stderr}");
        let named = if *code == 0 { &stdout } else { &stderr };
        assert!(
            named.contains(needle),
            "{args:?} must name {needle:?}: {named}"
        );
    }
    assert!(
        !std::path::Path::new(&missing).exists(),
        "inspecting a missing catalog created it"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// README's `## CLI` block is the binary's no-argument usage, verbatim,
/// so the two cannot drift apart.
#[test]
fn readme_synopsis_is_the_usage_text() {
    let usage = String::from_utf8(cli().output().unwrap().stderr).unwrap();
    let readme =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
    let block = readme
        .split_once("## CLI\n\n```\n")
        .and_then(|(_, rest)| rest.split_once("```"))
        .map(|(block, _)| block)
        .expect("README has a ## CLI code block");
    assert_eq!(block.trim_end(), usage.trim_end());
}
