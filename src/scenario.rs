//! Chaos scenario harness: replay a recorded mutation/query trace
//! against a live [`StreamHub`] under a [`FaultPlan`], and assert the
//! two recovery invariants end to end:
//!
//! 1. **Serving is bit-exact under faults.** Every query answer is
//!    checked against a serial reference multiply on a truth mirror of
//!    the tenant's matrix; traces and operands are integer-valued, so
//!    the comparison is `max |Δ| == 0.0` exactly — a panicked build, a
//!    retried multiply, or a crashed catalog write must not perturb a
//!    single bit.
//! 2. **Restart after any injected crash recovers with zero orphans.**
//!    Crash scenarios abandon the catalog mid-write exactly where the
//!    failpoint fired, then reopen the directory and assert that every
//!    stale temp file was swept, every orphaned payload was adopted,
//!    and every manifest record resolves to a payload on disk.
//!
//! [`builtin_scenarios`] is the suite `arrow-matrix-cli chaos` runs
//! (worker kills, retry exhaustion, a crash at every catalog
//! failpoint, a torn payload write, transient multiply errors, and the
//! fault-free adversarial workloads) — each on a 16-rank simulated
//! deployment, where queries cross the distributed algorithms, and
//! those without a catalog again (`<name>-p1`) on the default one-rank
//! deployment, where they are served in shared memory and nothing is
//! decomposed or persisted; [`run`] executes one scenario and never
//! panics — failures come back as a failed [`ScenarioReport`].
//!
//! [`StreamHub`]: amd_stream::StreamHub
//! [`FaultPlan`]: amd_chaos::FaultPlan

use amd_chaos::failpoint;
use amd_chaos::{generators, FaultPlan, ScenarioTrace, TraceOp};
use amd_engine::EngineConfig;
use amd_obs::JsonWriter;
use amd_sparse::{ops, CooMatrix, CsrMatrix, DenseMatrix, SparseResult};
use amd_spmm::reference::iterated_spmm;
use amd_stream::{HubConfig, StalenessBudget, StreamHub, Update};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// What a scenario must demonstrate beyond bit-exact serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// At least one panicked build, retried without a sync fallback.
    WorkerKill,
    /// Retries exhaust: the hub takes the counted sync-refresh
    /// fallback at least once.
    SyncFallback,
    /// The injected crash left debris (stale tmp and/or orphaned
    /// payload) and reopening healed all of it.
    CrashRecovery,
    /// The torn payload is rejected by the checksum footer on reload.
    TornPayload,
    /// At least one transient multiply error retried in place.
    TransientMultiply,
    /// No faults: the adversarial workload itself must verify, with at
    /// least one refresh actually committed.
    FaultFree,
    /// Bit-exact serving only — the rule for replaying an
    /// arbitrary recorded trace that may not refresh at all.
    Exact,
}

/// One runnable scenario: a trace, a fault plan, and what passing
/// means.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Name used for reporting and the scratch catalog directory.
    pub name: String,
    /// The mutation/query stream to replay.
    pub trace: ScenarioTrace,
    /// Faults armed for the duration of the replay.
    pub plan: FaultPlan,
    /// Ranks of the deployment the hub's engine plans for
    /// ([`EngineConfig::target_ranks`]).
    pub target_ranks: u32,
    /// Attach a write-through catalog (scratch directory, cleared
    /// before the run).
    pub with_catalog: bool,
    /// After the run, simulate a restart: reopen the catalog directory
    /// cold and assert the recovery invariants.
    pub crash_reopen: bool,
    /// The scenario-specific pass rule.
    pub expect: Expectation,
}

/// The outcome of one scenario run — every counter the pass criteria
/// (and the `BENCH_scenarios.json` artifact) need.
#[derive(Debug, Clone, Default)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// All invariants held.
    pub passed: bool,
    /// Human-readable outcome (first failure, or a success summary).
    pub detail: String,
    /// Query answers checked against the serial reference.
    pub verified: u64,
    /// Largest absolute serving error over all verified answers; must
    /// be exactly `0.0` (integer-valued traces).
    pub max_abs_err: f64,
    /// [`HubStats::worker_restarts`](amd_stream::hub::HubStats) after the run.
    pub worker_restarts: u64,
    /// [`HubStats::refresh_retries`](amd_stream::hub::HubStats) after the run.
    pub refresh_retries: u64,
    /// [`HubStats::sync_fallbacks`](amd_stream::hub::HubStats) after the run.
    pub sync_fallbacks: u64,
    /// Background refreshes committed during the run.
    pub refreshes_completed: u64,
    /// Transient multiply errors absorbed by the engine's retry loop.
    pub multiply_retries: u64,
    /// Catalog write-throughs that failed (the crash injections land
    /// here — serving absorbs them).
    pub spill_failures: u64,
    /// Catalog payloads that failed to load on the post-restart probe
    /// (the torn-write detection counter).
    pub load_failures: u64,
    /// Orphaned payloads adopted by the post-crash reopen.
    pub recovered_records: u64,
    /// Stale `*.tmp` files swept by the post-crash reopen.
    pub stale_tmp_swept: u64,
    /// Per-site failpoint activity: `(site, hits, fired)`.
    pub fired: Vec<(String, u64, u64)>,
}

impl ScenarioReport {
    fn fired_total(&self) -> u64 {
        self.fired.iter().map(|(_, _, fired)| fired).sum()
    }
}

/// The built-in suite, seeded deterministically: same `seed`, same
/// traces, same injection points, same counters. Twelve scenarios on a
/// 16-rank deployment, then the six of them that attach no catalog
/// again (`<name>-p1`) on one rank.
pub fn builtin_scenarios(seed: u64) -> Vec<Scenario> {
    // The crash trace performs exactly 3 catalog puts (1 at admit, 1
    // per committed refresh round), so `Nth(3)` targets the *final*
    // put: nothing writes afterwards, which is what makes the
    // injection crash-exact — a real crash leaves no later put to
    // paper over the debris.
    let crash_trace = || generators::region_merging(64, 1, 2, 4, seed);
    let crash = |name: &str, site: &str| Scenario {
        name: name.to_string(),
        trace: crash_trace(),
        plan: FaultPlan::crash_at(seed, site, 3),
        target_ranks: 16,
        with_catalog: true,
        crash_reopen: true,
        expect: Expectation::CrashRecovery,
    };
    let distributed = vec![
        Scenario {
            name: "worker-kill".to_string(),
            trace: generators::region_merging(96, 2, 4, 6, seed),
            plan: FaultPlan::worker_kill(seed),
            target_ranks: 16,
            with_catalog: false,
            crash_reopen: false,
            expect: Expectation::WorkerKill,
        },
        Scenario {
            name: "sync-fallback".to_string(),
            trace: generators::region_merging(64, 1, 2, 4, seed.wrapping_add(1)),
            plan: FaultPlan::worker_kill_always(seed),
            target_ranks: 16,
            with_catalog: false,
            crash_reopen: false,
            expect: Expectation::SyncFallback,
        },
        crash(
            "crash-window-payload-fsync",
            failpoint::CATALOG_PAYLOAD_BEFORE_FSYNC,
        ),
        crash(
            "crash-window-payload-rename",
            failpoint::CATALOG_PAYLOAD_AFTER_RENAME,
        ),
        crash(
            "crash-window-manifest-rewrite",
            failpoint::CATALOG_MANIFEST_BEFORE_REWRITE,
        ),
        crash(
            "crash-window-manifest-fsync",
            failpoint::CATALOG_MANIFEST_BEFORE_FSYNC,
        ),
        Scenario {
            name: "torn-payload".to_string(),
            trace: crash_trace(),
            plan: FaultPlan::torn_payload(seed, 0.5),
            target_ranks: 16,
            with_catalog: true,
            crash_reopen: true,
            expect: Expectation::TornPayload,
        },
        Scenario {
            name: "multiply-transient".to_string(),
            trace: generators::region_merging(64, 1, 2, 4, seed.wrapping_add(3)),
            plan: FaultPlan::transient_multiply(seed, 2),
            target_ranks: 16,
            with_catalog: false,
            crash_reopen: false,
            expect: Expectation::TransientMultiply,
        },
        Scenario {
            name: "adversarial-region".to_string(),
            trace: generators::region_merging(96, 3, 4, 8, seed.wrapping_add(4)),
            plan: FaultPlan::new(seed),
            target_ranks: 16,
            with_catalog: false,
            crash_reopen: false,
            expect: Expectation::FaultFree,
        },
        Scenario {
            name: "oscillating".to_string(),
            trace: generators::oscillating(96, 2, 6, seed.wrapping_add(5)),
            plan: FaultPlan::new(seed),
            target_ranks: 16,
            with_catalog: true,
            crash_reopen: false,
            expect: Expectation::FaultFree,
        },
        Scenario {
            name: "zipf-burst".to_string(),
            trace: generators::zipf_bursts(96, 3, 12, 1.2, 8, seed.wrapping_add(6)),
            plan: FaultPlan::new(seed),
            target_ranks: 16,
            with_catalog: false,
            crash_reopen: false,
            expect: Expectation::FaultFree,
        },
        Scenario {
            name: "tenant-skew".to_string(),
            trace: generators::zipf_tenant_skew(64, 16, 4, 6, 1.3, seed.wrapping_add(7)),
            plan: FaultPlan::new(seed),
            target_ranks: 16,
            with_catalog: false,
            crash_reopen: false,
            expect: Expectation::FaultFree,
        },
    ];
    // The same traces, faults and pass criteria on the default
    // deployment: answers are bit-exact either way, so the rank count
    // is one more parameter of the suite. A one-rank hub never puts to
    // its catalog, so a catalog failpoint could not fire there and a
    // catalog scenario would repeat its catalog-less twin.
    let local = distributed
        .iter()
        .filter(|s| !s.with_catalog)
        .map(|s| Scenario {
            name: format!("{}-p1", s.name),
            target_ranks: 1,
            ..s.clone()
        });
    distributed.iter().cloned().chain(local).collect()
}

/// Runs one scenario. Never panics and never propagates hub errors: a
/// failure of any invariant (or any unexpected error) comes back as a
/// failed report with the cause in `detail`.
pub fn run(scenario: &Scenario) -> ScenarioReport {
    // Worker-kill scenarios panic threads on purpose; keep the default
    // panic hook's backtrace spam out of the suite's output.
    failpoint::quiet_injected_panics();
    let mut report = ScenarioReport {
        name: scenario.name.clone(),
        ..ScenarioReport::default()
    };
    let dir = scenario.with_catalog.then(|| scratch_dir(&scenario.name));
    if let Some(d) = &dir {
        let _ = fs::remove_dir_all(d);
    }
    let result = replay(scenario, dir.clone(), &mut report);
    match result {
        Ok(()) => evaluate(scenario, &mut report),
        Err(e) => {
            report.passed = false;
            report.detail = format!("scenario errored: {e}");
        }
    }
    if let Some(d) = &dir {
        let _ = fs::remove_dir_all(d);
    }
    report
}

/// The replay itself: arm the plan, drive the hub through the trace,
/// verify every query bit-exactly, then (for crash scenarios) reopen
/// the abandoned catalog and record what recovery found.
fn replay(
    scenario: &Scenario,
    dir: Option<PathBuf>,
    report: &mut ScenarioReport,
) -> SparseResult<()> {
    let n = scenario.trace.n as u32;
    let base = base_matrix(n)?;
    let mut guard = scenario.plan.arm();
    let mut hub = StreamHub::new(HubConfig {
        engine: EngineConfig {
            arrow_width: 16,
            spill_dir: dir.clone(),
            cache_capacity: 64,
            target_ranks: scenario.target_ranks,
            ..EngineConfig::default()
        },
        // Refreshes are driven exclusively by the trace's explicit
        // `Refresh`/`Settle` ops so injection points are deterministic.
        budget: StalenessBudget::nnz_fraction(1e9),
        auto_refresh: false,
        async_refresh: true,
        ..HubConfig::default()
    })?;
    let ids: Vec<_> = (0..scenario.trace.tenants)
        .map(|_| hub.admit(base.clone()))
        .collect::<SparseResult<_>>()?;
    let mut truth = vec![base.clone(); scenario.trace.tenants];
    for op in &scenario.trace.ops {
        match *op {
            TraceOp::Add {
                tenant,
                row,
                col,
                value,
            } => {
                let update = Update::Add {
                    row,
                    col,
                    delta: value,
                };
                mirror(&mut truth[tenant], update)?;
                hub.update(ids[tenant], update)?;
            }
            TraceOp::Set {
                tenant,
                row,
                col,
                value,
            } => {
                let update = Update::Set { row, col, value };
                mirror(&mut truth[tenant], update)?;
                hub.update(ids[tenant], update)?;
            }
            TraceOp::Query {
                tenant,
                salt,
                iters,
            } => {
                let x = operand(n, salt);
                let resp = hub.run_single(ids[tenant], x.clone(), iters as u32, None)?;
                let xm = DenseMatrix::from_vec(n, 1, x)?;
                let want = iterated_spmm(&truth[tenant], &xm, iters as u32)?;
                let got = DenseMatrix::from_vec(n, 1, resp.y)?;
                report.max_abs_err = report.max_abs_err.max(got.max_abs_diff(&want)?);
                report.verified += 1;
            }
            TraceOp::Refresh { tenant } => {
                // Land every earlier build first, so this request is
                // granted here, on the delta it has here, however fast the
                // builder is. Waiting out only this tenant's build is not
                // enough: a grant queued behind another tenant's would
                // capture whatever updates arrive before the builder frees.
                hub.wait_refreshes()?;
                hub.refresh(ids[tenant])?;
            }
            TraceOp::Settle => {
                hub.wait_refreshes()?;
            }
        }
    }
    hub.wait_refreshes()?;
    let hstats = hub.stats();
    report.worker_restarts = hstats.worker_restarts;
    report.refresh_retries = hstats.refresh_retries;
    report.sync_fallbacks = hstats.sync_fallbacks;
    report.refreshes_completed = hstats.refreshes_completed;
    report.multiply_retries = hub.engine_stats().multiply_retries;
    report.spill_failures = hub.cache_stats().spill_failures;
    report.fired = failpoint::fired_counts();
    // Tear down IN THIS ORDER: the hub first (its drop joins worker
    // threads that may still probe failpoints), then the plan. The
    // guard itself stays to the end: the reopen below rewrites the
    // manifest, and must not be hit by a plan armed on another thread.
    drop(hub);
    guard.disarm();
    if scenario.crash_reopen {
        if let Some(d) = &dir {
            reopen_and_probe(d, report)?;
        }
    }
    Ok(())
}

/// Simulated restart: reopen the catalog directory cold, record what
/// recovery did, re-load every surviving record (the torn-write
/// probe), and assert the on-disk invariants (no stale tmp files, no
/// unreferenced payloads, no dangling records).
fn reopen_and_probe(dir: &Path, report: &mut ScenarioReport) -> SparseResult<()> {
    let mut catalog = crate::core::Catalog::open(dir)?;
    report.recovered_records = catalog.stats().recovered_records;
    report.stale_tmp_swept = catalog.stats().stale_tmp_swept;
    for record in catalog.records().to_vec() {
        // A payload that fails its checksum is dropped here (counted
        // in load_failures) so the next decompose re-puts over it.
        let _ = catalog.get(record.fingerprint, &record.config, record.seed)?;
    }
    report.load_failures = catalog.stats().load_failures;
    let mut stale_tmp = 0u64;
    let mut orphans = 0u64;
    let referenced: Vec<String> = catalog
        .records()
        .iter()
        .map(|r| r.payload.clone())
        .collect();
    for entry in fs::read_dir(dir)
        .map_err(|e| amd_sparse::SparseError::InvalidCsr(format!("scratch dir vanished: {e}")))?
    {
        let Ok(entry) = entry else { continue };
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".tmp") {
            stale_tmp += 1;
        } else if name.ends_with(".amd") && !referenced.contains(&name) {
            orphans += 1;
        }
    }
    let mut dangling = 0u64;
    for record in catalog.records() {
        if !catalog.payload_path(record).is_file() {
            dangling += 1;
        }
    }
    if stale_tmp > 0 || orphans > 0 || dangling > 0 {
        report.detail = format!(
            "recovery left debris: {stale_tmp} stale tmp, {orphans} orphaned payloads, \
             {dangling} dangling records"
        );
    }
    Ok(())
}

/// Applies the scenario's pass rule to the collected counters.
fn evaluate(scenario: &Scenario, report: &mut ScenarioReport) {
    if !report.detail.is_empty() {
        report.passed = false;
        return;
    }
    if let Some(failure) = first_failure(scenario, report) {
        report.detail = failure;
        return;
    }
    report.passed = true;
    let mut summary = format!("{} answers bit-exact", report.verified);
    if report.worker_restarts > 0 {
        let _ = write!(
            summary,
            ", {} worker restart(s), {} retry(ies), {} sync fallback(s)",
            report.worker_restarts, report.refresh_retries, report.sync_fallbacks
        );
    }
    if report.multiply_retries > 0 {
        let _ = write!(summary, ", {} multiply retry(ies)", report.multiply_retries);
    }
    if report.recovered_records + report.stale_tmp_swept > 0 {
        let _ = write!(
            summary,
            ", recovery adopted {} orphan(s) and swept {} tmp file(s)",
            report.recovered_records, report.stale_tmp_swept
        );
    }
    if report.load_failures > 0 {
        let _ = write!(
            summary,
            ", {} torn payload(s) rejected",
            report.load_failures
        );
    }
    report.detail = summary;
}

/// The first violated invariant, if any (checked in severity order).
fn first_failure(scenario: &Scenario, report: &ScenarioReport) -> Option<String> {
    if report.verified == 0 {
        return Some("no answers were verified".to_string());
    }
    if report.max_abs_err != 0.0 {
        return Some(format!(
            "serving diverged from the reference: max |Δ| = {:.3e}",
            report.max_abs_err
        ));
    }
    match scenario.expect {
        Expectation::WorkerKill => {
            if report.worker_restarts == 0 {
                return Some("no panicked build was observed".to_string());
            }
            if report.sync_fallbacks != 0 {
                return Some("unexpected sync fallback".to_string());
            }
        }
        Expectation::SyncFallback => {
            if report.sync_fallbacks == 0 {
                return Some("retries never exhausted into a sync fallback".to_string());
            }
        }
        Expectation::CrashRecovery => {
            if report.fired_total() == 0 {
                return Some("the crash failpoint never fired".to_string());
            }
            if report.recovered_records + report.stale_tmp_swept == 0 {
                return Some("the crash left no debris for recovery to heal".to_string());
            }
        }
        Expectation::TornPayload => {
            if report.fired_total() == 0 {
                return Some("the torn-write failpoint never fired".to_string());
            }
            if report.load_failures == 0 {
                return Some("the torn payload was not rejected on reload".to_string());
            }
        }
        Expectation::TransientMultiply => {
            if report.multiply_retries == 0 {
                return Some("no transient multiply was retried".to_string());
            }
        }
        Expectation::FaultFree => {
            if report.refreshes_completed == 0 {
                return Some("no background refresh committed".to_string());
            }
        }
        Expectation::Exact => {}
    }
    None
}

/// The `BENCH_scenarios.json` artifact (schema `amd-scenarios/1`): one
/// line per scenario, exact counters only, so two runs of one seed write
/// the same bytes.
pub fn reports_to_json(seed: u64, reports: &[ScenarioReport]) -> String {
    let passed = reports.iter().filter(|r| r.passed).count() as u64;
    let scenarios: Vec<String> = reports
        .iter()
        .map(|r| {
            let mut w = JsonWriter::compact_object();
            w.field_str("name", &r.name);
            w.field_raw("passed", &r.passed.to_string());
            w.field_u64("verified", r.verified);
            w.field_f64("max_abs_err", r.max_abs_err);
            for (name, value) in [
                ("worker_restarts", r.worker_restarts),
                ("refresh_retries", r.refresh_retries),
                ("sync_fallbacks", r.sync_fallbacks),
                ("refreshes_completed", r.refreshes_completed),
                ("multiply_retries", r.multiply_retries),
                ("spill_failures", r.spill_failures),
                ("load_failures", r.load_failures),
                ("recovered_records", r.recovered_records),
                ("stale_tmp_swept", r.stale_tmp_swept),
            ] {
                w.field_u64(name, value);
            }
            let fired: Vec<String> = (r.fired.iter())
                .map(|(site, hits, fired)| {
                    let mut f = JsonWriter::compact_object();
                    f.field_str("site", site);
                    f.field_u64("hits", *hits);
                    f.field_u64("fired", *fired);
                    f.finish()
                })
                .collect();
            w.field_array("fired", &fired);
            w.field_str("detail", &r.detail);
            w.finish()
        })
        .collect();
    let mut w = JsonWriter::object();
    w.field_str("schema", "amd-scenarios/1");
    w.field_u64("seed", seed);
    w.field_u64("passed", passed);
    w.field_u64("failed", reports.len() as u64 - passed);
    w.field_array("scenarios", &scenarios);
    w.finish()
}

/// Deterministic integer-valued base: a symmetric ring with a heavy
/// diagonal. Every value (and every trace update) is a small integer,
/// so corrected serving must match the reference *exactly*.
fn base_matrix(n: u32) -> SparseResult<CsrMatrix<f64>> {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 2.0)?;
        coo.push(i, (i + 1) % n, 1.0)?;
        coo.push((i + 1) % n, i, 1.0)?;
    }
    Ok(coo.to_csr())
}

/// The deterministic dense operand a trace `Query` op encodes by salt.
fn operand(n: u32, salt: u64) -> Vec<f64> {
    (0..n)
        .map(|r| (((salt as u32).wrapping_add(3 * r) % 11) as f64) - 5.0)
        .collect()
}

/// Mirrors one update onto a truth matrix through a one-entry delta: the
/// serial reference a streaming holder's answers are checked against.
pub fn mirror(truth: &mut CsrMatrix<f64>, update: Update) -> SparseResult<()> {
    let (row, col) = update.position();
    let mut patch = CooMatrix::new(truth.rows(), truth.cols());
    patch.push(row, col, update.additive(truth.get(row, col)))?;
    *truth = ops::apply_delta(truth, &patch.to_csr())?;
    Ok(())
}

/// Per-process, per-scenario scratch directory for catalog runs.
fn scratch_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("amd-chaos-{}-{}", std::process::id(), name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amd_obs::{parse_json, JsonValue};

    #[test]
    fn a_detail_with_a_backslash_quote_and_newline_reads_back_unchanged() {
        let detail = "torn \\ payload \"x\"\nsecond line";
        let report = ScenarioReport {
            name: "escapes".into(),
            detail: detail.into(),
            fired: vec![("site \"a\"".into(), 2, 1)],
            ..ScenarioReport::default()
        };
        let doc = parse_json(&reports_to_json(7, &[report])).expect("valid JSON");
        let Some(JsonValue::Arr(scenarios)) = doc.get("scenarios") else {
            panic!("no scenarios array");
        };
        assert_eq!(
            scenarios[0].get("detail").and_then(JsonValue::as_str),
            Some(detail)
        );
        assert_eq!(doc.get("failed").and_then(JsonValue::as_u64), Some(1));
    }
}
