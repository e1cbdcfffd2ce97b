//! What every workload shares: failure accounting, the per-window
//! record the end-to-end metrics are reduced from, and the one way a
//! request is sent to a hub.

use crate::floor::{self, OwnCsr};
use crate::trace::Tracer;
use amd_sparse::DenseMatrix;
use amd_stream::{StreamHub, TenantId};
use std::collections::BTreeMap;

/// Operations attempted and failed. A failure is an error from the
/// program or an answer that is not bit-identical to the owned floor;
/// the run goes on after one and reports it at the end.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Named values gathered beside the timings: program counters read
/// through its stats structs, and layer timings from probes.
pub type Values = BTreeMap<String, f64>;

/// A run of consecutive operations inside a window. Throughput is taken
/// per block and the window reports the median, so one stall of a shared
/// host spoils one block, not the window; inside a block it is a plain
/// sum, so the program's own slow requests still count.
#[derive(Debug, Default, Clone, Copy)]
pub struct Block {
    /// Queries answered.
    pub queries: u64,
    /// Wall seconds of every timed client call (requests, and update
    /// blocks where the workload has them).
    pub client_s: f64,
}

/// One measured window: a fresh set-up, then a fixed number of
/// operations. Every end-to-end value is the median of its per-window
/// values.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall seconds of standing the serving objects up.
    pub setup_s: f64,
    /// Wall seconds of each request, first `submit` to `flush` returning.
    pub requests_s: Vec<f64>,
    pub blocks: Vec<Block>,
    /// For each request the floor was timed on: its wall over the
    /// floor's wall on the same inputs.
    pub floor_ratios: Vec<f64>,
    /// Program counters and layer values gathered over the window.
    pub counts: Values,
}

impl Window {
    pub fn queries_per_s(&self) -> f64 {
        let per: Vec<f64> = self
            .blocks
            .iter()
            .map(|b| b.queries as f64 / b.client_s)
            .collect();
        crate::stats::median(&per)
    }
}

/// Query columns side by side, as the program's dense operand.
pub fn pack(n: u32, columns: &[Vec<f64>]) -> DenseMatrix<f64> {
    DenseMatrix::from_fn(n, columns.len() as u32, |r, c| {
        columns[c as usize][r as usize]
    })
}

/// The columns of a dense answer.
pub fn unpack(y: &DenseMatrix<f64>) -> Vec<Vec<f64>> {
    (0..y.cols())
        .map(|c| (0..y.rows()).map(|r| y.get(r, c)).collect())
        .collect()
}

/// Bit-for-bit equality of two sets of answer columns.
pub fn agree(got: &[Vec<f64>], expected: &[Vec<f64>]) -> bool {
    got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|(g, e)| floor::identical(g, e))
}

/// Sends one request — `submit` per column, then `flush` — and returns
/// the answer columns with the request's wall seconds. The caller
/// compares the answers with the floor outside this timed region.
pub fn hub_request(
    hub: &mut StreamHub,
    tenant: TenantId,
    columns: Vec<Vec<f64>>,
    iters: u32,
    tracer: &mut Tracer,
    request: u64,
) -> (Result<Vec<Vec<f64>>, String>, f64) {
    let width = columns.len();
    let span = tracer.open("request", None, request);
    let mut outcome = Ok(());
    for column in columns {
        let sent = tracer.child("stream.submit", &span, request, || {
            hub.submit(tenant, column, iters, None)
        });
        if let Err(e) = sent {
            outcome = Err(format!("submit: {e}"));
            break;
        }
    }
    // Flush even after a failed submit so no query stays queued.
    let flushed = tracer.child("stream.flush", &span, request, || hub.flush());
    let seconds = tracer.close(span);
    let answers = match (outcome, flushed) {
        (Err(e), _) => Err(e),
        (Ok(()), Err(e)) => Err(format!("flush: {e}")),
        (Ok(()), Ok(responses)) if responses.len() != width => {
            Err(format!("{} answers for {width} queries", responses.len()))
        }
        (Ok(()), Ok(responses)) => Ok(responses.into_iter().map(|r| r.y).collect()),
    };
    (answers, seconds)
}

/// Times the floor on a request's inputs and checks the program's
/// answers against it; returns the floor's wall seconds.
pub fn floor_check(
    a: &OwnCsr,
    columns: &[Vec<f64>],
    iters: u32,
    answers: &Result<Vec<Vec<f64>>, String>,
    tracer: &mut Tracer,
    request: u64,
    tally: &mut Tally,
) -> f64 {
    let (expected, seconds) = tracer.time("bench.floor", None, request, || {
        floor::answer(a, columns, iters)
    });
    let ok = match answers {
        Ok(got) if agree(got, &expected) => true,
        Ok(_) => {
            eprintln!("request {request}: answer differs from the owned floor");
            false
        }
        Err(e) => {
            eprintln!("request {request} failed: {e}");
            false
        }
    };
    tally.record(ok);
    seconds
}

/// The `amd-exec` counters a window's operations added.
pub fn exec_counts(before: amd_exec::ExecStats, counts: &mut Values) {
    let after = amd_exec::global().stats();
    counts.insert(
        "exec.compute_jobs".into(),
        (after.compute_jobs - before.compute_jobs) as f64,
    );
    counts.insert(
        "exec.rank_runs".into(),
        (after.rank_runs - before.rank_runs) as f64,
    );
    counts.insert(
        "exec.rank_threads_spawned".into(),
        (after.rank_threads_spawned - before.rank_threads_spawned) as f64,
    );
    counts.insert(
        "exec.rank_threads_reused".into(),
        (after.rank_threads_reused - before.rank_threads_reused) as f64,
    );
}

/// The hub's and its engine's counters at the end of a window (a window
/// starts a fresh hub, so they cover the window).
pub fn hub_counts(hub: &StreamHub, counts: &mut Values) {
    let s = hub.stats();
    counts.insert(
        "stream.refreshes_completed".into(),
        s.refreshes_completed as f64,
    );
    counts.insert(
        "stream.incremental_refreshes".into(),
        s.splice.incremental_refreshes as f64,
    );
    counts.insert(
        "stream.fallback_refreshes".into(),
        s.splice.fallback_refreshes as f64,
    );
    counts.insert(
        "stream.reused_vertex_share".into(),
        s.splice.reused_vertex_fraction(),
    );
    counts.insert(
        "stream.suppressed_triggers".into(),
        s.suppressed_triggers as f64,
    );
    counts.insert("stream.sync_fallbacks".into(), s.sync_fallbacks as f64);
    counts.insert("stream.worker_restarts".into(), s.worker_restarts as f64);
    counts.insert("stream.refresh_failures".into(), s.refresh_failures as f64);
    let e = hub.engine_stats();
    counts.insert("engine.runs".into(), e.runs as f64);
    counts.insert("engine.corrected_runs".into(), e.corrected_runs as f64);
    counts.insert("engine.mispredictions".into(), e.mispredictions as f64);
    counts.insert(
        "engine.batch_mean".into(),
        if e.runs == 0 {
            0.0
        } else {
            e.queries as f64 / e.runs as f64
        },
    );
    counts.insert(
        "engine.decompositions".into(),
        hub.cache_stats().decompositions as f64,
    );
}
