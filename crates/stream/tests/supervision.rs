//! Worker supervision under injected panics.
//!
//! These tests arm the `worker.decompose.panic` failpoint so the
//! refresh worker dies mid-decompose, then assert the hub's
//! supervision protocol: the worker is respawned, the captured delta
//! is restored and the grant requeued (with bounded retries before a
//! counted synchronous fallback), and serving stays bit-exact through
//! every death. Lives in its own integration-test binary so the
//! process-wide failpoint table is not shared with unrelated tests;
//! each test holds the arm guard for its whole body (an empty plan
//! until the fault window opens), so its healthy phases cannot be hit
//! by the plan the other test has armed.

use amd_chaos::{failpoint, FaultPlan};
use amd_engine::EngineConfig;
use amd_graph::generators::basic;
use amd_sparse::{ops, CooMatrix, CsrMatrix, DenseMatrix};
use amd_spmm::reference::iterated_spmm;
use amd_stream::{HubConfig, StalenessBudget, StreamHub, Update};

fn ring(n: u32) -> CsrMatrix<f64> {
    basic::cycle(n).to_adjacency()
}

fn config() -> HubConfig {
    HubConfig {
        engine: EngineConfig {
            arrow_width: 8,
            target_ranks: 4,
            ..EngineConfig::default()
        },
        // Never auto-trip: refreshes are driven explicitly.
        budget: StalenessBudget::nnz_fraction(1e9),
        auto_refresh: false,
        async_refresh: true,
        ..HubConfig::default()
    }
}

fn column(n: u32, salt: u32) -> Vec<f64> {
    (0..n)
        .map(|r| (((salt + 3 * r) % 9) as f64) - 4.0)
        .collect()
}

/// Applies an integer update to both the hub tenant and a truth mirror.
fn apply(
    hub: &mut StreamHub,
    t: amd_stream::TenantId,
    truth: &mut CsrMatrix<f64>,
    n: u32,
    u: u32,
    v: u32,
) {
    let mut patch = CooMatrix::new(n, n);
    patch.push(u, v, 1.0).unwrap();
    *truth = ops::apply_delta(truth, &patch.to_csr()).unwrap();
    hub.update(
        t,
        Update::Add {
            row: u,
            col: v,
            delta: 1.0,
        },
    )
    .unwrap();
}

fn assert_exact(hub: &mut StreamHub, t: amd_stream::TenantId, truth: &CsrMatrix<f64>, salt: u32) {
    let n = truth.rows();
    let x = column(n, salt);
    let xm = DenseMatrix::from_vec(n, 1, x.clone()).unwrap();
    let got = hub.run_single(t, x, 2, None).unwrap();
    assert_eq!(
        got.y,
        iterated_spmm(truth, &xm, 2).unwrap().data(),
        "serving must stay bit-exact (salt {salt})"
    );
}

/// One injected worker death: the supervisor respawns the worker,
/// requeues the captured delta, and the retried refresh commits. The
/// answer stream is bit-exact before, during, and after the death.
#[test]
fn worker_panic_is_supervised_and_serving_stays_exact() {
    failpoint::quiet_injected_panics();
    let mut faults = FaultPlan::new(0).arm();
    let n = 40;
    let mut hub = StreamHub::new(config()).unwrap();
    let t = hub.admit(ring(n)).unwrap();
    let mut truth = ring(n);
    for i in 0..4u32 {
        apply(&mut hub, t, &mut truth, n, i, (i + n / 2) % n);
    }
    assert_exact(&mut hub, t, &truth, 1);

    FaultPlan::worker_kill(23).rearm(&mut faults);
    assert!(hub.refresh(t).unwrap(), "refresh must launch");
    // Serving while the doomed rebuild (and its retry) is in flight.
    assert_exact(&mut hub, t, &truth, 2);
    assert_eq!(hub.wait_refreshes().unwrap(), 1, "the retry must commit");
    faults.disarm();

    let stats = hub.stats();
    assert_eq!(stats.worker_restarts, 1, "one death, one respawn");
    assert_eq!(stats.refresh_retries, 1, "one requeue");
    assert_eq!(stats.sync_fallbacks, 0, "retry succeeded, no fallback");
    assert_eq!(stats.refreshes_completed, 1);
    assert_eq!(hub.version(t).unwrap(), 1, "the swap committed");
    assert_eq!(hub.delta_nnz(t).unwrap(), 0, "the delta drained");
    assert_exact(&mut hub, t, &truth, 3);
}

/// Every async attempt dies: after `max_refresh_retries` requeues the
/// hub falls back to a counted synchronous refresh, which bypasses the
/// worker failpoint and commits. Serving is still bit-exact.
#[test]
fn exhausted_retries_fall_back_to_sync_refresh() {
    failpoint::quiet_injected_panics();
    let mut faults = FaultPlan::new(0).arm();
    let n = 36;
    let mut cfg = config();
    cfg.max_refresh_retries = 2;
    let mut hub = StreamHub::new(cfg).unwrap();
    let t = hub.admit(ring(n)).unwrap();
    let mut truth = ring(n);
    for i in 0..3u32 {
        apply(&mut hub, t, &mut truth, n, i, i + 10);
    }

    FaultPlan::worker_kill_always(29).rearm(&mut faults);
    assert!(hub.refresh(t).unwrap());
    assert_eq!(
        hub.wait_refreshes().unwrap(),
        1,
        "the sync fallback must commit the refresh"
    );
    faults.disarm();

    let stats = hub.stats();
    // Initial launch + 2 retries all die before the fallback.
    assert_eq!(stats.worker_restarts, 3, "every death respawns the worker");
    assert_eq!(stats.refresh_retries, 2, "bounded by max_refresh_retries");
    assert_eq!(stats.sync_fallbacks, 1, "then the hub refreshes inline");
    assert_eq!(stats.refreshes_completed, 1);
    assert_eq!(hub.version(t).unwrap(), 1);
    assert_eq!(hub.delta_nnz(t).unwrap(), 0);
    assert_exact(&mut hub, t, &truth, 5);
}
