//! Worker supervision under injected faults.
//!
//! These tests arm the `worker.decompose.panic` failpoint so a refresh
//! build panics mid-decompose, then assert the hub's supervision
//! protocol: the panic is counted, the builder thread carries on, the
//! captured delta is restored and the grant requeued (with bounded
//! retries before a counted synchronous fallback), and serving stays
//! bit-exact through every panic. One more test fails an eviction's
//! catalog sweep and checks the tenant still leaves. Lives in its own
//! integration-test binary so the process-wide failpoint table is not
//! shared with unrelated tests; each test holds the arm guard for its
//! whole body (an empty plan until the fault window opens), so its
//! healthy phases cannot be hit by the plan another test has armed.

use amd_chaos::{failpoint, FaultPlan};
use amd_engine::EngineConfig;
use amd_graph::generators::basic;
use amd_obs::Telemetry;
use amd_sparse::{ops, CooMatrix, CsrMatrix, DenseMatrix};
use amd_spmm::reference::iterated_spmm;
use amd_stream::{HubConfig, StalenessBudget, StreamHub, Update};
use std::sync::mpsc;
use std::time::{Duration, Instant};

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

/// One injected build panic: the supervisor counts it, requeues the
/// captured delta, and the retried refresh commits. The answer stream
/// is bit-exact before, during, and after the panic.
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
    assert_eq!(stats.worker_restarts, 1, "one panicked build, counted");
    assert_eq!(stats.refresh_retries, 1, "one requeue");
    assert_eq!(stats.sync_fallbacks, 0, "retry succeeded, no fallback");
    assert_eq!(stats.refreshes_completed, 1);
    assert_eq!(hub.version(t).unwrap(), 1, "the swap committed");
    assert_eq!(hub.delta_nnz(t).unwrap(), 0, "the delta drained");
    assert_exact(&mut hub, t, &truth, 3);
}

/// Every async attempt dies: after the hub's three requeues it falls
/// back to a counted synchronous refresh, which bypasses the worker
/// failpoint and commits. Serving is still bit-exact.
#[test]
fn exhausted_retries_fall_back_to_sync_refresh() {
    failpoint::quiet_injected_panics();
    let mut faults = FaultPlan::new(0).arm();
    let n = 36;
    let mut hub = StreamHub::new(config()).unwrap();
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
    // Initial launch + 3 retries all panic before the fallback.
    assert_eq!(stats.worker_restarts, 4, "every panicked build is counted");
    assert_eq!(stats.refresh_retries, 3, "bounded at three requeues");
    assert_eq!(stats.sync_fallbacks, 1, "then the hub refreshes inline");
    assert_eq!(stats.refreshes_completed, 1);
    assert_eq!(hub.version(t).unwrap(), 1);
    assert_eq!(hub.delta_nnz(t).unwrap(), 0);
    assert_exact(&mut hub, t, &truth, 5);
}

/// The `/proc/self/task` ids of the refresh builder threads alive in
/// this process, by thread name, in id order; `None` where `/proc`
/// cannot tell.
fn refresh_threads() -> Option<Vec<String>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let mut ids: Vec<String> = tasks
        .flatten()
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|name| name.trim() == "amd-refresh")
        })
        .map(|task| task.file_name().to_string_lossy().into_owned())
        .collect();
    ids.sort();
    Some(ids)
}

/// Waits (up to 5 s) until `/proc` shows `want` builder threads: a new
/// thread names itself once it runs, and a joined one can linger in
/// `/proc` for a moment after `join`.
fn await_refresh_threads(want: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while refresh_threads().is_some_and(|live| live.len() != want) {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A caught build panic leaves the builder thread in place: the same
/// `amd-refresh` thread that was there before the injected panic is
/// the only one there after the retried refresh commits.
#[test]
fn the_builder_thread_outlives_a_panicked_build() {
    failpoint::quiet_injected_panics();
    let mut faults = FaultPlan::new(0).arm();
    let n = 40;
    let mut hub = StreamHub::new(config()).unwrap();
    let t = hub.admit(ring(n)).unwrap();
    let mut truth = ring(n);
    apply(&mut hub, t, &mut truth, n, 0, n / 2);
    await_refresh_threads(1, "one builder per hub");
    let before = refresh_threads();

    FaultPlan::worker_kill(23).rearm(&mut faults);
    assert!(hub.refresh(t).unwrap(), "refresh must launch");
    assert_eq!(hub.wait_refreshes().unwrap(), 1, "the retry must commit");
    faults.disarm();

    assert_eq!(hub.stats().worker_restarts, 1, "the build panicked once");
    assert_eq!(
        refresh_threads(),
        before,
        "the builder thread must carry on, not be replaced"
    );
    assert_exact(&mut hub, t, &truth, 4);
}

/// An eviction whose catalog sweep fails still removes the tenant: the
/// binding is gone by then, so the hub finishes its own teardown before
/// it reports the sweep's error, and the other tenant serves on.
#[test]
fn a_failed_catalog_sweep_still_evicts_the_tenant() {
    let mut faults = FaultPlan::new(0).arm();
    let dir = std::env::temp_dir().join(format!("amd-supervision-evict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut hub = StreamHub::new(HubConfig {
        engine: EngineConfig {
            spill_dir: Some(dir.clone()),
            ..config().engine
        },
        ..config()
    })
    .unwrap();
    // Two different matrices, so the evicted tenant's chain is nobody
    // else's and the sweep must rewrite the manifest.
    let doomed = hub.admit(ring(36)).unwrap();
    let kept = hub.admit(ring(40)).unwrap();

    FaultPlan::crash_at(0, failpoint::CATALOG_MANIFEST_BEFORE_REWRITE, 1).rearm(&mut faults);
    let swept = hub.evict(doomed);
    faults.disarm();

    let err = swept.expect_err("the sweep's manifest rewrite was failed");
    assert!(failpoint::is_injected(&err), "{err}");
    assert_eq!(hub.tenants(), [kept], "the evicted tenant is gone");
    let again = hub.evict(doomed).expect_err("a second eviction");
    assert!(again.to_string().contains("not admitted"), "{again}");
    assert_exact(&mut hub, kept, &ring(40), 6);
    drop(hub);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Dropping a hub mid-build returns, joins its builder and leaks no
/// thread — with one tenant's build in flight and a second tenant's
/// grant queued behind it.
#[test]
fn dropping_a_hub_mid_build_joins_its_builder() {
    // Nothing is injected; holding the guard keeps the other tests' hubs
    // (and their builders) out of this test's thread count.
    let _faults = FaultPlan::new(0).arm();
    let n = 36;
    let telemetry = Telemetry::new();
    let mut hub = StreamHub::with_telemetry(
        HubConfig {
            decompose_delay: Some(Duration::from_millis(100)),
            ..config()
        },
        telemetry.clone(),
    )
    .unwrap();
    let tenants = [hub.admit(ring(n)).unwrap(), hub.admit(ring(n)).unwrap()];
    for &t in &tenants {
        hub.update(
            t,
            Update::Add {
                row: 0,
                col: n / 2,
                delta: 1.0,
            },
        )
        .unwrap();
        assert!(hub.refresh(t).unwrap());
    }
    let [building, waiting] = tenants;
    assert!(hub.tenant_stats(building).unwrap().refreshing);
    assert!(hub.tenant_stats(waiting).unwrap().queued);
    await_refresh_threads(1, "one builder per hub");

    let (dropped, done) = mpsc::channel();
    std::thread::spawn(move || {
        drop(hub);
        dropped.send(()).unwrap();
    });
    done.recv_timeout(Duration::from_secs(30))
        .expect("dropping a hub mid-build must return");

    // The builder finished the build it held before the drop returned
    // (it closes the decompose span), and the queued grant never ran.
    let decomposes: Vec<u64> = telemetry
        .tracer
        .snapshot()
        .iter()
        .filter(|e| e.name == "decompose")
        .filter_map(|e| e.tenant)
        .collect();
    assert_eq!(decomposes, vec![building.0]);
    await_refresh_threads(0, "the builder thread leaked");
}
