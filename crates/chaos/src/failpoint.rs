//! Named fault-injection sites ("failpoints").
//!
//! A failpoint is a call to [`check`] (or [`torn`]) at a named site in
//! production code. With no plan armed the probe is one relaxed atomic
//! load and a predicted not-taken branch — cheap enough to leave
//! compiled into release builds without moving the telemetry-overhead
//! gate (`tests/obs.rs::perf_smoke_telemetry_overhead`). Arming a [`FaultPlan`](crate::FaultPlan) installs per-site
//! state behind a process-wide exclusive lock; dropping the returned
//! [`FaultGuard`] disarms everything. Sites are process-wide, so code
//! that must run fault-free next to code that injects faults (a test's
//! healthy baseline, a post-crash reopen) has to hold the guard too:
//! take it once for the whole body — an empty plan arms nothing — and
//! switch plans in place with [`FaultGuard::rearm`] /
//! [`FaultGuard::disarm`], never by dropping and re-taking it.
//!
//! Determinism: probabilistic triggers draw from a per-site ChaCha8
//! stream seeded by `fnv(plan_seed, site_name)`, so a scenario replays
//! the same faults at the same hits for the same seed regardless of
//! which other sites are armed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use amd_sparse::{SparseError, SparseResult};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Catalog payload write: fail before the payload file is fsynced
/// (tmp file written but nothing durable or renamed).
pub const CATALOG_PAYLOAD_BEFORE_FSYNC: &str = "catalog.payload.before_fsync";
/// Catalog put: crash in the window between the payload rename and the
/// manifest rewrite (payload on disk, manifest does not reference it —
/// the orphan-adoption window).
pub const CATALOG_PAYLOAD_AFTER_RENAME: &str = "catalog.payload.after_rename";
/// Catalog payload write: torn write — the payload tmp file is
/// truncated to a fraction of its length and *not* fsynced before the
/// rename, simulating power loss mid-write.
pub const CATALOG_PAYLOAD_TORN: &str = "catalog.payload.torn";
/// Catalog manifest: fail before the manifest rewrite starts (payload
/// durable and renamed, manifest still the previous generation).
pub const CATALOG_MANIFEST_BEFORE_REWRITE: &str = "catalog.manifest.before_rewrite";
/// Catalog manifest write: fail before the manifest tmp is fsynced.
pub const CATALOG_MANIFEST_BEFORE_FSYNC: &str = "catalog.manifest.before_fsync";
/// Refresh worker: panic mid-decompose (kills the worker thread).
pub const WORKER_DECOMPOSE_PANIC: &str = "worker.decompose.panic";
/// Refresh worker: injected delay before the decompose starts.
pub const WORKER_DECOMPOSE_DELAY: &str = "worker.decompose.delay";
/// Serving path: transient multiply error, retried by the engine.
pub const ENGINE_MULTIPLY_TRANSIENT: &str = "engine.multiply.transient";

/// Every named failpoint site compiled into the workspace.
pub const SITES: &[&str] = &[
    CATALOG_PAYLOAD_BEFORE_FSYNC,
    CATALOG_PAYLOAD_AFTER_RENAME,
    CATALOG_PAYLOAD_TORN,
    CATALOG_MANIFEST_BEFORE_REWRITE,
    CATALOG_MANIFEST_BEFORE_FSYNC,
    WORKER_DECOMPOSE_PANIC,
    WORKER_DECOMPOSE_DELAY,
    ENGINE_MULTIPLY_TRANSIENT,
];

/// What an armed site does when its trigger fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Return [`SparseError::Injected`] from the probe. Catalog sites
    /// treat this as a simulated crash: the in-progress write is
    /// abandoned exactly as a real crash would leave it (stale tmp
    /// files and all).
    Error,
    /// Panic at the probe (used to kill refresh worker threads).
    Panic,
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
    /// Torn write: truncate the in-progress file to this fraction of
    /// its length and skip its fsync (only honored by [`torn`] probes).
    Torn(f64),
}

/// When an armed site fires, counted per site over the plan's lifetime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire on every hit.
    Always,
    /// Fire on the first `n` hits, then pass.
    Times(u64),
    /// Fire only on the `n`-th hit (1-based), pass otherwise.
    Nth(u64),
    /// Fire each hit independently with this probability, drawn from
    /// the site's deterministic ChaCha8 stream.
    Probability(f64),
}

/// One armed fault: a site name plus what to do and when.
#[derive(Debug, Clone)]
pub struct Fault {
    /// Failpoint site name (one of [`SITES`]).
    pub site: String,
    /// Action taken when the trigger fires.
    pub action: FaultAction,
    /// When the site fires.
    pub trigger: Trigger,
}

struct SiteState {
    action: FaultAction,
    trigger: Trigger,
    hits: u64,
    fired: u64,
    rng: ChaCha8Rng,
}

/// Fast-path gate: false ⇒ every probe returns immediately.
static ARMED: AtomicBool = AtomicBool::new(false);

fn table() -> &'static Mutex<HashMap<String, SiteState>> {
    static TABLE: OnceLock<Mutex<HashMap<String, SiteState>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Exclusivity lock: at most one armed plan per process. Held by the
/// [`FaultGuard`] so concurrent tests serialize instead of corrupting
/// each other's fault tables.
fn exclusive() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn lock_table() -> MutexGuard<'static, HashMap<String, SiteState>> {
    // A poisoned lock only means some armed test panicked mid-assert;
    // the table contents are still structurally sound.
    table().lock().unwrap_or_else(|e| e.into_inner())
}

/// FNV-1a over the site name, offset by the plan seed: stable per-site
/// streams that do not depend on which other sites are armed.
fn site_seed(seed: u64, site: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in site.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// RAII handle for an armed plan: holds the process-wide exclusivity
/// lock and disarms every site when dropped.
#[must_use = "dropping the guard disarms the plan immediately"]
pub struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl FaultGuard {
    /// Replaces the armed faults with `faults` under `seed` (fresh hit
    /// counts and streams) while keeping the exclusivity lock, so no
    /// other thread's plan can slip in between two phases of one test.
    pub fn rearm(&mut self, seed: u64, faults: &[Fault]) {
        install(seed, faults);
    }

    /// Disarms every site but keeps the exclusivity lock: what follows
    /// runs fault-free, and stays out of reach of anyone else's plan.
    pub fn disarm(&mut self) {
        install(0, &[]);
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        install(0, &[]);
    }
}

/// Replaces the site table. Callers hold the exclusivity lock.
fn install(seed: u64, faults: &[Fault]) {
    {
        let mut table = lock_table();
        table.clear();
        for f in faults {
            table.insert(
                f.site.clone(),
                SiteState {
                    action: f.action.clone(),
                    trigger: f.trigger,
                    hits: 0,
                    fired: 0,
                    rng: ChaCha8Rng::seed_from_u64(site_seed(seed, &f.site)),
                },
            );
        }
    }
    ARMED.store(!faults.is_empty(), Ordering::SeqCst);
}

/// Arms `faults` under `seed`, replacing any previous table. Blocks
/// until no other plan is armed (the returned guard holds the
/// exclusivity lock until dropped).
pub fn arm(seed: u64, faults: &[Fault]) -> FaultGuard {
    let lock = exclusive().lock().unwrap_or_else(|e| e.into_inner());
    install(seed, faults);
    FaultGuard { _lock: lock }
}

/// Records a hit at `site` and returns the action if its trigger fired.
fn fire(site: &str) -> Option<FaultAction> {
    let mut table = lock_table();
    let st = table.get_mut(site)?;
    st.hits += 1;
    let fires = match st.trigger {
        Trigger::Always => true,
        Trigger::Times(n) => st.fired < n,
        Trigger::Nth(n) => st.hits == n,
        Trigger::Probability(p) => st.rng.gen_bool(p.clamp(0.0, 1.0)),
    };
    if fires {
        st.fired += 1;
        Some(st.action.clone())
    } else {
        None
    }
}

/// The general probe: call at a named site on a fallible path.
///
/// Disarmed (the common case) this is one relaxed load and a branch.
/// Armed, it may return [`SparseError::Injected`], panic, or sleep,
/// according to the site's action.
#[inline]
pub fn check(site: &str) -> SparseResult<()> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    check_slow(site)
}

#[cold]
fn check_slow(site: &str) -> SparseResult<()> {
    match fire(site) {
        None | Some(FaultAction::Torn(_)) => Ok(()),
        Some(FaultAction::Error) => Err(SparseError::Injected(site.to_string())),
        Some(FaultAction::Panic) => panic!("injected fault at failpoint `{site}`"),
        Some(FaultAction::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
    }
}

/// Torn-write probe: returns `Some(keep_fraction)` when a
/// [`FaultAction::Torn`] fault fires at `site`, `None` otherwise.
#[inline]
pub fn torn(site: &str) -> Option<f64> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    torn_slow(site)
}

#[cold]
fn torn_slow(site: &str) -> Option<f64> {
    match fire(site) {
        Some(FaultAction::Torn(frac)) => Some(frac.clamp(0.0, 1.0)),
        _ => None,
    }
}

/// True for errors produced by an armed [`FaultAction::Error`] site —
/// the retry loops only retry *injected* (transient) failures, never
/// real structural errors.
pub fn is_injected(err: &SparseError) -> bool {
    matches!(err, SparseError::Injected(_))
}

/// Snapshot of `(site, hits, fired)` for every currently armed site,
/// sorted by site name. Scenario reports persist these counts.
pub fn fired_counts() -> Vec<(String, u64, u64)> {
    let table = lock_table();
    let mut out: Vec<_> = table
        .iter()
        .map(|(site, st)| (site.clone(), st.hits, st.fired))
        .collect();
    out.sort();
    out
}

/// Installs (once per process) a panic hook that swallows the panic
/// message for *injected* worker panics and forwards everything else
/// to the previous hook. Keeps chaos test and CLI output readable:
/// injected worker deaths are expected, reported through supervision
/// counters, and should not spray backtrace noise on stderr.
pub fn quiet_injected_panics() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected fault") {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every test arms its own plan; the guard serializes them, so they
    // are safe to run in one process despite the global table.

    #[test]
    fn disarmed_probe_is_a_noop() {
        // An empty plan holds the exclusivity lock (so no parallel test
        // arms a real plan underneath us) without arming anything.
        let _guard = arm(0, &[]);
        assert!(check(ENGINE_MULTIPLY_TRANSIENT).is_ok());
        assert!(torn(CATALOG_PAYLOAD_TORN).is_none());
    }

    #[test]
    fn times_trigger_fires_then_passes() {
        let faults = [Fault {
            site: ENGINE_MULTIPLY_TRANSIENT.into(),
            action: FaultAction::Error,
            trigger: Trigger::Times(2),
        }];
        let guard = arm(1, &faults);
        assert!(is_injected(&check(ENGINE_MULTIPLY_TRANSIENT).unwrap_err()));
        assert!(is_injected(&check(ENGINE_MULTIPLY_TRANSIENT).unwrap_err()));
        assert!(check(ENGINE_MULTIPLY_TRANSIENT).is_ok());
        let counts = fired_counts();
        assert_eq!(counts, vec![(ENGINE_MULTIPLY_TRANSIENT.to_string(), 3, 2)]);
        drop(guard);
        assert!(check(ENGINE_MULTIPLY_TRANSIENT).is_ok());
        assert!(fired_counts().is_empty());
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let faults = [Fault {
            site: CATALOG_PAYLOAD_BEFORE_FSYNC.into(),
            action: FaultAction::Error,
            trigger: Trigger::Nth(3),
        }];
        let _guard = arm(2, &faults);
        assert!(check(CATALOG_PAYLOAD_BEFORE_FSYNC).is_ok());
        assert!(check(CATALOG_PAYLOAD_BEFORE_FSYNC).is_ok());
        assert!(check(CATALOG_PAYLOAD_BEFORE_FSYNC).is_err());
        assert!(check(CATALOG_PAYLOAD_BEFORE_FSYNC).is_ok());
    }

    #[test]
    fn probability_trigger_is_deterministic_per_seed() {
        let faults = [Fault {
            site: WORKER_DECOMPOSE_DELAY.into(),
            action: FaultAction::Error,
            trigger: Trigger::Probability(0.5),
        }];
        let run = |seed: u64| -> Vec<bool> {
            let _guard = arm(seed, &faults);
            (0..32)
                .map(|_| check(WORKER_DECOMPOSE_DELAY).is_err())
                .collect()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
        let fired = run(9).iter().filter(|f| **f).count();
        assert!(
            fired > 0 && fired < 32,
            "p=0.5 should be neither never nor always"
        );
    }

    #[test]
    fn torn_probe_reports_fraction_and_ignores_other_actions() {
        let faults = [
            Fault {
                site: CATALOG_PAYLOAD_TORN.into(),
                action: FaultAction::Torn(0.4),
                trigger: Trigger::Nth(1),
            },
            Fault {
                site: CATALOG_PAYLOAD_BEFORE_FSYNC.into(),
                action: FaultAction::Error,
                trigger: Trigger::Always,
            },
        ];
        let _guard = arm(3, &faults);
        assert_eq!(torn(CATALOG_PAYLOAD_TORN), Some(0.4));
        assert_eq!(torn(CATALOG_PAYLOAD_TORN), None);
        // An Error action at a torn probe site does not tear anything.
        assert_eq!(torn(CATALOG_PAYLOAD_BEFORE_FSYNC), None);
        // A Torn action at a check probe site passes.
        assert!(check(CATALOG_PAYLOAD_TORN).is_ok());
    }

    #[test]
    fn delay_action_sleeps_then_passes() {
        let faults = [Fault {
            site: WORKER_DECOMPOSE_DELAY.into(),
            action: FaultAction::Delay(Duration::from_millis(5)),
            trigger: Trigger::Nth(1),
        }];
        let _guard = arm(4, &faults);
        let t0 = std::time::Instant::now();
        assert!(check(WORKER_DECOMPOSE_DELAY).is_ok());
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn site_seed_distinguishes_sites_and_seeds() {
        assert_ne!(site_seed(1, SITES[0]), site_seed(1, SITES[1]));
        assert_ne!(site_seed(1, SITES[0]), site_seed(2, SITES[0]));
        assert_eq!(site_seed(1, SITES[0]), site_seed(1, SITES[0]));
    }
}
