//! Crash-exact catalog recovery under injected faults.
//!
//! Each test arms a chaos failpoint inside the catalog's write path,
//! drives a `put` into the injected crash, and asserts that reopening
//! the directory recovers the exact pre-crash manifest state with
//! zero orphan payloads and zero stale temp files. Lives in its own
//! integration-test binary so the process-wide failpoint table is not
//! shared with unrelated unit tests. Within the binary every test holds
//! the arm guard for its *whole* body — healthy baseline puts and
//! post-crash reopens included — and switches plans in place: a phase
//! run without the guard would be hit by whichever plan a test on
//! another thread has armed.

use amd_chaos::{failpoint, FaultPlan};
use amd_sparse::CsrMatrix;
use arrow_core::{decompose_snapshot, ArrowDecomposition, Catalog, DecomposeConfig};
use std::fs;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amd-failpoints-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> DecomposeConfig {
    DecomposeConfig::with_width(8)
}

fn sample(n: u32) -> (CsrMatrix<f64>, ArrowDecomposition) {
    let a: CsrMatrix<f64> = amd_graph::generators::basic::cycle(n).to_adjacency();
    let d = decompose_snapshot(&a, &cfg(), 1).unwrap();
    (a, d)
}

/// Counts `*.tmp` and unreferenced `*.amd` files under `dir`.
fn debris(dir: &PathBuf, referenced: &[String]) -> (usize, usize) {
    let mut tmp = 0;
    let mut orphans = 0;
    for entry in fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if name.ends_with(".tmp") {
            tmp += 1;
        } else if name.ends_with(".amd") && !referenced.iter().any(|r| r == &name) {
            orphans += 1;
        }
    }
    (tmp, orphans)
}

fn referenced(c: &Catalog) -> Vec<String> {
    c.records().iter().map(|r| r.payload.clone()).collect()
}

/// The tentpole property, site by site: crash a `put` at every catalog
/// failpoint in sequence and assert reopen recovers exactly — the
/// baseline record is intact, debris is healed, and the interrupted
/// record either vanished without trace (pre-rename sites) or was
/// adopted from its durable payload (post-rename sites).
#[test]
fn crash_at_every_catalog_site_recovers_exactly() {
    let sites = [
        (failpoint::CATALOG_PAYLOAD_BEFORE_FSYNC, false),
        (failpoint::CATALOG_PAYLOAD_AFTER_RENAME, true),
        (failpoint::CATALOG_MANIFEST_BEFORE_REWRITE, true),
        (failpoint::CATALOG_MANIFEST_BEFORE_FSYNC, true),
    ];
    let mut faults = FaultPlan::new(0).arm();
    let (a0, d0) = sample(24);
    let (a1, d1) = sample(28);
    for (site, payload_survives) in sites {
        let dir = tmpdir(&site.replace('.', "-"));
        // A healthy baseline put, outside the fault window.
        let mut c = Catalog::open(&dir).unwrap();
        let baseline = c.put(&d0, a0.fingerprint(), &cfg(), 1, 0, 0).unwrap();
        drop(c);

        {
            let mut c = Catalog::open(&dir).unwrap();
            FaultPlan::crash_at(9, site, 1).rearm(&mut faults);
            let err = c
                .put(&d1, a1.fingerprint(), &cfg(), 1, 0, 0)
                .expect_err("the injected crash must surface");
            assert!(
                failpoint::is_injected(&err),
                "unexpected error at {site}: {err}"
            );
            // Simulated crash: the catalog object is abandoned here,
            // exactly as a dying process would leave it.
        }
        faults.disarm();

        let mut c = Catalog::open(&dir).unwrap();
        let stats = c.stats();
        if payload_survives {
            // The payload landed before the crash: reopen adopts it.
            assert_eq!(stats.recovered_records, 1, "{site}: orphan not adopted");
            assert_eq!(c.len(), 2, "{site}");
            let (got, _) = c.get(a1.fingerprint(), &cfg(), 1).unwrap().unwrap();
            assert_eq!(got, d1, "{site}: adopted payload must load bit-exactly");
        } else {
            // The crash hit before the rename: only a tmp file leaked,
            // and the sweep reclaims it.
            assert_eq!(stats.stale_tmp_swept, 1, "{site}: tmp not swept");
            assert_eq!(c.len(), 1, "{site}");
            assert!(c.get(a1.fingerprint(), &cfg(), 1).unwrap().is_none());
        }
        // The baseline record is untouched either way...
        let (got, rec) = c.get(a0.fingerprint(), &cfg(), 1).unwrap().unwrap();
        assert_eq!(got, d0, "{site}");
        assert_eq!(rec, baseline, "{site}");
        // ...and the directory holds zero debris.
        assert_eq!(debris(&dir, &referenced(&c)), (0, 0), "{site}");
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A torn (truncated, unsynced) payload write lands in the manifest
/// but is rejected by the checksum footer on load; the record drops so
/// a re-put heals the chain.
#[test]
fn torn_payload_is_rejected_and_healed_by_reput() {
    let dir = tmpdir("torn");
    let (a, d) = sample(32);
    let fp = a.fingerprint();
    let mut faults = FaultPlan::torn_payload(11, 0.5).arm();
    {
        let mut c = Catalog::open(&dir).unwrap();
        // The torn write does NOT error: the truncated file is renamed
        // into place and recorded, exactly like a crash after a
        // partial flush that still hit the rename.
        c.put(&d, fp, &cfg(), 1, 0, 0).unwrap();
        assert_eq!(c.len(), 1);
    }
    faults.disarm();
    let mut c = Catalog::open(&dir).unwrap();
    assert!(
        c.get(fp, &cfg(), 1).unwrap().is_none(),
        "the torn payload must fail its load"
    );
    assert_eq!(c.stats().load_failures, 1);
    assert_eq!(c.len(), 0, "the bad record drops so a re-put heals it");
    let rec = c.put(&d, fp, &cfg(), 1, 0, 0).unwrap();
    let (got, got_rec) = c.get(fp, &cfg(), 1).unwrap().unwrap();
    assert_eq!(got, d);
    assert_eq!(got_rec, rec);
    assert_eq!(debris(&dir, &referenced(&c)), (0, 0));
    let _ = fs::remove_dir_all(&dir);
}

/// Junk `*.tmp` files (whatever their origin) are swept and counted on
/// open; real payloads and the manifest are left alone.
#[test]
fn stale_tmp_files_are_swept_and_counted_on_open() {
    let dir = tmpdir("sweep");
    // Injects nothing; keeps the other tests' plans away from this put.
    let _faults = FaultPlan::new(0).arm();
    let (a, d) = sample(20);
    {
        let mut c = Catalog::open(&dir).unwrap();
        c.put(&d, a.fingerprint(), &cfg(), 1, 0, 0).unwrap();
    }
    fs::write(dir.join("leftover-1.amd.tmp"), b"junk").unwrap();
    fs::write(dir.join("manifest.amdm.tmp"), b"junk").unwrap();
    let mut c = Catalog::open(&dir).unwrap();
    assert_eq!(c.stats().stale_tmp_swept, 2);
    assert_eq!(c.len(), 1);
    let (got, _) = c.get(a.fingerprint(), &cfg(), 1).unwrap().unwrap();
    assert_eq!(got, d);
    assert_eq!(debris(&dir, &referenced(&c)), (0, 0));
    let _ = fs::remove_dir_all(&dir);
}

/// Property test: under a random put sequence crashed at a random
/// site, reopening always recovers every *fully committed* record
/// bit-exactly and leaves zero debris.
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn reopen_recovers_exact_pre_crash_state(
            committed in 1usize..4,
            site_idx in 0usize..4,
            seed in 0u64..1000,
        ) {
            let sites = [
                failpoint::CATALOG_PAYLOAD_BEFORE_FSYNC,
                failpoint::CATALOG_PAYLOAD_AFTER_RENAME,
                failpoint::CATALOG_MANIFEST_BEFORE_REWRITE,
                failpoint::CATALOG_MANIFEST_BEFORE_FSYNC,
            ];
            let site = sites[site_idx];
            let mut faults = FaultPlan::new(0).arm();
            let dir = tmpdir(&format!("prop-{committed}-{site_idx}-{seed}"));
            // `committed` healthy puts of distinct content...
            let healthy: Vec<_> = (0..committed)
                .map(|i| sample(16 + 2 * i as u32))
                .collect();
            let mut c = Catalog::open(&dir).unwrap();
            for (a, d) in &healthy {
                c.put(d, a.fingerprint(), &cfg(), 1, 0, 0).unwrap();
            }
            drop(c);
            // ...then one put crashed at the drawn site.
            let (ax, dx) = sample(64);
            {
                let mut c = Catalog::open(&dir).unwrap();
                FaultPlan::crash_at(seed, site, 1).rearm(&mut faults);
                let err = c.put(&dx, ax.fingerprint(), &cfg(), 1, 0, 0).unwrap_err();
                prop_assert!(failpoint::is_injected(&err));
            }
            faults.disarm();
            let mut c = Catalog::open(&dir).unwrap();
            // Every committed record survives bit-exactly.
            for (a, d) in &healthy {
                let (got, _) = c.get(a.fingerprint(), &cfg(), 1).unwrap().unwrap();
                prop_assert_eq!(&got, d);
            }
            // The interrupted put either vanished or was adopted whole.
            let extra = c.len() - committed;
            prop_assert!(extra <= 1);
            if extra == 1 {
                let (got, _) = c.get(ax.fingerprint(), &cfg(), 1).unwrap().unwrap();
                prop_assert_eq!(&got, &dx);
            }
            prop_assert_eq!(debris(&dir, &referenced(&c)), (0, 0));
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
