//! Catalog acceptance tests: crash/restart round trips, GC retention
//! properties, and loaders that survive any bytes.
//!
//! The unit tests in `src/catalog.rs` cover the format mechanics; these
//! exercise the guarantees serving layers lean on — a catalog that
//! survives being killed at the worst moment, a garbage collector that
//! can never collect a revision a live binding still references, and
//! payload and manifest loaders that answer arbitrary, truncated and
//! bit-flipped files with an error: never a panic, never an allocation
//! sized by a field they have not checked.

use amd_graph::generators::basic;
use amd_sparse::CsrMatrix;
use arrow_core::catalog::{Catalog, RetainPolicy};
use arrow_core::persist::{self, CatalogMeta};
use arrow_core::{decompose_snapshot, ArrowDecomposition, DecomposeConfig};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amd-catalog-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> DecomposeConfig {
    DecomposeConfig::with_width(4)
}

/// Distinct content per index: a cycle with one re-weighted edge.
fn sample(i: usize) -> (CsrMatrix<f64>, ArrowDecomposition) {
    let mut a: CsrMatrix<f64> = basic::cycle(16).to_adjacency();
    *a.get_mut(0, 1).unwrap() += i as f64;
    let d = decompose_snapshot(&a, &cfg(), 1).unwrap();
    (a, d)
}

/// The crash window end to end: several versions land, the manifest is
/// rolled back to an earlier state (payloads newer than the manifest —
/// exactly what a kill between payload rename and manifest rewrite
/// leaves), and a reopen must recover every version bit-for-bit,
/// lineage included.
#[test]
fn restart_after_partial_write_recovers_all_versions() {
    let dir = tmpdir("restart");
    let mats: Vec<_> = (0..4).map(sample).collect();
    let fps: Vec<u128> = mats.iter().map(|(a, _)| a.fingerprint()).collect();
    let mut manifests = Vec::new();
    {
        let mut c = Catalog::open(&dir).unwrap();
        for (i, (a, d)) in mats.iter().enumerate() {
            let parent = if i == 0 { 0 } else { fps[i - 1] };
            c.put(d, a.fingerprint(), &cfg(), 1, i as u64, parent)
                .unwrap();
            manifests.push(std::fs::read(dir.join("manifest.amdm")).unwrap());
        }
    }
    // Roll the manifest back to each earlier state in turn; reopening
    // must always see all 4 versions (the rest adopted from headers).
    for (kept, manifest) in manifests.iter().enumerate() {
        std::fs::write(dir.join("manifest.amdm"), manifest).unwrap();
        let mut c = Catalog::open(&dir).unwrap();
        assert_eq!(c.len(), 4, "manifest knew {} of 4", kept + 1);
        assert_eq!(c.stats().recovered_records as usize, 3 - kept);
        for (i, (a, d)) in mats.iter().enumerate() {
            let (got, rec) = c.get(a.fingerprint(), &cfg(), 1).unwrap().unwrap();
            assert_eq!(&got, d, "version {i} content");
            assert_eq!(rec.version, i as u64);
            assert_eq!(rec.parent, if i == 0 { 0 } else { fps[i - 1] });
        }
        // The whole lineage is walkable from the head.
        let (got, _) = c
            .restore_at(fps[3], &cfg(), 1, 0)
            .unwrap()
            .expect("lineage reaches the root");
        assert_eq!(got, mats[0].1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Retain-last-k never drops a version still referenced by a live
    /// binding, no matter the lineage shape, k, or which revisions are
    /// live; and it never leaves orphan payload files behind.
    #[test]
    fn gc_never_drops_live_versions(
        // Parent of each version: an earlier version's index, or a root.
        parents in proptest::collection::vec(0usize..6, 1..6),
        live_mask in proptest::collection::vec(any::<bool>(), 6..7),
        last_k in 0usize..4,
    ) {
        let dir = tmpdir(&format!("gcprop-{last_k}-{}", parents.len()));
        let mats: Vec<_> = (0..=parents.len()).map(sample).collect();
        let fps: Vec<u128> = mats.iter().map(|(a, _)| a.fingerprint()).collect();
        let mut c = Catalog::open(&dir).unwrap();
        // Version 0 is a root; version i+1 hangs off parents[i] (any
        // earlier version), yielding arbitrary lineage forests.
        c.put(&mats[0].1, fps[0], &cfg(), 1, 0, 0).unwrap();
        for (i, &p) in parents.iter().enumerate() {
            let parent = fps[p.min(i)];
            c.put(&mats[i + 1].1, fps[i + 1], &cfg(), 1, (i + 1) as u64, parent)
                .unwrap();
        }
        let live: Vec<u128> = fps
            .iter()
            .zip(live_mask.iter().chain(std::iter::repeat(&false)))
            .filter(|(_, &m)| m)
            .map(|(&fp, _)| fp)
            .collect();
        let total = c.len();
        let report = c.gc(&RetainPolicy { last_k, live: live.clone() }).unwrap();
        prop_assert_eq!(report.kept + report.removed, total);
        // The property: every live fingerprint still loads.
        for &fp in &live {
            prop_assert!(
                c.get(fp, &cfg(), 1).unwrap().is_some(),
                "live fingerprint {:032x} was collected", fp
            );
        }
        // No orphans in either direction: every record's payload
        // exists, and every payload file belongs to a record.
        let on_disk = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "amd"))
            .count();
        prop_assert_eq!(on_disk, c.len());
        for r in c.records() {
            prop_assert!(c.payload_path(r).exists());
        }
        // A reopened catalog agrees (the manifest was rewritten last).
        let survivors = c.len();
        drop(c);
        let c = Catalog::open(&dir).unwrap();
        prop_assert_eq!(c.len(), survivors);
        prop_assert_eq!(c.stats().recovered_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Loaders under hostile bytes.
// ---------------------------------------------------------------------------

thread_local! {
    /// Largest single allocation this thread has requested since the
    /// last reset (const-initialised and without a destructor, so
    /// touching it from inside the allocator never allocates).
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting the size of every request per thread.
struct NotingAlloc;

fn note(size: usize) {
    let _ = LARGEST_REQUEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; `note` only writes a thread-local `Cell`.
unsafe impl GlobalAlloc for NotingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: NotingAlloc = NotingAlloc;

/// Runs `f` and reports the largest single allocation it requested on
/// this thread.
fn largest_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_REQUEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST_REQUEST.with(Cell::get))
}

/// What a loader may allocate beyond the size of its input: directory
/// listings, an 8 KiB `BufWriter`, error strings.
const SLACK: usize = 64 << 10;

/// A valid payload of `cycle(8)` and the matrix it decomposes.
fn valid_payload() -> (CsrMatrix<f64>, Vec<u8>) {
    let a: CsrMatrix<f64> = basic::cycle(8).to_adjacency();
    let d = decompose_snapshot(&a, &cfg(), 1).unwrap();
    let meta = CatalogMeta {
        fingerprint: a.fingerprint(),
        version: 2,
        parent: 7,
        created_at: 1,
        seed: 1,
        config: cfg(),
    };
    let mut bytes = Vec::new();
    persist::save_catalog(&d, &meta, &mut bytes).unwrap();
    (a, bytes)
}

/// Rewrites the FNV-1a-64 footer to match the bytes before it, so a
/// mutation gets past the checksum and must be caught by the parser.
fn reseal(bytes: &mut [u8]) {
    let Some(body) = bytes.len().checked_sub(8) else {
        return;
    };
    let digest = bytes[..body]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    bytes[body..].copy_from_slice(&digest.to_le_bytes());
}

/// Drives one byte string through every way a payload enters the
/// program — `load_catalog`, `peek_catalog_header`, `Catalog::load_file`
/// and `Catalog::open` + `get` over a directory holding it as a file —
/// and returns whether it loaded. Each must return (`Err`, `None`, or a
/// decomposition `validate` can walk) having requested no allocation
/// larger than the input plus [`SLACK`].
fn probe_loaders(bytes: &[u8], a: &CsrMatrix<f64>, dir: &Path) -> bool {
    let budget = bytes.len() + SLACK;
    let (in_memory, peak) = largest_request(|| persist::load_catalog(bytes));
    assert!(peak <= budget, "load_catalog requested {peak} bytes");
    if let Ok((d, _)) = &in_memory {
        let _ = d.validate(a);
    }
    let (header, peak) = largest_request(|| persist::peek_catalog_header(bytes));
    assert!(peak <= SLACK, "peek_catalog_header requested {peak} bytes");
    assert!(
        header.is_ok() || in_memory.is_err(),
        "a payload loaded whose header does not parse"
    );

    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("amd4-probe.amd");
    std::fs::write(&path, bytes).unwrap();
    let (from_file, peak) = largest_request(|| Catalog::load_file(&path));
    assert!(peak <= budget, "load_file requested {peak} bytes");
    assert_eq!(from_file.is_ok(), in_memory.is_ok());
    // A warm restart over the directory: recovery adopts the file under
    // the identity its header claims, or skips it; `get` then loads it
    // or drops the record.
    let (got, peak) = largest_request(|| {
        let mut c = Catalog::open(dir).unwrap();
        assert_eq!(c.len(), usize::from(header.is_ok()));
        header.ok().and_then(|m| {
            c.get(m.fingerprint, &m.config, m.seed)
                .unwrap()
                .map(|(d, _)| d)
        })
    });
    assert!(peak <= budget, "open + get requested {peak} bytes");
    assert_eq!(got.is_some(), in_memory.is_ok());
    if let Some(d) = got {
        let _ = d.validate(a);
    }
    let _ = std::fs::remove_dir_all(dir);
    in_memory.is_ok()
}

/// Scoped threads [`probe_each`] spreads its probes over.
const PROBE_THREADS: usize = 8;

/// Runs `probe(item, dir)` for every item, spread over [`PROBE_THREADS`]
/// scoped threads with a directory of its own each under `root`. A probe
/// whose warm restart adopts its payload rewrites the manifest and
/// waits for its `fsync`, so on a slow disk a long run of probes is
/// bound by those waits, not by the CPU; spread out, they wait together.
/// A failed assertion in a probe fails the caller once every thread has
/// finished.
fn probe_each<I: Sync>(items: &[I], root: &Path, probe: impl Fn(&I, &Path) + Sync) {
    let per_thread = items.len().div_ceil(PROBE_THREADS).max(1);
    std::thread::scope(|s| {
        for (t, share) in items.chunks(per_thread).enumerate() {
            let (dir, probe) = (root.join(format!("probe-{t}")), &probe);
            s.spawn(move || share.iter().for_each(|item| probe(item, &dir)));
        }
    });
    let _ = std::fs::remove_dir_all(root);
}

/// (b) A valid payload cut at every length is rejected by every loader.
#[test]
fn truncated_payloads_are_rejected_at_every_length() {
    let dir = tmpdir("truncated");
    let (a, valid) = valid_payload();
    assert!(probe_loaders(&valid, &a, &dir), "the intact payload loads");
    let cuts: Vec<usize> = (0..valid.len()).collect();
    probe_each(&cuts, &dir, |&cut, dir| {
        assert!(
            !probe_loaders(&valid[..cut], &a, dir),
            "cut at {cut} of {} loaded",
            valid.len()
        );
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a) Arbitrary bytes — raw, behind a valid magic, and behind a
    /// valid magic with a matching checksum, so that garbage reaches
    /// the length prefixes.
    #[test]
    fn loaders_survive_arbitrary_bytes(
        raw in proptest::collection::vec(0u32..256, 0..700),
        magic in any::<bool>(),
        sealed in any::<bool>(),
    ) {
        let dir = tmpdir("arbitrary");
        let (a, _) = valid_payload();
        let mut bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        if magic && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(b"AMD4");
        }
        if sealed {
            reseal(&mut bytes);
        }
        probe_loaders(&bytes, &a, &dir);
        // The same bytes as a manifest (its own magic, then a row count
        // and rows): unreadable rows, or rows naming payloads that do
        // not exist, leave an empty catalog.
        if magic && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(b"AMDM");
        }
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.amdm"), &bytes).unwrap();
        let (c, peak) = largest_request(|| Catalog::open(&dir).unwrap());
        prop_assert!(peak <= bytes.len() + SLACK, "manifest read requested {} bytes", peak);
        prop_assert_eq!(c.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// (c) A valid payload with each 8-byte word in turn replaced by a
    /// huge, a zero and a random value (its own per word), with the
    /// footer left stale and recomputed: whatever still loads is
    /// walkable, nothing panics, and no length prefix is believed
    /// before it is checked.
    #[test]
    fn loaders_survive_every_corrupt_word(
        randoms in proptest::collection::vec(any::<u64>(), 128..129),
    ) {
        let dir = tmpdir("words");
        let (a, valid) = valid_payload();
        // Fields are 8-aligned from the end of the 4-byte magic.
        let words: Vec<(usize, u64)> = (4..=valid.len() - 8)
            .step_by(8)
            .zip(randoms.iter().cycle())
            .flat_map(|(at, &random)| [u64::MAX, 1 << 40, 0, random].map(|value| (at, value)))
            .collect();
        probe_each(&words, &dir, |&(at, value), dir| {
            let mut bytes = valid.clone();
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let changed = bytes != valid;
            assert!(
                !(changed && probe_loaders(&bytes, &a, dir)),
                "stale checksum accepted (word at {at}, value {value})"
            );
            reseal(&mut bytes);
            probe_loaders(&bytes, &a, dir);
        });
    }
}
