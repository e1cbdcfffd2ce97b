//! The versioned persistence catalog: one on-disk home for every
//! decomposition the serving stack keeps.
//!
//! One directory, one manifest mapping **content fingerprint → version
//! chain**, one payload format ([`persist`]'s checksummed AMD4), shared
//! by every consumer; the CLI's one-shot files
//! ([`Catalog::save_file`] / [`Catalog::load_file`]) are the same
//! payloads outside a directory.
//!
//! ## Layout
//!
//! ```text
//! <root>/
//!   manifest.amdm            record list (rewritten last, atomically)
//!   amd4-<fp>-<id>.amd       one payload per version (AMD4: full
//!                            provenance header + decomposition)
//! ```
//!
//! Each [`VersionRecord`] carries the decompose identity (params +
//! seed), the **parent fingerprint** linking a refresh to the revision
//! it was spliced from (delta lineage), a catalog-wide **created-at**
//! counter, and the payload file name. Chains are keyed by fingerprint;
//! lineage edges connect chains across fingerprints, so a mutating
//! matrix's history is a parent-linked walk through the manifest.
//!
//! ## Crash safety
//!
//! Every write is temp-file + atomic rename, and the manifest is always
//! rewritten **last**: a crash between a payload landing and the
//! manifest rename leaves an orphan payload whose AMD4 header carries
//! its complete manifest record — [`Catalog::open`] adopts it. A
//! missing or corrupt manifest is rebuilt the same way, by scanning
//! payload headers (header-only reads; the level data is never parsed).
//! A `*.amd` file that is not an AMD4 payload is left where it is and
//! never adopted. That includes an older build's `amd3-` payloads. Their
//! rows are keyed by the retired byte-wise fingerprint, so lookups miss
//! them; a row that is reached anyway fails to load, is dropped
//! (counted as a load failure), and the caller's fresh decomposition
//! re-puts over it as AMD4.
//!
//! ## Lifecycle
//!
//! [`Catalog::gc`] applies a [`RetainPolicy`]: keep the newest `last_k`
//! versions of every lineage, never dropping a fingerprint named live
//! (a serving binding still references it).
//! [`Catalog::remove_chain`] walks one lineage from its head and
//! deletes every version not shared with a live chain — the tenant
//! eviction path.

use crate::decomposition::ArrowDecomposition;
use crate::la_decompose::DecomposeConfig;
use crate::persist::{self, io_err, put_u64, CatalogMeta};
use amd_chaos::failpoint;
use amd_obs::{Registry, Stopwatch};
use amd_sparse::{SparseError, SparseResult};
use std::collections::{HashMap, HashSet};
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

const MANIFEST: &str = "manifest.amdm";
const MANIFEST_MAGIC: &[u8; 4] = b"AMDM";
const PAYLOAD_EXT: &str = "amd";

/// One persisted decomposition version: a row of the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionRecord {
    /// Content fingerprint of the decomposed matrix — the chain key.
    pub fingerprint: u128,
    /// Lineage revision (0 cold, +1 per refresh along the chain).
    pub version: u64,
    /// Fingerprint of the revision this one was refreshed from (0 =
    /// chain root). Lineage edges cross chains: a refresh produces a
    /// *new* fingerprint whose record points back at the old one.
    pub parent: u128,
    /// Catalog-wide monotonic creation counter.
    pub created_at: u64,
    /// Arrangement seed the decomposition was computed with.
    pub seed: u64,
    /// Decomposition parameters (arrow width, pruning, level cap).
    pub config: DecomposeConfig,
    /// Payload file name under the catalog root.
    pub payload: String,
}

impl VersionRecord {
    /// The payload header this record was written with (and can be
    /// rebuilt from).
    pub fn meta(&self) -> CatalogMeta {
        CatalogMeta {
            fingerprint: self.fingerprint,
            version: self.version,
            parent: self.parent,
            created_at: self.created_at,
            seed: self.seed,
            config: self.config,
        }
    }

    fn from_meta(meta: &CatalogMeta, payload: String) -> Self {
        Self {
            fingerprint: meta.fingerprint,
            version: meta.version,
            parent: meta.parent,
            created_at: meta.created_at,
            seed: meta.seed,
            config: meta.config,
            payload,
        }
    }

    /// `true` when this record answers a lookup for the given identity.
    fn matches(&self, fingerprint: u128, config: &DecomposeConfig, seed: u64) -> bool {
        self.fingerprint == fingerprint && self.config == *config && self.seed == seed
    }
}

/// What [`Catalog::gc`] keeps.
#[derive(Debug, Clone, Default)]
pub struct RetainPolicy {
    /// Newest versions kept per lineage (a lineage is the set of chains
    /// connected by parent edges). 0 keeps only live fingerprints.
    pub last_k: usize,
    /// Fingerprints that must survive regardless of age — the serving
    /// layer's currently bound revisions. Overrides `last_k`. Pins the
    /// named revisions only: ancestors beyond `last_k` are still
    /// collected (bounding history is the point of a GC sweep), so
    /// point-in-time restore reaches only retained versions afterwards.
    /// Eviction-driven removal ([`Catalog::remove_chain`]) is the
    /// opposite: it protects the full ancestor closure of live heads.
    pub live: Vec<u128>,
}

impl RetainPolicy {
    /// Keep the newest `last_k` versions per lineage (no live pins).
    pub fn last(last_k: usize) -> Self {
        Self {
            last_k,
            live: Vec::new(),
        }
    }
}

/// What a [`Catalog::gc`] sweep did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Versions removed (records and payload files).
    pub removed: usize,
    /// Versions kept.
    pub kept: usize,
}

amd_obs::stats_view! {
    /// A point-in-time view of the catalog's registry counters (see
    /// [`Catalog::stats`]). Monotonic over the backing registry's
    /// lifetime: a catalog opened with [`Catalog::open_with_registry`]
    /// folds into the caller's `catalog.*` namespace.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct CatalogStats {
        /// Versions written ([`Catalog::put`] that landed a payload).
        puts: Counter,
        /// Payloads loaded successfully ([`Catalog::get`] /
        /// [`Catalog::restore_at`] hits).
        loads: Counter,
        /// Payloads that failed to load (corrupt/truncated/mismatched); the
        /// offending record is dropped so the caller's re-put heals it.
        load_failures: Counter,
        /// Versions removed by [`Catalog::gc`] or [`Catalog::remove_chain`].
        removed: Counter,
        /// Manifest records recovered by scanning payload headers (orphans
        /// from a crash window, or a full rebuild after manifest loss).
        recovered_records: Counter,
        /// Stale `*.tmp` files swept by [`Catalog::open`] — the un-renamed
        /// half of an `atomic_write` interrupted by a crash. Never live
        /// data, so sweeping is always safe; before the sweep existed they
        /// leaked forever.
        stale_tmp_swept: Counter,
    }
    /// The catalog's registry handles: every mutation path records here.
    struct CatalogCells {
        /// Latency of each durable write's `fsync` (nanoseconds).
        fsync_seconds: Histogram = "catalog.fsync.seconds",
    }
}

/// A versioned on-disk decomposition catalog. See the
/// [module docs](self).
pub struct Catalog {
    root: PathBuf,
    /// Manifest rows, ordered by `created_at` (ascending).
    records: Vec<VersionRecord>,
    next_created: u64,
    metrics: CatalogCells,
}

impl Catalog {
    /// Opens (creating if needed) the catalog rooted at `root`, with a
    /// private metrics registry. Reads the manifest, then reconciles it
    /// against the directory: records whose payload vanished are
    /// dropped, and payload files the manifest does not know (a crash
    /// between payload rename and manifest rewrite, or a lost manifest)
    /// are adopted from their AMD4 headers.
    pub fn open<P: Into<PathBuf>>(root: P) -> SparseResult<Self> {
        Self::open_with_registry(root, &Registry::new())
    }

    /// [`open`](Self::open), recording into the caller's `registry`
    /// under the `catalog.*` namespace — how the engine folds catalog
    /// I/O into its own telemetry.
    pub fn open_with_registry<P: Into<PathBuf>>(
        root: P,
        registry: &Registry,
    ) -> SparseResult<Self> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| {
            SparseError::InvalidCsr(format!("create catalog dir {}: {e}", root.display()))
        })?;
        let mut catalog = Self {
            root,
            records: Vec::new(),
            next_created: 1,
            metrics: CatalogCells::new(registry, "catalog."),
        };
        catalog.sweep_stale_tmp();
        let manifest_records = catalog.read_manifest().unwrap_or_default();
        let known: HashSet<&str> = manifest_records
            .iter()
            .map(|r| r.payload.as_str())
            .collect();
        let mut recovered = Vec::new();
        for name in catalog.payload_files()? {
            if known.contains(name.as_str()) {
                continue;
            }
            // Orphan payload: adopt it if (and only if) it carries a
            // full AMD4 header; anything else is left alone.
            let path = catalog.root.join(&name);
            if let Ok(file) = File::open(&path) {
                if let Ok(meta) = persist::peek_catalog_header(BufReader::new(file)) {
                    recovered.push(VersionRecord::from_meta(&meta, name));
                }
            }
        }
        catalog
            .metrics
            .recovered_records
            .add(recovered.len() as u64);
        let recovered_any = !recovered.is_empty();
        let mut records = manifest_records;
        records.extend(recovered);
        records.retain(|r| catalog.root.join(&r.payload).exists());
        records.sort_by_key(|r| r.created_at);
        records.dedup_by(|a, b| a.payload == b.payload);
        // Saturating: an adopted header is unverified until its payload
        // is loaded, and a corrupt `created_at` must not overflow here.
        let newest = records.iter().map(|r| r.created_at).max().unwrap_or(0);
        catalog.next_created = newest.saturating_add(1);
        catalog.records = records;
        if recovered_any {
            catalog.write_manifest()?;
        }
        Ok(catalog)
    }

    /// A point-in-time fold of the catalog's registry counters.
    pub fn stats(&self) -> CatalogStats {
        self.metrics.view()
    }

    /// Total on-disk payload bytes of the versions currently
    /// catalogued (manifest excluded) — the CLI `catalog ls` summary.
    pub fn payload_bytes(&self) -> u64 {
        self.records
            .iter()
            .filter_map(|r| fs::metadata(self.root.join(&r.payload)).ok())
            .map(|m| m.len())
            .sum()
    }

    /// Number of versions in the manifest.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the catalog holds no versions.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Every record, ordered by creation.
    pub fn records(&self) -> &[VersionRecord] {
        &self.records
    }

    /// Absolute path of a record's payload file.
    pub fn payload_path(&self, record: &VersionRecord) -> PathBuf {
        self.root.join(&record.payload)
    }

    /// The version chain of one fingerprint, ordered by creation.
    /// Usually a single record; multiple appear when the same content
    /// was decomposed under different params or seeds.
    pub fn versions(&self, fingerprint: u128) -> Vec<&VersionRecord> {
        self.records
            .iter()
            .filter(|r| r.fingerprint == fingerprint)
            .collect()
    }

    /// The record answering a full identity lookup, if present.
    pub fn record(
        &self,
        fingerprint: u128,
        config: &DecomposeConfig,
        seed: u64,
    ) -> Option<&VersionRecord> {
        self.records
            .iter()
            .rev()
            .find(|r| r.matches(fingerprint, config, seed))
    }

    /// Persists one decomposition version. `version` is the lineage
    /// counter and `parent` the fingerprint it was refreshed from (0
    /// for a root). Crash-safe: the payload lands via temp file +
    /// atomic rename before the manifest is rewritten; a crash between
    /// the two is healed by the next [`open`](Self::open). Putting an
    /// identity that is already catalogued is a no-op returning the
    /// existing record (first write wins, mirroring the in-memory
    /// cache's admit semantics).
    pub fn put(
        &mut self,
        d: &ArrowDecomposition,
        fingerprint: u128,
        config: &DecomposeConfig,
        seed: u64,
        version: u64,
        parent: u128,
    ) -> SparseResult<VersionRecord> {
        if let Some(existing) = self.record(fingerprint, config, seed) {
            return Ok(existing.clone());
        }
        let meta = CatalogMeta {
            fingerprint,
            version,
            parent,
            created_at: self.next_created,
            seed,
            config: *config,
        };
        let payload = Self::payload_name(fingerprint, config, seed);
        let path = self.root.join(&payload);
        self.atomic_write(&path, true, |w| persist::save_catalog(d, &meta, w))?;
        // Failpoint: crash in the window between the payload rename and
        // the manifest rewrite — the payload is durable but unreferenced
        // (the orphan-adoption window the next open must heal).
        failpoint::check(failpoint::CATALOG_PAYLOAD_AFTER_RENAME)?;
        self.next_created = self.next_created.saturating_add(1);
        let record = VersionRecord::from_meta(&meta, payload);
        self.records.push(record.clone());
        self.write_manifest()?;
        self.metrics.puts.inc();
        Ok(record)
    }

    /// Loads the decomposition for an exact identity. `Ok(None)` covers
    /// both "never catalogued" and "payload unreadable" — the latter
    /// drops the bad record (counted) so the caller's fresh decompose
    /// re-puts over it.
    pub fn get(
        &mut self,
        fingerprint: u128,
        config: &DecomposeConfig,
        seed: u64,
    ) -> SparseResult<Option<(ArrowDecomposition, VersionRecord)>> {
        let Some(record) = self.record(fingerprint, config, seed).cloned() else {
            return Ok(None);
        };
        self.load_record(record)
    }

    /// Point-in-time restore: walks the lineage backwards from `head`
    /// (following parent fingerprints, same config + seed) until it
    /// finds the requested `version`, and loads it. `Ok(None)` when the
    /// lineage does not reach that version.
    pub fn restore_at(
        &mut self,
        head: u128,
        config: &DecomposeConfig,
        seed: u64,
        version: u64,
    ) -> SparseResult<Option<(ArrowDecomposition, VersionRecord)>> {
        let mut cursor = head;
        let mut seen = HashSet::new();
        while cursor != 0 && seen.insert(cursor) {
            let Some(record) = self.record(cursor, config, seed).cloned() else {
                return Ok(None);
            };
            if record.version == version {
                return self.load_record(record);
            }
            cursor = record.parent;
        }
        Ok(None)
    }

    /// [`restore_at`](Self::restore_at) without a known decompose
    /// identity: adopts the config + seed of the head's newest record —
    /// the CLI path, where only the fingerprint is in hand.
    pub fn restore_head_at(
        &mut self,
        head: u128,
        version: u64,
    ) -> SparseResult<Option<(ArrowDecomposition, VersionRecord)>> {
        let Some((config, seed)) = self.versions(head).last().map(|r| (r.config, r.seed)) else {
            return Ok(None);
        };
        self.restore_at(head, &config, seed, version)
    }

    /// Garbage collection: groups versions into lineages (chains
    /// connected by parent edges), keeps the newest
    /// [`last_k`](RetainPolicy::last_k) of each, and never drops a
    /// record whose fingerprint the policy names [`live`]
    /// (RetainPolicy::live). Removed payload files are deleted.
    ///
    /// [`live`]: RetainPolicy::live
    pub fn gc(&mut self, policy: &RetainPolicy) -> SparseResult<GcReport> {
        let live: HashSet<u128> = policy.live.iter().copied().collect();
        // Union-find over fingerprints: parent edges glue chains into
        // lineages.
        let mut component: HashMap<u128, u128> = HashMap::new();
        fn find(component: &mut HashMap<u128, u128>, x: u128) -> u128 {
            let parent = *component.entry(x).or_insert(x);
            if parent == x {
                return x;
            }
            let root = find(component, parent);
            component.insert(x, root);
            root
        }
        for r in &self.records {
            let a = find(&mut component, r.fingerprint);
            if r.parent != 0 {
                let b = find(&mut component, r.parent);
                component.insert(a, b);
            }
        }
        // Newest-first within each lineage; keep the first `last_k`.
        let mut by_lineage: HashMap<u128, Vec<usize>> = HashMap::new();
        let mut order: Vec<usize> = (0..self.records.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.records[i].created_at));
        for i in order {
            let root = find(&mut component, self.records[i].fingerprint);
            by_lineage.entry(root).or_default().push(i);
        }
        let mut keep = vec![false; self.records.len()];
        for indices in by_lineage.values() {
            for (rank, &i) in indices.iter().enumerate() {
                if rank < policy.last_k || live.contains(&self.records[i].fingerprint) {
                    keep[i] = true;
                }
            }
        }
        let removed = keep.iter().filter(|k| !**k).count();
        let kept = self.records.len() - removed;
        let mut idx = 0;
        self.drop_records(|_| {
            let dropped = !keep[idx];
            idx += 1;
            dropped
        })?;
        Ok(GcReport { removed, kept })
    }

    /// Removes one lineage, walking parent edges from `head`: every
    /// version of every fingerprint reached is deleted (records and
    /// payload files) — sparing any revision a `live` fingerprint still
    /// **depends on**: the live set is first expanded to its ancestor
    /// closure, so a shared root stays even when only a fork of it is
    /// still bound. The tenant-eviction path. Returns the number of
    /// versions removed.
    pub fn remove_chain(&mut self, head: u128, live: &[u128]) -> SparseResult<usize> {
        // Ancestor closure of the live heads: a binding's restore path
        // runs through every parent behind it, so all of them are live
        // too.
        let mut protected: HashSet<u128> = HashSet::new();
        let mut frontier: Vec<u128> = live.to_vec();
        while let Some(fp) = frontier.pop() {
            if fp == 0 || !protected.insert(fp) {
                continue;
            }
            for r in self.records.iter().filter(|r| r.fingerprint == fp) {
                frontier.push(r.parent);
            }
        }
        let mut doomed: HashSet<u128> = HashSet::new();
        let mut frontier = vec![head];
        while let Some(fp) = frontier.pop() {
            if fp == 0 || protected.contains(&fp) || !doomed.insert(fp) {
                continue;
            }
            for r in self.records.iter().filter(|r| r.fingerprint == fp) {
                frontier.push(r.parent);
            }
        }
        let before = self.records.len();
        self.drop_records(|r| doomed.contains(&r.fingerprint))?;
        Ok(before - self.records.len())
    }

    /// Writes a decomposition as a standalone one-shot file outside any
    /// catalog directory — the same checksummed AMD4 payload
    /// [`put`](Self::put) writes. The CLI `decompose` and
    /// `catalog restore` path.
    pub fn save_file<P: AsRef<Path>>(
        path: P,
        d: &ArrowDecomposition,
        meta: &CatalogMeta,
    ) -> SparseResult<()> {
        let path = path.as_ref();
        let file = File::create(path)
            .map_err(|e| SparseError::InvalidCsr(format!("create {}: {e}", path.display())))?;
        let mut w = BufWriter::new(file);
        persist::save_catalog(d, meta, &mut w)?;
        w.flush().map_err(io_err)
    }

    /// Reads a standalone decomposition file: checksum verified, then
    /// parsed. The CLI `multiply` path.
    pub fn load_file<P: AsRef<Path>>(path: P) -> SparseResult<(ArrowDecomposition, CatalogMeta)> {
        let path = path.as_ref();
        let bytes = fs::read(path)
            .map_err(|e| SparseError::InvalidCsr(format!("open {}: {e}", path.display())))?;
        persist::load_catalog(&bytes)
    }

    fn payload_name(fingerprint: u128, config: &DecomposeConfig, seed: u64) -> String {
        // Distinct params/seeds of the same content must not collide:
        // fold them into a short discriminator (FNV-1a).
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in config
            .arrow_width
            .to_le_bytes()
            .into_iter()
            .chain([config.prune as u8])
            .chain(config.max_levels.to_le_bytes())
            .chain(seed.to_le_bytes())
        {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
        format!("amd4-{fingerprint:032x}-{h:016x}.{PAYLOAD_EXT}")
    }

    /// Removes `*.tmp` debris left by a crash mid-[`atomic_write`]
    /// (counted in [`CatalogStats::stale_tmp_swept`]). A tmp file is
    /// only ever the un-renamed half of an interrupted durable write —
    /// never live data — so sweeping is always safe. Best-effort: an
    /// unreadable directory just skips the sweep (open fails later with
    /// a better error if the directory is truly broken).
    ///
    /// [`atomic_write`]: Self::atomic_write
    fn sweep_stale_tmp(&self) {
        let Ok(entries) = fs::read_dir(&self.root) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") && fs::remove_file(entry.path()).is_ok() {
                self.metrics.stale_tmp_swept.inc();
            }
        }
    }

    fn payload_files(&self) -> SparseResult<Vec<String>> {
        let entries = fs::read_dir(&self.root)
            .map_err(|e| SparseError::InvalidCsr(format!("read {}: {e}", self.root.display())))?;
        let mut names = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(&format!(".{PAYLOAD_EXT}")) {
                names.push(name.to_string());
            }
        }
        names.sort();
        Ok(names)
    }

    /// Loads a record's payload, or — when it is unreadable — drops the
    /// record (counted) and reports `None`.
    fn load_record(
        &mut self,
        record: VersionRecord,
    ) -> SparseResult<Option<(ArrowDecomposition, VersionRecord)>> {
        let loaded = fs::read(self.root.join(&record.payload))
            .ok()
            .and_then(|bytes| persist::load_catalog(&bytes).ok());
        match loaded {
            // Header/record mismatch means the file was tampered with or
            // mis-adopted; treat it as corrupt.
            Some((d, meta)) if meta.fingerprint == record.fingerprint => {
                self.metrics.loads.inc();
                Ok(Some((d, record)))
            }
            _ => {
                self.metrics.load_failures.inc();
                self.drop_records(|r| r.payload == record.payload)?;
                Ok(None)
            }
        }
    }

    /// Removes every record matching the predicate (payload files too)
    /// and rewrites the manifest once. The predicate sees records in
    /// manifest order.
    fn drop_records<F: FnMut(&VersionRecord) -> bool>(&mut self, mut f: F) -> SparseResult<()> {
        let mut dropped = Vec::new();
        self.records.retain(|r| {
            if f(r) {
                dropped.push(r.payload.clone());
                false
            } else {
                true
            }
        });
        if dropped.is_empty() {
            return Ok(());
        }
        for payload in &dropped {
            let _ = fs::remove_file(self.root.join(payload));
        }
        self.metrics.removed.add(dropped.len() as u64);
        self.write_manifest()
    }

    fn atomic_write<F>(&self, path: &Path, payload: bool, write: F) -> SparseResult<()>
    where
        F: FnOnce(&mut BufWriter<File>) -> SparseResult<()>,
    {
        let tmp = path.with_extension("tmp");
        let result = (|| {
            let file = File::create(&tmp)
                .map_err(|e| SparseError::InvalidCsr(format!("create {}: {e}", tmp.display())))?;
            let mut w = BufWriter::new(file);
            write(&mut w)?;
            w.flush().map_err(io_err)?;
            // Failpoint: simulated crash after the tmp write, before
            // anything is durable or renamed.
            failpoint::check(if payload {
                failpoint::CATALOG_PAYLOAD_BEFORE_FSYNC
            } else {
                failpoint::CATALOG_MANIFEST_BEFORE_FSYNC
            })?;
            // Failpoint: torn write — truncate the tmp and skip its
            // fsync, exactly the state a power loss mid-write leaves
            // behind. The rename still happens; the checksum footer is
            // what must catch this on load.
            let torn = if payload {
                failpoint::torn(failpoint::CATALOG_PAYLOAD_TORN)
            } else {
                None
            };
            if let Some(keep) = torn {
                let len = w.get_ref().metadata().map_err(io_err)?.len();
                let keep_len = (len as f64 * keep) as u64;
                w.get_ref().set_len(keep_len).map_err(io_err)?;
            } else {
                let sw = Stopwatch::start();
                w.get_ref().sync_all().map_err(io_err)?;
                self.metrics.fsync_seconds.record(sw.elapsed_nanos());
            }
            fs::rename(&tmp, path).map_err(|e| {
                SparseError::InvalidCsr(format!(
                    "rename {} -> {}: {e}",
                    tmp.display(),
                    path.display()
                ))
            })
        })();
        if let Err(e) = &result {
            // An injected crash must leave the same debris a real crash
            // would (the stale tmp feeds the reopen sweep); only real
            // in-process errors clean up after themselves.
            if !failpoint::is_injected(e) {
                let _ = fs::remove_file(&tmp);
            }
        }
        result
    }

    fn write_manifest(&self) -> SparseResult<()> {
        // Failpoint: crash before the manifest rewrite begins (payload
        // durable and renamed, manifest one generation behind).
        failpoint::check(failpoint::CATALOG_MANIFEST_BEFORE_REWRITE)?;
        let path = self.root.join(MANIFEST);
        self.atomic_write(&path, false, |w| {
            w.write_all(MANIFEST_MAGIC).map_err(io_err)?;
            put_u64(w, self.records.len() as u64)?;
            for r in &self.records {
                persist::write_meta(w, &r.meta())?;
                let name = r.payload.as_bytes();
                put_u64(w, name.len() as u64)?;
                w.write_all(name).map_err(io_err)?;
            }
            Ok(())
        })
    }

    /// `None` on any structural problem — the caller falls back to a
    /// payload-header rebuild.
    fn read_manifest(&self) -> Option<Vec<VersionRecord>> {
        let bytes = fs::read(self.root.join(MANIFEST)).ok()?;
        let mut r = persist::Cursor(&bytes);
        if r.take(MANIFEST_MAGIC.len()).ok()? != MANIFEST_MAGIC {
            return None;
        }
        // Rows are pushed as they parse: a corrupt count runs out of
        // bytes, it reserves nothing.
        let mut records = Vec::new();
        for _ in 0..r.u64().ok()? {
            let meta = r.meta().ok()?;
            let name_len = usize::try_from(r.u64().ok()?).ok()?;
            let payload = String::from_utf8(r.take(name_len).ok()?.to_vec()).ok()?;
            // A row names a file directly under the root: records are
            // opened and deleted by this name.
            if Path::new(&payload).file_name() != Some(payload.as_ref()) {
                return None;
            }
            records.push(VersionRecord::from_meta(&meta, payload));
        }
        Some(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::la_decompose::decompose_snapshot;
    use amd_graph::generators::basic;
    use amd_sparse::CsrMatrix;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amd-catalog-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample(n: u32) -> (CsrMatrix<f64>, ArrowDecomposition) {
        let a: CsrMatrix<f64> = basic::cycle(n).to_adjacency();
        let d = decompose_snapshot(&a, &cfg(), 1).unwrap();
        (a, d)
    }

    fn cfg() -> DecomposeConfig {
        DecomposeConfig::with_width(8)
    }

    #[test]
    fn put_get_roundtrip_and_reopen() {
        let dir = tmpdir("roundtrip");
        let (a, d) = sample(40);
        let fp = a.fingerprint();
        {
            let mut c = Catalog::open(&dir).unwrap();
            let rec = c.put(&d, fp, &cfg(), 1, 0, 0).unwrap();
            assert_eq!(rec.fingerprint, fp);
            assert_eq!(rec.version, 0);
            // Idempotent: a second put of the same identity no-ops.
            let again = c.put(&d, fp, &cfg(), 1, 5, 0).unwrap();
            assert_eq!(again, rec);
            assert_eq!(c.len(), 1);
            assert_eq!(c.stats().puts, 1);
        }
        let mut c = Catalog::open(&dir).unwrap();
        assert_eq!(c.stats().recovered_records, 0, "manifest was intact");
        let (loaded, rec) = c.get(fp, &cfg(), 1).unwrap().unwrap();
        assert_eq!(loaded, d);
        assert_eq!(rec.fingerprint, fp);
        // Unknown identities miss cleanly.
        assert!(c.get(fp ^ 1, &cfg(), 1).unwrap().is_none());
        assert!(c.get(fp, &cfg(), 2).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lineage_chain_restores_point_in_time() {
        let dir = tmpdir("lineage");
        let mut c = Catalog::open(&dir).unwrap();
        let (a0, d0) = sample(30);
        let (a1, d1) = sample(30 + 2); // stand-ins for refreshed content
        let (a2, d2) = sample(30 + 4);
        let (f0, f1, f2) = (a0.fingerprint(), a1.fingerprint(), a2.fingerprint());
        c.put(&d0, f0, &cfg(), 1, 0, 0).unwrap();
        c.put(&d1, f1, &cfg(), 1, 1, f0).unwrap();
        c.put(&d2, f2, &cfg(), 1, 2, f1).unwrap();
        assert_eq!(c.versions(f1).len(), 1);
        // Walk the lineage from the head back to every version.
        for (want_v, want_d) in [(0u64, &d0), (1, &d1), (2, &d2)] {
            let (got, rec) = c.restore_at(f2, &cfg(), 1, want_v).unwrap().unwrap();
            assert_eq!(&got, want_d, "version {want_v}");
            assert_eq!(rec.version, want_v);
        }
        assert!(c.restore_at(f2, &cfg(), 1, 9).unwrap().is_none());
        // Head-only restore adopts the head's identity.
        let (got, _) = c.restore_head_at(f2, 0).unwrap().unwrap();
        assert_eq!(got, d0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_between_payload_and_manifest_recovers() {
        let dir = tmpdir("crash");
        let (a0, d0) = sample(24);
        let (a1, d1) = sample(28);
        let mut c = Catalog::open(&dir).unwrap();
        c.put(&d0, a0.fingerprint(), &cfg(), 1, 0, 0).unwrap();
        let manifest_before = fs::read(dir.join(MANIFEST)).unwrap();
        c.put(&d1, a1.fingerprint(), &cfg(), 1, 0, 0).unwrap();
        drop(c);
        // Simulate the crash window: the second payload landed but the
        // manifest rewrite never happened.
        fs::write(dir.join(MANIFEST), &manifest_before).unwrap();
        let mut c = Catalog::open(&dir).unwrap();
        assert_eq!(c.stats().recovered_records, 1, "orphan payload adopted");
        assert_eq!(c.len(), 2);
        let (loaded, _) = c.get(a1.fingerprint(), &cfg(), 1).unwrap().unwrap();
        assert_eq!(loaded, d1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lost_or_corrupt_manifest_rebuilds_from_headers() {
        let dir = tmpdir("rebuild");
        let (a0, d0) = sample(24);
        let (a1, d1) = sample(32);
        {
            let mut c = Catalog::open(&dir).unwrap();
            c.put(&d0, a0.fingerprint(), &cfg(), 1, 0, 0).unwrap();
            c.put(&d1, a1.fingerprint(), &cfg(), 1, 1, a0.fingerprint())
                .unwrap();
        }
        for corruption in ["missing", "garbage"] {
            match corruption {
                "missing" => fs::remove_file(dir.join(MANIFEST)).unwrap(),
                _ => fs::write(dir.join(MANIFEST), b"NOT A MANIFEST").unwrap(),
            }
            let mut c = Catalog::open(&dir).unwrap();
            assert_eq!(c.stats().recovered_records, 2, "{corruption}: full rebuild");
            assert_eq!(c.len(), 2);
            // Lineage survives the rebuild: parent edges live in the
            // payload headers.
            let (got, rec) = c
                .restore_at(a1.fingerprint(), &cfg(), 1, 0)
                .unwrap()
                .unwrap();
            assert_eq!(got, d0);
            assert_eq!(rec.parent, 0);
            let (got, _) = c.get(a1.fingerprint(), &cfg(), 1).unwrap().unwrap();
            assert_eq!(got, d1);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_row_naming_a_path_outside_the_root_is_not_followed() {
        let dir = tmpdir("escape");
        let victim = dir.with_extension("victim");
        fs::write(&victim, b"not the catalog's").unwrap();
        let (a, d) = sample(24);
        let mut c = Catalog::open(&dir).unwrap();
        c.put(&d, a.fingerprint(), &cfg(), 1, 0, 0).unwrap();
        // A second row whose "payload" climbs out of the root; were it
        // believed, the failed load below would delete the file.
        let escape = format!("../{}", victim.file_name().unwrap().to_str().unwrap());
        c.records.push(VersionRecord {
            fingerprint: 9,
            payload: escape,
            ..c.records[0].clone()
        });
        c.write_manifest().unwrap();
        let mut c = Catalog::open(&dir).unwrap();
        assert_eq!(c.len(), 1, "manifest refused, real payload recovered");
        assert!(c.get(9, &cfg(), 1).unwrap().is_none());
        assert!(victim.exists());
        let _ = fs::remove_file(&victim);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retired_amd3_payload_is_decomposed_afresh_and_reput_as_amd4() {
        // What an older build leaves behind: a sealed payload under the
        // AMD3 magic and `amd3-` name, and the manifest row naming it.
        let dir = tmpdir("retired");
        let (a, d) = sample(40);
        let fp = a.fingerprint();
        let old = {
            let mut c = Catalog::open(&dir).unwrap();
            let rec = c.put(&d, fp, &cfg(), 1, 0, 0).unwrap();
            let mut bytes = fs::read(c.payload_path(&rec)).unwrap();
            bytes[..4].copy_from_slice(b"AMD3");
            persist::reseal(&mut bytes);
            let old = rec.payload.replacen("amd4-", "amd3-", 1);
            fs::write(dir.join(&old), &bytes).unwrap();
            fs::remove_file(c.payload_path(&rec)).unwrap();
            c.records[0].payload = old.clone();
            c.write_manifest().unwrap();
            old
        };
        let mut c = Catalog::open(&dir).unwrap();
        assert_eq!(c.len(), 1, "the manifest row survives the open");
        assert!(c.get(fp, &cfg(), 1).unwrap().is_none());
        assert_eq!(c.stats().load_failures, 1);
        assert_eq!(c.len(), 0, "the retired record is dropped");
        assert!(!dir.join(&old).exists(), "with its payload");
        // The caller decomposes afresh; the re-put is an AMD4 payload.
        let fresh = decompose_snapshot(&a, &cfg(), 1).unwrap();
        let rec = c.put(&fresh, fp, &cfg(), 1, 0, 0).unwrap();
        assert!(rec.payload.starts_with("amd4-"), "{}", rec.payload);
        assert_eq!(&fs::read(c.payload_path(&rec)).unwrap()[..4], b"AMD4");
        let (got, _) = c.get(fp, &cfg(), 1).unwrap().unwrap();
        assert_eq!(got, d);
        assert_eq!(c.stats().load_failures, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_payload_drops_record_and_heals_on_reput() {
        let dir = tmpdir("corrupt");
        let (a, d) = sample(36);
        let fp = a.fingerprint();
        let mut c = Catalog::open(&dir).unwrap();
        let rec = c.put(&d, fp, &cfg(), 1, 0, 0).unwrap();
        let path = c.payload_path(&rec);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(c.get(fp, &cfg(), 1).unwrap().is_none());
        assert_eq!(c.stats().load_failures, 1);
        assert_eq!(c.len(), 0, "bad record dropped");
        // The caller re-decomposes and re-puts; the chain is whole again.
        c.put(&d, fp, &cfg(), 1, 0, 0).unwrap();
        assert!(c.get(fp, &cfg(), 1).unwrap().is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_chain_stops_at_live_fingerprints() {
        let dir = tmpdir("chain");
        let mut c = Catalog::open(&dir).unwrap();
        let (a0, d0) = sample(24);
        let (a1, d1) = sample(26);
        let (a2, d2) = sample(28);
        let (f0, f1, f2) = (a0.fingerprint(), a1.fingerprint(), a2.fingerprint());
        // Shared root f0; two heads f1 and f2 branch from it.
        c.put(&d0, f0, &cfg(), 1, 0, 0).unwrap();
        c.put(&d1, f1, &cfg(), 1, 1, f0).unwrap();
        c.put(&d2, f2, &cfg(), 1, 1, f0).unwrap();
        // Evicting the f1 head while only the f2 *head* is live: f0 is
        // not itself bound, but it is an ancestor the live f2 chain
        // still depends on (restore path, splice prior) — the ancestor
        // closure must protect it.
        let removed = c.remove_chain(f1, &[f2]).unwrap();
        assert_eq!(removed, 1, "only f1's own version goes");
        assert!(c.get(f0, &cfg(), 1).unwrap().is_some(), "shared root kept");
        assert!(c.get(f2, &cfg(), 1).unwrap().is_some());
        assert!(c.get(f1, &cfg(), 1).unwrap().is_none());
        // Evicting f2 with nothing live takes the whole lineage.
        let removed = c.remove_chain(f2, &[]).unwrap();
        assert_eq!(removed, 2);
        assert!(c.is_empty());
        // Zero orphans: no payload files survive their records.
        assert_eq!(c.payload_files().unwrap().len(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_retains_last_k_and_pins_live() {
        let dir = tmpdir("gc");
        let mut c = Catalog::open(&dir).unwrap();
        let mats: Vec<_> = (0..5).map(|i| sample(20 + 2 * i)).collect();
        let fps: Vec<u128> = mats.iter().map(|(a, _)| a.fingerprint()).collect();
        // One lineage: f0 <- f1 <- f2 <- f3 <- f4.
        for (i, (a, d)) in mats.iter().enumerate() {
            let parent = if i == 0 { 0 } else { fps[i - 1] };
            c.put(d, a.fingerprint(), &cfg(), 1, i as u64, parent)
                .unwrap();
        }
        // Keep the newest 2, but pin the oldest as live.
        let report = c
            .gc(&RetainPolicy {
                last_k: 2,
                live: vec![fps[0]],
            })
            .unwrap();
        assert_eq!(report.kept, 3);
        assert_eq!(report.removed, 2);
        assert!(c.get(fps[0], &cfg(), 1).unwrap().is_some(), "live pinned");
        assert!(c.get(fps[3], &cfg(), 1).unwrap().is_some());
        assert!(c.get(fps[4], &cfg(), 1).unwrap().is_some());
        assert!(c.get(fps[1], &cfg(), 1).unwrap().is_none());
        assert!(c.get(fps[2], &cfg(), 1).unwrap().is_none());
        assert_eq!(c.payload_files().unwrap().len(), 3, "files follow records");
        let _ = fs::remove_dir_all(&dir);
    }
}
