//! The decomposition cache: an LRU over content fingerprints with
//! write-through persistence into a versioned [`Catalog`].
//!
//! LA-Decompose is the expensive, once-per-matrix step of the paper's
//! workflow (§5); everything after it is cheap per-iteration SpMM. The
//! cache makes that amortization explicit in a serving setting:
//!
//! * **memory hits** return the resident [`ArrowDecomposition`] without
//!   touching the arrangement pipeline,
//! * **catalog hits** (after a restart, or after an LRU eviction)
//!   reload a previously persisted decomposition from the
//!   [`arrow_core::catalog`] — still no LA-Decompose,
//! * only true misses pay for a decomposition, and with a catalog
//!   directory configured the result is written through immediately as
//!   a catalog version, so a warm restart never repeats the work.
//!
//! Write-throughs carry **lineage**: a decomposition admitted by a
//! streaming refresh records the fingerprint it was refreshed from as
//! its parent version, so the catalog accumulates per-matrix version
//! chains (point-in-time restore, GC, tenant eviction) instead of loose
//! per-key files.
//!
//! [`CacheStats::decompositions`] is the probe tests use to assert the
//! warm path performs zero LA-Decompose calls. Only an engine of more
//! than one rank builds a cache; a one-rank engine's counters are all
//! zero.

use amd_obs::{Registry, Stopwatch};
use amd_sparse::{CsrMatrix, SparseError, SparseResult};
use arrow_core::catalog::Catalog;
use arrow_core::{la_decompose, ArrowDecomposition, DecomposeConfig, RandomForestLa};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

amd_obs::stats_view! {
    /// Counters exposed by the cache (monotonic over its lifetime): a
    /// point-in-time view of its registry metrics (`cache.*` in a
    /// metrics snapshot) — see [`Engine::cache_stats`](crate::Engine::cache_stats).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct CacheStats {
        /// Requests answered from memory.
        hits: Counter,
        /// Requests not answered from memory (catalog loads included).
        misses: Counter,
        /// Requests answered by reloading a catalogued decomposition.
        disk_loads: Counter,
        /// Catalog payloads that failed to load (corrupt/truncated); each
        /// falls back to a fresh decomposition that re-puts the version.
        load_failures: Counter,
        /// LA-Decompose invocations (the expensive path), failed ones
        /// included: the count of `decompose.seconds`.
        decompositions: u64 = m.decompose_seconds.count(),
        /// Decompositions computed elsewhere (e.g. on a background refresh
        /// worker) and handed to the cache at a refresh's commit.
        admitted: Counter,
        /// Decompositions written through to the catalog.
        spills: Counter,
        /// Write-through attempts that failed (disk full, directory gone);
        /// the decomposition stays usable in memory.
        spill_failures: Counter,
        /// Entries dropped from memory by the LRU policy.
        evictions: Counter,
        /// Entries dropped from memory because a binding was deregistered
        /// (the catalog copy, if any, remains until garbage-collected).
        released: Counter,
    }
    /// The cache's registry handles.
    struct CacheCells |m| {
        /// Wall time of every LA-Decompose the cache runs, one sample per
        /// invocation whether or not it succeeds.
        decompose_seconds: Histogram = "decompose.seconds",
    }
}

struct Entry {
    d: Arc<ArrowDecomposition>,
    last_used: u64,
}

/// LRU cache of arrow decompositions keyed by
/// [`cache_key`](Self::cache_key) — the [`CsrMatrix::fingerprint`]
/// folded with the decompose configuration and seed — with optional
/// write-through into an on-disk [`Catalog`].
pub(crate) struct DecompositionCache {
    capacity: usize,
    catalog: Option<Catalog>,
    entries: HashMap<u128, Entry>,
    clock: u64,
    metrics: CacheCells,
}

impl DecompositionCache {
    /// A cache holding at most `capacity` decompositions in memory (a
    /// `capacity` of 0 is refused). With `catalog_dir` set, every
    /// decomposition is also persisted there as a catalog version
    /// (write-through), and lookups fall back to the catalog before
    /// decomposing; pass `None` for a memory-only cache. The cache's
    /// counters (`cache.*`, `decompose.seconds`) and the catalog's
    /// (`catalog.*`) register in `registry`, so one snapshot covers the
    /// whole serving stack.
    pub fn with_registry(
        capacity: usize,
        catalog_dir: Option<PathBuf>,
        registry: &Registry,
    ) -> SparseResult<Self> {
        if capacity == 0 {
            return Err(SparseError::InvalidCsr(
                "cache_capacity must be at least 1".into(),
            ));
        }
        let catalog = match catalog_dir {
            Some(dir) => Some(Catalog::open_with_registry(dir, registry)?),
            None => None,
        };
        Ok(Self {
            capacity,
            catalog,
            entries: HashMap::new(),
            clock: 0,
            metrics: CacheCells::new(registry, "cache."),
        })
    }

    /// Counter snapshot, folded from the registry.
    pub fn stats(&self) -> CacheStats {
        self.metrics.view()
    }

    /// The write-through catalog, when one is configured.
    pub fn catalog(&self) -> Option<&Catalog> {
        self.catalog.as_ref()
    }

    /// Mutable access to the write-through catalog (GC, chain removal).
    pub fn catalog_mut(&mut self) -> Option<&mut Catalog> {
        self.catalog.as_mut()
    }

    /// The cache identity of a request: the matrix content fingerprint
    /// folded with every input that shapes the decomposition — arrow
    /// width, pruning flag, level cap, and the arrangement seed. Two
    /// requests share an entry (or a catalog version) only when they
    /// would produce the same decomposition.
    fn cache_key(fingerprint: u128, config: &DecomposeConfig, seed: u64) -> u128 {
        const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
        let mut h = fingerprint;
        for byte in config
            .arrow_width
            .to_le_bytes()
            .into_iter()
            .chain([config.prune as u8])
            .chain(config.max_levels.to_le_bytes())
            .chain(seed.to_le_bytes())
        {
            h ^= byte as u128;
            h = h.wrapping_mul(PRIME);
        }
        h
    }

    /// The decomposition for `a` (whose content fingerprint the caller
    /// supplies — hashing is `O(nnz)`, worth doing once), from memory,
    /// the catalog, or (last resort) a fresh LA-Decompose with `config`
    /// and the random-forest strategy seeded by `seed`. Should a fresh
    /// one be computed, its write-through records `version` and `parent`
    /// (the fingerprint it was refreshed from; 0 for a root). Also says
    /// where it came from — `"hit"`, `"disk"` or `"decompose"` — for
    /// the trace.
    pub fn get_or_decompose_lineage(
        &mut self,
        a: &CsrMatrix<f64>,
        fingerprint: u128,
        config: &DecomposeConfig,
        seed: u64,
        version: u64,
        parent: u128,
    ) -> SparseResult<(Arc<ArrowDecomposition>, &'static str)> {
        let key = Self::cache_key(fingerprint, config, seed);
        self.clock += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.last_used = self.clock;
            self.metrics.hits.inc();
            return Ok((entry.d.clone(), "hit"));
        }
        self.metrics.misses.inc();
        // Catalog fallback: a previous run (or an evicted entry) may
        // have persisted this decomposition already. A payload that
        // fails to load — corrupt, truncated, or holding the wrong
        // matrix — must never take registration down: the catalog drops
        // the bad record, we fall through to a fresh decomposition, and
        // the re-put heals the chain.
        if let Some(catalog) = &mut self.catalog {
            let failures_before = catalog.stats().load_failures;
            match catalog.get(fingerprint, config, seed) {
                Ok(Some((d, _))) if d.n() == a.rows() => {
                    let d = Arc::new(d);
                    self.metrics.disk_loads.inc();
                    self.insert(key, d.clone());
                    return Ok((d, "disk"));
                }
                Ok(Some(_)) => self.metrics.load_failures.inc(), // wrong shape
                Ok(None) => {
                    self.metrics
                        .load_failures
                        .add(catalog.stats().load_failures - failures_before);
                }
                Err(_) => self.metrics.load_failures.inc(),
            }
        }
        // True miss: decompose (the only expensive path) and write
        // through so restarts stay warm. Persistence is best-effort: a
        // full disk or vanished directory must not discard the freshly
        // computed decomposition — the cache degrades to memory-only and
        // counts the failure. A decompose that fails is timed (and so
        // counted) too.
        let sw = Stopwatch::start();
        let d = la_decompose(a, config, &mut RandomForestLa::new(seed));
        self.metrics
            .decompose_seconds
            .record_seconds(sw.elapsed_seconds());
        let d = Arc::new(d?);
        self.write_through(&d, fingerprint, config, seed, version, parent);
        self.insert(key, d.clone());
        Ok((d, "decompose"))
    }

    /// The resident decomposition for a content/config/seed identity,
    /// if any — no disk fallback, no decompose, no hit/miss accounting
    /// (recency is still bumped). This is the *prior* lookup of an
    /// incremental refresh: a miss just means the splice base is gone
    /// (evicted, or never computed here) and the refresh goes cold.
    pub fn peek(
        &mut self,
        fingerprint: u128,
        config: &DecomposeConfig,
        seed: u64,
    ) -> Option<Arc<ArrowDecomposition>> {
        let key = Self::cache_key(fingerprint, config, seed);
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(&key).map(|e| {
            e.last_used = clock;
            e.d.clone()
        })
    }

    /// Adopts a decomposition computed outside the cache (a background
    /// refresh worker decomposing a snapshot off-thread). If the key is
    /// already resident the existing entry wins — the caller's copy is
    /// discarded and the resident [`Arc`] returned, so pointer identity
    /// stays stable for concurrent holders. Otherwise the decomposition
    /// is inserted and written through to the catalog exactly like a
    /// cache-computed one (best-effort, counted on failure), recording
    /// the given lineage: `version` is the revision counter and
    /// `parent` the fingerprint this decomposition was refreshed from
    /// (0 for a root) — an incremental refresh's spliced result thus
    /// persists as a child version of its prior. Also says which of the
    /// two happened — `"hit"` or `"admitted"` — for the trace.
    pub fn admit(
        &mut self,
        fingerprint: u128,
        config: &DecomposeConfig,
        seed: u64,
        d: Arc<ArrowDecomposition>,
        version: u64,
        parent: u128,
    ) -> (Arc<ArrowDecomposition>, &'static str) {
        let key = Self::cache_key(fingerprint, config, seed);
        self.clock += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.last_used = self.clock;
            self.metrics.hits.inc();
            return (entry.d.clone(), "hit");
        }
        self.metrics.admitted.inc();
        self.write_through(&d, fingerprint, config, seed, version, parent);
        self.insert(key, d.clone());
        (d, "admitted")
    }

    /// Drops the resident entry for an identity, if present — the
    /// deregistration path: the binding that pinned this decomposition
    /// is gone, so the memory can go too. The catalog version (if any)
    /// survives until GC'd or its chain is removed.
    pub fn release(&mut self, fingerprint: u128, config: &DecomposeConfig, seed: u64) {
        let key = Self::cache_key(fingerprint, config, seed);
        if self.entries.remove(&key).is_some() {
            self.metrics.released.inc();
        }
    }

    fn write_through(
        &mut self,
        d: &ArrowDecomposition,
        fingerprint: u128,
        config: &DecomposeConfig,
        seed: u64,
        version: u64,
        parent: u128,
    ) {
        if let Some(catalog) = &mut self.catalog {
            match catalog.put(d, fingerprint, config, seed, version, parent) {
                Ok(_) => self.metrics.spills.inc(),
                Err(_) => self.metrics.spill_failures.inc(),
            }
        }
    }

    fn insert(&mut self, key: u128, d: Arc<ArrowDecomposition>) {
        while self.entries.len() >= self.capacity {
            // Evict the least recently used entry. Decompositions are
            // write-through, so eviction never loses work when a
            // catalog is configured.
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&fp, _)| fp)
                .expect("entries non-empty while over capacity");
            self.entries.remove(&lru);
            self.metrics.evictions.inc();
        }
        self.entries.insert(
            key,
            Entry {
                d,
                last_used: self.clock,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amd_graph::generators::basic;

    fn matrix(n: u32) -> CsrMatrix<f64> {
        basic::cycle(n).to_adjacency()
    }

    fn cfg() -> DecomposeConfig {
        DecomposeConfig::with_width(8)
    }

    fn open(capacity: usize, dir: Option<PathBuf>) -> SparseResult<DecompositionCache> {
        DecompositionCache::with_registry(capacity, dir, &Registry::new())
    }

    /// A root-version lookup of `a`, hashing it here, and where the
    /// decomposition came from.
    fn get(
        cache: &mut DecompositionCache,
        a: &CsrMatrix<f64>,
        config: &DecomposeConfig,
        seed: u64,
    ) -> SparseResult<(Arc<ArrowDecomposition>, &'static str)> {
        cache.get_or_decompose_lineage(a, a.fingerprint(), config, seed, 0, 0)
    }

    #[test]
    fn second_request_is_a_memory_hit() {
        let mut cache = open(2, None).unwrap();
        let a = matrix(40);
        let (d1, cold) = get(&mut cache, &a, &cfg(), 1).unwrap();
        let (d2, warm) = get(&mut cache, &a, &cfg(), 1).unwrap();
        assert!(Arc::ptr_eq(&d1, &d2));
        assert_eq!((cold, warm), ("decompose", "hit"));
        assert_eq!(cache.stats().decompositions, 1);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn failed_decompose_is_counted_and_timed() {
        // K₃₂ at width 4 needs many levels; a cap of one fails it. The
        // invocation still counts, through the histogram that times it.
        let registry = Registry::new();
        let mut cache = DecompositionCache::with_registry(2, None, &registry).unwrap();
        let a: CsrMatrix<f64> = basic::complete(32).to_adjacency();
        let capped = DecomposeConfig {
            max_levels: 1,
            ..DecomposeConfig::with_width(4)
        };
        assert!(get(&mut cache, &a, &capped, 1).is_err());
        assert_eq!(cache.stats().decompositions, 1);
        let timed = registry.snapshot().histogram("decompose.seconds").unwrap();
        assert_eq!(timed.count, 1);
    }

    #[test]
    fn lru_evicts_oldest_and_capacity_holds() {
        let mut cache = open(2, None).unwrap();
        let (a, b, c) = (matrix(30), matrix(40), matrix(50));
        get(&mut cache, &a, &cfg(), 1).unwrap();
        get(&mut cache, &b, &cfg(), 1).unwrap();
        // Touch a so b becomes the LRU victim.
        get(&mut cache, &a, &cfg(), 1).unwrap();
        get(&mut cache, &c, &cfg(), 1).unwrap();
        assert_eq!(cache.entries.len(), 2);
        let key = |m: &CsrMatrix<f64>| DecompositionCache::cache_key(m.fingerprint(), &cfg(), 1);
        assert!(cache.entries.contains_key(&key(&a)));
        assert!(!cache.entries.contains_key(&key(&b)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn different_configs_get_distinct_entries() {
        // Same matrix at two widths must produce two decompositions —
        // the cache identity covers the config, not just the content.
        let mut cache = open(4, None).unwrap();
        let a = matrix(40);
        let (d8, _) = get(&mut cache, &a, &DecomposeConfig::with_width(8), 1).unwrap();
        let (d16, _) = get(&mut cache, &a, &DecomposeConfig::with_width(16), 1).unwrap();
        assert_eq!(cache.stats().decompositions, 2);
        assert_eq!(d8.b(), 8);
        assert_eq!(d16.b(), 16);
        // A different seed is likewise its own entry.
        get(&mut cache, &a, &DecomposeConfig::with_width(8), 2).unwrap();
        assert_eq!(cache.stats().decompositions, 3);
    }

    #[test]
    fn disk_reload_skips_decompose() {
        let dir = std::env::temp_dir().join(format!("amd-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = matrix(60);
        {
            let mut cache = open(2, Some(dir.clone())).unwrap();
            get(&mut cache, &a, &cfg(), 1).unwrap();
            assert_eq!(cache.stats().decompositions, 1);
            assert_eq!(cache.stats().spills, 1);
            // The write-through is a catalog root version.
            let catalog = cache.catalog().unwrap();
            assert_eq!(catalog.len(), 1);
            let rec = catalog.record(a.fingerprint(), &cfg(), 1).unwrap();
            assert_eq!(rec.version, 0);
            assert_eq!(rec.parent, 0);
        }
        // Fresh cache, same directory: warm restart, zero LA-Decompose.
        let mut cache = open(2, Some(dir.clone())).unwrap();
        let (d, from) = get(&mut cache, &a, &cfg(), 1).unwrap();
        assert_eq!(from, "disk");
        assert_eq!(cache.stats().decompositions, 0);
        assert_eq!(cache.stats().disk_loads, 1);
        assert_eq!(d.validate(&a).unwrap(), 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_catalog_payload_falls_back_to_decompose() {
        let dir = std::env::temp_dir().join(format!("amd-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = matrix(50);
        let payload = {
            let mut cache = open(2, Some(dir.clone())).unwrap();
            get(&mut cache, &a, &cfg(), 1).unwrap();
            let catalog = cache.catalog().unwrap();
            catalog.payload_path(catalog.record(a.fingerprint(), &cfg(), 1).unwrap())
        };
        // Truncate the payload: the warm path must survive it.
        let bytes = std::fs::read(&payload).unwrap();
        std::fs::write(&payload, &bytes[..20]).unwrap();
        let mut cache = open(2, Some(dir.clone())).unwrap();
        let (d, _) = get(&mut cache, &a, &cfg(), 1).unwrap();
        assert_eq!(cache.stats().load_failures, 1);
        assert_eq!(cache.stats().decompositions, 1, "fell back to decompose");
        assert_eq!(d.validate(&a).unwrap(), 0.0);
        // The bad version was replaced: a third cache loads it cleanly.
        let mut cache = open(2, Some(dir.clone())).unwrap();
        get(&mut cache, &a, &cfg(), 1).unwrap();
        assert_eq!(cache.stats().decompositions, 0);
        assert_eq!(cache.stats().disk_loads, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_then_rerequest_reloads_from_disk() {
        let dir = std::env::temp_dir().join(format!("amd-cache-evict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = open(1, Some(dir.clone())).unwrap();
        let (a, b) = (matrix(30), matrix(44));
        get(&mut cache, &a, &cfg(), 1).unwrap();
        get(&mut cache, &b, &cfg(), 1).unwrap(); // evicts a
        get(&mut cache, &a, &cfg(), 1).unwrap(); // disk, not decompose
        assert_eq!(cache.stats().decompositions, 2);
        assert_eq!(cache.stats().disk_loads, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admit_records_lineage_in_the_catalog() {
        let dir = std::env::temp_dir().join(format!("amd-cache-lineage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = open(4, Some(dir.clone())).unwrap();
        let a = matrix(30);
        let b = matrix(32);
        let (da, _) = get(&mut cache, &a, &cfg(), 1).unwrap();
        // Simulate a refresh: b's decomposition admitted as version 1
        // with a as its parent.
        let db = Arc::new(arrow_core::decompose_snapshot(&b, &cfg(), 1).unwrap());
        let (_, from) = cache.admit(b.fingerprint(), &cfg(), 1, db, 1, a.fingerprint());
        assert_eq!(from, "admitted");
        assert_eq!(cache.stats().admitted, 1);
        let catalog = cache.catalog().unwrap();
        let rec = catalog.record(b.fingerprint(), &cfg(), 1).unwrap();
        assert_eq!(rec.version, 1);
        assert_eq!(rec.parent, a.fingerprint());
        // Admitting a resident identity returns the resident Arc.
        let (da2, from) = cache.admit(a.fingerprint(), &cfg(), 1, da.clone(), 7, 0);
        assert!(Arc::ptr_eq(&da, &da2));
        assert_eq!(from, "hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn release_drops_memory_but_not_the_catalog() {
        let dir = std::env::temp_dir().join(format!("amd-cache-release-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = open(4, Some(dir.clone())).unwrap();
        let a = matrix(30);
        get(&mut cache, &a, &cfg(), 1).unwrap();
        cache.release(a.fingerprint(), &cfg(), 1);
        cache.release(a.fingerprint(), &cfg(), 1); // already gone
        assert_eq!(cache.stats().released, 1);
        assert!(cache.entries.is_empty());
        // The catalog copy still answers the next request.
        get(&mut cache, &a, &cfg(), 1).unwrap();
        assert_eq!(cache.stats().disk_loads, 1);
        assert_eq!(cache.stats().decompositions, 1, "no second decompose");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
