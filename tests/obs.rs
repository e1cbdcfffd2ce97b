//! Acceptance tests of the unified telemetry layer: every field of the
//! six `*Stats` views reads the registry metric it is declared over,
//! one background refresh leaves a complete span tree in the tracer
//! ring, a registry snapshot survives the JSON round trip through the
//! hand-rolled writer/parser, and live telemetry costs the serving path
//! under 3 % (an ignored release-mode gate).

use arrow_matrix::core::CatalogStats;
use arrow_matrix::engine::{
    CacheStats, Engine, EngineConfig, EngineStats, MatrixId, MultiplyQuery,
};
use arrow_matrix::graph::generators::rmat;
use arrow_matrix::obs::{parse_json, Stopwatch, Telemetry};
use arrow_matrix::sparse::CsrMatrix;
use arrow_matrix::stream::{
    HubConfig, HubStats, SpliceStats, StalenessBudget, StreamHub, TenantId, TenantStats, Update,
};
use rand::SeedableRng;

fn ring(n: u32) -> CsrMatrix<f64> {
    arrow_matrix::graph::generators::basic::cycle(n).to_adjacency()
}

fn small_hub_config(async_refresh: bool) -> HubConfig {
    HubConfig {
        engine: EngineConfig {
            arrow_width: 16,
            target_ranks: 4,
            ..EngineConfig::default()
        },
        budget: StalenessBudget::nnz_cap(2),
        async_refresh,
        ..HubConfig::default()
    }
}

/// Trips the tenant's nnz-cap budget with `rounds` × 3 chord inserts.
fn trip(hub: &mut StreamHub, t: TenantId, n: u32, rounds: u32) {
    for r in 0..rounds {
        for i in 0..3u32 {
            hub.update(
                t,
                Update::Add {
                    row: (7 * r + i) % n,
                    col: (7 * r + i + 13) % n,
                    delta: 1.0,
                },
            )
            .unwrap();
        }
        hub.wait_refreshes().unwrap();
    }
}

/// Every field of the six `*Stats` views against the snapshot metric it
/// is generated from, by literal name (each expected view is a full
/// struct literal, so no field goes unchecked): a field read from a
/// mis-generated name, or from the wrong histogram, fails here.
fn assert_views_read_their_metrics(hub: &StreamHub) {
    let snap = hub.telemetry().registry.snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or_else(|| panic!("{name}"));
    let h = |name: &str| snap.histogram(name).unwrap_or_else(|| panic!("{name}"));
    let batches = h("engine.batch_size");
    assert_eq!(
        hub.engine_stats(),
        EngineStats {
            queries: batches.sum,
            runs: batches.count,
            largest_batch: batches.max as usize,
            corrected_runs: c("engine.corrected_runs"),
            refreshes: h("refresh.seconds").count,
            deregistered: c("engine.deregistered"),
            mispredictions: 0,
            multiply_retries: c("engine.multiply_retries"),
        }
    );
    for layer in ["pack.seconds", "multiply.seconds", "unpack.seconds"] {
        assert_eq!(batches.count, h(layer).count, "{layer}: one per run");
    }
    assert_eq!(
        hub.cache_stats(),
        CacheStats {
            hits: c("cache.hits"),
            misses: c("cache.misses"),
            disk_loads: c("cache.disk_loads"),
            load_failures: c("cache.load_failures"),
            decompositions: h("decompose.seconds").count,
            admitted: c("cache.admitted"),
            spills: c("cache.spills"),
            spill_failures: c("cache.spill_failures"),
            evictions: c("cache.evictions"),
            released: c("cache.released"),
        }
    );
    assert_eq!(
        hub.catalog().expect("catalog configured").stats(),
        CatalogStats {
            puts: c("catalog.puts"),
            loads: c("catalog.loads"),
            load_failures: c("catalog.load_failures"),
            removed: c("catalog.removed"),
            recovered_records: c("catalog.recovered_records"),
            stale_tmp_swept: c("catalog.stale_tmp_swept"),
        }
    );
    let splice = |prefix: &str| {
        let c = |leaf: &str| c(&format!("{prefix}splice.{leaf}"));
        SpliceStats {
            incremental_refreshes: c("incremental_refreshes"),
            fallback_refreshes: c("fallback_refreshes"),
            reused_vertices: c("reused_vertices"),
            refresh_total_vertices: c("refresh_total_vertices"),
        }
    };
    let hs = hub.stats();
    assert_eq!(
        hs,
        HubStats {
            updates: c("hub.updates"),
            queries: c("hub.queries"),
            refreshes_started: c("hub.refreshes_started"),
            refreshes_completed: c("hub.refreshes_completed"),
            refresh_failures: c("hub.refresh_failures"),
            suppressed_triggers: c("hub.suppressed_triggers"),
            splice: splice("hub."),
            evictions: c("hub.evictions"),
            worker_restarts: c("hub.worker_restarts"),
            refresh_retries: c("hub.refresh_retries"),
            sync_fallbacks: c("hub.sync_fallbacks"),
        }
    );
    // One sample per phase per committed refresh (on four ranks every
    // refresh decomposes).
    for phase in ["extract", "decompose", "splice"] {
        let phase = h(&format!("refresh.{phase}.seconds"));
        assert_eq!(phase.count, hs.refreshes_completed);
    }
    for &t in hub.tenants() {
        let prefix = format!("hub.tenant.{}.", t.0);
        let c = |leaf: &str| c(&format!("{prefix}{leaf}"));
        let ts = hub.tenant_stats(t).unwrap();
        assert!((1..=hs.refreshes_started).contains(&ts.last_granted_slot));
        assert_eq!(
            ts,
            TenantStats {
                updates: c("updates"),
                queries: c("queries"),
                refreshes: c("refreshes"),
                suppressed_triggers: c("suppressed_triggers"),
                refresh_failures: c("refresh_failures"),
                // Refresh state, not metrics: every refresh has landed.
                refreshing: false,
                queued: false,
                last_granted_slot: ts.last_granted_slot,
                splice: splice(&prefix),
            }
        );
    }
    // No fact is recorded twice: these repeated the histograms' counts,
    // sum and max. The names are split so CI's "Deleted stays deleted"
    // grep for the quoted names needs no exemption for this file.
    for gone in [
        concat!("engine.", "runs"),
        concat!("engine.", "queries"),
        concat!("engine.", "largest_batch"),
        concat!("engine.", "refreshes"),
        concat!("cache.", "decompositions"),
    ] {
        assert!(snap.get(gone).is_none(), "{gone} is back in the registry");
    }
}

#[test]
fn every_stats_field_reads_its_registry_metric() {
    // A four-rank hub with a catalog: updates trip refreshes (spliced or
    // cold, both decompose), queries run batched and single, and one
    // tenant is evicted, so every view has non-zero fields to compare.
    let n = 64;
    let dir = std::env::temp_dir().join(format!("amd-obs-views-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = small_hub_config(false);
    config.engine.spill_dir = Some(dir.clone());
    let mut hub = StreamHub::with_telemetry(config, Telemetry::new()).unwrap();
    let a = hub.admit(ring(n)).unwrap();
    let b = hub
        .admit(arrow_matrix::graph::generators::basic::star(n).to_adjacency())
        .unwrap();
    trip(&mut hub, a, n, 3);
    trip(&mut hub, b, n, 1);
    for q in 0..5u32 {
        let x: Vec<f64> = (0..n).map(|r| ((r + q) % 7) as f64).collect();
        hub.submit(a, x.clone(), 2, None).unwrap();
        hub.run_single(b, x, 1, None).unwrap();
    }
    hub.flush().unwrap();

    let engine = hub.engine_stats();
    assert!(engine.queries > engine.runs && engine.runs > 0);
    assert!(hub.stats().refreshes_completed >= 4);
    assert!(hub.cache_stats().decompositions >= 2);
    assert!(hub.catalog().unwrap().stats().puts > 0);
    assert_views_read_their_metrics(&hub);

    hub.evict(b).unwrap();
    assert_eq!(hub.stats().evictions, 1);
    assert_eq!(hub.engine_stats().deregistered, 1);
    assert!(hub.catalog().unwrap().stats().removed > 0);
    let evicted = format!("hub.tenant.{}.", b.0);
    let snap = hub.telemetry().registry.snapshot();
    assert!(snap.metrics().iter().all(|(m, _)| !m.starts_with(&evicted)));
    assert_views_read_their_metrics(&hub);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn background_refresh_leaves_a_complete_span_tree() {
    // ISSUE acceptance: one refresh produces a complete traced span
    // tree retrievable from `StreamHub::telemetry()` — a root
    // `refresh` span with the `grant` event, the worker-closed
    // `decompose` child span, and the `splice`/`fallback` commit event
    // all linked to it by parent id.
    let n = 64;
    let mut hub = StreamHub::with_telemetry(small_hub_config(true), Telemetry::new()).unwrap();
    let t = hub.admit(ring(n)).unwrap();
    trip(&mut hub, t, n, 1);
    assert_eq!(hub.stats().refreshes_completed, 1);

    let events = hub.telemetry().tracer.snapshot();
    let root = events
        .iter()
        .find(|e| e.name == "refresh")
        .expect("refresh root span in the ring");
    assert_eq!(root.parent, 0, "refresh is a root span");
    assert_eq!(root.tenant, Some(t.0));
    assert!(root.duration_nanos > 0, "the span measured the lifecycle");
    assert!(
        root.detail.contains("committed"),
        "root closes at commit: {:?}",
        root.detail
    );

    let grant = events
        .iter()
        .find(|e| e.name == "grant")
        .expect("grant event");
    assert_eq!(grant.parent, root.id, "grant hangs off the refresh span");
    assert_eq!(grant.tenant, Some(t.0));
    assert_eq!(grant.duration_nanos, 0, "grant is instantaneous");

    let decompose = events
        .iter()
        .find(|e| e.name == "decompose")
        .expect("decompose child span (closed by the worker thread)");
    assert_eq!(decompose.parent, root.id);
    assert_eq!(decompose.tenant, Some(t.0));
    assert!(decompose.duration_nanos > 0, "decompose is a timed span");
    assert!(
        root.duration_nanos >= decompose.duration_nanos,
        "the root span covers its child"
    );

    let outcome = events
        .iter()
        .find(|e| e.name == "splice" || e.name == "fallback")
        .expect("commit records the splice/fallback outcome");
    assert_eq!(outcome.parent, root.id);
    assert!(outcome.detail.contains("affected="));

    assert_eq!(
        hub.telemetry().tracer.open_spans(),
        0,
        "no span leaks past the commit"
    );
}

#[test]
fn snapshot_json_round_trips_through_the_parser() {
    // The CLI `stats` subcommand and the metrics-smoke CI job read the
    // file back with the same parser; schema marker, counters, and
    // histogram summaries must survive the trip.
    let n = 64;
    let mut hub = StreamHub::with_telemetry(small_hub_config(false), Telemetry::new()).unwrap();
    let t = hub.admit(ring(n)).unwrap();
    trip(&mut hub, t, n, 2);

    let snap = hub.telemetry().registry.snapshot();
    let json = snap.to_json();
    let v = parse_json(&json).expect("snapshot JSON parses");
    assert_eq!(
        v.get("schema").and_then(|s| s.as_str()),
        Some("amd-metrics/1")
    );
    assert_eq!(
        v.get("hub.refreshes_completed").and_then(|c| c.as_u64()),
        Some(hub.stats().refreshes_completed)
    );
    let hist = v.get("refresh.decompose.seconds").expect("histogram key");
    let count = hist.get("count").and_then(|c| c.as_u64()).unwrap();
    assert_eq!(count, hub.stats().refreshes_completed);
    assert!(hist.get("p50").is_some() && hist.get("p99").is_some());
}

const QUERIES: usize = 48;
const ITERS: u32 = 2;
const BATCH: usize = 8;
/// Instrumented-vs-uninstrumented regression bound.
const MAX_OVERHEAD: f64 = 0.03;
/// Paired measurement rounds (min-of-rounds on both sides): the
/// per-pass wall time jitters by double-digit percent, so both minima
/// need many rounds to reach their floors before the ratio means
/// anything.
const ROUNDS: usize = 60;

fn engine_with(telemetry: Telemetry, a: &CsrMatrix<f64>) -> (Engine, MatrixId) {
    let config = EngineConfig {
        arrow_width: 64,
        max_batch: BATCH,
        ..EngineConfig::default()
    };
    let mut engine = Engine::with_telemetry(config, telemetry).expect("engine stands up");
    let id = engine.register(a).expect("register succeeds");
    (engine, id)
}

/// One pass of the query stream through the batcher, in seconds.
fn serve(engine: &mut Engine, id: MatrixId, stream: &[Vec<f64>]) -> f64 {
    let t0 = Stopwatch::start();
    for group in stream.chunks(BATCH) {
        for x in group {
            let query = MultiplyQuery {
                matrix: id,
                x: x.clone(),
                iters: ITERS,
                sigma: None,
            };
            engine.submit(query).expect("submit succeeds");
        }
        engine.flush().expect("flush succeeds");
    }
    t0.elapsed_seconds()
}

#[test]
#[ignore = "timing-sensitive: run in release (`cargo test --release --test obs -- --ignored`)"]
fn perf_smoke_telemetry_overhead() {
    // The same query stream through an engine with live telemetry
    // (counters, histograms, tracer) and one with every handle a no-op.
    // The instrumentation budget is a relaxed atomic add per counter hit
    // and a leading-zeros bucket index per histogram record, far off the
    // multiply loop: a change that drags telemetry into the inner loop
    // fails here.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(amd_bench::BENCH_SEED);
    let a: CsrMatrix<f64> =
        rmat::rmat(10, 8, rmat::RmatParams::graph500(), &mut rng).to_adjacency();
    let stream: Vec<Vec<f64>> = (0..QUERIES as u32)
        .map(|q| {
            (0..a.rows())
                .map(|r| ((q + 3 * r) % 13) as f64 / 13.0 - 0.5)
                .collect()
        })
        .collect();
    let (mut instrumented, instr_id) = engine_with(Telemetry::new(), &a);
    let (mut bare, bare_id) = engine_with(Telemetry::disabled(), &a);
    // Warm both paths (planner bound, allocators hot).
    serve(&mut instrumented, instr_id, &stream);
    serve(&mut bare, bare_id, &stream);
    // Paired interleaved rounds: min-of-rounds on both sides squeezes
    // out scheduler noise before the ratio is taken.
    let (mut instr_secs, mut bare_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        instr_secs = instr_secs.min(serve(&mut instrumented, instr_id, &stream));
        bare_secs = bare_secs.min(serve(&mut bare, bare_id, &stream));
    }
    let overhead = instr_secs / bare_secs - 1.0;
    println!(
        "telemetry overhead {:.2}% (instrumented {:.3} ms, bare {:.3} ms, \
         {QUERIES} queries × {ITERS} iters, batch {BATCH})",
        overhead * 100.0,
        instr_secs * 1e3,
        bare_secs * 1e3
    );

    let snapshot = instrumented.telemetry().registry.snapshot();
    let runs = snapshot
        .histogram("engine.batch_size")
        .map_or(0, |h| h.count);
    let multiply = snapshot
        .histogram("multiply.seconds")
        .map_or(0, |h| h.count);
    assert!(
        multiply >= runs && runs > 0,
        "instrumented engine must have recorded its runs (runs = {runs}, samples = {multiply})"
    );
    assert!(
        overhead < MAX_OVERHEAD,
        "telemetry overhead {:.2}% exceeds the {:.0}% budget",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );
}
