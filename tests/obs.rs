//! Acceptance tests of the unified telemetry layer: every latency
//! histogram's sample count equals its paired `*Stats` counter (one
//! timing site feeds both), one background refresh leaves a complete
//! span tree in the tracer ring, a registry snapshot survives the
//! JSON round trip through the hand-rolled writer/parser, and live
//! telemetry costs the serving path under 3 % (an ignored release-mode
//! gate).

use arrow_matrix::engine::{Engine, EngineConfig, MatrixId, MultiplyQuery};
use arrow_matrix::graph::generators::rmat;
use arrow_matrix::obs::{parse_json, Stopwatch, Telemetry};
use arrow_matrix::sparse::CsrMatrix;
use arrow_matrix::stream::{HubConfig, StalenessBudget, StreamHub, TenantId, Update};
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

#[test]
fn histogram_counts_match_stats_counters() {
    // One stopwatch feeds each histogram *and* the matching folded
    // counter, so their counts must agree exactly — a histogram that
    // drifts from its `*Stats` view means a timing site was duplicated
    // or dropped.
    let n = 64;
    let mut hub = StreamHub::with_telemetry(small_hub_config(false), Telemetry::new()).unwrap();
    let t = hub.admit(ring(n)).unwrap();
    trip(&mut hub, t, n, 3);
    for q in 0..5u32 {
        let x: Vec<f64> = (0..n).map(|r| ((r + q) % 7) as f64).collect();
        hub.run_single(t, x, 2, None).unwrap();
    }

    let engine = hub.engine_stats();
    let cache = hub.cache_stats();
    let hs = hub.stats();
    assert!(engine.runs > 0 && hs.refreshes_completed >= 3);

    let snap = hub.telemetry().registry.snapshot();
    let hist = |name: &str| snap.histogram(name).expect("histogram registered").count;
    // Engine: every run records its wall time and its batch size.
    assert_eq!(hist("multiply.seconds"), engine.runs);
    assert_eq!(hist("engine.batch_size"), engine.runs);
    // Engine refresh path: one latency sample per rebind.
    assert_eq!(hist("refresh.seconds"), engine.refreshes);
    // Cache: one decompose duration per cold decomposition.
    assert_eq!(hist("decompose.seconds"), cache.decompositions);
    // Hub: one sample per phase per committed refresh.
    assert_eq!(hist("refresh.decompose.seconds"), hs.refreshes_completed);
    assert_eq!(hist("refresh.extract.seconds"), hs.refreshes_completed);
    assert_eq!(hist("refresh.splice.seconds"), hs.refreshes_completed);
    // The folded views and the raw registry counters are the same data.
    assert_eq!(snap.counter("engine.runs"), Some(engine.runs));
    assert_eq!(
        snap.counter("cache.decompositions"),
        Some(cache.decompositions)
    );
    assert_eq!(
        snap.counter("hub.refreshes_completed"),
        Some(hs.refreshes_completed)
    );
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
    let runs = snapshot.counter("engine.runs").unwrap_or(0);
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
