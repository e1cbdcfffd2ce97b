//! Acceptance tests of the unified telemetry layer: every latency
//! histogram's sample count equals its paired `*Stats` counter (one
//! timing site feeds both), one background refresh leaves a complete
//! span tree in the tracer ring, and a registry snapshot survives the
//! JSON round trip through the hand-rolled writer/parser.

use arrow_matrix::engine::EngineConfig;
use arrow_matrix::obs::{parse_json, Telemetry};
use arrow_matrix::sparse::CsrMatrix;
use arrow_matrix::stream::{HubConfig, StalenessBudget, StreamHub, TenantId, Update};

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
