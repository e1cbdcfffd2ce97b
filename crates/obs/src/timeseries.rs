//! Time-series recorder: periodic snapshot deltas as JSONL.
//!
//! A [`TimeSeriesRecorder`] owns a baseline [`Snapshot`] and, on each
//! [`sample`](TimeSeriesRecorder::sample), emits one single-line JSON
//! document (`"schema": "amd-metrics-ts/1"`) describing the **window**
//! since the previous sample: windowed rates (queries/s and runs/s from
//! the `engine.batch_size` histogram's sum and count, updates/s and
//! refreshes/s from counter deltas), windowed multiply-latency
//! quantiles derived from histogram *bucket* deltas (so a p99 line
//! reflects only the window, not the whole run), plus the cumulative
//! counter values and the raw per-window deltas for downstream
//! consumers (the CLI `top` dashboard tails this log).
//!
//! The recorder is resilient to the registry changing shape between
//! samples: a counter that disappears and reappears smaller (tenant
//! eviction recycling a namespace) clamps its delta to zero instead of
//! underflowing, and a zero-width window reports zero rates rather
//! than dividing by zero.
//!
//! ```
//! use amd_obs::{Registry, TimeSeriesRecorder, parse_ts_line};
//!
//! let r = Registry::new();
//! let mut ts = TimeSeriesRecorder::new(&r);
//! r.histogram("engine.batch_size").record(30); // one run of 30 queries
//! let line = ts.sample_at(2.0);
//! let point = parse_ts_line(&line).unwrap();
//! assert_eq!((point.qps, point.runs_per_s), (15.0, 0.5));
//! ```

use crate::json::{parse_json, JsonValue, JsonWriter};
use crate::registry::{HistogramSnapshot, MetricValue, Registry, Snapshot};
use crate::Stopwatch;

/// Schema marker of one time-series line.
pub const TS_SCHEMA: &str = "amd-metrics-ts/1";

/// Emits one JSONL line per sampling interval — see the [module
/// docs](self).
pub struct TimeSeriesRecorder {
    registry: Registry,
    sw: Stopwatch,
    seq: u64,
    last: Snapshot,
    last_t: f64,
}

impl TimeSeriesRecorder {
    /// A recorder over `registry` with an empty baseline: the first
    /// sample's window covers everything since construction.
    pub fn new(registry: &Registry) -> Self {
        Self {
            registry: registry.clone(),
            sw: Stopwatch::start(),
            seq: 0,
            last: Snapshot::default(),
            last_t: 0.0,
        }
    }

    /// Samples now (wall clock since construction) and returns the
    /// line, **without** a trailing newline.
    pub fn sample(&mut self) -> String {
        let t = self.sw.elapsed_seconds();
        self.sample_at(t)
    }

    /// Samples at an explicit timestamp (seconds since the recorder's
    /// epoch) — the deterministic entry point tests use. A timestamp
    /// at or before the previous sample yields a zero-width window
    /// (all rates zero); deltas are still taken against the previous
    /// snapshot.
    pub fn sample_at(&mut self, t_seconds: f64) -> String {
        let snap = self.registry.snapshot();
        let window = (t_seconds - self.last_t).max(0.0);
        let line = render_line(self.seq, t_seconds, window, &snap, &self.last);
        self.last = snap;
        self.last_t = t_seconds;
        self.seq += 1;
        line
    }
}

fn counter_of(snap: &Snapshot, name: &str) -> u64 {
    match snap.get(name) {
        Some(MetricValue::Counter(v)) | Some(MetricValue::Gauge(v)) => *v,
        _ => 0,
    }
}

/// What histogram `name` recorded between two snapshots (empty when it
/// is absent).
fn window_of(cur: &Snapshot, prev: &Snapshot, name: &str) -> HistogramSnapshot {
    cur.histogram(name)
        .unwrap_or_default()
        .delta(&prev.histogram(name).unwrap_or_default())
}

/// Windowed rate: `delta / window`, zero for an empty window.
fn rate(delta: u64, window: f64) -> f64 {
    if window > 0.0 {
        delta as f64 / window
    } else {
        0.0
    }
}

fn render_line(seq: u64, t: f64, window: f64, cur: &Snapshot, prev: &Snapshot) -> String {
    let delta = |name: &str| counter_of(cur, name).saturating_sub(counter_of(prev, name));
    let mut w = JsonWriter::compact_object();
    w.field_str("schema", TS_SCHEMA);
    w.field_u64("seq", seq);
    w.field_f64("t_seconds", t);
    w.field_f64("window_seconds", window);
    // One `engine.batch_size` sample per run, valued at its queries.
    let batches = window_of(cur, prev, "engine.batch_size");
    w.field_f64("qps", rate(batches.sum, window));
    w.field_f64("runs_per_s", rate(batches.count, window));
    w.field_f64("updates_per_s", rate(delta("hub.updates"), window));
    w.field_f64(
        "refreshes_per_s",
        rate(delta("hub.refreshes_completed"), window),
    );
    // Windowed multiply latency from histogram bucket deltas: the
    // quantiles of just this window's samples.
    let mult = window_of(cur, prev, "multiply.seconds");
    w.field_u64("multiply_window_count", mult.count);
    w.field_f64("multiply_p50_ms", mult.p50 as f64 / 1e6);
    w.field_f64("multiply_p99_ms", mult.p99 as f64 / 1e6);
    // Cumulative counter/gauge values (zeros omitted) …
    w.begin_object("counters");
    for (name, value) in cur.metrics() {
        match value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) if *v > 0 => w.field_u64(name, *v),
            _ => {}
        }
    }
    w.end_object();
    // … and the raw per-window counter deltas (nonzero only).
    w.begin_object("deltas");
    for (name, value) in cur.metrics() {
        if let MetricValue::Counter(_) = value {
            let d = delta(name);
            if d > 0 {
                w.field_u64(name, d);
            }
        }
    }
    w.end_object();
    w.finish()
}

/// One parsed time-series line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TsPoint {
    /// Sample index, 0-based.
    pub seq: u64,
    /// Seconds since the recorder's epoch.
    pub t_seconds: f64,
    /// Width of the window this line describes, in seconds.
    pub window_seconds: f64,
    /// Queries per second over the window.
    pub qps: f64,
    /// Engine runs per second over the window.
    pub runs_per_s: f64,
    /// Hub updates per second over the window.
    pub updates_per_s: f64,
    /// Completed refreshes per second over the window.
    pub refreshes_per_s: f64,
    /// Multiply samples inside the window.
    pub multiply_window_count: u64,
    /// Windowed multiply latency median in milliseconds.
    pub multiply_p50_ms: f64,
    /// Windowed multiply latency p99 in milliseconds.
    pub multiply_p99_ms: f64,
    /// Cumulative counter/gauge values at sample time (zeros omitted).
    pub counters: Vec<(String, u64)>,
    /// Per-window counter deltas (nonzero only).
    pub deltas: Vec<(String, u64)>,
}

impl TsPoint {
    /// A cumulative counter's value at sample time (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// Parses one line of the time-series log (the inverse of
/// [`TimeSeriesRecorder::sample`]). Rejects documents whose schema
/// marker is not [`TS_SCHEMA`].
pub fn parse_ts_line(line: &str) -> Result<TsPoint, String> {
    let doc = parse_json(line.trim())?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s == TS_SCHEMA => {}
        other => return Err(format!("not a time-series line (schema = {other:?})")),
    }
    let num = |key: &str| doc.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let int = |key: &str| doc.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
    let map = |key: &str| -> Vec<(String, u64)> {
        doc.get(key)
            .and_then(JsonValue::members)
            .map(|members| {
                members
                    .iter()
                    .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                    .collect()
            })
            .unwrap_or_default()
    };
    Ok(TsPoint {
        seq: int("seq"),
        t_seconds: num("t_seconds"),
        window_seconds: num("window_seconds"),
        qps: num("qps"),
        runs_per_s: num("runs_per_s"),
        updates_per_s: num("updates_per_s"),
        refreshes_per_s: num("refreshes_per_s"),
        multiply_window_count: int("multiply_window_count"),
        multiply_p50_ms: num("multiply_p50_ms"),
        multiply_p99_ms: num("multiply_p99_ms"),
        counters: map("counters"),
        deltas: map("deltas"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seconds_to_nanos;

    #[test]
    fn first_sample_windows_from_an_empty_baseline() {
        // Single snapshot: the first line's deltas are the cumulative
        // values — there is no earlier sample to subtract.
        let r = Registry::new();
        r.histogram("engine.batch_size").record(10);
        r.counter("hub.updates").add(4);
        let mut ts = TimeSeriesRecorder::new(&r);
        let p = parse_ts_line(&ts.sample_at(2.0)).unwrap();
        assert_eq!(p.seq, 0);
        assert_eq!(p.window_seconds, 2.0);
        assert_eq!((p.qps, p.runs_per_s, p.updates_per_s), (5.0, 0.5, 2.0));
        assert_eq!(p.counter("hub.updates"), 4);
        assert_eq!(p.deltas, vec![("hub.updates".to_string(), 4)]);
    }

    #[test]
    fn empty_window_reports_zero_rates() {
        let r = Registry::new();
        let mut ts = TimeSeriesRecorder::new(&r);
        let _ = ts.sample_at(1.0);
        r.histogram("engine.batch_size").record(100);
        r.counter("hub.updates").add(100);
        // Same timestamp again: zero-width window, rates must be 0 (not
        // NaN/inf) even though the metrics moved.
        let p = parse_ts_line(&ts.sample_at(1.0)).unwrap();
        assert_eq!(p.window_seconds, 0.0);
        assert_eq!((p.qps, p.runs_per_s, p.updates_per_s), (0.0, 0.0, 0.0));
        assert_eq!(p.deltas, vec![("hub.updates".to_string(), 100)]);
    }

    #[test]
    fn counter_rollback_across_snapshot_gaps_clamps() {
        // A namespace removed and re-created smaller (tenant eviction
        // then re-admission) must clamp the delta at zero, not wrap.
        let r = Registry::new();
        r.counter("hub.tenant.1.updates").add(50);
        let mut ts = TimeSeriesRecorder::new(&r);
        let _ = ts.sample_at(1.0);
        r.remove_prefix("hub.tenant.1.");
        r.counter("hub.tenant.1.updates").add(3);
        let p = parse_ts_line(&ts.sample_at(2.0)).unwrap();
        assert!(
            p.deltas.iter().all(|(n, _)| n != "hub.tenant.1.updates"),
            "rolled-back counter leaked a delta: {:?}",
            p.deltas
        );
        assert_eq!(p.counter("hub.tenant.1.updates"), 3);
    }

    #[test]
    fn qps_and_runs_per_s_come_from_batch_size_deltas() {
        // Queries and runs are the sum and count of `engine.batch_size`:
        // a window sees only the batches recorded inside it.
        let r = Registry::new();
        let batches = r.histogram("engine.batch_size");
        batches.record(8);
        batches.record(4);
        let mut ts = TimeSeriesRecorder::new(&r);
        let _ = ts.sample_at(1.0);
        for b in [16, 16, 32] {
            batches.record(b);
        }
        let p = parse_ts_line(&ts.sample_at(3.0)).unwrap();
        assert_eq!(p.window_seconds, 2.0);
        assert_eq!(p.qps, 32.0, "64 queries in 2 s");
        assert_eq!(p.runs_per_s, 1.5, "3 runs in 2 s");
        assert!(p.deltas.is_empty(), "no counter moved: {:?}", p.deltas);
    }

    #[test]
    fn windowed_p99_reflects_only_the_window() {
        let r = Registry::new();
        let h = r.histogram("multiply.seconds");
        h.record(seconds_to_nanos(1.0)); // 1 s outlier before the window
        let mut ts = TimeSeriesRecorder::new(&r);
        let _ = ts.sample_at(1.0);
        for _ in 0..100 {
            h.record(seconds_to_nanos(0.001));
        }
        let p = parse_ts_line(&ts.sample_at(2.0)).unwrap();
        assert_eq!(p.multiply_window_count, 100);
        assert!(
            p.multiply_p99_ms < 10.0,
            "old outlier leaked into the windowed p99: {} ms",
            p.multiply_p99_ms
        );
    }

    #[test]
    fn lines_round_trip_and_sequence() {
        let r = Registry::new();
        r.histogram("engine.batch_size").record(1);
        r.gauge("engine.active_prefix_permille").set(8);
        let mut ts = TimeSeriesRecorder::new(&r);
        let lines = [ts.sample_at(1.0), ts.sample_at(2.0)];
        for (i, line) in lines.iter().enumerate() {
            assert!(!line.contains('\n'), "JSONL line has a newline");
            let p = parse_ts_line(line).unwrap();
            assert_eq!(p.seq, i as u64);
            assert_eq!(p.counter("engine.active_prefix_permille"), 8);
        }
        // Second window saw no movement.
        let p = parse_ts_line(&lines[1]).unwrap();
        assert_eq!(p.qps, 0.0);
        assert!(p.deltas.is_empty());
        // Non-schema documents are rejected.
        assert!(parse_ts_line("{\"schema\": \"amd-metrics/1\"}").is_err());
        assert!(parse_ts_line("not json").is_err());
    }
}
