//! The metrics registry: named counters, gauges, and log-bucketed
//! histograms behind a cheap `Arc` handle.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are clonable
//! `Arc`ed atomics — recording is lock-free; the registry lock is
//! taken only on get-or-create and snapshot. A disabled registry
//! ([`Registry::disabled`]) hands out no-op handles (each kind's
//! `Default`) whose record calls branch on an empty `Option` and return.

use crate::json::JsonWriter;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of power-of-two histogram buckets (`u64` bit-lengths 0..=63).
const BUCKETS: usize = 64;

/// A monotonically increasing `u64` metric.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    fn live() -> Self {
        Self {
            cell: Some(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.cell {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for a no-op counter).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A `u64` metric that can move both ways.
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    fn live() -> Self {
        Self {
            cell: Some(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(c) = &self.cell {
            c.store(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op gauge).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

struct HistogramCell {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCell {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index of a value: its bit length, so bucket `i` covers
/// `[2^(i-1), 2^i)` (bucket 0 holds exactly 0).
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Upper bound of bucket `i` — the value a quantile resolves to. The
/// last bucket also absorbs clamped 64-bit-length values, so its upper
/// bound is `u64::MAX`.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A log-bucketed (powers of two) `u64` histogram. Durations are
/// recorded in **nanoseconds**; with 64 buckets the dynamic range
/// covers sub-nanosecond to centuries, and any quantile is exact to
/// within a factor of two — plenty for latency SLOs.
#[derive(Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    fn live() -> Self {
        Self {
            cell: Some(Arc::new(HistogramCell::new())),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(c) = &self.cell {
            // bucket_of(v) is at most 64, but index 64 can't happen:
            // bit length 64 needs the top bit set, and the guard below
            // folds it into the last bucket.
            let b = bucket_of(v).min(BUCKETS - 1);
            c.buckets[b].fetch_add(1, Ordering::Relaxed);
            c.count.fetch_add(1, Ordering::Relaxed);
            c.sum.fetch_add(v, Ordering::Relaxed);
            c.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Records a duration in seconds (converted to nanoseconds).
    #[inline]
    pub fn record_seconds(&self, seconds: f64) {
        if self.cell.is_some() {
            self.record(crate::seconds_to_nanos(seconds));
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Sum of observations (saturating in practice: wrap needs 2^64).
    pub fn sum(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.sum.load(Ordering::Relaxed))
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.max.load(Ordering::Relaxed))
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// first bucket whose cumulative count reaches `ceil(q · count)`.
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let Some(c) = &self.cell else { return 0 };
        let count = c.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in c.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// A point-in-time summary (count, sum, max, p50/p90/p99/p999, and
    /// the populated buckets).
    pub fn summarize(&self) -> HistogramSnapshot {
        let buckets = match &self.cell {
            None => Vec::new(),
            Some(c) => c
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then(|| (bucket_upper(i), n))
                })
                .collect(),
        };
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            buckets,
        }
    }
}

/// A point-in-time histogram summary. All fields share the unit of the
/// recorded values (nanoseconds for duration histograms).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation (exact).
    pub max: u64,
    /// Median, exact to within a factor of two (bucket upper bound).
    pub p50: u64,
    /// 90th percentile (bucket upper bound).
    pub p90: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
    /// 99.9th percentile (bucket upper bound).
    pub p999: u64,
    /// The populated buckets as `(upper_bound, count)` pairs, ascending
    /// by bound (empty buckets omitted). This is the full distribution:
    /// windowed quantiles are derived from the *difference* of two
    /// snapshots' bucket counts (see [`delta`](Self::delta)).
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The value at quantile `q` recomputed from the snapshot's
    /// buckets: the upper bound of the first bucket whose cumulative
    /// count reaches `ceil(q · total)`, clamped to `max`. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// The windowed view `self − earlier`: what was recorded between
    /// the two snapshots. Counts subtract saturating per bucket (a
    /// counter that moved backwards — e.g. a metric namespace removed
    /// and re-created — clamps to an empty window rather than
    /// underflowing). `max` and the quantiles are recomputed from the
    /// bucket deltas, so `max` is the window's *bucket upper bound*,
    /// exact only to within a factor of two.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets: Vec<(u64, u64)> = Vec::new();
        for &(upper, n) in &self.buckets {
            let before = earlier
                .buckets
                .iter()
                .find(|&&(u, _)| u == upper)
                .map_or(0, |&(_, n0)| n0);
            let d = n.saturating_sub(before);
            if d > 0 {
                buckets.push((upper, d));
            }
        }
        let mut out = HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
            buckets,
            ..HistogramSnapshot::default()
        };
        out.max = out.quantile(1.0);
        out.p50 = out.quantile(0.50);
        out.p90 = out.quantile(0.90);
        out.p99 = out.quantile(0.99);
        out.p999 = out.quantile(0.999);
        out
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A snapshot value of one named metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current value.
    Gauge(u64),
    /// A histogram summary.
    Histogram(HistogramSnapshot),
}

/// A point-in-time copy of every metric in a [`Registry`], sorted by
/// name. Serializes to the metrics-JSON schema documented in the
/// README: counters and gauges as bare numbers, histograms as objects
/// with `count`/`sum`/`max`/`p50`/`p90`/`p99` fields.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    metrics: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// All metrics, sorted by name.
    pub fn metrics(&self) -> &[(String, MetricValue)] {
        &self.metrics
    }

    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.metrics[i].1)
    }

    /// A counter's value, if `name` is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// A gauge's value, if `name` is a gauge.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// A histogram's summary, if `name` is a histogram.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        match self.get(name)? {
            MetricValue::Histogram(h) => Some(h.clone()),
            _ => None,
        }
    }

    /// Serializes to the metrics-JSON schema: one flat object keyed by
    /// metric name, preceded by a `"schema": "amd-metrics/1"` marker so
    /// consumers can reject files that are not snapshots. Deterministic
    /// (keys sorted, integer values only).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.field_str("schema", "amd-metrics/1");
        for (name, value) in &self.metrics {
            match value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => w.field_u64(name, *v),
                MetricValue::Histogram(h) => {
                    w.begin_object(name);
                    w.field_u64("count", h.count);
                    w.field_u64("sum", h.sum);
                    w.field_u64("max", h.max);
                    w.field_u64("p50", h.p50);
                    w.field_u64("p90", h.p90);
                    w.field_u64("p99", h.p99);
                    w.field_u64("p999", h.p999);
                    // Explicit bucket bounds: `[[upper, count], …]`,
                    // empty buckets omitted. Readers that predate this
                    // field ignore it (the schema stays amd-metrics/1 —
                    // additive fields only).
                    let mut pairs = String::from("[");
                    for (i, (upper, n)) in h.buckets.iter().enumerate() {
                        if i > 0 {
                            pairs.push_str(", ");
                        }
                        let _ = write!(pairs, "[{upper}, {n}]");
                    }
                    pairs.push(']');
                    w.field_raw("buckets", &pairs);
                    w.end_object();
                }
            }
        }
        w.finish()
    }
}

struct RegistryInner {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// A thread-safe, cheap-to-clone registry of named metrics.
///
/// Names are dotted paths (`hub.tenant.3.updates`,
/// `multiply.seconds`); the `.seconds` suffix marks nanosecond
/// duration histograms by convention. Get-or-create is idempotent:
/// every caller asking for the same name receives a handle onto the
/// same cell, which is how the `*Stats` structs stay views over one
/// set of counters instead of parallel bookkeeping.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
}

impl Registry {
    /// A live registry.
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(RegistryInner {
                metrics: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// A registry whose handles are all no-ops (zero recording cost
    /// beyond a branch). Snapshots of a disabled registry are empty.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// `false` for a [`disabled`](Self::disabled) registry.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, BTreeMap<String, Metric>>> {
        self.inner
            .as_ref()
            .map(|i| i.metrics.lock().expect("obs registry poisoned"))
    }

    /// Get-or-create the counter `name`. Panics if `name` already
    /// exists as a different metric kind (a naming bug, not a load
    /// condition).
    pub fn counter(&self, name: &str) -> Counter {
        let Some(mut m) = self.lock() else {
            return Counter::default();
        };
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::live()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get-or-create the gauge `name` (same kind rules as
    /// [`counter`](Self::counter)).
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(mut m) = self.lock() else {
            return Gauge::default();
        };
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::live()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get-or-create the histogram `name` (same kind rules as
    /// [`counter`](Self::counter)).
    pub fn histogram(&self, name: &str) -> Histogram {
        let Some(mut m) = self.lock() else {
            return Histogram::default();
        };
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::live()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Drops every metric whose name starts with `prefix` (used when a
    /// tenant is evicted: its `hub.tenant.<id>.*` namespace goes away;
    /// outstanding handles keep working but record into orphaned
    /// cells). Returns how many were removed.
    pub fn remove_prefix(&self, prefix: &str) -> usize {
        let Some(mut m) = self.lock() else { return 0 };
        let doomed: Vec<String> = m
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect();
        for k in &doomed {
            m.remove(k);
        }
        doomed.len()
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let Some(m) = self.lock() else {
            return Snapshot::default();
        };
        Snapshot {
            metrics: m
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.summarize()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let r = Registry::new();
        let c = r.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name → same cell.
        assert_eq!(r.counter("a.b").get(), 5);

        let g = r.gauge("g");
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set(3);
        assert_eq!(r.gauge("g").get(), 3, "a gauge moves both ways");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::live();
        assert_eq!(h.quantile(0.5), 0);
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1110);
        assert_eq!(h.max(), 1000);
        // p50 rank = 3 → value 3 lives in bucket [2,4) → upper 3.
        assert_eq!(h.quantile(0.5), 3);
        // p99 rank = 6 → 1000 in bucket [512,1024) → upper 1023, but
        // clamped to the exact max.
        assert_eq!(h.quantile(0.99), 1000);
        // Quantile never exceeds max even for the last bucket.
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn bucket_indexing_covers_the_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(62), (1u64 << 62) - 1);
        assert_eq!(bucket_upper(63), u64::MAX);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn snapshot_exposes_p999_and_buckets() {
        let h = Histogram::live();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        let s = h.summarize();
        assert_eq!(s.p999, s.max, "p999 clamps to the exact max");
        // Buckets: 1 → [1,1]; 2,3 → [3,2]; 4 → [7,1]; 100 → [127,1];
        // 1000 → [1023,1].
        assert_eq!(s.buckets, vec![(1, 1), (3, 2), (7, 1), (127, 1), (1023, 1)]);
        assert_eq!(s.buckets.iter().map(|&(_, n)| n).sum::<u64>(), s.count);
        // Quantiles recomputed from the bucket list match the cell's.
        assert_eq!(s.quantile(0.5), h.quantile(0.5));
        assert_eq!(s.quantile(0.99), h.quantile(0.99));
    }

    #[test]
    fn snapshot_delta_yields_windowed_quantiles() {
        let h = Histogram::live();
        h.record(1);
        h.record(1_000_000);
        let before = h.summarize();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(5_000);
        let after = h.summarize();
        let window = after.delta(&before);
        assert_eq!(window.count, 100);
        assert_eq!(window.sum, 99 * 10 + 5_000);
        // The window never saw the old 1 ms outlier: its p99 reflects
        // only the new samples.
        assert!(window.p99 <= 8191, "windowed p99 = {}", window.p99);
        assert!(window.max <= 8191, "windowed max = {}", window.max);
        assert_eq!(window.p50, 15, "10 lands in bucket [8,16)");
        // Degenerate windows: identical snapshots → empty.
        let empty = after.delta(&after);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.quantile(0.99), 0);
        // Backwards movement (snapshot order swapped) clamps, not wraps.
        let clamped = before.delta(&after);
        assert_eq!(clamped.count, 0);
        assert!(clamped.buckets.is_empty());
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let r = Registry::new();
        r.counter("z").add(1);
        r.counter("a").add(2);
        r.histogram("h").record(5);
        let s = r.snapshot();
        let names: Vec<&str> = s.metrics().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "h", "z"]);
        assert_eq!(s.counter("a"), Some(2));
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.histogram("h").unwrap().count, 1);
        assert_eq!(s.histogram("a"), None);
    }

    #[test]
    fn snapshot_json_schema() {
        let r = Registry::new();
        r.counter("cache.hits").add(3);
        r.histogram("multiply.seconds").record_seconds(0.001);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"cache.hits\": 3"));
        assert!(json.contains("\"multiply.seconds\": {"));
        assert!(json.contains("\"count\": 1"));
        // Round-trips through the parser.
        let v = crate::parse_json(&json).unwrap();
        assert_eq!(v.get("cache.hits").and_then(|x| x.as_u64()), Some(3));
        let h = v.get("multiply.seconds").unwrap();
        assert_eq!(h.get("count").and_then(|x| x.as_u64()), Some(1));
    }

    #[test]
    fn remove_prefix_scopes_to_the_namespace() {
        let r = Registry::new();
        r.counter("hub.tenant.1.updates").add(1);
        r.counter("hub.tenant.10.updates").add(1);
        r.counter("hub.updates").add(2);
        assert_eq!(r.remove_prefix("hub.tenant.1."), 1);
        let s = r.snapshot();
        assert_eq!(s.counter("hub.tenant.1.updates"), None);
        assert_eq!(s.counter("hub.tenant.10.updates"), Some(1));
        assert_eq!(s.counter("hub.updates"), Some(2));
    }

    #[test]
    fn handles_share_cells_across_threads() {
        let r = Registry::new();
        let c = r.counter("shared");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.counter("shared").get(), 4000);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_panic() {
        let r = Registry::new();
        r.counter("x");
        r.histogram("x");
    }
}
