//! # amd-obs — unified telemetry for the arrow-matrix serving stack
//!
//! One dependency-free observability layer shared by every crate in the
//! workspace: the engine, the streaming hub, the persistence catalog,
//! and the CLI all record into the same three primitives.
//!
//! * [`Registry`] — a cheap-to-clone, thread-safe registry of named
//!   [`Counter`]s, [`Gauge`]s, and [`Histogram`]s. Handles are `Arc`ed
//!   atomics: recording is a single atomic RMW, and a handle stays
//!   valid (and cheap) no matter how many clones exist. A registry
//!   [snapshot](Registry::snapshot) serializes to JSON with a
//!   hand-rolled writer, read back by [`parse_json`] (the workspace
//!   builds offline — no serde).
//! * [`Histogram`] — log-bucketed (powers of two) latency histograms.
//!   Values are `u64` (the convention throughout the workspace is
//!   **nanoseconds** for durations); the snapshot exposes
//!   count/sum/max and p50/p90/p99 derived from the bucket walk.
//! * [`Tracer`] — span-based structured tracing into a bounded ring
//!   buffer of [`TraceEvent`]s. Spans have parents, so one background
//!   refresh produces a retrievable tree: `refresh` → `queued` →
//!   `decompose` → `commit`, with instantaneous events (`trip`,
//!   `grant`, `splice`, …) hanging off the same root.
//! * [`stats_view!`] — the one declaration of a `*Stats` view: its
//!   fields, the registry handles they are read from, their names and
//!   the fold, each written once.
//! * [`Stopwatch`] — the single wall-clock measurement type. Every
//!   timing site in the workspace reads one stopwatch and feeds the
//!   result to *both* its consumer (refresh spans, bench reports)
//!   and the matching histogram, so no duration is measured twice.
//! * [`timeseries`] — a JSONL recorder of periodic snapshot deltas
//!   (`"schema": "amd-metrics-ts/1"`) with windowed rates and windowed
//!   latency quantiles derived from counter/histogram-bucket deltas.
//! * [`chrome`] — a Chrome Trace Event Format exporter over the tracer
//!   ring (tenant lanes, parent nesting, orphan re-rooting after ring
//!   eviction), loadable in Perfetto / `chrome://tracing`.
//!
//! [`Telemetry`] bundles one registry and one tracer; layers share it
//! by cloning (`Engine::telemetry()`, `StreamHub::telemetry()`).
//! [`Telemetry::disabled`] yields no-op handles whose record calls
//! compile to a branch on a `None` — the ignored release-mode test
//! `tests/obs.rs::perf_smoke_telemetry_overhead` holds the instrumented
//! stack to < 3% against this baseline.
//!
//! ```
//! use amd_obs::Telemetry;
//!
//! let t = Telemetry::new();
//! let batch = t.registry.histogram("engine.batch_size");
//! let lat = t.registry.histogram("multiply.seconds");
//! batch.record(8);
//! lat.record_seconds(0.002);
//!
//! let root = t.tracer.start("refresh", amd_obs::SpanId::NONE, Some(7));
//! let child = t.tracer.start("decompose", root, Some(7));
//! t.tracer.end(child);
//! t.tracer.end(root);
//!
//! let snap = t.registry.snapshot();
//! let batch = snap.histogram("engine.batch_size").unwrap();
//! assert_eq!((batch.count, batch.sum), (1, 8)); // one run, eight queries
//! assert!(snap.to_json().contains("\"multiply.seconds\""));
//! assert_eq!(t.tracer.snapshot().len(), 2);
//! ```

pub mod chrome;
mod json;
mod registry;
mod stats;
pub mod timeseries;
mod trace;

pub use chrome::chrome_trace_json;
pub use json::{parse_json, JsonValue, JsonWriter};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, Registry, Snapshot};
pub use timeseries::{parse_ts_line, TimeSeriesRecorder, TsPoint, TS_SCHEMA};
pub use trace::{SpanId, TraceEvent, Tracer};

use std::time::Instant;

/// One registry + one tracer: the telemetry bundle a serving layer
/// owns and shares downwards. Cloning is cheap (two `Arc`s) and every
/// clone observes the same metrics and events.
#[derive(Clone)]
pub struct Telemetry {
    /// Named counters, gauges, and histograms.
    pub registry: Registry,
    /// The span/event ring buffer.
    pub tracer: Tracer,
}

impl Telemetry {
    /// Default tracer ring capacity (completed events retained).
    pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

    /// A live telemetry bundle with the default trace capacity.
    pub fn new() -> Self {
        Self {
            registry: Registry::new(),
            tracer: Tracer::new(Self::DEFAULT_TRACE_CAPACITY),
        }
    }

    /// A no-op bundle: every handle it yields skips recording. This is
    /// the uninstrumented baseline of the telemetry-overhead gate
    /// (`tests/obs.rs::perf_smoke_telemetry_overhead`).
    pub fn disabled() -> Self {
        Self {
            registry: Registry::disabled(),
            tracer: Tracer::disabled(),
        }
    }

    /// `false` when built by [`disabled`](Self::disabled).
    pub fn is_enabled(&self) -> bool {
        self.registry.is_enabled()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

/// The workspace's single wall-clock measurement type. Wraps
/// [`Instant`] so call sites never touch `std::time` directly, and the
/// one measured duration can feed both a consumer (a span's detail,
/// bench JSON) and a [`Histogram`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    t0: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self { t0: Instant::now() }
    }

    /// Elapsed wall-clock seconds since [`start`](Self::start).
    pub fn elapsed_seconds(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Elapsed wall-clock nanoseconds, saturating at `u64::MAX`.
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Converts a duration in seconds to the nanosecond `u64` convention
/// used by every duration histogram (saturating, negatives clamp to 0).
pub fn seconds_to_nanos(seconds: f64) -> u64 {
    if seconds <= 0.0 {
        return 0;
    }
    let nanos = seconds * 1e9;
    if nanos >= u64::MAX as f64 {
        u64::MAX
    } else {
        nanos as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_forward() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_nanos();
        let b = sw.elapsed_nanos();
        assert!(b >= a);
        assert!(sw.elapsed_seconds() >= 0.0);
    }

    #[test]
    fn seconds_to_nanos_clamps() {
        assert_eq!(seconds_to_nanos(-1.0), 0);
        assert_eq!(seconds_to_nanos(0.0), 0);
        assert_eq!(seconds_to_nanos(1.0), 1_000_000_000);
        assert_eq!(seconds_to_nanos(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn disabled_telemetry_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let c = t.registry.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        let h = t.registry.histogram("y");
        h.record(10);
        assert_eq!(h.count(), 0);
        let s = t.tracer.start("span", SpanId::NONE, None);
        t.tracer.end(s);
        assert!(t.tracer.snapshot().is_empty());
        assert!(t.registry.snapshot().metrics().is_empty());
    }
}
