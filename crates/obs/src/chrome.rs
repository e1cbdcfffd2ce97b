//! Chrome Trace Event Format export of the [`Tracer`] ring.
//!
//! [`chrome_trace_json`] renders a tracer snapshot as a JSON document
//! loadable in Perfetto / `chrome://tracing`: completed spans become
//! `"ph": "X"` (complete) events, instantaneous events become
//! `"ph": "i"` (instant) events, and every tenant gets its own lane —
//! `tid 0` is the engine/hub lane, tenant `t` renders on `tid t + 1`,
//! with `"M"` metadata events naming the lanes. Timestamps are the
//! tracer's nanosecond clock converted to the format's microseconds
//! (fractional, so sub-microsecond spans survive).
//!
//! **Orphan handling.** The tracer ring is bounded: when it wraps, the
//! oldest completed events are dropped — and because a parent span is
//! pushed when it *ends*, a long-lived root can be evicted while its
//! children survive (or simply still be open). Surviving children whose
//! parent id is absent from the snapshot are re-rooted: exported as
//! top-level events (`args.parent = 0`) instead of dangling references
//! into the evicted past. The viewer still nests them correctly on the
//! time axis; nothing points at an event that does not exist.
//!
//! [`Tracer`]: crate::Tracer

use crate::json::JsonWriter;
use crate::trace::TraceEvent;
use std::collections::HashSet;

/// Lane (Chrome `tid`) of an event: tenants get their own lanes above
/// the shared engine/hub lane 0.
fn lane(tenant: Option<u64>) -> u64 {
    tenant.map_or(0, |t| t.saturating_add(1))
}

/// Renders a tracer snapshot (see [`Tracer::snapshot`]) as one Chrome
/// Trace Event Format document. Events whose parent was evicted from
/// the ring are emitted as top-level (see the [module docs](self)).
///
/// [`Tracer::snapshot`]: crate::Tracer::snapshot
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let present: HashSet<u64> = events.iter().map(|e| e.id).collect();
    let mut lanes: Vec<(u64, Option<u64>)> = Vec::new();
    for e in events {
        let l = lane(e.tenant);
        if !lanes.iter().any(|&(id, _)| id == l) {
            lanes.push((l, e.tenant));
        }
    }
    lanes.sort_unstable();

    let mut items: Vec<String> = Vec::new();
    // Process/lane names first: metadata events the viewers read.
    items.push(meta_event("process_name", 0, "arrow-matrix"));
    for &(l, tenant) in &lanes {
        let name = match tenant {
            None => "engine/hub".to_string(),
            Some(t) => format!("tenant {t}"),
        };
        items.push(meta_event("thread_name", l, &name));
    }
    for e in events {
        // Orphan handling: a parent id that is not in this snapshot
        // (ring-evicted or still open) re-roots the child.
        let parent = if e.parent != 0 && present.contains(&e.parent) {
            e.parent
        } else {
            0
        };
        let mut w = JsonWriter::compact_object();
        w.field_str("name", e.name);
        w.field_str("ph", if e.duration_nanos > 0 { "X" } else { "i" });
        w.field_u64("pid", 0);
        w.field_u64("tid", lane(e.tenant));
        w.field_f64("ts", e.start_nanos as f64 / 1e3);
        if e.duration_nanos > 0 {
            w.field_f64("dur", e.duration_nanos as f64 / 1e3);
        } else {
            // Thread-scoped instant: renders as a tick on its lane.
            w.field_str("s", "t");
        }
        w.begin_object("args");
        w.field_u64("id", e.id);
        w.field_u64("parent", parent);
        if !e.detail.is_empty() {
            w.field_str("detail", &e.detail);
        }
        w.end_object();
        items.push(w.finish());
    }

    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  ");
        out.push_str(item);
    }
    out.push_str("\n]}\n");
    out
}

fn meta_event(kind: &str, tid: u64, name: &str) -> String {
    let mut w = JsonWriter::compact_object();
    w.field_str("name", kind);
    w.field_str("ph", "M");
    w.field_u64("pid", 0);
    w.field_u64("tid", tid);
    w.begin_object("args");
    w.field_str("name", name);
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, JsonValue};
    use crate::trace::{SpanId, Tracer};

    fn events_of(doc: &JsonValue) -> Vec<&JsonValue> {
        match doc.get("traceEvents") {
            Some(JsonValue::Arr(items)) => items.iter().collect(),
            other => panic!("traceEvents missing: {other:?}"),
        }
    }

    #[test]
    fn export_nests_spans_and_lanes() {
        let t = Tracer::new(16);
        let root = t.start("refresh", SpanId::NONE, Some(3));
        t.event("grant", root, Some(3), "slot=0".to_string());
        let child = t.start("decompose", root, Some(3));
        t.end(child);
        t.end_with(root, "committed".to_string());

        let json = chrome_trace_json(&t.snapshot());
        let doc = parse_json(&json).expect("well-formed trace JSON");
        let events = events_of(&doc);
        // 1 process_name + 1 lane + 3 events.
        assert_eq!(events.len(), 5);

        let by_name = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(JsonValue::as_str) == Some(name))
                .copied()
                .unwrap_or_else(|| panic!("no event {name}"))
        };
        let refresh = by_name("refresh");
        assert_eq!(refresh.get("ph").and_then(JsonValue::as_str), Some("X"));
        assert_eq!(refresh.get("tid").and_then(JsonValue::as_u64), Some(4));
        let refresh_id = refresh
            .get("args")
            .and_then(|a| a.get("id"))
            .and_then(JsonValue::as_u64)
            .unwrap();
        let decompose = by_name("decompose");
        assert_eq!(
            decompose
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(JsonValue::as_u64),
            Some(refresh_id)
        );
        let grant = by_name("grant");
        assert_eq!(grant.get("ph").and_then(JsonValue::as_str), Some("i"));
        assert_eq!(grant.get("s").and_then(JsonValue::as_str), Some("t"));
        // The child renders inside the parent on the time axis.
        let ts = |e: &JsonValue, k: &str| e.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
        assert!(ts(refresh, "ts") <= ts(decompose, "ts"));
        assert!(
            ts(refresh, "ts") + ts(refresh, "dur") >= ts(decompose, "ts") + ts(decompose, "dur")
        );
        // Lane metadata names the tenant.
        let lane_meta = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(JsonValue::as_str) == Some("M")
                    && e.get("tid").and_then(JsonValue::as_u64) == Some(4)
            })
            .expect("tenant lane metadata");
        assert_eq!(
            lane_meta
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(JsonValue::as_str),
            Some("tenant 3")
        );
    }

    #[test]
    fn wrapped_ring_reroots_orphaned_children() {
        // Regression: a tiny ring evicts the oldest completed events.
        // End children first, then the root, then overflow the ring so
        // the *root* is dropped while late children survive — their
        // parent id must not dangle in the export.
        let t = Tracer::new(3);
        let root = t.start("refresh", SpanId::NONE, Some(1));
        let c1 = t.start("decompose", root, Some(1));
        t.end(c1);
        t.end(root); // ring: [decompose, refresh]
        let c2 = t.start("splice-late", SpanId(root.0), Some(1));
        t.end(c2); // ring: [decompose, refresh, splice-late]
        for _ in 0..2 {
            t.event("filler", SpanId::NONE, None, String::new());
        }
        // Ring (cap 3): [splice-late, filler, filler] — root evicted.
        assert!(t.dropped() >= 2);
        let snapshot = t.snapshot();
        assert!(
            !snapshot.iter().any(|e| e.id == root.0),
            "test setup: root must be evicted"
        );
        let orphan_parent = snapshot
            .iter()
            .find(|e| e.name == "splice-late")
            .map(|e| e.parent)
            .expect("child survived");
        assert_eq!(orphan_parent, root.0, "child still references the root");

        let json = chrome_trace_json(&snapshot);
        let doc = parse_json(&json).expect("well-formed trace JSON");
        let present: Vec<u64> = events_of(&doc)
            .iter()
            .filter_map(|e| e.get("args").and_then(|a| a.get("id")))
            .filter_map(JsonValue::as_u64)
            .collect();
        for e in events_of(&doc) {
            let Some(parent) = e
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(JsonValue::as_u64)
            else {
                continue; // metadata events carry no args.parent
            };
            assert!(
                parent == 0 || present.contains(&parent),
                "dangling parent {parent} in export"
            );
        }
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let json = chrome_trace_json(&[]);
        let doc = parse_json(&json).expect("well-formed trace JSON");
        assert_eq!(events_of(&doc).len(), 1); // just process_name
    }
}
