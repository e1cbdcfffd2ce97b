//! The benchmark's own spans. This PR may not instrument the program,
//! so a span is recorded here, around each call into a layer. Spans stay
//! in memory and are written as a Chrome trace when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    parent: Option<usize>,
    request: u64,
}

/// A span that has started; [`Tracer::close`] ends it.
pub struct Open {
    /// Index of the span, for children to name as their parent (0 when
    /// tracing is off; nothing reads it then).
    pub id: usize,
    start: Instant,
}

/// Times calls and, when tracing is on, keeps a span for each.
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            spans: enabled.then(Vec::new),
        }
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> Open {
        let start = Instant::now();
        let id = match &mut self.spans {
            Some(spans) => {
                spans.push(Span {
                    name,
                    start_us: (start - self.origin).as_secs_f64() * 1e6,
                    dur_us: 0.0,
                    parent,
                    request,
                });
                spans.len() - 1
            }
            None => 0,
        };
        Open { id, start }
    }

    /// Ends the span and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let seconds = open.start.elapsed().as_secs_f64();
        if let Some(spans) = &mut self.spans {
            spans[open.id].dur_us = seconds * 1e6;
        }
        seconds
    }

    /// Times one call as a span of its own; returns its result and
    /// duration in seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        call: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.open(name, parent, request);
        let result = call();
        (result, self.close(open))
    }

    /// A call inside an already timed span: recorded when tracing is on,
    /// and not even timed when it is off, so the untraced request pays
    /// nothing for its children.
    pub fn child<R>(
        &mut self,
        name: &'static str,
        parent: &Open,
        request: u64,
        call: impl FnOnce() -> R,
    ) -> R {
        if self.spans.is_none() {
            return call();
        }
        self.time(name, Some(parent.id), request, call).0
    }

    /// Durations, in seconds, of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .flatten()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us / 1e6)
            .collect()
    }

    /// Chrome trace format (`chrome://tracing`, Perfetto): one complete
    /// event per span; `args` carries the span's own id, its parent and
    /// the request it belongs to.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (id, s) in self.spans.iter().flatten().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"bench\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \
                 \"args\": {{\"id\": {id}, \"parent\": {parent}, \"request\": {}}}}}",
                s.name, s.start_us, s.dur_us, s.request
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut t = Tracer::new(true);
        let req = t.open("request", None, 7);
        let v = t.child("stream.submit", &req, 7, || 5);
        assert_eq!(v, 5);
        assert!(t.close(req) >= 0.0);
        assert_eq!(t.durations("stream.submit").len(), 1);
        let json = amd_obs::parse_json(&t.chrome_json()).expect("valid JSON");
        let events = match json.get("traceEvents") {
            Some(amd_obs::JsonValue::Arr(events)) => events.clone(),
            other => panic!("no event array: {other:?}"),
        };
        assert_eq!(events.len(), 2);
        let child_args = events[1].get("args").unwrap();
        assert_eq!(child_args.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(child_args.get("request").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("x", None, 0, || 1 + 1);
        assert_eq!(v, 2);
        assert!(secs >= 0.0);
        assert!(t.durations("x").is_empty());
    }
}
