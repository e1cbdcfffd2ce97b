//! Dependency-free JSON: a tiny writer (used by
//! [`Snapshot::to_json`](crate::Snapshot::to_json), the trace exporters
//! and the paper-reproduction ledger) and a minimal
//! recursive-descent parser (used by the CLI `stats` subcommand and
//! the metrics-smoke tests to read snapshots back). The workspace
//! builds offline, so serde is not an option.

use std::fmt::Write as _;

/// An incremental writer for one JSON object with nested objects. Keys
/// are escaped; values are unsigned integers, floats, strings, raw
/// fragments, or arrays of raw fragments.
pub struct JsonWriter {
    buf: String,
    /// Pending-comma state per open scope (outer object, inner object).
    first: Vec<bool>,
    /// Compact mode emits no newlines or indentation — one line per
    /// document, the JSONL convention of the time-series log.
    compact: bool,
}

impl JsonWriter {
    /// Starts a top-level object (pretty-printed).
    pub fn object() -> Self {
        Self {
            buf: String::from("{"),
            first: vec![true],
            compact: false,
        }
    }

    /// Starts a top-level object emitted on a single line (JSONL).
    pub fn compact_object() -> Self {
        Self {
            buf: String::from("{"),
            first: vec![true],
            compact: true,
        }
    }

    fn key(&mut self, name: &str) {
        let first = self.first.last_mut().expect("writer scope open");
        if *first {
            *first = false;
        } else {
            self.buf.push(',');
        }
        if !self.compact {
            self.buf.push('\n');
            for _ in 0..self.first.len() {
                self.buf.push_str("  ");
            }
        }
        self.buf.push('"');
        escape_into(&mut self.buf, name);
        self.buf.push_str("\": ");
    }

    /// Writes `"name": value`.
    pub fn field_u64(&mut self, name: &str, value: u64) {
        self.key(name);
        let _ = write!(self.buf, "{value}");
    }

    /// Writes `"name": value` for a float. Non-finite values (which
    /// JSON cannot represent) are written as `null`.
    pub fn field_f64(&mut self, name: &str, value: f64) {
        self.key(name);
        if value.is_finite() {
            // Rust's `Display` for f64 never uses exponent notation and
            // round-trips, so the output is always a valid JSON number.
            let _ = write!(self.buf, "{value}");
        } else {
            self.buf.push_str("null");
        }
    }

    /// Writes `"name": "value"`.
    pub fn field_str(&mut self, name: &str, value: &str) {
        self.key(name);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
    }

    /// Writes `"name": <raw>` where `raw` is a pre-serialized JSON
    /// fragment (an array, a nested document). The caller guarantees
    /// validity; this is the escape hatch for the few schema corners —
    /// histogram bucket lists, trace event arrays — that outgrow the
    /// writer's one-level object model.
    pub fn field_raw(&mut self, name: &str, raw: &str) {
        self.key(name);
        self.buf.push_str(raw);
    }

    /// Writes `"name": [item, …]` where every item is a pre-serialized
    /// JSON value (a compact object, a number). Pretty mode puts one item
    /// per line, so a diff of two documents shows one changed item as
    /// one changed line.
    pub fn field_array<S: AsRef<str>>(&mut self, name: &str, items: &[S]) {
        self.key(name);
        self.buf.push('[');
        let depth = self.first.len();
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            if !self.compact {
                self.buf.push('\n');
                self.buf.push_str(&"  ".repeat(depth + 1));
            }
            self.buf.push_str(item.as_ref());
        }
        if !self.compact && !items.is_empty() {
            self.buf.push('\n');
            self.buf.push_str(&"  ".repeat(depth));
        }
        self.buf.push(']');
    }

    /// Opens a nested object under `name`.
    pub fn begin_object(&mut self, name: &str) {
        self.key(name);
        self.buf.push('{');
        self.first.push(true);
    }

    /// Closes the innermost nested object.
    pub fn end_object(&mut self) {
        assert!(self.first.len() > 1, "no nested object open");
        let empty = self.first.pop() == Some(true);
        if !empty && !self.compact {
            self.buf.push('\n');
            for _ in 0..self.first.len() {
                self.buf.push_str("  ");
            }
        }
        self.buf.push('}');
    }

    /// Closes the top-level object and returns the document.
    pub fn finish(mut self) -> String {
        assert_eq!(self.first.len(), 1, "nested object left open");
        if self.first[0] || self.compact {
            self.buf.push('}');
        } else {
            self.buf.push_str("\n}");
        }
        if !self.compact {
            self.buf.push('\n');
        }
        self.buf
    }
}

fn escape_into(buf: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
}

/// A parsed JSON value. Numbers are kept as `f64` (metric values stay
/// well inside the exact-integer range of a double).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object (`None` otherwise).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The object's members, if it is an object.
    pub fn members(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// How deep arrays and objects may nest. Nothing this workspace writes
/// goes past a handful of levels; the cap keeps a hostile file from
/// recursing the parser off the end of its stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document. Errors carry the byte offset and a short
/// description; so does a document nested deeper than `MAX_DEPTH` (128).
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{' | b'[') => self.nested(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// An array or an object, one level deeper.
    fn nested(&mut self) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = if self.peek() == Some(b'{') {
            self.object()
        } else {
            self.array()
        };
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are outside the snapshot
                            // schema; map them to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    let ch = rest.chars().next().expect("peeked non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_valid_nested_json() {
        let mut w = JsonWriter::object();
        w.field_u64("a", 1);
        w.begin_object("h");
        w.field_u64("count", 2);
        w.end_object();
        w.field_str("name", "x\"y");
        let doc = w.finish();
        let v = parse_json(&doc).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(
            v.get("h")
                .and_then(|h| h.get("count"))
                .and_then(JsonValue::as_u64),
            Some(2)
        );
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("x\"y"));
    }

    #[test]
    fn compact_writer_emits_one_line() {
        let mut w = JsonWriter::compact_object();
        w.field_u64("a", 1);
        w.field_f64("rate", 2.5);
        w.field_f64("bad", f64::NAN);
        w.field_raw("pairs", "[[1, 2], [3, 4]]");
        w.begin_object("inner");
        w.field_str("k", "v");
        w.end_object();
        let doc = w.finish();
        assert!(!doc.contains('\n'), "compact doc has a newline: {doc:?}");
        let v = parse_json(&doc).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(v.get("rate").and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(v.get("bad"), Some(&JsonValue::Null));
        match v.get("pairs") {
            Some(JsonValue::Arr(items)) => assert_eq!(items.len(), 2),
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(
            v.get("inner")
                .and_then(|i| i.get("k"))
                .and_then(JsonValue::as_str),
            Some("v")
        );
    }

    #[test]
    fn arrays_put_one_item_per_line() {
        let mut w = JsonWriter::object();
        w.begin_object("e");
        w.field_array("rows", &["{\"a\": 1}", "{\"a\": 2}"]);
        w.field_array("none", &[] as &[&str]);
        w.end_object();
        let doc = w.finish();
        assert!(doc.contains("\n      {\"a\": 2}\n    ]"), "{doc}");
        let v = parse_json(&doc).unwrap();
        match v.get("e").and_then(|e| e.get("rows")) {
            Some(JsonValue::Arr(items)) => {
                assert_eq!(items[1].get("a").and_then(JsonValue::as_u64), Some(2))
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(
            v.get("e").and_then(|e| e.get("none")),
            Some(&JsonValue::Arr(vec![]))
        );
        let mut w = JsonWriter::compact_object();
        w.field_array("pair", &["1", "null"]);
        assert_eq!(w.finish(), "{\"pair\": [1,null]}");
    }

    #[test]
    fn empty_object_round_trips() {
        let doc = JsonWriter::object().finish();
        assert_eq!(parse_json(&doc).unwrap(), JsonValue::Obj(vec![]));
    }

    #[test]
    fn parser_handles_the_grammar() {
        let v = parse_json(
            r#"{"s": "a\nb", "n": -1.5e2, "b": true, "z": null, "arr": [1, 2, {"k": 3}]}"#,
        )
        .unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("a\nb"));
        assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(-150.0));
        assert_eq!(v.get("b"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("z"), Some(&JsonValue::Null));
        match v.get("arr") {
            Some(JsonValue::Arr(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[2].get("k").and_then(JsonValue::as_u64), Some(3));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json("{\"a\": 1} x").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
        assert!(parse_json("[1, ]").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(1_000_000);
        let err = parse_json(&deep).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 at byte 128");
        let objects = "{\"a\": ".repeat(200);
        assert!(parse_json(&objects)
            .unwrap_err()
            .starts_with("nesting deeper than 128"));
        // At the cap itself the document parses.
        let ok = format!("{}{}", "[".repeat(128), "]".repeat(128));
        assert!(parse_json(&ok).is_ok());
    }

    #[test]
    fn as_u64_is_strict() {
        assert_eq!(JsonValue::Num(3.0).as_u64(), Some(3));
        assert_eq!(JsonValue::Num(3.5).as_u64(), None);
        assert_eq!(JsonValue::Num(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Str("3".into()).as_u64(), None);
    }
}
