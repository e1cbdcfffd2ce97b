//! Recorded mutation/query traces (`amd-trace/1`): record once, replay
//! under any fault plan.
//!
//! The format is deliberately line-oriented text so traces diff and
//! version cleanly:
//!
//! ```text
//! amd-trace/1 n=64 tenants=2
//! a 0 3 17 1.0        # add value at (row, col) for tenant 0
//! s 1 5 5 2.0         # set value at (row, col) for tenant 1
//! q 0 7 2             # query tenant 0, operand salt 7, 2 iterations
//! r 1                 # request a refresh for tenant 1
//! w                   # settle: wait for all in-flight refreshes
//! ```
//!
//! Values round-trip exactly: they are written with Rust's shortest
//! `f64` formatting and parsed back bit-identically.

use std::fmt::Write as _;
use std::path::Path;

/// Schema marker on the header line of every trace file.
pub const TRACE_SCHEMA: &str = "amd-trace/1";

/// One replayable operation against a multi-tenant hub.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOp {
    /// Add `value` to the entry at `(row, col)` of `tenant`'s matrix.
    Add {
        tenant: usize,
        row: u32,
        col: u32,
        value: f64,
    },
    /// Set the entry at `(row, col)` of `tenant`'s matrix to `value`.
    Set {
        tenant: usize,
        row: u32,
        col: u32,
        value: f64,
    },
    /// Run a query for `tenant`: a deterministic dense operand derived
    /// from `salt`, iterated `iters` times.
    Query {
        tenant: usize,
        salt: u64,
        iters: usize,
    },
    /// Request a refresh for `tenant` once every earlier refresh has
    /// committed, so whether it is granted does not depend on build timing.
    Refresh { tenant: usize },
    /// Settle: wait until every in-flight refresh has committed.
    Settle,
}

/// A recorded scenario: matrix dimension, tenant count, and the op
/// stream. Equality is exact, so record → save → load → replay is
/// verifiable bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioTrace {
    /// Square matrix dimension every tenant starts from.
    pub n: usize,
    /// Number of tenants the trace addresses (`0..tenants`).
    pub tenants: usize,
    /// The operation stream, replayed in order.
    pub ops: Vec<TraceOp>,
}

impl ScenarioTrace {
    /// An empty trace over `tenants` copies of an `n × n` matrix.
    pub fn new(n: usize, tenants: usize) -> Self {
        Self {
            n,
            tenants,
            ops: Vec::new(),
        }
    }

    /// Serializes to the `amd-trace/1` text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{TRACE_SCHEMA} n={} tenants={}", self.n, self.tenants);
        for op in &self.ops {
            match op {
                TraceOp::Add {
                    tenant,
                    row,
                    col,
                    value,
                } => {
                    let _ = writeln!(out, "a {tenant} {row} {col} {value:?}");
                }
                TraceOp::Set {
                    tenant,
                    row,
                    col,
                    value,
                } => {
                    let _ = writeln!(out, "s {tenant} {row} {col} {value:?}");
                }
                TraceOp::Query {
                    tenant,
                    salt,
                    iters,
                } => {
                    let _ = writeln!(out, "q {tenant} {salt} {iters}");
                }
                TraceOp::Refresh { tenant } => {
                    let _ = writeln!(out, "r {tenant}");
                }
                TraceOp::Settle => {
                    let _ = writeln!(out, "w");
                }
            }
        }
        out
    }

    /// Parses the `amd-trace/1` text format. Unknown op codes, short
    /// lines, and malformed numbers are reported with line numbers.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or("empty trace")?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some(TRACE_SCHEMA) {
            return Err(format!("not an {TRACE_SCHEMA} trace: `{header}`"));
        }
        let n = parse_kv(parts.next(), "n")?;
        let tenants = parse_kv(parts.next(), "tenants")?;
        let mut trace = Self::new(n, tenants);
        for (idx, line) in lines {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut f = line.split_whitespace();
            let code = f.next().unwrap_or("");
            let op = match code {
                "a" | "s" => {
                    let tenant = field(&mut f, idx, "tenant")?;
                    let row = field(&mut f, idx, "row")?;
                    let col = field(&mut f, idx, "col")?;
                    let value: f64 = field(&mut f, idx, "value")?;
                    if code == "a" {
                        TraceOp::Add {
                            tenant,
                            row,
                            col,
                            value,
                        }
                    } else {
                        TraceOp::Set {
                            tenant,
                            row,
                            col,
                            value,
                        }
                    }
                }
                "q" => TraceOp::Query {
                    tenant: field(&mut f, idx, "tenant")?,
                    salt: field(&mut f, idx, "salt")?,
                    iters: field(&mut f, idx, "iters")?,
                },
                "r" => TraceOp::Refresh {
                    tenant: field(&mut f, idx, "tenant")?,
                },
                "w" => TraceOp::Settle,
                other => return Err(format!("line {}: unknown op `{other}`", idx + 1)),
            };
            if f.next().is_some() {
                return Err(format!("line {}: trailing fields", idx + 1));
            }
            trace.ops.push(op);
        }
        Ok(trace)
    }

    /// Writes the trace to `path` in text form.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Reads a trace from `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_text(&text)
    }
}

fn parse_kv<T: std::str::FromStr>(part: Option<&str>, key: &str) -> Result<T, String> {
    let part = part.ok_or_else(|| format!("header missing `{key}=`"))?;
    let value = part
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| format!("header expected `{key}=<value>`, got `{part}`"))?;
    value
        .parse()
        .map_err(|_| format!("header `{key}`: bad value `{value}`"))
}

fn field<'a, T: std::str::FromStr>(
    f: &mut impl Iterator<Item = &'a str>,
    line_idx: usize,
    name: &str,
) -> Result<T, String> {
    let raw = f
        .next()
        .ok_or_else(|| format!("line {}: missing {name}", line_idx + 1))?;
    raw.parse()
        .map_err(|_| format!("line {}: bad {name} `{raw}`", line_idx + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioTrace {
        let mut t = ScenarioTrace::new(64, 2);
        t.ops = vec![
            TraceOp::Add {
                tenant: 0,
                row: 3,
                col: 17,
                value: 1.0,
            },
            TraceOp::Set {
                tenant: 1,
                row: 5,
                col: 5,
                value: -2.0,
            },
            TraceOp::Query {
                tenant: 0,
                salt: 7,
                iters: 2,
            },
            TraceOp::Refresh { tenant: 1 },
            TraceOp::Settle,
            TraceOp::Add {
                tenant: 1,
                row: 0,
                col: 1,
                value: 0.1 + 0.2,
            },
        ];
        t
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let t = sample();
        let text = t.to_text();
        assert!(text.starts_with("amd-trace/1 n=64 tenants=2\n"));
        let back = ScenarioTrace::from_text(&text).unwrap();
        assert_eq!(back, t); // includes bit-exact 0.30000000000000004
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("amd-chaos-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let t = sample();
        t.save(&path).unwrap();
        assert_eq!(ScenarioTrace::load(&path).unwrap(), t);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "amd-trace/1 n=8 tenants=1\n\n# comment\na 0 1 2 3.0  # inline\nw\n";
        let t = ScenarioTrace::from_text(text).unwrap();
        assert_eq!(t.ops.len(), 2);
        assert!(matches!(t.ops[0], TraceOp::Add { tenant: 0, .. }));
        assert_eq!(t.ops[1], TraceOp::Settle);
    }

    #[test]
    fn malformed_traces_are_rejected_with_line_numbers() {
        assert!(ScenarioTrace::from_text("").unwrap_err().contains("empty"));
        assert!(ScenarioTrace::from_text("bogus/9 n=1 tenants=1")
            .unwrap_err()
            .contains("not an amd-trace/1"));
        let err = ScenarioTrace::from_text("amd-trace/1 n=8 tenants=1\nz 0\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = ScenarioTrace::from_text("amd-trace/1 n=8 tenants=1\na 0 1 2\n").unwrap_err();
        assert!(err.contains("missing value"), "{err}");
        let err = ScenarioTrace::from_text("amd-trace/1 n=8 tenants=1\nw 3\n").unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }
}
