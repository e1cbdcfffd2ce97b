//! The reproduction ledger: rows that render both as the plain-text
//! tables `repro` prints and as the JSON it writes, and the paper's
//! claims as data, each with a verdict computed from its two ranges.

use crate::Table;
use amd_obs::JsonWriter;

/// Decimals every claim's ranges are written with.
const CLAIM_DECIMALS: usize = 4;

/// One cell of a [`Row`].
#[derive(Debug, Clone)]
enum Cell {
    Text(String),
    Int(u64),
    /// A float the table shows with this many decimals and the JSON
    /// with three more.
    Num(f64, usize),
}

/// One table row: named cells in column order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Row(Vec<(&'static str, Cell)>);

impl Row {
    /// An empty row.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends a text cell.
    pub(crate) fn text(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.0.push((key, Cell::Text(value.into())));
        self
    }

    /// Appends an integer cell.
    pub(crate) fn int(mut self, key: &'static str, value: u64) -> Self {
        self.0.push((key, Cell::Int(value)));
        self
    }

    /// Appends a float cell shown with `digits` decimals (`inf` and NaN
    /// are written as `null`).
    pub(crate) fn num(mut self, key: &'static str, value: f64, digits: usize) -> Self {
        self.0.push((key, Cell::Num(value, digits)));
        self
    }

    fn keys(&self) -> Vec<&'static str> {
        self.0.iter().map(|(k, _)| *k).collect()
    }

    fn cells(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|(_, cell)| match cell {
                Cell::Text(s) => s.clone(),
                Cell::Int(v) => v.to_string(),
                Cell::Num(v, d) if v.is_finite() => format!("{v:.d$}"),
                Cell::Num(v, _) => v.to_string(),
            })
            .collect()
    }

    fn json(&self) -> String {
        let mut w = JsonWriter::compact_object();
        for (key, cell) in &self.0 {
            match cell {
                Cell::Text(s) => w.field_str(key, s),
                Cell::Int(v) => w.field_u64(key, *v),
                Cell::Num(v, d) => w.field_f64(key, fixed(*v, d + 3)),
            }
        }
        w.finish()
    }
}

/// `v` rounded to `decimals` places, so a written number carries no
/// digits below what its column means.
fn fixed(v: f64, decimals: usize) -> f64 {
    let scale = 10f64.powi(decimals as i32);
    (v * scale).round() / scale
}

/// A titled table of rows, written to the JSON under `key`.
#[derive(Debug, Clone)]
pub struct Section {
    /// The JSON key of the rows.
    key: &'static str,
    /// The banner printed above the table.
    title: String,
    /// The rows; every row has the first row's columns.
    rows: Vec<Row>,
}

impl Section {
    /// A section with rows `rows`.
    pub(crate) fn new(key: &'static str, title: impl Into<String>, rows: Vec<Row>) -> Self {
        Self {
            key,
            title: title.into(),
            rows,
        }
    }

    /// Prints the rows as a table under the title.
    pub fn print(&self) {
        let Some(first) = self.rows.first() else {
            return;
        };
        let mut table = Table::new(first.keys());
        for row in &self.rows {
            table.row(row.cells());
        }
        table.print(&self.title);
    }

    pub(crate) fn write(&self, w: &mut JsonWriter) {
        let rows: Vec<String> = self.rows.iter().map(Row::json).collect();
        w.field_array(self.key, &rows);
    }
}

/// How a measured range compares with the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The measured range lies inside the paper's, boundaries included.
    Holds,
    /// Outside the paper's range but strictly on its side of 1. For a
    /// ratio the paper's effect is there, at another size; for a plain
    /// quantity whose paper range excludes 1 it only says "outside".
    DirectionOnly,
    /// Anything else: the measured range reaches 1 or the other side of
    /// it, or leaves a paper range that itself contains 1 (a bound such
    /// as "order 1–4" or "cost ≤ bound").
    Fails,
}

impl Verdict {
    /// The name written to the ledger.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Verdict::Holds => "holds",
            Verdict::DirectionOnly => "direction_only",
            Verdict::Fails => "fails",
        }
    }
}

/// The verdict of a claim whose paper states `paper = [lo, hi]` and whose
/// runs measured `measured = [lo, hi]` (an upper end of `∞` is open).
pub(crate) fn verdict(paper: [f64; 2], measured: [f64; 2]) -> Verdict {
    if paper[0] <= measured[0] && measured[1] <= paper[1] {
        Verdict::Holds
    } else if (paper[0] > 1.0 && measured[0] > 1.0) || (paper[1] < 1.0 && measured[1] < 1.0) {
        Verdict::DirectionOnly
    } else {
        Verdict::Fails
    }
}

/// The range a single stated value covers: everything that rounds to it
/// at the `decimals` the paper prints it with ("2.1" is `[2.05, 2.15]`).
pub(crate) fn stated(value: f64, decimals: i32) -> [f64; 2] {
    let half = 0.5 * 10f64.powi(-decimals);
    [value - half, value + half].map(|v| fixed(v, decimals as usize + 1))
}

/// One claim of the paper, next to what this reproduction measured.
#[derive(Debug, Clone)]
pub(crate) struct Claim {
    /// Where the paper makes it ("Fig. 5", "§7.2").
    place: &'static str,
    /// The claim, with the measured quantity named.
    claim: String,
    /// The paper's range (an upper end of `∞` is open).
    paper: [f64; 2],
    /// The smallest and the largest measured value.
    measured: [f64; 2],
    /// How the claim is read, where that is not obvious.
    note: String,
}

impl Claim {
    /// A claim over the measured `values` (at least one).
    pub(crate) fn new(
        place: &'static str,
        claim: impl Into<String>,
        paper: [f64; 2],
        values: impl IntoIterator<Item = f64>,
    ) -> Self {
        let mut measured = [f64::INFINITY, f64::NEG_INFINITY];
        for v in values {
            measured = [measured[0].min(v), measured[1].max(v)];
        }
        assert!(measured[0] <= measured[1], "a claim needs a measured value");
        Self {
            place,
            claim: claim.into(),
            paper: paper.map(|v| fixed(v, CLAIM_DECIMALS)),
            measured: measured.map(|v| fixed(v, CLAIM_DECIMALS)),
            note: String::new(),
        }
    }

    /// Attaches how the claim is read.
    pub(crate) fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// The verdict of the written ranges.
    fn verdict(&self) -> Verdict {
        verdict(self.paper, self.measured)
    }

    fn json(&self) -> String {
        let range = |r: [f64; 2]| {
            r.map(|v| {
                if v.is_finite() {
                    v.to_string()
                } else {
                    "null".into()
                }
            })
        };
        let mut w = JsonWriter::compact_object();
        w.field_str("where", self.place);
        w.field_str("claim", &self.claim);
        w.field_array("paper", &range(self.paper));
        w.field_array("measured", &range(self.measured));
        w.field_str("verdict", self.verdict().as_str());
        w.field_str("note", &self.note);
        w.finish()
    }
}

/// One experiment of the ledger: its tables and its claims.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// `E1` … `E11` for the paper's; `R1` for the refresh sweep.
    pub(crate) id: &'static str,
    /// The JSON key (the name of the bench main it replaced).
    pub(crate) name: &'static str,
    /// Its tables.
    pub(crate) sections: Vec<Section>,
    /// The paper's claims it checks.
    pub(crate) claims: Vec<Claim>,
}

impl Experiment {
    /// An experiment with one table, written under `rows`.
    pub(crate) fn new(
        id: &'static str,
        name: &'static str,
        title: impl Into<String>,
        rows: Vec<Row>,
        claims: Vec<Claim>,
    ) -> Self {
        let sections = vec![Section::new("rows", title, rows)];
        Self {
            id,
            name,
            sections,
            claims,
        }
    }

    /// Prints the tables and the claims with their verdicts.
    pub fn print(&self) {
        for s in &self.sections {
            s.print();
        }
        if self.claims.is_empty() {
            return;
        }
        let mut t = Table::new(vec!["where", "claim", "paper", "measured", "verdict"]);
        let range = |r: [f64; 2]| format!("{} – {}", r[0], r[1]);
        for c in &self.claims {
            t.row(vec![
                c.place.to_string(),
                c.claim.clone(),
                range(c.paper),
                range(c.measured),
                c.verdict().as_str().to_string(),
            ]);
        }
        t.print(&format!("{} {}: claims", self.id, self.name));
    }
}

/// The ledger file: every experiment's rows and claims, and nothing
/// that depends on the host or the clock.
pub fn ledger_json(n: u32, seed: u64, experiments: &[Experiment]) -> String {
    let mut w = JsonWriter::object();
    w.field_str("schema", "amd-repro/1");
    w.field_u64("n", n as u64);
    w.field_u64("seed", seed);
    w.begin_object("experiments");
    for e in experiments {
        w.begin_object(e.name);
        w.field_str("id", e.id);
        for s in &e.sections {
            s.write(&mut w);
        }
        let claims: Vec<String> = e.claims.iter().map(Claim::json).collect();
        w.field_array("claims", &claims);
        w.end_object();
    }
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_at_the_boundaries() {
        let paper = [1.7, 14.0];
        // Inside, and exactly at either end.
        assert_eq!(verdict(paper, [2.0, 13.0]), Verdict::Holds);
        assert_eq!(verdict(paper, [1.7, 14.0]), Verdict::Holds);
        assert_eq!(verdict(paper, [14.0, 14.0]), Verdict::Holds);
        // Outside, on the paper's side of 1, above and below.
        assert_eq!(verdict(paper, [1.15, 8.5]), Verdict::DirectionOnly);
        assert_eq!(verdict(paper, [2.0, 14.01]), Verdict::DirectionOnly);
        // Reaching 1, or on the wrong side of it.
        assert_eq!(verdict(paper, [1.0, 8.5]), Verdict::Fails);
        assert_eq!(verdict(paper, [0.97, 5.0]), Verdict::Fails);
        // The same below 1.
        let below = [0.2, 0.5];
        assert_eq!(verdict(below, [0.2, 0.2]), Verdict::Holds);
        assert_eq!(verdict(below, [0.6, 0.9]), Verdict::DirectionOnly);
        assert_eq!(verdict(below, [0.6, 1.0]), Verdict::Fails);
        // A range that contains 1 is a bound: leaving it fails.
        assert_eq!(verdict([1.0, 4.0], [1.0, 4.0]), Verdict::Holds);
        assert_eq!(verdict([1.0, 4.0], [1.0, 6.0]), Verdict::Fails);
        assert_eq!(verdict([0.0, 1.0], [0.16, 2.1]), Verdict::Fails);
        // An open upper end.
        assert_eq!(verdict([1.0, f64::INFINITY], [1.0, 1e9]), Verdict::Holds);
        assert_eq!(
            verdict([100.0, f64::INFINITY], [1.1, 26.0]),
            Verdict::DirectionOnly
        );
    }

    #[test]
    fn stated_values_cover_their_rounding() {
        assert_eq!(stated(2.1, 1), [2.05, 2.15]);
        assert_eq!(stated(3.0, 0), [2.5, 3.5]);
    }

    #[test]
    fn claims_write_their_ranges_rounded() {
        let c = Claim::new("§1", "x", [3.0, f64::INFINITY], [2.123456, 7.0]);
        assert_eq!(c.measured, [2.1235, 7.0]);
        let doc = c.json();
        assert!(doc.contains("\"paper\": [3,null]"), "{doc}");
        assert!(doc.contains("\"verdict\": \"direction_only\""), "{doc}");
    }

    #[test]
    fn rows_render_as_table_cells_and_json() {
        let row = Row::new()
            .text("name", "a")
            .int("bytes", 12)
            .num("ms", 0.1234567, 3)
            .num("x", f64::INFINITY, 1);
        assert_eq!(row.cells(), vec!["a", "12", "0.123", "inf"]);
        assert_eq!(
            row.json(),
            "{\"name\": \"a\",\"bytes\": 12,\"ms\": 0.123457,\"x\": null}"
        );
    }
}
