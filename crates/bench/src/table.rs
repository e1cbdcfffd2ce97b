//! Plain-text table output for the bench reports.

/// A simple left-padded ASCII table accumulated row by row.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; the cell count must match the header.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let parts: Vec<String> = cells
                .iter()
                .zip(width)
                .map(|(c, w)| format!("{c:>w$}", w = *w))
                .collect();
            format!("| {} |\n", parts.join(" | "))
        };
        out.push_str(&fmt_row(&self.header, &width));
        let sep: Vec<String> = width.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|\n", sep.join("-|-")));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
        }
        out
    }

    /// Prints the table to stdout with a title banner.
    pub fn print(&self, title: &str) {
        println!("\n=== {title} ===");
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["x", "1"]);
        t.row(vec!["longer", "22"]);
        let r = t.render();
        assert!(r.contains("|   name | value |"));
        assert!(r.contains("| longer |    22 |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }
}
