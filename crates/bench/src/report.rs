//! Table rendering and CSV output shared by every harness.
//!
//! Each experiment produces a [`Table`]; the `bench` binary prints it
//! to stdout in the paper's row/column layout and drops a CSV next to
//! it in `results/` so figures can be re-plotted. Beside the formatted
//! cells a table carries its *measures*: the `f64`s the experiment had
//! in hand when it formatted them, which the claims ledger
//! ([`crate::claims`]) judges without parsing a cell back.

use std::fs;
use std::path::PathBuf;

/// A rendered experiment result.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (e.g. "Figure 3b — ...").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells, already formatted.
    pub rows: Vec<Vec<String>>,
    /// Free-text footnotes (assumptions, paper reference values).
    pub notes: Vec<String>,
    /// Named numbers the experiment computed, unformatted.
    pub measures: Vec<(&'static str, f64)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new<S: AsRef<str>>(title: &str, headers: &[S]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.as_ref().to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            measures: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// On a row that is not as wide as the header — in release builds
    /// too, which is how `bench` runs.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "ragged table row");
        self.rows.push(cells);
    }

    /// Records a number the experiment computed, under the id a
    /// [`crate::claims::Claim`] reads it by.
    pub fn measure(&mut self, id: &'static str, value: f64) {
        self.measures.push((id, value));
    }

    /// The measure recorded under `id`.
    pub fn measured(&self, id: &str) -> Option<f64> {
        let found = self.measures.iter().find(|(name, _)| *name == id);
        found.map(|(_, value)| *value)
    }

    /// Appends a footnote.
    pub fn note(&mut self, text: &str) {
        self.notes.push(text.to_string());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n=== {} ===\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// The header and rows as CSV, one line each. A cell holding a
    /// comma, a quote or a line break is quoted (RFC 4180), so free
    /// text cannot shift a column.
    pub fn csv(&self) -> String {
        let cell = |c: &String| {
            if c.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        };
        let mut out = String::new();
        for cells in std::iter::once(&self.headers).chain(&self.rows) {
            out += &cells.iter().map(cell).collect::<Vec<_>>().join(",");
            out.push('\n');
        }
        out
    }

    /// Writes [`Table::csv`] into `results/<name>.csv`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        fs::write(&path, self.csv())?;
        Ok(path)
    }
}

/// Where CSVs land (workspace-relative `results/`).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the repo root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.join("results")
}

/// Formats a ratio like `2.41x`.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats IOPS with thousands separators (k/M).
pub fn iops(x: f64) -> String {
    if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.0}k", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

/// Formats nanoseconds as microseconds with 2 decimals.
pub fn us(ns: f64) -> String {
    format!("{:.2}", ns / 1e3)
}

/// Formats a number of any unit to at most 2 decimals, without trailing
/// zeros (`350`, `2.09`, `166.1`, `inf`).
pub fn num(x: f64) -> String {
    let s = format!("{x:.2}");
    if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T", &["depth", "ratio"]);
        t.row(vec!["1".to_string(), "1.00x".to_string()]);
        t.row(vec!["10".to_string(), "2.50x".to_string()]);
        t.note("shape only");
        let s = t.render();
        assert!(s.contains("=== T ==="));
        assert!(s.contains("depth"));
        assert!(s.contains("2.50x"));
        assert!(s.contains("note: shape only"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(2.5), "2.50x");
        assert_eq!(iops(1_500_000.0), "1.50M");
        assert_eq!(iops(25_000.0), "25k");
        assert_eq!(iops(500.0), "500");
        assert_eq!(us(6_270.0), "6.27");
        assert_eq!(
            [350.0, 2.094, 166.1, 100.0, f64::INFINITY].map(num),
            ["350", "2.09", "166.1", "100", "inf"]
        );
    }

    #[test]
    #[should_panic(expected = "ragged table row")]
    fn a_ragged_row_is_refused() {
        Table::new("T", &["a", "b"]).row(vec!["1".to_string()]);
    }

    #[test]
    fn csv_quotes_the_cells_that_would_shift_a_column() {
        let mut t = Table::new("T", &["what", "n"]);
        t.row(vec!["plain".to_string(), "1".to_string()]);
        t.row(vec!["a, \"b\"\nc".to_string(), "2".to_string()]);
        assert_eq!(t.csv(), "what,n\nplain,1\n\"a, \"\"b\"\"\nc\",2\n");
    }
}
