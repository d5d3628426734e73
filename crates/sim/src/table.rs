//! Minimal ASCII table rendering for the experiment binaries, and the
//! numeric table most experiments produce.

use serde::Serialize;

/// A simple right-padded ASCII table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    title: String,
}

impl Table {
    /// A table with the given title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: title.to_string(),
        }
    }

    /// Append a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let sep: String = widths
            .iter()
            .map(|w| format!("+{}", "-".repeat(w + 2)))
            .collect::<String>()
            + "+";
        let fmt_row = |cells: &[String]| -> String {
            let mut s = String::new();
            for i in 0..ncol {
                s.push_str(&format!("| {:<w$} ", cells[i], w = widths[i]));
            }
            s.push('|');
            s
        };
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.title));
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out.push_str(&sep);
        out.push('\n');
        out
    }

    /// Render as a GitHub-flavored Markdown table (for EXPERIMENTS.md).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("**{}**\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.header.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// Format a float with the given number of decimals.
pub fn fnum(x: f64, decimals: usize) -> String {
    format!("{:.*}", decimals, x)
}

/// One experiment's table: a column of row labels, then numeric columns,
/// each printed to its own number of decimals.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct Measured {
    pub(crate) title: String,
    /// The label column's header, then each numeric column's.
    pub(crate) header: Vec<String>,
    #[serde(skip)]
    decimals: Vec<usize>,
    pub(crate) rows: Vec<(String, Vec<f64>)>,
}

impl Measured {
    pub(crate) fn new<L: ToString>(
        title: &str,
        header: &[&str],
        decimals: &[usize],
        rows: impl IntoIterator<Item = (L, Vec<f64>)>,
    ) -> Measured {
        Measured {
            title: title.to_string(),
            header: header.iter().map(|h| h.to_string()).collect(),
            decimals: decimals.to_vec(),
            rows: rows.into_iter().map(|(l, v)| (l.to_string(), v)).collect(),
        }
    }

    pub(crate) fn table(&self) -> Table {
        let header: Vec<&str> = self.header.iter().map(String::as_str).collect();
        let mut t = Table::new(&self.title, &header);
        for (label, values) in &self.rows {
            let cells = values.iter().zip(&self.decimals).map(|(&x, &d)| fnum(x, d));
            t.row(std::iter::once(label.clone()).chain(cells).collect());
        }
        t
    }

    /// The values under the header `name`, top to bottom.
    pub(crate) fn column(&self, name: &str) -> Vec<f64> {
        let at = self.header.iter().skip(1).position(|h| h == name);
        let at = at.unwrap_or_else(|| panic!("{}: no column {name}", self.title));
        self.rows.iter().map(|(_, values)| values[at]).collect()
    }

    /// The values of the row labelled `label`.
    pub(crate) fn row(&self, label: &str) -> &[f64] {
        let row = self.rows.iter().find(|(l, _)| l == label);
        &row.unwrap_or_else(|| panic!("{}: no row {label}", self.title))
            .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "123456".into()]);
        let s = t.render();
        assert!(s.contains("Demo"));
        assert!(s.contains("| alpha"));
        assert!(s.contains("| 123456 |"));
        // All data lines have the same width.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w));
    }

    #[test]
    fn renders_markdown() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.render_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(1.23456, 2), "1.23");
        assert_eq!(fnum(0.0, 1), "0.0");
    }
}
