//! Plain-text table rendering for the experiment harness.
//!
//! Every table and figure of the paper is regenerated by a harness binary
//! that prints its rows as a fixed-width text table; this module holds the
//! shared renderer so the binaries stay small and the output format stays
//! consistent.

/// A simple fixed-width text table builder.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    pub fn new<S: Into<String>>(title: S, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of already-formatted cells.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells does not match the header width.
    pub fn add_row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} does not match header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Convenience for rows of string slices.
    pub fn add_str_row(&mut self, cells: &[&str]) {
        self.add_row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1))),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a ratio as a percentage with one decimal place.
pub fn fmt_percent(ratio: f64) -> String {
    format!("{:.1}%", ratio * 100.0)
}

/// Formats a speedup factor, e.g. `136.1x`.
pub fn fmt_speedup(factor: f64) -> String {
    format!("{factor:.1}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new("Demo", &["workload", "value"]);
        t.add_str_row(&["TeraSort", "1"]);
        t.add_str_row(&["K-means", "20000"]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.lines().count() >= 4);
        let lines: Vec<&str> = s.lines().collect();
        // Header and rows should be padded to the same visible width per column.
        assert!(lines[1].starts_with("workload"));
        assert!(lines[3].starts_with("TeraSort"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn add_row_rejects_wrong_width() {
        let mut t = TextTable::new("x", &["a", "b"]);
        t.add_str_row(&["only-one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_percent(0.937), "93.7%");
        assert_eq!(fmt_speedup(136.06), "136.1x");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = TextTable::new("t", &["a"]);
        let rendered = t.render();
        // Title, header and separator: no data rows.
        assert_eq!(rendered.lines().count(), 3, "{rendered}");
        assert!(rendered.contains('a'));
    }
}
