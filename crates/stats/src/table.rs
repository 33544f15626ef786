//! Aligned text tables.

/// A simple aligned text table used by the experiment harnesses for
/// paper-vs-measured summaries.
///
/// # Example
///
/// ```
/// use csim_stats::TextTable;
/// let mut t = TextTable::new(vec!["config", "paper", "measured"]);
/// t.row(vec!["Base".into(), "100".into(), "100.0".into()]);
/// t.row(vec!["All".into(), "70".into(), "71.3".into()]);
/// let s = t.render();
/// assert!(s.contains("config"));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<&str>) -> Self {
        TextTable { header: header.into_iter().map(String::from).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row has a different number of cells than the header.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row has {} cells but the table has {} columns",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with each column padded to its widest cell. The first
    /// column is left-aligned, the rest right-aligned (numeric style).
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    line.push_str(&format!("{:<w$}", cell, w = *w));
                } else {
                    line.push_str(&format!("{:>w$}", cell, w = *w));
                }
            }
            line.push('\n');
            line
        };
        let mut out = fmt_row(&self.header);
        out.push_str(&format!(
            "{}\n",
            "-".repeat(widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1))
        ));
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }

    /// Emits the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TextTable {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "22.5".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let s = table().render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows have equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("alpha"));
    }

    #[test]
    fn numbers_right_align() {
        let s = table().render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[2].ends_with("   1"));
        assert!(lines[3].ends_with("22.5"));
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_output() {
        let csv = table().to_csv();
        assert_eq!(csv, "name,value\nalpha,1\nb,22.5\n");
    }

    #[test]
    fn len_and_is_empty() {
        assert!(TextTable::new(vec!["x"]).is_empty());
        assert_eq!(table().len(), 2);
    }
}
