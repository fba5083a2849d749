//! Plain-text table output for the experiments.

/// A simple left-aligned text table.
#[derive(Debug, Clone, Default)]
pub(crate) struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub(crate) fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded or truncated to the header width).
    pub(crate) fn row<S: Into<String>, I: IntoIterator<Item = S>>(
        &mut self,
        cells: I,
    ) -> &mut Table {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table as a markdown-style string.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (w, cell) in widths.iter().zip(cells.iter()) {
                line.push_str(&format!(" {cell:<w$} |"));
            }
            line
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<width$}|", "", width = w + 2));
        }
        for row in &self.rows {
            out.push('\n');
            out.push_str(&fmt_row(row));
        }
        out
    }
}

/// Prints a titled table to stdout.
pub(crate) fn print_table(title: &str, table: &Table) {
    println!("\n## {title}\n");
    println!("{}", table.render());
}

/// Formats a float with `digits` fractional digits.
pub(crate) fn fmt_f64(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(["name", "value"]);
        t.row(["alpha", "1"]);
        t.row(["b", "22222"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with("|--"));
        // All lines same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn rows_padded_to_header_width() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["1"]);
        assert_eq!(t.rows.len(), 1);
        assert!(t.render().lines().last().unwrap().matches('|').count() == 4);
    }

    #[test]
    fn fmt_helper() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_f64(0.5, 0), "0");
    }
}
