//! Text-table and CSV output helpers shared by every experiment runner.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use reveil_triggers::TriggerKind;

use crate::fig3::CR_VALUES;

/// A rectangular text table with a header row.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(line, "{cell:>w$}  ", w = w);
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV rendering under [`output_dir`] as `<name>.csv` and
    /// returns the path.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or file, with
    /// the file's path in its message.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = output_dir();
        let path = dir.join(format!("{name}.csv"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, self.to_csv()))
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        Ok(path)
    }
}

/// Directory where experiment artifacts (CSV files, heat maps) are written:
/// `target/experiments` relative to the workspace, or the current directory
/// as a fallback.
pub fn output_dir() -> PathBuf {
    let target = Path::new("target/experiments");
    if Path::new("target").exists() {
        target.to_path_buf()
    } else {
        PathBuf::from("reveil-experiments")
    }
}

/// Renders one dataset's attack × cr grid (Figs. 3 and 6–8): a row per
/// attack of [`TriggerKind::ALL`], a column per [`CR_VALUES`] entry, each
/// value formatted by `cell`.
pub(crate) fn attack_cr_table(values: &[Vec<f32>], cell: fn(f32) -> String) -> TextTable {
    let mut header = vec!["Attack".to_string()];
    header.extend(CR_VALUES.iter().map(|cr| format!("cr={cr}")));
    let mut table = TextTable::new(header);
    for (trigger, row) in TriggerKind::ALL.iter().zip(values) {
        let mut cells = vec![format!("{} ({})", trigger.paper_id(), trigger.label())];
        cells.extend(row.iter().copied().map(cell));
        table.push_row(cells);
    }
    table
}

/// Formats a percentage with the paper's two-decimal convention.
pub fn pct(value: f32) -> String {
    format!("{value:.2}")
}

/// Formats a signed decision-style value with three decimals.
pub fn signed3(value: f32) -> String {
    format!("{value:+.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new(["name", "value"]);
        t.push_row(["alpha", "1.0"]);
        t.push_row(["b", "22.5"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1.0"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_enforced() {
        let mut t = TextTable::new(["a", "b"]);
        t.push_row(["only-one"]);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = TextTable::new(["k", "v"]);
        t.push_row(["a,b", "say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(99.999), "100.00");
        assert_eq!(pct(17.7), "17.70");
        assert_eq!(signed3(-0.017), "-0.017");
        assert_eq!(signed3(0.024), "+0.024");
    }
}
