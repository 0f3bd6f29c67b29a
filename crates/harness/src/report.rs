//! Output formatting: aligned console tables and CSV files.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A simple aligned text table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with column alignment.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths = vec![0usize; ncols];
        for (c, h) in self.header.iter().enumerate() {
            widths[c] = widths[c].max(h.len());
        }
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:<width$}", cell, width = widths[c]);
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }
}

/// Write rows as CSV under `results/` (creating the directory), returning the
/// path written.
pub fn write_csv(
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> io::Result<std::path::PathBuf> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut body = header.join(",");
    body.push('\n');
    for row in rows {
        body.push_str(&row.join(","));
        body.push('\n');
    }
    fs::write(&path, body)?;
    Ok(path)
}

/// Emit one figure artifact the way every figure renderer does: title,
/// blank line, aligned table, the paper-vs-measured shape-check lines, then
/// the CSV under `results/` with a trailing `wrote <path>` note. Centralizing
/// the sequence keeps the renderers byte-compatible with each other (and
/// with their recorded baselines in EXPERIMENTS.md).
pub fn emit_figure(
    title: &str,
    table: &Table,
    checks: &[String],
    csv_name: &str,
    csv_header: &[&str],
    csv_rows: &[Vec<String>],
) -> io::Result<()> {
    println!("{title}\n");
    println!("{}", table.render());
    println!("paper-vs-measured shape checks:");
    for line in checks {
        println!("{line}");
    }
    let path = write_csv(csv_name, csv_header, csv_rows)?;
    println!("\nwrote {}", path.display());
    Ok(())
}

/// Format seconds compactly.
pub fn secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1.0".into()]);
        t.row(&["long-name".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        Table::new(&["a", "b"]).row(&["only-one".into()]);
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(secs(2.5), "2.500 s");
        assert_eq!(secs(0.0025), "2.500 ms");
        assert_eq!(secs(2.5e-6), "2.5 µs");
    }
}
