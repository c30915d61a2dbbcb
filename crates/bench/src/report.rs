//! Table rendering and CSV export for the experiment harnesses.

use std::fmt::Display;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A simple markdown-ish table printer.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table { header: header.iter().map(|s| (*s).to_owned()).collect(), rows: Vec::new() }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        println!("{}", fmt_row(&self.header));
        println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("-|-"));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }

    /// Write as CSV into `dir` (`None` = the default `target/repro/`),
    /// creating the directory as needed, and return the path written.
    ///
    /// # Errors
    ///
    /// Propagates failures from creating the directory or writing.
    pub fn try_write_csv_in(&self, dir: Option<&Path>, name: &str) -> io::Result<PathBuf> {
        let dir = dir.map_or_else(default_repro_dir, Path::to_path_buf);
        fs::create_dir_all(&dir)
            .map_err(|e| io::Error::new(e.kind(), format!("creating {}: {e}", dir.display())))?;
        let path = dir.join(format!("{name}.csv"));
        write_atomic(&path, self.to_csv().as_bytes())?;
        Ok(path)
    }

    /// The CSV serialization: the header line, then one line per row.
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

/// Write `contents` to `path` atomically: write a sibling temp file,
/// then rename over the destination. A process killed mid-write leaves
/// at worst a stray temp file — readers never observe a torn or
/// half-written CSV at `path`.
///
/// # Errors
///
/// Propagates failures from writing the temp file or renaming it.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let file_name = path.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    let tmp = dir.join(format!(".tmp-{}-{file_name}", std::process::id()));
    fs::write(&tmp, contents)
        .map_err(|e| io::Error::new(e.kind(), format!("writing {}: {e}", tmp.display())))?;
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        io::Error::new(e.kind(), format!("renaming {} into place: {e}", tmp.display()))
    })
}

/// The default CSV output directory, `<target>/repro` (not created).
pub fn default_repro_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned()))
        .join("repro")
}

/// Format a float with the given precision.
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Format any displayable value.
pub fn s(v: impl Display) -> String {
    v.to_string()
}

/// Print a section banner.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_writes_land_complete_and_leave_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("smack-report-atomic-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        write_atomic(&path, b"a,b\n1,2\n").unwrap();
        write_atomic(&path, b"a,b\n3,4\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "a,b\n3,4\n");
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["t.csv"], "no stray temp files");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_serialization_is_header_then_rows() {
        let mut t = Table::new(&["k", "v"]);
        t.row(vec!["a".into(), "b".into()]);
        t.row(vec!["c".into(), "d".into()]);
        assert_eq!(t.to_csv(), "k,v\na,b\nc,d\n");
    }
}
