//! Table rendering, CSV export and unit-CSV merging for the experiment
//! harnesses.
//!
//! Units leased through the experiment service (`all --shards N`) write
//! *unit-tagged* CSVs: every row carries the index of the experiment unit
//! that produced it in a leading `unit` column. Because the coordinator
//! accepts exactly one result per unit and a unit's rows are a pure
//! function of its index, [`merge_csvs`] can reassemble the partial files
//! into the exact byte sequence the in-process run writes: sort rows by
//! unit, strip the tag column.

use std::collections::BTreeSet;
use std::fmt::Display;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A simple markdown-ish table printer.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    /// Experiment unit that produced each row (for unit-tagged CSVs).
    units: Vec<usize>,
    cur_unit: usize,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            units: Vec::new(),
            cur_unit: 0,
        }
    }

    /// Set the experiment unit subsequent rows belong to (defaults to 0;
    /// only observable in unit-tagged CSV output).
    pub fn unit(&mut self, unit: usize) -> &mut Table {
        self.cur_unit = unit;
        self
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self.units.push(self.cur_unit);
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

    /// Write as CSV under `target/repro/<name>.csv`, reporting (but not
    /// aborting on) I/O failures — a harness run's printed tables are
    /// still useful when the filesystem is read-only.
    pub fn write_csv(&self, name: &str) {
        match self.try_write_csv(name) {
            Ok(path) => println!("[csv] {}", path.display()),
            Err(e) => eprintln!("warning: could not write {name}.csv: {e}"),
        }
    }

    /// Write as CSV under `target/repro/<name>.csv`, returning the path
    /// written or the underlying I/O error (directory creation included).
    ///
    /// # Errors
    ///
    /// Propagates failures from creating `target/repro/` or writing the
    /// file.
    pub fn try_write_csv(&self, name: &str) -> io::Result<PathBuf> {
        self.try_write_csv_in(None, name, false)
    }

    /// Write as CSV into `dir` (`None` = the default `target/repro/`),
    /// creating the directory as needed. With `tagged`, rows carry their
    /// experiment unit in a leading `unit` column — the partial-CSV format
    /// leased service units emit for [`merge_csvs`].
    ///
    /// # Errors
    ///
    /// Propagates failures from creating the directory or writing.
    pub fn try_write_csv_in(
        &self,
        dir: Option<&Path>,
        name: &str,
        tagged: bool,
    ) -> io::Result<PathBuf> {
        let dir = dir.map_or_else(default_repro_dir, Path::to_path_buf);
        fs::create_dir_all(&dir)
            .map_err(|e| io::Error::new(e.kind(), format!("creating {}: {e}", dir.display())))?;
        let path = dir.join(format!("{name}.csv"));
        write_atomic(&path, self.to_csv(tagged).as_bytes())?;
        Ok(path)
    }

    /// The CSV serialization (see [`Table::try_write_csv_in`] for
    /// `tagged`).
    pub fn to_csv(&self, tagged: bool) -> String {
        let mut out = String::new();
        if tagged {
            out.push_str("unit,");
        }
        out.push_str(&self.header.join(","));
        out.push('\n');
        for (row, unit) in self.rows.iter().zip(&self.units) {
            if tagged {
                out.push_str(&unit.to_string());
                out.push(',');
            }
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Write `contents` to `path` atomically: write a sibling temp file,
/// then rename over the destination. A process killed mid-write leaves
/// at worst a stray temp file — readers (and unit merges) never observe
/// a torn or half-written CSV at `path`.
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

/// Validate one unit-tagged partial CSV before trusting it in a merge: a
/// torn file (killed writer, truncated copy, half-sent frame) must be
/// rejected here, not silently merged into corrupt output.
///
/// Checks: non-empty; a `unit,`-tagged header; a trailing newline (a
/// torn write cuts mid-row, losing it); and on every row a parseable
/// unit tag plus exactly the header's field count.
///
/// # Errors
///
/// Returns a description of the first defect found.
pub fn validate_partial_csv(text: &str) -> Result<(), String> {
    if text.is_empty() {
        return Err("file is empty".to_owned());
    }
    if !text.ends_with('\n') {
        return Err("file is truncated (no trailing newline)".to_owned());
    }
    let mut lines = text.lines();
    let header = lines.next().expect("non-empty text has a first line");
    if !header.starts_with("unit,") {
        return Err(format!("missing the unit tag column in header {header:?}"));
    }
    let fields = header.split(',').count();
    for (ri, line) in lines.enumerate() {
        let (unit, _) =
            line.split_once(',').ok_or_else(|| format!("row {ri} has no unit tag: {line:?}"))?;
        if unit.parse::<usize>().is_err() {
            return Err(format!("row {ri}: bad unit tag {unit:?}"));
        }
        let got = line.split(',').count();
        if got != fields {
            return Err(format!("row {ri} has {got} fields, header has {fields} (torn write?)"));
        }
    }
    Ok(())
}

/// The default CSV output directory, `<target>/repro` (not created).
pub fn default_repro_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned()))
        .join("repro")
}

/// Location of a CSV in the output directory (`target/repro/`), creating
/// the directory if needed.
///
/// # Errors
///
/// Propagates the `create_dir_all` failure instead of swallowing it — a
/// missing `target/repro/` must not silently drop every CSV.
pub fn repro_path(name: &str) -> io::Result<PathBuf> {
    let dir = default_repro_dir();
    fs::create_dir_all(&dir)
        .map_err(|e| io::Error::new(e.kind(), format!("creating {}: {e}", dir.display())))?;
    Ok(dir.join(format!("{name}.csv")))
}

/// Merge unit-tagged shard CSVs (see [`Table::try_write_csv_in`]) into
/// the plain CSV the in-process run writes.
///
/// Every part must share the same tagged header; rows are ordered by
/// their unit tag (rows of one unit keep their within-part order) and the
/// tag column is stripped. The result is independent of the order the
/// parts are passed in, because each unit's rows live in exactly one part
/// — two parts claiming the same unit is a dedup bug and an error.
///
/// # Errors
///
/// Returns a description of malformed input: empty or truncated part,
/// missing or mismatched header, untagged or torn row, or a unit present
/// in several parts.
pub fn merge_csvs(parts: &[String]) -> Result<String, String> {
    if parts.is_empty() {
        return Err("no shard CSVs to merge".to_owned());
    }
    let mut header: Option<&str> = None;
    // (unit, within-part row index, part index, row text)
    let mut rows: Vec<(usize, usize, usize, &str)> = Vec::new();
    for (pi, part) in parts.iter().enumerate() {
        validate_partial_csv(part).map_err(|e| format!("shard CSV {pi}: {e}"))?;
        let mut lines = part.lines();
        let h = lines.next().ok_or_else(|| format!("shard CSV {pi} is empty"))?;
        let h = h
            .strip_prefix("unit,")
            .ok_or_else(|| format!("shard CSV {pi} is missing the unit tag column"))?;
        match header {
            None => header = Some(h),
            Some(prev) if prev != h => {
                return Err(format!("shard CSV {pi} header {h:?} does not match {prev:?}"));
            }
            Some(_) => {}
        }
        for (ri, line) in lines.enumerate() {
            let (unit, rest) = line
                .split_once(',')
                .ok_or_else(|| format!("shard CSV {pi} row {ri} has no unit tag"))?;
            let unit = unit
                .parse::<usize>()
                .map_err(|_| format!("shard CSV {pi} row {ri}: bad unit tag {unit:?}"))?;
            rows.push((unit, ri, pi, rest));
        }
    }
    rows.sort_by_key(|(unit, ri, _, _)| (*unit, *ri));
    for w in rows.windows(2) {
        if w[0].0 == w[1].0 && w[0].2 != w[1].2 {
            return Err(format!("unit {} appears in shard CSVs {} and {}", w[0].0, w[0].2, w[1].2));
        }
    }
    let mut out = header.expect("at least one part parsed").to_owned();
    out.push('\n');
    for (_, _, _, rest) in rows {
        out.push_str(rest);
        out.push('\n');
    }
    Ok(out)
}

/// Merge every `*.csv` found in any of `shard_dirs` into `dest`
/// (creating it), returning the merged paths in name order. Files are
/// discovered by name union across the shard directories, so experiments
/// wholly owned by one shard pass straight through.
///
/// # Errors
///
/// Propagates I/O failures; malformed shard CSVs surface as
/// [`io::ErrorKind::InvalidData`].
pub fn merge_shard_dirs(shard_dirs: &[PathBuf], dest: &Path) -> io::Result<Vec<PathBuf>> {
    let mut names: BTreeSet<String> = BTreeSet::new();
    for dir in shard_dirs {
        let entries = match fs::read_dir(dir) {
            Ok(e) => e,
            Err(_) => continue, // a shard that owned nothing wrote nothing
        };
        for entry in entries {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if name.ends_with(".csv") {
                names.insert(name);
            }
        }
    }
    fs::create_dir_all(dest)?;
    let mut written = Vec::with_capacity(names.len());
    for name in names {
        // A missing file just means that shard owned none of the
        // experiment's units; any other read failure must surface, or the
        // merge would silently drop that shard's rows.
        let mut parts: Vec<String> = Vec::with_capacity(shard_dirs.len());
        for dir in shard_dirs {
            match fs::read_to_string(dir.join(&name)) {
                Ok(part) => {
                    // Reject torn or header-less partials by name before
                    // they can poison the merged output.
                    validate_partial_csv(&part).map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("{}: {e}", dir.join(&name).display()),
                        )
                    })?;
                    parts.push(part);
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("reading {}: {e}", dir.join(&name).display()),
                    ));
                }
            }
        }
        let merged = merge_csvs(&parts)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{name}: {e}")))?;
        let path = dest.join(&name);
        write_atomic(&path, merged.as_bytes())?;
        written.push(path);
    }
    Ok(written)
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

    fn tagged_csv(rows: &[(usize, &str)]) -> String {
        let mut t = Table::new(&["a", "b"]);
        for (unit, row) in rows {
            let cells: Vec<String> = row.split(',').map(str::to_owned).collect();
            t.unit(*unit).row(cells);
        }
        t.to_csv(true)
    }

    #[test]
    fn merge_interleaves_rows_by_unit() {
        let full = {
            let mut t = Table::new(&["a", "b"]);
            for i in 0..5 {
                t.unit(i).row(vec![format!("x{i}"), format!("y{i}")]);
            }
            t.to_csv(false)
        };
        let even = tagged_csv(&[(0, "x0,y0"), (2, "x2,y2"), (4, "x4,y4")]);
        let odd = tagged_csv(&[(1, "x1,y1"), (3, "x3,y3")]);
        assert_eq!(merge_csvs(&[even.clone(), odd.clone()]).unwrap(), full);
        // Part order is irrelevant.
        assert_eq!(merge_csvs(&[odd, even]).unwrap(), full);
    }

    #[test]
    fn merge_keeps_multi_row_units_in_order() {
        let part = tagged_csv(&[(0, "r1,s1"), (0, "r2,s2"), (0, "r3,s3")]);
        let merged = merge_csvs(&[part]).unwrap();
        assert_eq!(merged, "a,b\nr1,s1\nr2,s2\nr3,s3\n");
    }

    #[test]
    fn merge_rejects_malformed_parts() {
        let good = tagged_csv(&[(0, "x,y")]);
        assert!(merge_csvs(&[]).is_err(), "no parts");
        assert!(merge_csvs(&[String::new()]).is_err(), "empty part");
        assert!(merge_csvs(&["a,b\nx,y\n".to_owned()]).is_err(), "untagged header");
        let other_header = {
            let mut t = Table::new(&["a", "c"]);
            t.unit(1).row(vec!["x".into(), "y".into()]);
            t.to_csv(true)
        };
        assert!(merge_csvs(&[good.clone(), other_header]).is_err(), "header mismatch");
        let dup = tagged_csv(&[(0, "q,r")]);
        assert!(merge_csvs(&[good, dup]).is_err(), "unit owned twice");
    }

    #[test]
    fn merge_rejects_truncated_and_torn_parts() {
        let good = tagged_csv(&[(0, "x,y"), (1, "p,q")]);
        // A torn write cuts mid-row: no trailing newline.
        let truncated = good.trim_end_matches('\n').to_owned();
        let err = merge_csvs(&[truncated]).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        // A torn row that still ends in a newline is caught by the field
        // count.
        let torn_row = "unit,a,b\n0,x,y\n1,p\n".to_owned();
        let err = merge_csvs(&[torn_row]).unwrap_err();
        assert!(err.contains("torn") || err.contains("fields"), "{err}");
    }

    #[test]
    fn validate_partial_csv_names_each_defect() {
        assert!(validate_partial_csv("unit,a,b\n0,x,y\n").is_ok());
        for (text, needle) in [
            ("", "empty"),
            ("a,b\n0,x\n", "unit tag column"),
            ("unit,a,b\n0,x,y", "truncated"),
            ("unit,a,b\nnope\n", "unit tag"),
            ("unit,a,b\nx,y,z\n", "bad unit tag"),
            ("unit,a,b\n0,x\n", "fields"),
        ] {
            let err = validate_partial_csv(text).unwrap_err();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn merge_shard_dirs_names_the_offending_file() {
        let base = std::env::temp_dir().join(format!("smack-report-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        let good_dir = base.join("good");
        let bad_dir = base.join("bad");
        fs::create_dir_all(&good_dir).unwrap();
        fs::create_dir_all(&bad_dir).unwrap();
        fs::write(good_dir.join("x.csv"), tagged_csv(&[(0, "x,y")])).unwrap();
        // The torn partial: killed mid-write, last row cut short.
        fs::write(bad_dir.join("x.csv"), "unit,a,b\n1,p").unwrap();
        let err = merge_shard_dirs(&[good_dir, bad_dir.clone()], &base.join("merged"))
            .expect_err("torn partial must be rejected");
        let msg = err.to_string();
        assert!(
            msg.contains("bad") && msg.contains("x.csv") && msg.contains("truncated"),
            "error must name the torn file: {msg}"
        );
        let _ = fs::remove_dir_all(&base);
    }

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
    fn tagged_and_plain_serializations_agree_modulo_tags() {
        let mut t = Table::new(&["k", "v"]);
        t.unit(3).row(vec!["a".into(), "b".into()]);
        t.unit(7).row(vec!["c".into(), "d".into()]);
        assert_eq!(t.to_csv(false), "k,v\na,b\nc,d\n");
        assert_eq!(t.to_csv(true), "unit,k,v\n3,a,b\n7,c,d\n");
    }
}
