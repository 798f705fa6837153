//! Result reporting: aligned console tables, CSV series files and JSON
//! experiment records under the workspace `results/` directory.

use serde::Serialize;
use std::fmt::Write as _;
use std::fs::{self, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Workspace-level results directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("results");
    fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Creates a file's parent directory right before writing. `results/` is
/// gitignored, so it is absent on a fresh clone — and it can disappear
/// between a path lookup and the write (a cleanup script, a caller caching
/// the path). Every writer below goes through this instead of trusting an
/// earlier [`results_dir`] call.
fn ensure_parent(path: &Path) {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).expect("create results directory");
    }
}

/// A rectangular table of experiment output.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Convenience: formats a numeric row.
    pub fn push_nums(&mut self, row: &[f64]) {
        self.push_row(row.iter().map(|v| format_num(*v)).collect());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Writes the table as CSV into `results/<name>.csv`.
    pub fn write_csv(&self, name: &str) -> PathBuf {
        let path = results_dir().join(format!("{name}.csv"));
        ensure_parent(&path);
        let mut body = self.headers.join(",");
        body.push('\n');
        for row in &self.rows {
            body.push_str(&row.join(","));
            body.push('\n');
        }
        fs::write(&path, body).expect("write csv");
        path
    }
}

/// Human-friendly numeric formatting: integers plain, small reals with
/// four significant decimals.
pub fn format_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// Writes a JSON experiment record into `results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, record: &T) -> PathBuf {
    let path = results_dir().join(format!("{name}.json"));
    ensure_parent(&path);
    let body = serde_json::to_string_pretty(record).expect("serialize record");
    fs::write(&path, body).expect("write json");
    path
}

/// Appends a JSON experiment record to `results/<name>.json`, keeping the
/// file a JSON *array* with one entry per run so successive probe runs are
/// diffable instead of overwriting each other.
///
/// The record is spliced in place of the array's closing `]`, so an append
/// costs O(record), not O(file): the existing entries are neither parsed
/// nor rewritten. A file that does not look like an array (first non-blank
/// byte `[`, last `]`) is parsed whole: a single record (the old
/// `write_json` format) is absorbed as the first entry, and an unparseable
/// file — a truncated array included — is moved aside to
/// `<name>.json.corrupt` (never silently discarded) before a fresh array is
/// started.
pub fn append_json<T: Serialize>(name: &str, record: &T) -> PathBuf {
    let path = results_dir().join(format!("{name}.json"));
    ensure_parent(&path);
    let open = |truncate: bool| {
        OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(truncate)
            .open(&path)
            .expect("open records file")
    };
    let mut file = open(false);
    let len = file.metadata().expect("stat records file").len();
    let scan = |file: &mut fs::File, end, forward| {
        non_blank(file, end, forward).expect("read records file")
    };
    let first = scan(&mut file, len, true);
    let last = scan(&mut file, len, false);
    // Where the new entry goes, and what precedes it there.
    let (at, lead) = match (first, last) {
        (None, _) => (0, "[\n".to_string()),
        (Some((_, b'[')), Some((close, b']'))) => {
            let empty = scan(&mut file, close, false).map(|(_, b)| b) == Some(b'[');
            (close, if empty { "\n" } else { ",\n" }.to_string())
        }
        _ => match serde_json::parse_value(&fs::read_to_string(&path).unwrap_or_default()) {
            Ok(single) => (0, format!("[\n  {},\n", indented(&single))),
            Err(e) => {
                let aside = results_dir().join(format!("{name}.json.corrupt"));
                fs::rename(&path, &aside).expect("preserve unparseable records file");
                eprintln!(
                    "warning: {} was not valid JSON ({e}); moved to {} and starting fresh",
                    path.display(),
                    aside.display()
                );
                file = open(true);
                (0, "[\n".to_string())
            }
        },
    };
    file.set_len(at).expect("truncate records file");
    file.seek(SeekFrom::Start(at)).expect("seek records file");
    file.write_all(format!("{lead}  {}\n]\n", indented(record)).as_bytes())
        .expect("write json");
    path
}

/// A record pretty-printed one level deep, as an array entry.
fn indented<T: Serialize + ?Sized>(record: &T) -> String {
    serde_json::to_string_pretty(record)
        .expect("serialize record")
        .replace('\n', "\n  ")
}

/// The first (`forward`) or last non-whitespace byte of `file` before
/// offset `end`, with its offset, reading in small chunks from that end.
fn non_blank(file: &mut fs::File, end: u64, forward: bool) -> std::io::Result<Option<(u64, u8)>> {
    let mut buf = [0u8; 256];
    let mut done = 0u64;
    while done < end {
        let n = (end - done).min(buf.len() as u64) as usize;
        let at = if forward { done } else { end - done - n as u64 };
        file.seek(SeekFrom::Start(at))?;
        file.read_exact(&mut buf[..n])?;
        let chunk = &buf[..n];
        let hit = if forward {
            chunk.iter().position(|b| !b.is_ascii_whitespace())
        } else {
            chunk.iter().rposition(|b| !b.is_ascii_whitespace())
        };
        if let Some(i) = hit {
            return Ok(Some((at + i as u64, chunk[i])));
        }
        done += n as u64;
    }
    Ok(None)
}

/// Relative error of an estimate against the truth (`|est - truth| / truth`);
/// if the truth is zero, returns the absolute estimate (a sensible scale-free
/// fallback for empty joins).
pub fn rel_error(est: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        est.abs()
    } else {
        (est - truth).abs() / truth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["size", "err"]);
        t.push_nums(&[1000.0, 0.123456]);
        t.push_nums(&[50.0, 1.0]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("size"));
        assert!(s.contains("0.1235"));
        assert!(s.contains("1000"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn rel_error_cases() {
        assert_eq!(rel_error(110.0, 100.0), 0.1);
        assert_eq!(rel_error(90.0, 100.0), 0.1);
        assert_eq!(rel_error(5.0, 0.0), 5.0);
    }

    #[test]
    fn format_variants() {
        assert_eq!(format_num(12.0), "12");
        assert_eq!(format_num(0.5), "0.5000");
        assert_eq!(format_num(1234.5), "1234.5");
    }

    #[test]
    fn ensure_parent_creates_missing_dirs() {
        let root =
            std::env::temp_dir().join(format!("spatial_bench_report_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let path = root.join("nested").join("probe.json");
        assert!(!root.exists());
        ensure_parent(&path);
        std::fs::write(&path, "[]").expect("dir was created, write succeeds");
        // Idempotent on an existing directory.
        ensure_parent(&path);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn append_json_accumulates_records() {
        #[derive(serde::Serialize)]
        struct Rec {
            run: u32,
            tags: Vec<&'static str>,
        }
        #[derive(serde::Deserialize)]
        struct Rec2 {
            run: u32,
        }
        let rec = |run| Rec {
            run,
            tags: vec!["a", "b"],
        };
        let name = "append_json_test";
        let path = results_dir().join(format!("{name}.json"));
        let aside = results_dir().join(format!("{name}.json.corrupt"));
        let runs = || -> Vec<u32> {
            let text = std::fs::read_to_string(&path).unwrap();
            let runs: Vec<Rec2> = serde_json::from_str(&text).unwrap();
            runs.iter().map(|r| r.run).collect()
        };
        let _ = std::fs::remove_file(&path);
        // Legacy single-record file is absorbed as the first entry, and
        // every later append splices into the array in place.
        write_json(name, &rec(0));
        for run in 1..200 {
            append_json(name, &rec(run));
        }
        assert_eq!(runs(), (0..200).collect::<Vec<_>>());

        // An empty array, with trailing blank lines, takes its first entry.
        std::fs::write(&path, " [ ]\n\n").unwrap();
        append_json(name, &rec(5));
        append_json(name, &rec(6));
        assert_eq!(runs(), [5, 6]);

        // A corrupt file is preserved aside, not silently discarded; so is
        // an array cut off mid-write.
        for corrupt in ["{not json", "[\n  {\"run\": 1},\n  {\"ru"] {
            std::fs::write(&path, corrupt).unwrap();
            append_json(name, &rec(9));
            assert_eq!(std::fs::read_to_string(&aside).unwrap(), corrupt);
            assert_eq!(runs(), [9]);
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&aside);
    }
}
