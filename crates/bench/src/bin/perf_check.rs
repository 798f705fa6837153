//! CI perf-regression guard: runs the parent commit's and this change's
//! quick `perf_probe` presets in alternating pairs and fails a row whose
//! median per-pair change/parent ratio exceeds its tolerance.
//!
//! Usage: `perf_check --parent <dir>`
//!
//! ## Pairing protocol
//!
//! `<dir>` is a checkout of the parent commit with its own
//! `target/release/perf_probe` built. Each side runs its own binary,
//! `<root>/target/release/perf_probe --quick [--probe …]`, as a
//! subprocess — the change's root is the workspace this binary was built
//! from — and the gate reads back the record that run appended to
//! `<root>/results/perf_probe.json` (the probe fixes its `results/`
//! directory at compile time, so a parent's unchanged binary works as is).
//! Both sides' records go through one extractor, so a row means the same
//! thing on either side.
//!
//! The gate runs [`PAIRS`] pairs. Within a pair every probe runs on both
//! sides back to back, and the side that goes first alternates across
//! pairs and probes: a host slowdown lasting a few seconds then lands on
//! both sides of one comparison instead of on a whole pass of one side.
//! Per row, each pair gives one change/parent ratio (parent/change for a
//! QPS, so a drop reads as a ratio above 1), and the row fails when the
//! median of those ratios exceeds `1 + tolerance`. Speedups never fail.
//!
//! ## Rows
//!
//! | row | probe | guard |
//! |-----|-------|-------|
//! | build/wide ns/(obj·inst) | build | ratio ≤ 1.25 |
//! | build/adaptive range ns/(obj·inst) | build | ratio ≤ 1.25 |
//! | estimate/join/wide ns/(est·inst) | estimate | ratio ≤ 1.25 |
//! | estimate/range-cold/wide ns/(est·inst) | estimate | ratio ≤ 1.25 |
//! | net/1conn/b1 p50 µs | net | ratio ≤ 2.0 |
//! | net/64conn/b1 qps (coalesce 0 µs) | net | parent/change ≤ 2.0 |
//! | net/64conn/b1 qps (coalesce 200 µs) | net | parent/change ≤ 2.0 |
//! | batchq/b64 ns/query | batchq | ratio ≤ 1.25 |
//! | batchq/b64-over-b1 speedup | batchq | change median ≥ 1.5 |
//! | batchq/warm-over-cold | batchq | change median ≥ 3.0 |
//! | rebalance/split wall ms | rebalance | ratio ≤ 2.0 |
//! | rebalance/worst ingest stall ms | rebalance | ratio ≤ 2.0 |
//! | rebalance/qps recovery | rebalance | change median ≥ 0.5 |
//!
//! The kernel rows (both builds, join, cold range, batch 64) allow 25%: they
//! exist to catch an accidental scalar fallback, a lost vectorization or
//! a per-call allocation in the hot loop, all ≥ 1.5×. The net and
//! rebalance rows allow 100%: loopback round-trips and topology cutovers
//! fold in scheduler wakeups and thread hand-offs that jitter far more than
//! arithmetic does, while the regressions they guard (batching lost to
//! per-query passes, a per-query lock on the hot path, replay gone
//! quadratic) cost several ×. The three floors are ratios measured within
//! one run, so they need no parent: each is judged on the median of the
//! change's runs, since a single run of unchanged code can dip below one.
//!
//! A row the parent's records lack is printed as `new` and does not fail
//! (the parent predates it); a row the change's records lack fails as
//! `LOST`, since a guard disappeared. The `perf_probe` CLI and record
//! fields are therefore the interface to every future parent.
//!
//! ## Running it locally
//!
//! ```sh
//! git worktree add ../parent HEAD^1 && (cd ../parent && cargo build --release -p spatial-bench --bin perf_probe)
//! cargo build --release -p spatial-bench --bin perf_probe --bin perf_check
//! target/release/perf_check --parent ../parent
//! ```
//!
//! Build both of this side's binaries in one command: the gate runs
//! whatever `perf_probe` sits in `target/release`, stale or not.

use serde::Value;
use spatial_bench::report::Table;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;
use Step::{At, Find, Key};

/// Parent/change pairs per gate run. One side's five quick probes take
/// ~7 s on a 2-vCPU VM (build ~0.8 s, estimate ~1.2 s, net ~2.5 s, batchq
/// ~1.5 s, rebalance ~1.1 s), so ten pairs take ~2.5 min there, or ~3.7
/// min against a parent whose build and estimate probes still time the
/// scalar kernels (~15 s a side).
const PAIRS: usize = 10;

/// The probes the rows read, by record tag; `build` is `perf_probe`'s
/// default probe, the rest are `--probe <tag>`.
const PROBES: &[&str] = &["build", "estimate", "net", "batchq", "rebalance"];

/// Allowed median slowdown of the arithmetic-kernel rows.
const KERNEL_TOLERANCE: f64 = 0.25;

/// Allowed median slowdown of the wall-clock net and rebalance rows.
const WALL_TOLERANCE: f64 = 1.0;

/// How a row is judged.
#[derive(Clone, Copy)]
enum Guard {
    /// Lower is better: fails when the median change/parent ratio exceeds
    /// `1 + tolerance`.
    Slower(f64),
    /// Higher is better (a QPS): the per-pair ratio is parent/change, so a
    /// drop fails past `1 + tolerance`.
    Drop(f64),
    /// A within-run ratio: fails when the median of the change's runs is
    /// below the floor.
    Floor(f64),
}

/// One hop from a record towards a row's number.
enum Step {
    /// The map entry under this key.
    Key(&'static str),
    /// The first sequence element whose fields read these values.
    Find(&'static [(&'static str, &'static str)]),
    /// The sequence element at this index.
    At(usize),
}

/// One guarded metric: the probe whose record holds it, where, and its
/// guard.
struct Row {
    name: &'static str,
    probe: &'static str,
    path: &'static [Step],
    guard: Guard,
}

const WIDE: &[(&str, &str)] = &[("kernel", "wide")];

const ROWS: &[Row] = &[
    Row {
        name: "build/wide ns/(obj·inst)",
        probe: "build",
        path: &[
            Key("kernels"),
            Find(WIDE),
            Key("ns_per_obj_instance"),
            At(0),
        ],
        guard: Guard::Slower(KERNEL_TOLERANCE),
    },
    Row {
        name: "build/adaptive range ns/(obj·inst)",
        probe: "build",
        path: &[Key("adaptive"), Key("ns_per_obj_instance")],
        guard: Guard::Slower(KERNEL_TOLERANCE),
    },
    Row {
        name: "estimate/join/wide ns/(est·inst)",
        probe: "estimate",
        path: &[
            Key("join_kernels"),
            Find(WIDE),
            Key("ns_per_estimate_instance"),
            At(0),
        ],
        guard: Guard::Slower(KERNEL_TOLERANCE),
    },
    Row {
        name: "estimate/range-cold/wide ns/(est·inst)",
        probe: "estimate",
        path: &[
            Key("range_kernels"),
            Find(WIDE),
            Key("ns_per_estimate_instance"),
            At(0),
        ],
        guard: Guard::Slower(KERNEL_TOLERANCE),
    },
    Row {
        name: "net/1conn/b1 p50 µs",
        probe: "net",
        path: &[
            Key("configs"),
            Find(&[("clients", "1"), ("batch", "1"), ("coalesce_us", "0")]),
            Key("p50_us"),
        ],
        guard: Guard::Slower(WALL_TOLERANCE),
    },
    Row {
        name: "net/64conn/b1 qps (coalesce 0 µs)",
        probe: "net",
        path: &[
            Key("configs"),
            Find(&[("clients", "64"), ("batch", "1"), ("coalesce_us", "0")]),
            Key("qps"),
        ],
        guard: Guard::Drop(WALL_TOLERANCE),
    },
    Row {
        name: "net/64conn/b1 qps (coalesce 200 µs)",
        probe: "net",
        path: &[
            Key("configs"),
            Find(&[("clients", "64"), ("batch", "1"), ("coalesce_us", "200")]),
            Key("qps"),
        ],
        guard: Guard::Drop(WALL_TOLERANCE),
    },
    Row {
        name: "batchq/b64 ns/query",
        probe: "batchq",
        path: &[Key("points"), Find(&[("batch", "64")]), Key("ns_per_query")],
        guard: Guard::Slower(KERNEL_TOLERANCE),
    },
    Row {
        name: "batchq/b64-over-b1 speedup",
        probe: "batchq",
        path: &[Key("speedup_b64_over_b1")],
        guard: Guard::Floor(1.5),
    },
    Row {
        name: "batchq/warm-over-cold",
        probe: "batchq",
        path: &[Key("adaptive"), Key("speedup_warm_over_cold")],
        guard: Guard::Floor(3.0),
    },
    Row {
        name: "rebalance/split wall ms",
        probe: "rebalance",
        path: &[Key("ops"), Find(&[("op", "split")]), Key("wall_ms")],
        guard: Guard::Slower(WALL_TOLERANCE),
    },
    Row {
        name: "rebalance/worst ingest stall ms",
        probe: "rebalance",
        path: &[Key("max_ingest_stall_ms")],
        guard: Guard::Slower(WALL_TOLERANCE),
    },
    Row {
        name: "rebalance/qps recovery",
        probe: "rebalance",
        path: &[Key("recovery_ratio")],
        guard: Guard::Floor(0.5),
    },
];

fn main() {
    let args = spatial_bench::cli::Args::parse(&[], &["parent"]);
    let parent = PathBuf::from(
        args.get("parent")
            .unwrap_or_else(|| die("usage: perf_check --parent <built parent checkout>")),
    );
    let change = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    println!(
        "perf_check: {PAIRS} alternating pairs, parent {} vs change {}",
        parent.display(),
        change.display()
    );

    // One pass per side and pair: the records that side's runs produced.
    let (mut parent_runs, mut change_runs) = (Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        let mut passes = [Vec::new(), Vec::new()];
        for (i, probe) in PROBES.iter().enumerate() {
            // Side 0 is the parent; which side runs first alternates.
            let first = (pair + i) % 2;
            let mut secs = [0.0; 2];
            for side in [first, 1 - first] {
                let root = if side == 0 { &parent } else { &change };
                let t = Instant::now();
                passes[side].extend(run_probe(root, probe));
                secs[side] = t.elapsed().as_secs_f64();
            }
            println!(
                "  pair {}/{PAIRS} {probe:<9} {} first: parent {:.1} s, change {:.1} s",
                pair + 1,
                ["parent", "change"][first],
                secs[0],
                secs[1]
            );
        }
        let [p, c] = passes;
        parent_runs.push(p);
        change_runs.push(c);
    }

    let mut table = Table::new(
        format!("perf_check: change vs parent, median of {PAIRS} pairs"),
        &["metric", "parent", "change", "ratio", "limit", "verdict"],
    );
    let mut failures = 0usize;
    for row in ROWS {
        let j = judge(row, &parent_runs, &change_runs);
        failures += usize::from(j.verdict.fails());
        let limit = match row.guard {
            Guard::Slower(tol) | Guard::Drop(tol) => format!("≤ {:.2}", 1.0 + tol),
            Guard::Floor(floor) => format!("≥ {floor:.1} (floor)"),
        };
        table.push_row(vec![
            row.name.into(),
            fmt(j.parent),
            fmt(j.change),
            fmt(j.ratio),
            limit,
            j.verdict.label().into(),
        ]);
    }
    table.print();
    if failures > 0 {
        eprintln!("perf_check: {failures} of {} rows failed", ROWS.len());
        std::process::exit(1);
    }
    println!("perf_check: all {} rows within their guards", ROWS.len());
}

/// Runs one quick probe with `root`'s `perf_probe` and returns the record
/// that run appended to `root`'s results file; `None` if the run failed.
fn run_probe(root: &Path, probe: &str) -> Option<Value> {
    let binary = root.join("target/release/perf_probe");
    let mut cmd = Command::new(&binary);
    cmd.arg("--quick");
    if probe != "build" {
        cmd.args(["--probe", probe]);
    }
    let out = cmd.output().unwrap_or_else(|e| {
        die(&format!(
            "cannot run {} ({e}); build it with `cargo build --release -p spatial-bench --bin perf_probe` in that checkout",
            binary.display()
        ))
    });
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        eprintln!(
            "perf_check: {probe} probe failed under {} ({}): {}",
            root.display(),
            out.status,
            stderr.trim_end().lines().last().unwrap_or("")
        );
        return None;
    }
    let path = root.join("results/perf_probe.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", path.display())));
    let newest = match serde_json::parse_value(&text) {
        Ok(Value::Seq(mut records)) => records.pop(),
        _ => None,
    };
    newest.filter(|r| field(r, "probe").is_some_and(|tag| is(tag, probe)))
}

/// A row's medians and verdict over all pairs.
struct Judged {
    parent: Option<f64>,
    change: Option<f64>,
    ratio: Option<f64>,
    verdict: Verdict,
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Regressed,
    /// The parent's records lack the row: nothing to compare against.
    New,
    /// The change's records lack the row: its guard was lost.
    Lost,
}

impl Verdict {
    fn fails(&self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Lost)
    }

    fn label(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::New => "new",
            Verdict::Lost => "LOST",
        }
    }
}

/// Judges `row` over paired passes: `parent[i]` and `change[i]` are the
/// records each side produced in pair `i`.
fn judge(row: &Row, parent: &[Vec<Value>], change: &[Vec<Value>]) -> Judged {
    let values = |passes: &[Vec<Value>]| -> Option<Vec<f64>> {
        passes.iter().map(|pass| read(row, pass)).collect()
    };
    let (p, c) = (values(parent), values(change));
    let ratio = match (row.guard, &p, &c) {
        (Guard::Slower(_) | Guard::Drop(_), Some(p), Some(c)) => {
            let per_pair: Vec<f64> = p
                .iter()
                .zip(c)
                .map(|(p, c)| match row.guard {
                    Guard::Drop(_) => p / c,
                    _ => c / p,
                })
                .collect();
            Some(median(&per_pair))
        }
        _ => None,
    };
    let pass_if = |ok: bool| if ok { Verdict::Ok } else { Verdict::Regressed };
    let verdict = match (row.guard, &c, ratio) {
        (_, None, _) => Verdict::Lost,
        (Guard::Floor(floor), Some(c), _) => pass_if(median(c) >= floor),
        (Guard::Slower(tol) | Guard::Drop(tol), _, Some(ratio)) => pass_if(ratio <= 1.0 + tol),
        _ => Verdict::New,
    };
    Judged {
        parent: p.as_deref().map(median),
        change: c.as_deref().map(median),
        ratio,
        verdict,
    }
}

/// The row's number in one pass's records, if they hold it.
fn read(row: &Row, pass: &[Value]) -> Option<f64> {
    let mut v = pass
        .iter()
        .find(|r| field(r, "probe").is_some_and(|tag| is(tag, row.probe)))?;
    for step in row.path {
        v = match (step, v) {
            (Key(key), _) => field(v, key)?,
            (At(i), Value::Seq(items)) => items.get(*i)?,
            (Find(want), Value::Seq(items)) => items.iter().find(|item| {
                want.iter()
                    .all(|(key, text)| field(item, key).is_some_and(|f| is(f, text)))
            })?,
            _ => return None,
        };
    }
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Whether a string or integer field reads `text`.
fn is(v: &Value, text: &str) -> bool {
    match v {
        Value::Str(s) => s == text,
        Value::UInt(u) => u.to_string() == text,
        Value::Int(i) => i.to_string() == text,
        _ => false,
    }
}

/// Median; the mean of the middle two for an even count.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

fn fmt(v: Option<f64>) -> String {
    v.map_or_else(|| "-".into(), |v| format!("{v:.3}"))
}

fn die(msg: &str) -> ! {
    eprintln!("perf_check: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pass's records, shaped like the `perf_probe --quick` output of a
    /// parent that still times the scalar kernels: only the fields the rows
    /// read, plus the scalar kernels they must skip.
    fn pass(build: f64, qps_64: f64, b64_over_b1: f64) -> Vec<Value> {
        pass_of(true, build, qps_64, b64_over_b1)
    }

    /// One pass's records; `parent_shaped` adds the scalar kernels, the
    /// speedups and the exact-join fields that older probes recorded.
    fn pass_of(parent_shaped: bool, build: f64, qps_64: f64, b64_over_b1: f64) -> Vec<Value> {
        let (scalar_build, scalar_join, scalar_range, extras) = if parent_shaped {
            (
                r#"{"kernel": "scalar", "lane_width": 1, "ns_per_obj_instance": [290.0]},"#,
                r#"{"kernel": "scalar", "ns_per_estimate_instance": [9.0]},"#,
                r#"{"kernel": "scalar", "ns_per_estimate_instance": [220.0]},"#,
                r#""speedups": [{"faster": "wide", "baseline": "scalar", "ratio_per_config": [7.0]}],
                   "exact_join_pairs": 1000, "exact_join_secs": 0.5,"#,
            )
        } else {
            ("", "", "", "")
        };
        let json = format!(
            r#"[
            {{"probe": "build", "instances": [440], {extras} "kernels": [{scalar_build}
                {{"kernel": "wide", "lane_width": 512, "ns_per_obj_instance": [{build}]}}],
              "adaptive": {{"instances": 1015, "max_level": 7, "ns_per_obj_instance": 9.0}}}},
            {{"probe": "estimate", "instances": [440],
              "join_kernels": [{scalar_join}
                               {{"kernel": "wide", "ns_per_estimate_instance": [1.5]}}],
              "range_kernels": [{scalar_range}
                                {{"kernel": "wide", "ns_per_estimate_instance": [25.0]}}]}},
            {{"probe": "net", "configs": [
                {{"clients": 1, "batch": 1, "coalesce_us": 0, "p50_us": 40.0, "qps": 20000.0}},
                {{"clients": 1, "batch": 1, "coalesce_us": 200, "p50_us": 45.0, "qps": 19000.0}},
                {{"clients": 64, "batch": 1, "coalesce_us": 0, "p50_us": 900.0, "qps": {qps_64}}},
                {{"clients": 64, "batch": 1, "coalesce_us": 200, "p50_us": 950.0, "qps": 60000.0}}]}},
            {{"probe": "batchq", "points": [
                {{"batch": 1, "ns_per_query": 4000.0}},
                {{"batch": 64, "ns_per_query": 2000.0}}],
              "speedup_b64_over_b1": {b64_over_b1},
              "adaptive": {{"max_level": 9, "speedup_warm_over_cold": 4.0}}}},
            {{"probe": "rebalance", "ops": [
                {{"op": "split", "wall_ms": 50.0}}, {{"op": "move", "wall_ms": 49.0}}],
              "max_ingest_stall_ms": 50.0, "recovery_ratio": 1.0}}
            ]"#
        );
        match serde_json::parse_value(&json).unwrap() {
            Value::Seq(records) => records,
            other => panic!("expected a record array, got {}", other.kind()),
        }
    }

    fn row(name: &str) -> &'static Row {
        ROWS.iter().find(|r| r.name == name).unwrap()
    }

    #[test]
    fn every_row_reads_a_parent_shaped_pass() {
        let records = pass(40.0, 50_000.0, 2.0);
        for row in ROWS {
            assert!(PROBES.contains(&row.probe), "{} is never run", row.probe);
            assert!(read(row, &records).is_some(), "{} unread", row.name);
        }
        assert_eq!(read(row("build/wide ns/(obj·inst)"), &records), Some(40.0));
        assert_eq!(
            read(row("net/64conn/b1 qps (coalesce 0 µs)"), &records),
            Some(50_000.0)
        );
    }

    #[test]
    fn every_row_reads_a_change_shaped_pass() {
        // Wide-only kernels, no speedups, exact-join or serve records: a
        // trim that drops a field some row walks fails here.
        let records = pass_of(false, 40.0, 50_000.0, 2.0);
        for key in ["speedups", "exact_join_pairs", "exact_join_secs"] {
            assert!(field(&records[0], key).is_none());
        }
        for row in ROWS {
            assert!(read(row, &records).is_some(), "{} unread", row.name);
        }
        assert_eq!(read(row("build/wide ns/(obj·inst)"), &records), Some(40.0));
        assert_eq!(
            read(row("estimate/range-cold/wide ns/(est·inst)"), &records),
            Some(25.0)
        );
        // The parent-shaped pass reads the same numbers, so a parent that
        // still times the scalar kernels pairs row for row with the change.
        let parent = vec![pass(40.0, 50_000.0, 2.0); 2];
        let change = vec![records; 2];
        for row in ROWS {
            assert_eq!(
                judge(row, &parent, &change).verdict,
                Verdict::Ok,
                "{}",
                row.name
            );
        }
    }

    #[test]
    fn median_ratio_over_an_even_pair_count() {
        let build = row("build/wide ns/(obj·inst)");
        let parent: Vec<_> = (0..4).map(|_| pass(40.0, 5e4, 2.0)).collect();
        // Pair ratios 1.1, 1.2, 1.3, 2.0: the median is 1.25 (the mean of
        // the middle two), at the limit, although the mean is 1.4.
        let change: Vec<_> = [44.0, 48.0, 52.0, 80.0]
            .iter()
            .map(|&ns| pass(ns, 5e4, 2.0))
            .collect();
        let j = judge(build, &parent, &change);
        assert!((j.ratio.unwrap() - 1.25).abs() < 1e-9);
        assert_eq!(j.verdict, Verdict::Ok);
        // Pair ratios 1.1, 1.2, 1.4, 2.0: median 1.3 fails.
        let change: Vec<_> = [44.0, 48.0, 56.0, 80.0]
            .iter()
            .map(|&ns| pass(ns, 5e4, 2.0))
            .collect();
        assert_eq!(judge(build, &parent, &change).verdict, Verdict::Regressed);
    }

    #[test]
    fn qps_rows_fail_on_a_drop_not_a_rise() {
        let qps = row("net/64conn/b1 qps (coalesce 0 µs)");
        let parent = vec![pass(40.0, 50_000.0, 2.0); 2];
        let judged = |change_qps: f64| {
            let change = vec![pass(40.0, change_qps, 2.0); 2];
            judge(qps, &parent, &change)
        };
        let fell = judged(20_000.0);
        assert!((fell.ratio.unwrap() - 2.5).abs() < 1e-9);
        assert_eq!(fell.verdict, Verdict::Regressed);
        assert_eq!(judged(30_000.0).verdict, Verdict::Ok);
        assert_eq!(judged(200_000.0).verdict, Verdict::Ok);
    }

    #[test]
    fn floors_judge_the_median_of_the_change_runs() {
        let floor = row("batchq/b64-over-b1 speedup");
        // The parent is not consulted, even when it reads far below.
        let parent = vec![pass(40.0, 5e4, 0.5); 4];
        let runs = |speedups: [f64; 4]| -> Vec<Vec<Value>> {
            speedups.iter().map(|&s| pass(40.0, 5e4, s)).collect()
        };
        // One run dips to 1.16, below the 1.5 floor; the median is 1.75.
        let j = judge(floor, &parent, &runs([1.16, 1.8, 1.9, 1.7]));
        assert!((j.change.unwrap() - 1.75).abs() < 1e-9);
        assert_eq!(j.verdict, Verdict::Ok);
        let j = judge(floor, &parent, &runs([1.16, 1.2, 1.9, 1.7]));
        assert_eq!(j.verdict, Verdict::Regressed);
    }

    #[test]
    fn a_row_the_parent_lacks_is_new_and_passes() {
        let split = row("rebalance/split wall ms");
        // A parent that predates the rebalance probe.
        let mut old = pass(40.0, 5e4, 2.0);
        old.retain(|r| !field(r, "probe").is_some_and(|t| is(t, "rebalance")));
        let j = judge(split, &[old.clone(), old], &vec![pass(40.0, 5e4, 2.0); 2]);
        assert_eq!(j.verdict, Verdict::New);
        assert!(!j.verdict.fails());
        assert_eq!(j.parent, None);
        assert_eq!(j.change, Some(50.0));
    }

    #[test]
    fn a_row_the_change_lacks_fails_as_lost() {
        let warm = row("batchq/warm-over-cold");
        let parent = vec![pass(40.0, 5e4, 2.0); 2];
        // One of the change's passes lost the batchq record (its run
        // failed); the other still has it.
        let mut failed = pass(40.0, 5e4, 2.0);
        failed.retain(|r| !field(r, "probe").is_some_and(|t| is(t, "batchq")));
        let j = judge(warm, &parent, &[pass(40.0, 5e4, 2.0), failed]);
        assert_eq!(j.verdict, Verdict::Lost);
        assert!(j.verdict.fails());
        let qps = row("net/64conn/b1 qps (coalesce 200 µs)");
        let mut no_net = pass(40.0, 5e4, 2.0);
        no_net.retain(|r| !field(r, "probe").is_some_and(|t| is(t, "net")));
        assert_eq!(
            judge(qps, &parent, &[no_net.clone(), no_net]).verdict,
            Verdict::Lost
        );
    }
}
