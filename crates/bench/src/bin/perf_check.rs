//! CI perf-regression guard: rerun the quick perf_probe presets and fail
//! if the hot paths regressed against the committed anchor numbers.
//!
//! Usage: cargo run --release -p spatial-bench --bin perf_check --
//!          [--anchor BENCH_pr13.json] [--tolerance 0.25]
//!
//! Compares the blocked kernel's build ns/(obj·inst) and estimate
//! ns/(est·inst) — join and cold range paths (the range queries never
//! repeat, so each one runs the blocked ξ cover kernel) — at the 440-instance
//! configuration against the matching records in the anchor file (a copy
//! of `perf_probe` output; see EXPERIMENTS.md "Performance baseline").
//! Anchor entries are matched by **lane width**, not kernel name: the
//! 512-lane `wide` kernel reads the anchors' 512-lane (`wide512`) rows, and
//! the rows of the retired 64- and 256-lane kernels are not read. The
//! network front-end's `net` sweep is guarded at the configurations that
//! isolate each mechanism — anchor points are matched by
//! `(clients, batch, coalesce_us)`: single-connection p50 round-trip
//! latency (measured over anchor; per-frame overhead with nothing to
//! amortize it) and 64-connection wire QPS with and without the
//! coalescing window (anchor over measured, so a *drop* fails — the
//! multiplexer's headline number). The batch entry point's
//! `batchq` record is guarded three times: amortized batch-64 ns/query
//! against its anchor, and — machine-independently, tolerance 0 — two
//! ratios measured within the run: the batch-64-over-batch-1 speedup
//! against a hard 1.5x floor (if answering a request batch in one call
//! stops paying at least 1.5x, the batch path or its dedup broke, whatever
//! the runner), and the adaptive-`maxLevel` warm-over-cold ns/query ratio
//! against a hard 5.1x floor (if a hot plan's query-product memo stops
//! saving at least 5.1x over a cold compile-and-fill, the memo path
//! regressed or stopped being used). The elastic-topology `rebalance`
//! record is guarded three ways: split wall time and worst ingest cutover
//! pause against their anchors (net-width tolerance — both are
//! wall-clock, and the anchor was recorded from the same quick preset CI
//! replays, since replay cost scales with the journal length), and —
//! machine-independently, zero tolerance — the post-churn QPS recovery
//! ratio against a hard 0.5x floor: topology churn must never leave the
//! read path degraded.
//!
//! ## Tolerance
//!
//! The default threshold fails only a **> 25% slowdown** (`measured >
//! anchor × 1.25`). That is deliberately generous: the anchors were
//! recorded on one quiet reference box, while CI runners differ in
//! microarchitecture and noisiness — the guard is meant to catch real
//! regressions (an accidental scalar fallback, a lost vectorization, a
//! per-call allocation creeping into the hot loop, all ≥ 1.5×), not to
//! police single-digit drift. Speedups are never failures. Tune with
//! `--tolerance` (fractional, e.g. `0.25`).
//!
//! The **net metrics use a wider floor of +100%** (`NET_TOLERANCE`,
//! raised further if `--tolerance` exceeds it): loopback TCP round-trips
//! fold in scheduler wakeups, Nagle-free small writes and thread
//! hand-offs, which jitter ±20–40% across runs on a busy runner — far
//! more than the arithmetic kernels do. The net guard is therefore an
//! order-of-magnitude guard: a real serving regression (batching lost to
//! per-query passes, a per-query lock or merge on the hot path) costs
//! several ×, which a 2× threshold still catches reliably.

use serde::Value;
use sketch::{BuildKernel, QueryKernel};
use spatial_bench::probes::{
    batchq_probe, build_probe, estimate_probe, net_probe, rebalance_probe, QUICK_SHAPES,
};
use spatial_bench::report::Table;
use spatial_bench::runner::default_threads;
use std::path::{Path, PathBuf};

/// Fractional slowdown vs the anchor that fails the lane (see module docs).
const DEFAULT_TOLERANCE: f64 = 0.25;

/// Floor tolerance for the network metrics — loopback latency jitters far
/// more across CI runners than the arithmetic kernels (see module docs).
const NET_TOLERANCE: f64 = 1.0;

/// Minimum batch-64-over-batch-1 speedup the batch entry point must keep
/// paying. Machine-independent (both sides measured in the same run), so
/// it is enforced with zero tolerance.
const BATCH_SPEEDUP_FLOOR: f64 = 1.5;

/// Minimum cold-over-warm ns/query ratio of the batchq probe's
/// adaptive-`maxLevel` pair: what a memoized hot plan must keep saving over
/// a cold one. Set at ~0.75x the ratio `BENCH_pr13.json` records (6.86x,
/// the median of eleven full runs); machine-independent (both sides
/// measured in the same run), so it is enforced with zero tolerance.
const WARM_OVER_COLD_FLOOR: f64 = 5.1;

/// Minimum post-churn-over-pre-churn routed QPS ratio the rebalance probe
/// must keep. Machine-independent (both sides measured in the same run),
/// so it is enforced with zero tolerance.
const REBALANCE_RECOVERY_FLOOR: f64 = 0.5;

/// The instance configuration compared (first point of both the quick
/// presets and the anchor sweeps).
const ANCHOR_INSTANCES: u64 = 440;

fn main() {
    let args = spatial_bench::cli::Args::parse(&[]).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let tolerance: f64 = args
        .get_or("tolerance", DEFAULT_TOLERANCE)
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    let anchor_name = args.get("anchor").unwrap_or("BENCH_pr13.json");
    let anchor_path = workspace_file(anchor_name);
    let anchors = Anchors::load(&anchor_path).unwrap_or_else(|e| {
        eprintln!(
            "perf_check: cannot read anchors from {}: {e}",
            anchor_path.display()
        );
        std::process::exit(2);
    });

    let threads = default_threads();
    println!(
        "perf_check: quick probes vs {} (tolerance +{:.0}%)",
        anchor_path.display(),
        tolerance * 100.0
    );
    let build = build_probe(
        threads,
        QUICK_SHAPES,
        &[BuildKernel::Wide],
        "ci-build",
        false,
    );
    let estimate = estimate_probe(threads, QUICK_SHAPES, &[QueryKernel::Wide], "ci-estimate");
    assert_eq!(build.instances, vec![ANCHOR_INSTANCES as usize]);
    assert_eq!(estimate.instances, vec![ANCHOR_INSTANCES as usize]);

    let net = net_probe(true);
    let net_tolerance = tolerance.max(NET_TOLERANCE);
    let batchq = batchq_probe(threads, true);
    let rebalance = rebalance_probe(threads, true);

    // (name, anchor, measured, ratio-where->1-is-worse, tolerance)
    let mut metrics: Vec<(String, f64, f64, f64, f64)> = Vec::new();
    for k in &build.kernels {
        let (anchor, measured) = (anchors.build(k.lane_width), k.ns_per_obj_instance[0]);
        metrics.push((
            format!("build/{} ns/(obj·inst)", k.kernel),
            anchor,
            measured,
            measured / anchor,
            tolerance,
        ));
    }
    for k in &estimate.join_kernels {
        let (anchor, measured) = (
            anchors.estimate("join", k.lane_width),
            k.ns_per_estimate_instance[0],
        );
        metrics.push((
            format!("estimate/join/{} ns/(est·inst)", k.kernel),
            anchor,
            measured,
            measured / anchor,
            tolerance,
        ));
    }
    for k in &estimate.range_kernels {
        let (anchor, measured) = (
            anchors.estimate("range", k.lane_width),
            k.ns_per_estimate_instance[0],
        );
        metrics.push((
            format!("estimate/range-cold/{} ns/(est·inst)", k.kernel),
            anchor,
            measured,
            measured / anchor,
            tolerance,
        ));
    }
    // Net latency regresses when measured grows; QPS regresses when
    // measured *shrinks*, so its ratio is inverted (anchor over measured).
    // Each guard pins one sweep configuration: 1 conn × batch-1 isolates
    // per-frame latency, 64 conns × batch-1 is the multiplexer's
    // throughput headline (guarded with the window off and on).
    let p50_point = net_config(&net, 1, 1, 0);
    let p50_anchor = anchors.net(1, 1, 0, "p50_us");
    metrics.push((
        "net/1conn/b1 p50 µs".into(),
        p50_anchor,
        p50_point.p50_us,
        p50_point.p50_us / p50_anchor,
        net_tolerance,
    ));
    for coalesce_us in [0u64, 200] {
        let qps_point = net_config(&net, 64, 1, coalesce_us);
        let qps_anchor = anchors.net(64, 1, coalesce_us, "qps");
        metrics.push((
            format!("net/64conn/b1 qps (coalesce {coalesce_us} µs)"),
            qps_anchor,
            qps_point.qps,
            qps_anchor / qps_point.qps,
            net_tolerance,
        ));
    }
    // The batch kernel: amortized batch-64 latency vs its anchor, plus the
    // machine-independent batching and memo floors (both sides of each
    // ratio come from this run, so they get no tolerance).
    let b64 = batchq
        .points
        .iter()
        .find(|p| p.batch == 64)
        .expect("batchq probe always times batch 64");
    let b64_anchor = anchors.batchq_ns_per_query(64);
    metrics.push((
        "batchq/b64 ns/query".into(),
        b64_anchor,
        b64.ns_per_query,
        b64.ns_per_query / b64_anchor,
        tolerance,
    ));
    metrics.push((
        format!("batchq/b64-over-b1 speedup (floor {BATCH_SPEEDUP_FLOOR}x)"),
        BATCH_SPEEDUP_FLOOR,
        batchq.speedup_b64_over_b1,
        BATCH_SPEEDUP_FLOOR / batchq.speedup_b64_over_b1,
        0.0,
    ));
    let warm_over_cold = batchq.adaptive.speedup_warm_over_cold;
    metrics.push((
        format!("batchq/warm-over-cold (floor {WARM_OVER_COLD_FLOOR}x)"),
        WARM_OVER_COLD_FLOOR,
        warm_over_cold,
        WARM_OVER_COLD_FLOOR / warm_over_cold,
        0.0,
    ));
    // Elastic topology: the split's wall cost (journal replay + swap) and
    // the worst write-path cutover pause are wall-clock measurements, so
    // they get the net-width tolerance; the QPS recovery ratio is measured
    // against itself within the run, so it gets the hard floor.
    let split = rebalance
        .ops
        .iter()
        .find(|o| o.op == "split")
        .expect("rebalance probe always times a split");
    let split_anchor = rebalance_anchor(&anchors, "split", "wall_ms");
    metrics.push((
        "rebalance/split wall ms".into(),
        split_anchor,
        split.wall_ms,
        split.wall_ms / split_anchor,
        net_tolerance,
    ));
    let stall_anchor = num(get(anchors.record("rebalance"), "max_ingest_stall_ms"));
    metrics.push((
        "rebalance/worst ingest stall ms".into(),
        stall_anchor,
        rebalance.max_ingest_stall_ms,
        rebalance.max_ingest_stall_ms / stall_anchor,
        net_tolerance,
    ));
    metrics.push((
        format!("rebalance/qps recovery (floor {REBALANCE_RECOVERY_FLOOR}x)"),
        REBALANCE_RECOVERY_FLOOR,
        rebalance.recovery_ratio,
        REBALANCE_RECOVERY_FLOOR / rebalance.recovery_ratio,
        0.0,
    ));

    let mut table = Table::new(
        "perf_check vs anchors",
        &["metric", "anchor", "measured", "ratio", "verdict"],
    );
    let mut failures = 0usize;
    for (name, anchor, measured, ratio, tol) in &metrics {
        let ok = *ratio <= 1.0 + tol;
        if !ok {
            failures += 1;
        }
        table.push_row(vec![
            name.clone(),
            format!("{anchor:.2}"),
            format!("{measured:.2}"),
            format!("{ratio:.3}"),
            if ok { "ok".into() } else { "REGRESSED".into() },
        ]);
    }
    table.print();
    if failures > 0 {
        eprintln!(
            "perf_check: {failures} metric(s) regressed beyond tolerance vs {}",
            anchor_path.display()
        );
        std::process::exit(1);
    }
    println!(
        "perf_check: all {} metrics within tolerance of the anchors (+{:.0}% kernels, +{:.0}% net)",
        metrics.len(),
        tolerance * 100.0,
        net_tolerance * 100.0
    );
}

/// The measured sweep point at `(clients, batch, coalesce_us)` — the probe
/// always runs every guarded configuration, so a miss is a bug here.
fn net_config(
    net: &spatial_bench::probes::NetProbeRecord,
    clients: usize,
    batch: usize,
    coalesce_us: u64,
) -> &spatial_bench::probes::NetConfigPoint {
    net.configs
        .iter()
        .find(|c| c.clients == clients && c.batch == batch && c.coalesce_us == coalesce_us)
        .unwrap_or_else(|| {
            die(&format!(
                "net probe produced no ({clients} clients, batch {batch}, coalesce {coalesce_us} µs) point"
            ))
        })
}

/// Anchor scalar `field` of the rebalance record's `op` operation point.
fn rebalance_anchor(anchors: &Anchors, op: &str, field: &str) -> f64 {
    let ops = seq(get(anchors.record("rebalance"), "ops"));
    let point = ops
        .iter()
        .find(|o| str_of(get(o, "op")) == op)
        .unwrap_or_else(|| die(&format!("anchor rebalance record has no `{op}` op point")));
    num(get(point, field))
}

/// A file at the workspace root (next to the committed `BENCH_*.json`).
fn workspace_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join(name)
}

/// Anchor lookups over the `BENCH_*.json` record array.
struct Anchors {
    records: Vec<Value>,
}

impl Anchors {
    fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        match serde_json::parse_value(&text).map_err(|e| e.to_string())? {
            Value::Seq(records) => Ok(Self { records }),
            single => Ok(Self {
                records: vec![single],
            }),
        }
    }

    /// Anchor build ns/(obj·inst) of the `lane_width`-lane kernel at the
    /// compared instances.
    fn build(&self, lane_width: usize) -> f64 {
        let record = self.record("build");
        let idx = self.instance_index(record);
        let entry = kernel_by_width(seq(get(record, "kernels")), lane_width, "build");
        num(&seq(get(entry, "ns_per_obj_instance"))[idx])
    }

    /// Anchor estimate ns/(est·inst) of `path` (`join`/`range`) at
    /// `lane_width` lanes.
    fn estimate(&self, path: &str, lane_width: usize) -> f64 {
        let record = self.record("estimate");
        let idx = self.instance_index(record);
        let entry = kernel_by_width(
            seq(get(record, &format!("{path}_kernels"))),
            lane_width,
            path,
        );
        num(&seq(get(entry, "ns_per_estimate_instance"))[idx])
    }

    /// Anchor scalar `field` (`p50_us` / `qps`) of the `net` sweep point
    /// at `(clients, batch, coalesce_us)`.
    fn net(&self, clients: u64, batch: u64, coalesce_us: u64, field: &str) -> f64 {
        let configs = seq(get(self.record("net"), "configs"));
        let point = configs
            .iter()
            .find(|c| {
                num(get(c, "clients")) as u64 == clients
                    && num(get(c, "batch")) as u64 == batch
                    && num(get(c, "coalesce_us")) as u64 == coalesce_us
            })
            .unwrap_or_else(|| {
                die(&format!(
                    "anchor net record has no ({clients} clients, batch {batch}, coalesce {coalesce_us} µs) point"
                ))
            });
        num(get(point, field))
    }

    /// Anchor amortized ns/query of the `batchq` record at `batch` queries
    /// per call.
    fn batchq_ns_per_query(&self, batch: u64) -> f64 {
        let points = seq(get(self.record("batchq"), "points"));
        let point = points
            .iter()
            .find(|p| num(get(p, "batch")) as u64 == batch)
            .unwrap_or_else(|| die(&format!("anchor batchq record has no batch-{batch} point")));
        num(get(point, "ns_per_query"))
    }

    fn record(&self, probe: &str) -> &Value {
        self.records
            .iter()
            .find(|r| str_of(get(r, "probe")) == probe)
            .unwrap_or_else(|| die(&format!("anchor file has no `{probe}` record")))
    }

    fn instance_index(&self, record: &Value) -> usize {
        seq(get(record, "instances"))
            .iter()
            .position(|v| num(v) as u64 == ANCHOR_INSTANCES)
            .unwrap_or_else(|| {
                die(&format!(
                    "anchor record has no {ANCHOR_INSTANCES}-instance configuration"
                ))
            })
    }
}

/// Finds the anchor entry whose `lane_width` matches — the per-width anchor
/// sets keyed by lane width rather than kernel name.
fn kernel_by_width<'a>(kernels: &'a [Value], lane_width: usize, what: &str) -> &'a Value {
    kernels
        .iter()
        .find(|k| num(get(k, "lane_width")) as usize == lane_width)
        .unwrap_or_else(|| {
            die(&format!(
                "anchor has no {what} kernel at {lane_width} lanes"
            ))
        })
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| die(&format!("anchor record is missing `{key}`"))),
        other => die(&format!(
            "expected a map with `{key}`, got {}",
            other.kind()
        )),
    }
}

fn seq(v: &Value) -> &[Value] {
    match v {
        Value::Seq(entries) => entries,
        other => die(&format!("expected a sequence, got {}", other.kind())),
    }
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => die(&format!("expected a string, got {}", other.kind())),
    }
}

fn num(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        other => die(&format!("expected a number, got {}", other.kind())),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("perf_check: {msg}");
    std::process::exit(2);
}
