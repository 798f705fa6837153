//! Throughput probes behind the `perf_check` gate.
//!
//! The default probe times the sketch build under the 512-lane blocked
//! maintenance kernel (`sketch::BuildKernel::Wide`) and appends one JSON
//! record per run to `results/perf_probe.json` — the committed
//! `BENCH_*.json` files are copies of such records. Every record carries
//! the runtime kernel constants (the ingest worker cap), so records stay
//! self-describing. `--probe estimate` times the *estimation* path under
//! the blocked query kernel (`sketch::QueryKernel::Wide`): join estimates
//! and cold range estimates. `--probe net` sweeps the TCP front-end
//! end-to-end — connection counts 1/8/64 at batch-of-1 frames × the
//! cross-connection coalescing window off/on (200 µs), plus the legacy
//! 2-client × batch-8 continuity point, recording p50/p99/p999 round-trip
//! latency, wire QPS and realized worker passes per configuration, with epoch
//! churn running throughout (server knobs come from the probe, not the
//! `SKETCH_NET_REACTORS` / `SKETCH_NET_COALESCE_US` env vars, except the
//! reactor count which honors the env default); `--probe batchq`
//! measures the batch entry point — amortized ns/query of
//! `estimate_batch_with` at batch sizes 1/8/64 over a serving-shaped hot
//! set, with the plan-cache hit/miss/eviction counters reported next to
//! the dispatch decision; `--probe rebalance` measures the elastic
//! topology path — wall cost of an online split / boundary move / merge on
//! a journaled store, the ingest cutover pause each one causes (worst
//! blocked `insert_slice` from a concurrent writer), and warm routed QPS
//! before, during and after a split/merge storm, every phase asserted
//! bit-identical to an unsharded oracle.
//!
//! The probe harnesses themselves live in `spatial_bench::probes`. Router
//! QPS against shard count is timed by the `serve_throughput` bench, the
//! scalar-vs-wide estimate ratio by the `estimator_throughput` bench, and
//! the §6.5 maxLevel sweeps by `ablation_maxlevel`.
//!
//! This CLI is the interface of the CI `perf_check` gate, which runs a
//! parent commit's `perf_probe --quick [--probe estimate|net|batchq|rebalance]`
//! and this commit's side by side and reads back each run's record: keep
//! those flags and the record fields they write stable, or the next
//! change's gate loses the rows that read them.
//!
//! Usage: cargo run --release -p spatial-bench --bin perf_probe
//!        [-- --quick] [--probe <estimate|net|batchq|rebalance>]
//!
//! `--quick` probes only the smallest instance count (fast iteration while
//! touching the hot path).

use spatial_bench::cli::Args;
use spatial_bench::probes::{
    batchq_probe, build_probe, estimate_probe, net_probe, rebalance_probe, BUILD_SHAPES,
    ESTIMATE_SHAPES, QUICK_SHAPES,
};
use spatial_bench::runner::default_threads;

fn main() {
    let args = Args::parse(&["quick"], &["probe"]);
    let threads = default_threads();
    let quick = args.has("quick");
    let shapes = |full| if quick { QUICK_SHAPES } else { full };

    match args.get("probe") {
        // Default probe: the build-throughput sweep.
        None => build_probe(threads, shapes(BUILD_SHAPES)),
        Some("estimate") => estimate_probe(threads, shapes(ESTIMATE_SHAPES)),
        Some("net") => net_probe(quick),
        Some("batchq") => batchq_probe(threads, quick),
        Some("rebalance") => rebalance_probe(threads, quick),
        Some(other) => {
            eprintln!("unknown --probe `{other}` (supported: estimate, net, batchq, rebalance)");
            std::process::exit(2);
        }
    }
}
