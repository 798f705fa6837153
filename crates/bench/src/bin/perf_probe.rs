//! Build/estimate/serve throughput probe plus quick maxLevel sanity sweeps.
//!
//! The default probe times the sketch build under both maintenance kernels
//! (scalar oracle and the 512-lane blocked kernel; see
//! `sketch::BuildKernel`) and appends one JSON record per run to
//! `results/perf_probe.json` — the committed `BENCH_*.json` files are
//! copies of such records. Every per-kernel record carries the kernel
//! variant, its lane width and its instance-block size, and every record
//! carries the runtime kernel constants (the ingest worker cap), so records
//! stay self-describing. `--probe estimate` times the *estimation* path the
//! same way under both query kernels (`sketch::QueryKernel`), join and
//! range; `--probe serve` times the serving layer — router QPS vs shard count (1/2/4)
//! through `spatial-serve`'s sharded store, against the direct
//! single-sketch baseline; `--probe net` sweeps the TCP front-end
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
//! The probe harnesses themselves live in `spatial_bench::probes`.
//!
//! This CLI is the interface of the CI `perf_check` gate, which runs a
//! parent commit's `perf_probe --quick [--probe estimate|net|batchq|rebalance]`
//! and this commit's side by side and reads back each run's record: keep
//! those flags and the record fields they write stable, or the next
//! change's gate loses the rows that read them.
//!
//! Usage: cargo run --release -p spatial-bench --bin perf_probe
//!        [-- --gis | --range | --quick | --probe <estimate|serve|net|batchq|rebalance>]
//!
//! `--quick` probes only the smallest instance count (fast iteration while
//! touching the hot path).

use rand::SeedableRng;
use sketch::estimators::joins::{EndpointStrategy, SpatialJoin};
use sketch::estimators::SketchConfig;
use sketch::{par_insert_batch, BoostShape};
use spatial_bench::cli::Args;
use spatial_bench::probes::{
    batchq_probe, build_probe, estimate_probe, net_probe, rebalance_probe, serve_probe,
    BUILD_SHAPES, ESTIMATE_SHAPES, QUICK_SHAPES,
};
use spatial_bench::report::rel_error;
use spatial_bench::runner::{default_threads, shape_for_words};

fn main() {
    let args = Args::parse(&["gis", "range", "quick"]).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let threads = default_threads();
    let shapes = |full| {
        if args.has("quick") {
            QUICK_SHAPES
        } else {
            full
        }
    };

    match args.get("probe") {
        Some("estimate") => {
            estimate_probe(threads, shapes(ESTIMATE_SHAPES));
            return;
        }
        Some("serve") => {
            serve_probe(threads, args.has("quick"));
            return;
        }
        Some("net") => {
            net_probe(args.has("quick"));
            return;
        }
        Some("batchq") => {
            batchq_probe(threads, args.has("quick"));
            return;
        }
        Some("rebalance") => {
            rebalance_probe(threads, args.has("quick"));
            return;
        }
        Some(other) => {
            eprintln!(
                "unknown --probe `{other}` (supported: estimate, serve, net, batchq, rebalance)"
            );
            std::process::exit(2);
        }
        None => {}
    }

    if args.has("range") {
        use rand::Rng as _;
        use sketch::{RangeQuery, RangeStrategy};
        let bits = 14u32;
        let data: Vec<geometry::HyperRect<2>> =
            datagen::SyntheticSpec::paper(30_000, bits, 0.0, 81).generate();
        let mut qrng = rand::rngs::StdRng::seed_from_u64(83);
        let n = 1u64 << bits;
        let queries: Vec<geometry::HyperRect<2>> = (0..20)
            .map(|i| {
                let side = ((n as f64) * (0.05 + 0.01 * i as f64)) as u64;
                let x = qrng.gen_range(0..n - side - 1);
                let y = qrng.gen_range(0..n - side - 1);
                geometry::HyperRect::new([
                    geometry::Interval::new(x, x + side),
                    geometry::Interval::new(y, y + side),
                ])
            })
            .collect();
        for ml in [4u32, 5, 6, 7, 8, 9, 11, 13] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(90);
            let config = SketchConfig {
                kind: fourwise::XiKind::Bch,
                shape: BoostShape::new(240, 5),
                max_level: Some(ml),
            };
            let rq = RangeQuery::<2>::new(&mut rng, config, [bits, bits], RangeStrategy::Transform);
            let mut sk = rq.new_sketch();
            par_insert_batch(&mut sk, &data, threads).unwrap();
            let mut errs = 0.0;
            for q in &queries {
                let truth = exact::naive::range_count(&data, q) as f64;
                errs += rel_error(rq.estimate(&sk, q).unwrap().value, truth);
            }
            println!(
                "  range maxLevel {ml}: avg rel err {:.4}",
                errs / queries.len() as f64
            );
        }
        return;
    }

    if args.has("gis") {
        // maxLevel sweep on the simulated GIS join.
        let r = datagen::landc(1);
        let s = datagen::lando(1);
        let bits = datagen::GIS_DOMAIN_BITS;
        let truth = exact::rect_join_count(&r, &s) as f64;
        let shape: BoostShape = shape_for_words(2, 9025.0);
        println!("landc-lando truth {truth}, shape {}x{}", shape.k1, shape.k2);
        for ml in 4..=12u32 {
            let mut errs = Vec::new();
            for t in 0..3u64 {
                let mut rng = rand::rngs::StdRng::seed_from_u64(50 + t);
                let config = SketchConfig {
                    kind: fourwise::XiKind::Bch,
                    shape,
                    max_level: Some(ml),
                };
                let join = SpatialJoin::<2>::new(
                    &mut rng,
                    config,
                    [bits, bits],
                    EndpointStrategy::Transform,
                );
                let mut sk_r = join.new_sketch_r();
                let mut sk_s = join.new_sketch_s();
                par_insert_batch(&mut sk_r, &r, threads).unwrap();
                par_insert_batch(&mut sk_s, &s, threads).unwrap();
                errs.push(rel_error(join.estimate(&sk_r, &sk_s).unwrap().value, truth));
            }
            let avg = errs.iter().sum::<f64>() / errs.len() as f64;
            println!("  maxLevel {ml}: avg rel err {avg:.4} ({errs:?})");
        }
        return;
    }

    // Default probe: build-throughput sweep across both kernels plus one
    // exact-join timing. Each run *appends* a record to
    // results/perf_probe.json (the committed BENCH_*.json files are
    // copies of such records), so successive runs stay diffable.
    build_probe(threads, shapes(BUILD_SHAPES));
}
