//! Ablation A5: the curse of dimensionality (Section 6.1).
//!
//! Runs the hyper-rectangle join estimator for d = 1..4 at a fixed
//! per-dataset word budget and reports error, atomic-sketch count and
//! update cost. Expected shape: the number of atomic sketches per instance
//! doubles per dimension (2^d), self-join mass grows, and accuracy at fixed
//! space degrades — "our technique suffers from the curse of
//! dimensionality, like any other estimation or indexing technique".
//!
//! Usage: cargo run --release -p spatial-bench --bin dimensionality
//!   [-- --size 10000] [--trials 3] [--threads N]

use geometry::{HyperRect, Interval};
use rand::Rng as _;
use rand::SeedableRng;
use serde::Serialize;
use sketch::estimators::joins::{EndpointStrategy, SpatialJoin};
use sketch::estimators::SketchConfig;
use sketch::{par_insert_batch, plan, BoostShape};
use spatial_bench::cli::Args;
use spatial_bench::report::{format_num, rel_error, write_json, Table};
use spatial_bench::runner::{default_threads, mean_sketch_extent};
use std::time::Instant;

fn gen_rects<const D: usize>(n: usize, bits: u32, mean_len: u64, seed: u64) -> Vec<HyperRect<D>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let domain = 1u64 << bits;
    (0..n)
        .map(|_| {
            let mut ranges = [Interval::point(0); D];
            for r in ranges.iter_mut() {
                let lo = rng.gen_range(0..domain - mean_len - 1);
                let len = rng.gen_range(1..=2 * mean_len);
                *r = Interval::new(lo, (lo + len).min(domain - 1));
            }
            HyperRect::new(ranges)
        })
        .collect()
}

#[derive(Serialize)]
struct Row {
    d: u32,
    truth: u64,
    rel_err: f64,
    instances: usize,
    words_per_instance: usize,
    build_ms: f64,
}

fn run_dim<const D: usize>(
    n: usize,
    bits: u32,
    words_budget: f64,
    trials: u32,
    threads: usize,
) -> Row {
    let mean_len = (1u64 << (bits / 2)).max(2);
    let r: Vec<HyperRect<D>> = gen_rects(n, bits, mean_len, 110 + D as u64);
    let s: Vec<HyperRect<D>> = gen_rects(n, bits, mean_len, 120 + D as u64);
    let truth = exact::nd_join_count(&r, &s);
    let truth_f = truth as f64;
    let instances = plan::instances_for_dataset_words(D as u32, words_budget).max(5);
    let k2 = 5;
    let shape = BoostShape::new((instances / k2).max(1), k2);
    let max_level = plan::adaptive_max_level(mean_sketch_extent(&[&r, &s]), bits + 2);

    let mut err_sum = 0.0;
    let mut build_ms = 0.0;
    let mut words_per_instance = 0;
    for t in 0..trials {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10_000 + 7 * t as u64 + D as u64);
        let config = SketchConfig {
            shape,
            max_level: Some(max_level),
        };
        let join = SpatialJoin::<D>::new(&mut rng, config, [bits; D], EndpointStrategy::Transform);
        let mut sk_r = join.new_sketch_r();
        let mut sk_s = join.new_sketch_s();
        let t0 = Instant::now();
        par_insert_batch(&mut sk_r, &r, threads).expect("R");
        par_insert_batch(&mut sk_s, &s, threads).expect("S");
        build_ms += t0.elapsed().as_secs_f64() * 1000.0;
        words_per_instance = sk_r.words().len();
        err_sum += rel_error(
            join.estimate(&sk_r, &sk_s).expect("estimate").value,
            truth_f,
        );
    }
    Row {
        d: D as u32,
        truth,
        rel_err: err_sum / trials as f64,
        instances: shape.instances(),
        words_per_instance,
        build_ms: build_ms / trials as f64,
    }
}

fn main() {
    let args = Args::parse(&[], &["size", "trials", "threads"]);
    let size: usize = args.get_or("size", 10_000).expect("--size");
    let trials: u32 = args.get_or("trials", 3).expect("--trials");
    let threads: usize = args
        .get_or("threads", default_threads())
        .expect("--threads");

    let bits = 10u32;
    let words = 4000.0;
    println!("# A5 — dimensionality (size {size}, domain 2^{bits}, {words} words/dataset)");
    let mut table = Table::new(
        "curse of dimensionality: join accuracy at fixed space",
        &[
            "d",
            "truth",
            "rel err",
            "instances",
            "2^d words/inst",
            "build ms",
        ],
    );
    let rows = vec![
        run_dim::<1>(size, bits, words, trials, threads),
        run_dim::<2>(size, bits, words, trials, threads),
        run_dim::<3>(size, bits, words, trials, threads),
        run_dim::<4>(size, bits, words, trials, threads),
    ];
    for row in &rows {
        table.push_row(vec![
            row.d.to_string(),
            row.truth.to_string(),
            format_num(row.rel_err),
            row.instances.to_string(),
            row.words_per_instance.to_string(),
            format_num(row.build_ms),
        ]);
        eprintln!(
            "  d={}: truth {}, err {:.4}, {} instances x {} words, build {:.0} ms",
            row.d, row.truth, row.rel_err, row.instances, row.words_per_instance, row.build_ms
        );
    }
    table.print();
    table.write_csv("dimensionality");
    let json = write_json("dimensionality", &rows);
    println!("wrote {}", json.display());
}
