//! Ablation A1: the Section 6.5 `maxLevel` tradeoff.
//!
//! Sweeps the dyadic truncation level for a fixed word budget on a
//! short-interval workload and reports self-join sizes, relative error and
//! update cost. Expected shape: error is minimized near
//! `maxLevel ≈ log2(mean extent)`; the untruncated sketch (maxLevel =
//! domain bits) suffers from the endpoint sketches' `Θ(N²)` self-join mass;
//! maxLevel = 0 (the paper's "standard sketch") pays `O(length)` updates.
//!
//! Usage: cargo run --release -p spatial-bench --bin ablation_maxlevel
//!   [-- --size 20000] [--trials 3] [--threads N]

use datagen::SyntheticSpec;
use geometry::HyperRect;
use rand::SeedableRng;
use serde::Serialize;
use sketch::estimators::joins::{EndpointStrategy, SpatialJoin};
use sketch::estimators::SketchConfig;
use sketch::{par_insert_batch, plan, selfjoin, BoostShape, DimSpec, EndpointPolicy};
use spatial_bench::cli::Args;
use spatial_bench::report::{format_num, rel_error, write_json, Table};
use spatial_bench::runner::{default_threads, mean_sketch_extent, shape_for_words};
use std::time::Instant;

#[derive(Serialize)]
struct Record {
    size: usize,
    adaptive_level: u32,
    levels: Vec<u32>,
    rel_err: Vec<f64>,
    sj_r: Vec<f64>,
    build_ms: Vec<f64>,
}

fn main() {
    let args = Args::parse(&[], &["size", "trials", "threads"]);
    let size: usize = args.get_or("size", 20_000).expect("--size");
    let trials: u32 = args.get_or("trials", 3).expect("--trials");
    let threads: usize = args
        .get_or("threads", default_threads())
        .expect("--threads");

    let bits = 14u32;
    let sketch_bits = bits + 2;
    let r: Vec<HyperRect<2>> = SyntheticSpec::paper(size, bits, 0.0, 61).generate();
    let s: Vec<HyperRect<2>> = SyntheticSpec::paper(size, bits, 0.0, 62).generate();
    let truth = exact::rect_join_count(&r, &s) as f64;
    let shape: BoostShape = shape_for_words(2, 2209.0);
    let adaptive = plan::adaptive_max_level(mean_sketch_extent(&[&r, &s]), sketch_bits);

    println!("# A1 — maxLevel ablation (size {size}, truth {truth}, adaptive level {adaptive})");
    let mut table = Table::new(
        "maxLevel ablation: relative error, SJ(R), build time",
        &["maxLevel", "rel err", "SJ(R)", "build ms"],
    );
    let mut rec = Record {
        size,
        adaptive_level: adaptive,
        levels: vec![],
        rel_err: vec![],
        sj_r: vec![],
        build_ms: vec![],
    };

    // Level 0 is the standard sketch: per-coordinate updates over extents of
    // ~sqrt(domain)*3 coordinates — measurably slow, which is the point.
    let levels: Vec<u32> = (2..=sketch_bits).step_by(2).collect();
    for &ml in &levels {
        let dims = [DimSpec::with_max_level(sketch_bits, ml); 2];
        let sj_r =
            selfjoin::exact_self_join(&r, &dims, EndpointPolicy::Tripled, &sketch::ie_words::<2>())
                as f64;
        let mut err_sum = 0.0;
        let mut build_ms = 0.0;
        for t in 0..trials {
            let mut rng = rand::rngs::StdRng::seed_from_u64(70 + 13 * t as u64);
            let config = SketchConfig {
                shape,
                max_level: Some(ml),
            };
            let join =
                SpatialJoin::<2>::new(&mut rng, config, [bits, bits], EndpointStrategy::Transform);
            let mut sk_r = join.new_sketch_r();
            let mut sk_s = join.new_sketch_s();
            let t0 = Instant::now();
            par_insert_batch(&mut sk_r, &r, threads).expect("build R");
            par_insert_batch(&mut sk_s, &s, threads).expect("build S");
            build_ms += t0.elapsed().as_secs_f64() * 1000.0;
            err_sum += rel_error(join.estimate(&sk_r, &sk_s).expect("estimate").value, truth);
        }
        let err = err_sum / trials as f64;
        let build = build_ms / trials as f64;
        table.push_row(vec![
            ml.to_string(),
            format_num(err),
            format!("{sj_r:.3e}"),
            format_num(build),
        ]);
        rec.levels.push(ml);
        rec.rel_err.push(err);
        rec.sj_r.push(sj_r);
        rec.build_ms.push(build);
        eprintln!("  maxLevel {ml}: err {err:.4}, SJ(R) {sj_r:.3e}, build {build:.0} ms");
    }

    table.print();
    table.write_csv("ablation_maxlevel");
    let json = write_json("ablation_maxlevel", &rec);
    println!(
        "adaptive choice would be maxLevel = {adaptive}; wrote {}",
        json.display()
    );
}
