//! Ablation A2: ε-join estimator accuracy (Section 6.3) vs ε and space.
//!
//! Uniform 2-d point sets; for each ε the estimator sketches `A` as points
//! and `B` as ε-cubes, and we report relative error against the exact
//! grid-hash join for several instance budgets.
//!
//! Usage: cargo run --release -p spatial-bench --bin eps_join_accuracy
//!   [-- --size 20000] [--trials 3] [--threads N]

use datagen::uniform_points;
use geometry::HyperRect;
use rand::SeedableRng;
use serde::Serialize;
use sketch::estimators::SketchConfig;
use sketch::{par_insert_batch, BoostShape, EpsJoin};
use spatial_bench::cli::Args;
use spatial_bench::report::{format_num, rel_error, write_json, Table};
use spatial_bench::runner::default_threads;

#[derive(Serialize)]
struct Record {
    size: usize,
    eps_values: Vec<u64>,
    instance_budgets: Vec<usize>,
    rel_err: Vec<Vec<f64>>, // [eps][budget]
    truths: Vec<u64>,
}

fn main() {
    let args = Args::parse(&[], &["size", "trials", "threads"]);
    let size: usize = args.get_or("size", 20_000).expect("--size");
    let trials: u32 = args.get_or("trials", 3).expect("--trials");
    let threads: usize = args
        .get_or("threads", default_threads())
        .expect("--threads");

    let bits = 12u32;
    let a_pts: Vec<[u64; 2]> = uniform_points(size, bits, 71);
    let b_pts: Vec<[u64; 2]> = uniform_points(size, bits, 72);
    let eps_values = [4u64, 16, 64, 128];
    let budgets = [125usize, 500, 2000];

    println!("# A2 — eps-join accuracy (|A| = |B| = {size}, domain 2^{bits})");
    let mut table = Table::new(
        "eps-join relative error vs eps and instances",
        &["eps", "truth", "inst=125", "inst=500", "inst=2000"],
    );
    let mut rec = Record {
        size,
        eps_values: eps_values.to_vec(),
        instance_budgets: budgets.to_vec(),
        rel_err: vec![],
        truths: vec![],
    };

    for (ei, &eps) in eps_values.iter().enumerate() {
        let truth = exact::eps_join_count(&a_pts, &b_pts, eps);
        let truth_f = truth as f64;
        let mut row = vec![eps.to_string(), truth.to_string()];
        let mut errs = Vec::new();
        for (bi, &instances) in budgets.iter().enumerate() {
            let k2 = 5;
            let shape = BoostShape::new((instances / k2).max(1), k2);
            let mut err_sum = 0.0;
            for t in 0..trials {
                let mut rng = rand::rngs::StdRng::seed_from_u64(
                    4000 + 97 * t as u64 + 7 * (ei + 11 * bi) as u64,
                );
                // Section 6.5 applies to the ε-join too: truncate near the
                // cube extent (2ε) so point covers stop sharing high levels.
                let max_level = sketch::plan::adaptive_max_level(2.0 * eps as f64, bits);
                let config = SketchConfig {
                    shape,
                    max_level: Some(max_level),
                };
                let est = EpsJoin::<2>::new(&mut rng, config, bits, eps);
                let mut a = est.new_sketch_a();
                let mut b = est.new_sketch_b();
                let a_rects: Vec<HyperRect<2>> =
                    a_pts.iter().map(|p| HyperRect::from_point(*p)).collect();
                par_insert_batch(&mut a, &a_rects, threads).expect("A sketch");
                let b_rects: Vec<HyperRect<2>> = b_pts
                    .iter()
                    .map(|p| geometry::distance::linf_cube(p, eps, (1u64 << bits) - 1))
                    .collect();
                par_insert_batch(&mut b, &b_rects, threads).expect("B sketch");
                err_sum += rel_error(est.estimate(&a, &b).expect("estimate").value, truth_f);
            }
            let err = err_sum / trials as f64;
            row.push(format_num(err));
            errs.push(err);
        }
        eprintln!("  eps {eps}: truth {truth}, errors {errs:?}");
        table.push_row(row);
        rec.rel_err.push(errs);
        rec.truths.push(truth);
    }

    table.print();
    table.write_csv("eps_join_accuracy");
    let json = write_json("eps_join_accuracy", &rec);
    println!("wrote {}", json.display());
}
