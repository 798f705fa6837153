//! Ablation A8: the Appendix B predicates — extended joins (`overlap+`) and
//! containment joins.
//!
//! The workload is lattice-aligned so touching pairs are common (making
//! `⋈+_o` visibly larger than `⋈_o`) and containment pairs plentiful.
//!
//! Usage: cargo run --release -p spatial-bench --bin other_predicates
//!   [-- --size 8000] [--trials 3] [--threads N]

use geometry::{HyperRect, Interval};
use rand::Rng as _;
use rand::SeedableRng;
use serde::Serialize;
use sketch::estimators::SketchConfig;
use sketch::{
    par_insert_batch, plan, BoostShape, IntervalContainment, OverlapPlusJoin, RectContainment,
};
use spatial_bench::cli::Args;
use spatial_bench::report::{format_num, rel_error, write_json, Table};
use spatial_bench::runner::{default_threads, mean_sketch_extent};

#[derive(Serialize)]
struct Record {
    size: usize,
    overlap_plus_truth: u64,
    overlap_plus_err: f64,
    strict_truth: u64,
    containment_1d_truth: u64,
    containment_1d_err: f64,
    containment_2d_truth: u64,
    containment_2d_err: f64,
}

fn lattice_rects(n: usize, bits: u32, grid: u64, seed: u64) -> Vec<HyperRect<2>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let cells = (1u64 << bits) / grid;
    (0..n)
        .map(|_| {
            let x = rng.gen_range(0..cells - 4) * grid;
            let y = rng.gen_range(0..cells - 4) * grid;
            let w = rng.gen_range(1..=4u64) * grid;
            let h = rng.gen_range(1..=4u64) * grid;
            HyperRect::new([Interval::new(x, x + w), Interval::new(y, y + h)])
        })
        .collect()
}

fn main() {
    let args = Args::parse(&[], &["size", "trials", "threads"]);
    let size: usize = args.get_or("size", 8_000).expect("--size");
    let trials: u32 = args.get_or("trials", 3).expect("--trials");
    let threads: usize = args
        .get_or("threads", default_threads())
        .expect("--threads");

    let bits = 12u32;
    let r = lattice_rects(size, bits, 128, 131);
    let s = lattice_rects(size, bits, 128, 132);
    let shape = BoostShape::new(400, 5);
    let max_level = plan::adaptive_max_level(mean_sketch_extent(&[&r, &s]), bits + 2);
    let config = SketchConfig {
        shape,
        max_level: Some(max_level),
    };

    println!("# A8 — Appendix B predicates (size {size}, lattice-aligned)");
    let mut table = Table::new(
        "extended and containment joins",
        &["predicate", "truth", "mean estimate", "rel err"],
    );

    // overlap+ join (Appendix B.1).
    let plus_truth = exact::naive::join_plus_count(&r, &s);
    let strict_truth = exact::rect_join_count(&r, &s);
    let mut est_sum = 0.0;
    for t in 0..trials {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11_000 + 5 * t as u64);
        let join = OverlapPlusJoin::<2>::new(&mut rng, config, [bits, bits]);
        let mut sk_r = join.new_sketch_r();
        let mut sk_s = join.new_sketch_s();
        par_insert_batch(&mut sk_r, &r, threads).expect("R");
        par_insert_batch(&mut sk_s, &s, threads).expect("S");
        est_sum += join.estimate(&sk_r, &sk_s).expect("estimate").value;
    }
    let plus_est = est_sum / trials as f64;
    let plus_err = rel_error(plus_est, plus_truth as f64);
    table.push_row(vec![
        "overlap+ (B.1)".into(),
        plus_truth.to_string(),
        format_num(plus_est),
        format_num(plus_err),
    ]);
    eprintln!(
        "  overlap+: truth {plus_truth} (strict {strict_truth}), estimate {plus_est:.0}, err {plus_err:.4}"
    );

    // 1-d containment join (Appendix B.2) on the x-projections.
    let r_iv: Vec<Interval> = r.iter().map(|x| x.range(0)).collect();
    let s_iv: Vec<Interval> = s.iter().map(|x| x.range(0)).collect();
    let c1_truth = exact::interval_containment_count(&r_iv, &s_iv);
    let mut est_sum = 0.0;
    for t in 0..trials {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12_000 + 5 * t as u64);
        let est = IntervalContainment::new(&mut rng, config, bits);
        let mut outer = est.new_sketch_outer();
        let mut inner = est.new_sketch_inner();
        for iv in &r_iv {
            est.insert_outer(&mut outer, iv).expect("outer");
        }
        for iv in &s_iv {
            est.insert_inner(&mut inner, iv).expect("inner");
        }
        est_sum += est.estimate(&outer, &inner).expect("estimate").value;
    }
    let c1_est = est_sum / trials as f64;
    let c1_err = rel_error(c1_est, c1_truth as f64);
    table.push_row(vec![
        "containment 1-d (B.2)".into(),
        c1_truth.to_string(),
        format_num(c1_est),
        format_num(c1_err),
    ]);
    eprintln!("  containment 1-d: truth {c1_truth}, estimate {c1_est:.0}, err {c1_err:.4}");

    // 2-d containment join.
    let c2_truth = exact::containment_count(&r, &s);
    let mut est_sum = 0.0;
    for t in 0..trials {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13_000 + 5 * t as u64);
        let est = RectContainment::new(&mut rng, config, bits);
        let mut outer = est.new_sketch_outer();
        let mut inner = est.new_sketch_inner();
        for x in &r {
            est.insert_outer(&mut outer, x).expect("outer");
        }
        for x in &s {
            est.insert_inner(&mut inner, x).expect("inner");
        }
        est_sum += est.estimate(&outer, &inner).expect("estimate").value;
    }
    let c2_est = est_sum / trials as f64;
    let c2_err = rel_error(c2_est, c2_truth as f64);
    table.push_row(vec![
        "containment 2-d (B.2)".into(),
        c2_truth.to_string(),
        format_num(c2_est),
        format_num(c2_err),
    ]);
    eprintln!("  containment 2-d: truth {c2_truth}, estimate {c2_est:.0}, err {c2_err:.4}");

    table.print();
    table.write_csv("other_predicates");
    let rec = Record {
        size,
        overlap_plus_truth: plus_truth,
        overlap_plus_err: plus_err,
        strict_truth,
        containment_1d_truth: c1_truth,
        containment_1d_err: c1_err,
        containment_2d_truth: c2_truth,
        containment_2d_err: c2_err,
    };
    let json = write_json("other_predicates", &rec);
    println!("wrote {}", json.display());
}
