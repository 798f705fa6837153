//! Ablation A4: handling common endpoints — Assumption 1 raw estimator vs
//! the Section 5.2 transform vs the Appendix C corrective sketches.
//!
//! The workload deliberately violates Assumption 1: a fraction of `S` is
//! copied verbatim from `R` (identical rectangles, Figure 3 case (6)) and
//! the rest is snapped to a coarse lattice so endpoint collisions abound.
//! Expected shape: the raw estimator carries a visible bias; Transform and
//! Appendix C agree with the truth, with Appendix C needing more atomic
//! sketches (4^d words vs 2^d) for the same instance count.
//!
//! Usage: cargo run --release -p spatial-bench --bin endpoint_strategies
//!   [-- --size 10000] [--trials 5] [--threads N]

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

#[derive(Serialize)]
struct Record {
    size: usize,
    truth: u64,
    strategies: Vec<String>,
    mean_estimate: Vec<f64>,
    rel_err: Vec<f64>,
    words_per_instance: Vec<usize>,
}

fn lattice_rects(n: usize, bits: u32, grid: u64, seed: u64) -> Vec<HyperRect<2>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let cells = (1u64 << bits) / grid;
    (0..n)
        .map(|_| {
            let x = rng.gen_range(0..cells - 3) * grid;
            let y = rng.gen_range(0..cells - 3) * grid;
            let w = rng.gen_range(1..=3u64) * grid;
            let h = rng.gen_range(1..=3u64) * grid;
            HyperRect::new([Interval::new(x, x + w), Interval::new(y, y + h)])
        })
        .collect()
}

fn main() {
    let args = Args::parse(&[], &["size", "trials", "threads"]);
    let size: usize = args.get_or("size", 10_000).expect("--size");
    let trials: u32 = args.get_or("trials", 5).expect("--trials");
    let threads: usize = args
        .get_or("threads", default_threads())
        .expect("--threads");

    let bits = 12u32;
    let r = lattice_rects(size, bits, 64, 91);
    let mut s = lattice_rects(size * 7 / 10, bits, 64, 92);
    s.extend_from_slice(&r[..size * 3 / 10]); // verbatim copies: case (6) pairs
    let truth = exact::rect_join_count(&r, &s);
    let truth_f = truth as f64;
    let shape = BoostShape::new(300, 5);
    let max_level = plan::adaptive_max_level(mean_sketch_extent(&[&r, &s]), bits + 2);

    println!(
        "# A4 — endpoint strategies on a lattice workload (size {size}, truth {truth}, {} identical pairs forced)",
        size * 3 / 10
    );
    let mut table = Table::new(
        "endpoint strategies: bias under shared endpoints",
        &[
            "strategy",
            "mean estimate",
            "truth",
            "rel err",
            "words/inst (R)",
        ],
    );
    let mut rec = Record {
        size,
        truth,
        strategies: vec![],
        mean_estimate: vec![],
        rel_err: vec![],
        words_per_instance: vec![],
    };

    for (name, strategy) in [
        ("AssumeDistinct", EndpointStrategy::AssumeDistinct),
        ("Transform (5.2)", EndpointStrategy::Transform),
        ("Appendix C", EndpointStrategy::CorrectCommon),
    ] {
        let mut est_sum = 0.0;
        let mut words = 0usize;
        for t in 0..trials {
            let mut rng = rand::rngs::StdRng::seed_from_u64(9000 + 31 * t as u64);
            let config = SketchConfig {
                shape,
                max_level: Some(max_level),
            };
            let join = SpatialJoin::<2>::new(&mut rng, config, [bits, bits], strategy);
            let mut sk_r = join.new_sketch_r();
            let mut sk_s = join.new_sketch_s();
            par_insert_batch(&mut sk_r, &r, threads).expect("R");
            par_insert_batch(&mut sk_s, &s, threads).expect("S");
            words = sk_r.words().len();
            est_sum += join.estimate(&sk_r, &sk_s).expect("estimate").value;
        }
        let mean_est = est_sum / trials as f64;
        let err = rel_error(mean_est, truth_f);
        table.push_row(vec![
            name.to_string(),
            format_num(mean_est),
            truth.to_string(),
            format_num(err),
            words.to_string(),
        ]);
        rec.strategies.push(name.to_string());
        rec.mean_estimate.push(mean_est);
        rec.rel_err.push(err);
        rec.words_per_instance.push(words);
        eprintln!("  {name}: mean estimate {mean_est:.0} vs truth {truth} (err {err:.4})");
    }

    table.print();
    table.write_csv("endpoint_strategies");
    let json = write_json("endpoint_strategies", &rec);
    println!("wrote {}", json.display());
}
