//! Figures 7 and 8: error guarantees and space requirements.
//!
//! Paper setup: 1-d interval joins of uniform data over domains 16384-65536,
//! guarantee ε = 0.3 at 99% confidence (φ = 0.01). The sketch is sized by
//! Theorem 1 from the self-join sizes and an `E[Z]` sanity bound. Expected
//! shape (Figures 7-8): the *actual* relative error sits far below the
//! guaranteed 0.3, and the required space stays nearly flat as the dataset
//! grows (the object distribution, not the cardinality, drives it).
//!
//! Usage:
//!   cargo run --release -p spatial-bench --bin fig7_8 [-- --paper-scale]
//!     [--epsilon 0.3] [--phi 0.01] [--threads N]

use datagen::uniform_intervals;
use geometry::HyperRect;
use serde::Serialize;
use sketch::estimators::joins::{EndpointStrategy, SpatialJoin};
use sketch::estimators::SketchConfig;
use sketch::{par_insert_batch, plan, selfjoin, EndpointPolicy};
use spatial_bench::cli::Args;
use spatial_bench::report::{format_num, rel_error, write_json, Table};
use spatial_bench::runner::default_threads;

#[derive(Serialize)]
struct Record {
    epsilon: f64,
    phi: f64,
    sizes: Vec<usize>,
    domain_bits: Vec<u32>,
    actual_err: Vec<f64>,
    guaranteed: f64,
    dataset_words: Vec<f64>,
    instances: Vec<usize>,
    truths: Vec<u64>,
}

fn main() {
    let args = Args::parse(&["paper-scale"], &["epsilon", "phi", "threads"]);
    let epsilon: f64 = args.get_or("epsilon", 0.3).expect("--epsilon");
    let phi: f64 = args.get_or("phi", 0.01).expect("--phi");
    let threads: usize = args
        .get_or("threads", default_threads())
        .expect("--threads");
    let paper = args.has("paper-scale");

    // Domain grows with the dataset, like the paper's 16384..65536 sweep.
    let points: Vec<(usize, u32)> = if paper {
        vec![(30_000, 14), (100_000, 14), (250_000, 15), (500_000, 16)]
    } else {
        vec![(10_000, 14), (25_000, 14), (50_000, 15), (100_000, 16)]
    };
    let guarantee = plan::Guarantee::new(epsilon, phi).expect("valid guarantee");

    println!("# FIG7/8 — guaranteed vs actual error, and space, for 1-d interval joins");
    let mut t7 = Table::new(
        format!("fig7: actual relative error vs dataset size (eps={epsilon}, phi={phi})"),
        &["size", "domain", "truth", "actual err", "guaranteed"],
    );
    let mut t8 = Table::new(
        "fig8: sketch space vs dataset size (words per dataset)",
        &[
            "size",
            "instances",
            "k1",
            "k2",
            "words/dataset",
            "dataset words (2N)",
        ],
    );
    let mut rec = Record {
        epsilon,
        phi,
        sizes: vec![],
        domain_bits: vec![],
        actual_err: vec![],
        guaranteed: epsilon,
        dataset_words: vec![],
        instances: vec![],
        truths: vec![],
    };

    for (i, &(n, bits)) in points.iter().enumerate() {
        let mean_len = ((1u64 << bits) as f64).sqrt();
        let r_iv = uniform_intervals(n, bits, mean_len, 400 + i as u64);
        let s_iv = uniform_intervals(n, bits, mean_len, 500 + i as u64);
        let r: Vec<HyperRect<1>> = r_iv.iter().map(|&iv| iv.into()).collect();
        let s: Vec<HyperRect<1>> = s_iv.iter().map(|&iv| iv.into()).collect();
        let truth = exact::interval_join_count(&r_iv, &s_iv);

        // Section 6.5 adaptive maxLevel on the tripled domain.
        let sketch_bits = bits + 2;
        let mean_extent = 3.0 * mean_len;
        let max_level = plan::adaptive_max_level(mean_extent, sketch_bits);
        let dims = [sketch::DimSpec::with_max_level(sketch_bits, max_level)];

        // Theorem 1 sizing from exact self-join sizes and a sanity bound of
        // half the true expectation (the paper: "use historic data ... to
        // predict future values of E[Z]").
        let sj_r =
            selfjoin::exact_self_join(&r, &dims, EndpointPolicy::Tripled, &sketch::ie_words::<1>())
                as f64;
        let sj_s = selfjoin::exact_self_join(
            &s,
            &dims,
            EndpointPolicy::TripledShrunk,
            &sketch::ie_words::<1>(),
        ) as f64;
        let ez_lower = 0.5 * truth as f64;
        let shape = plan::join_shape(guarantee, 1, sj_r, sj_s, ez_lower).expect("plan");

        use rand::SeedableRng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(900 + i as u64);
        let config = SketchConfig {
            shape,
            max_level: Some(max_level),
        };
        let join = SpatialJoin::<1>::new(&mut rng, config, [bits], EndpointStrategy::Transform);
        let mut sk_r = join.new_sketch_r();
        let mut sk_s = join.new_sketch_s();
        par_insert_batch(&mut sk_r, &r, threads).expect("build R");
        par_insert_batch(&mut sk_s, &s, threads).expect("build S");
        let est = join.estimate(&sk_r, &sk_s).expect("estimate").value;
        let err = rel_error(est, truth as f64);
        let words = plan::dataset_words(1, shape.instances());

        t7.push_row(vec![
            n.to_string(),
            (1u64 << bits).to_string(),
            truth.to_string(),
            format_num(err),
            format_num(epsilon),
        ]);
        t8.push_row(vec![
            n.to_string(),
            shape.instances().to_string(),
            shape.k1.to_string(),
            shape.k2.to_string(),
            format_num(words),
            format_num(2.0 * n as f64),
        ]);
        rec.sizes.push(n);
        rec.domain_bits.push(bits);
        rec.actual_err.push(err);
        rec.dataset_words.push(words);
        rec.instances.push(shape.instances());
        rec.truths.push(truth);
        eprintln!(
            "  size {n} (2^{bits}): truth {truth}, err {err:.4} (<= {epsilon}), {} instances, {words:.0} words",
            shape.instances()
        );
    }

    t7.print();
    t8.print();
    t7.write_csv("fig7");
    t8.write_csv("fig8");
    let json = write_json("fig7_8", &rec);
    println!("wrote results CSVs and {}", json.display());
}
