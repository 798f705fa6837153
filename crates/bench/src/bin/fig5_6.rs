//! Figures 5 and 6: relative error vs dataset size under uniform (Zipf 0)
//! and skewed (Zipf 1) synthetic 2-d rectangle workloads.
//!
//! Paper setup: equal-size inputs from 30K to 500K rectangles, domain-scaled
//! extents, generalized Euler histograms at grid level 6 (~36K words), with
//! SKETCH and GH given the same space. Expected shape: for Zipf 0, SKETCH ≈
//! GH with errors well below EH; for Zipf 1 all three are comparable with
//! SKETCH marginally best; SKETCH/GH errors stay flat as size grows.
//!
//! Usage:
//!   cargo run --release -p spatial-bench --bin fig5_6 -- --zipf 0
//!     [--paper-scale] [--trials 3] [--threads N]
//!
//! Defaults are scaled down (sizes to 100K, EH level 4 ≈ 2.2K words) so the
//! run finishes in tens of seconds; `--paper-scale` restores the original
//! sizes and level-6 grids.

use datagen::SyntheticSpec;
use serde::Serialize;
use spatial_bench::cli::Args;
use spatial_bench::report::{format_num, Table};
use spatial_bench::runner::{
    default_threads, eh_join_error, gh_join_error, shape_for_words, sketch_join_error_2d,
};

#[derive(Serialize)]
struct Record {
    figure: String,
    zipf: f64,
    domain_bits: u32,
    eh_level: u32,
    words_budget: f64,
    sizes: Vec<usize>,
    sketch_err: Vec<f64>,
    eh_err: Vec<f64>,
    gh_err: Vec<f64>,
    truths: Vec<u64>,
}

fn main() {
    let args = Args::parse(&["paper-scale"], &["zipf", "trials", "threads"]);
    let zipf: f64 = args.get_or("zipf", 0.0).expect("--zipf");
    let trials: u32 = args.get_or("trials", 3).expect("--trials");
    let threads: usize = args
        .get_or("threads", default_threads())
        .expect("--threads");
    let paper = args.has("paper-scale");

    // Paper: domain-scaled extents (avg side O(sqrt(domain))), EH level 6.
    let domain_bits: u32 = 14;
    let (sizes, eh_level): (Vec<usize>, u32) = if paper {
        (vec![30_000, 100_000, 200_000, 350_000, 500_000], 6)
    } else {
        (vec![10_000, 25_000, 50_000, 75_000, 100_000], 4)
    };
    let words = histograms::EulerHistogram::words_at_level(eh_level) as f64;
    let gh_level = spatial_bench::runner::gh_level_for_words(words, domain_bits)
        .expect("GH level within budget");

    let fig = if zipf == 0.0 { "fig5" } else { "fig6" };
    println!(
        "# {} — relative error vs dataset size (zipf = {zipf})",
        fig.to_uppercase()
    );
    println!(
        "# space budget per dataset: {words} words (EH level {eh_level}, GH level {gh_level}, SKETCH {} instances)",
        shape_for_words(2, words).instances()
    );

    let mut table = Table::new(
        format!("{fig}: relative error vs dataset size (zipf={zipf})"),
        &["size", "truth", "SKETCH", "EH", "GH"],
    );
    let mut rec = Record {
        figure: fig.into(),
        zipf,
        domain_bits,
        eh_level,
        words_budget: words,
        sizes: sizes.clone(),
        sketch_err: vec![],
        eh_err: vec![],
        gh_err: vec![],
        truths: vec![],
    };

    for (i, &n) in sizes.iter().enumerate() {
        let r: Vec<geometry::HyperRect<2>> =
            SyntheticSpec::paper(n, domain_bits, zipf, 100 + i as u64).generate();
        let s: Vec<geometry::HyperRect<2>> =
            SyntheticSpec::paper(n, domain_bits, zipf, 200 + i as u64).generate();
        let truth = exact::rect_join_count(&r, &s);
        let truth_f = truth as f64;
        let sk = sketch_join_error_2d(
            &r,
            &s,
            truth_f,
            domain_bits,
            words,
            trials,
            7 + i as u64,
            threads,
        );
        let eh = eh_join_error(&r, &s, truth_f, domain_bits, eh_level);
        let gh = gh_join_error(&r, &s, truth_f, domain_bits, gh_level);
        table.push_row(vec![
            n.to_string(),
            truth.to_string(),
            format_num(sk),
            format_num(eh),
            format_num(gh),
        ]);
        rec.sketch_err.push(sk);
        rec.eh_err.push(eh);
        rec.gh_err.push(gh);
        rec.truths.push(truth);
        eprintln!("  size {n}: truth {truth}, SKETCH {sk:.4}, EH {eh:.4}, GH {gh:.4}");
    }

    table.print();
    let csv = table.write_csv(fig);
    let json = spatial_bench::report::write_json(fig, &rec);
    println!("wrote {} and {}", csv.display(), json.display());
}
