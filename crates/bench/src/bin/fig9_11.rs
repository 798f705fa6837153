//! Figures 9, 10, 11: relative error vs allocated space on the real-life
//! GIS joins — LANDC ⋈ LANDO, LANDC ⋈ SOIL, LANDO ⋈ SOIL.
//!
//! The Wyoming datasets are not redistributable; `datagen::gis` generates
//! clustered stand-ins with the paper's cardinalities (see DESIGN.md).
//! Expected shape: SKETCH error declines steadily with space; GH is
//! competitive only at larger budgets; EH is good at small budgets but
//! *worsens* unpredictably as the grid refines.
//!
//! Usage:
//!   cargo run --release -p spatial-bench --bin fig9_11
//!     [-- --pair landc-lando|landc-soil|lando-soil|all]
//!     [--paper-scale] [--trials 2] [--threads N] [--seed 1]

use geometry::HyperRect;
use serde::Serialize;
use spatial_bench::cli::Args;
use spatial_bench::report::{format_num, write_json, Table};
use spatial_bench::runner::{
    default_threads, eh_join_error, eh_level_for_words, gh_join_error, gh_level_for_words,
    sketch_join_error_2d,
};

#[derive(Serialize)]
struct PairRecord {
    pair: String,
    truth: u64,
    budgets: Vec<f64>,
    sketch_err: Vec<f64>,
    eh_err: Vec<Option<f64>>,
    gh_err: Vec<Option<f64>>,
}

fn dataset(name: &str, seed: u64) -> Vec<HyperRect<2>> {
    match name {
        "lando" => datagen::lando(seed),
        "landc" => datagen::landc(seed),
        "soil" => datagen::soil(seed),
        other => panic!("unknown dataset {other}"),
    }
}

fn run_pair(pair: &str, budgets: &[f64], trials: u32, threads: usize, seed: u64) -> PairRecord {
    let (a_name, b_name) = pair.split_once('-').expect("pair format a-b");
    let r = dataset(a_name, seed);
    let s = dataset(b_name, seed);
    let bits = datagen::GIS_DOMAIN_BITS;
    let truth = exact::rect_join_count(&r, &s);
    let truth_f = truth as f64;
    println!(
        "# {pair}: |R| = {}, |S| = {}, true join = {truth} (selectivity {:.2e})",
        r.len(),
        s.len(),
        truth_f / (r.len() as f64 * s.len() as f64)
    );

    let mut table = Table::new(
        format!("relative error vs space for {pair}"),
        &["words", "SKETCH", "EH", "GH"],
    );
    let mut rec = PairRecord {
        pair: pair.into(),
        truth,
        budgets: budgets.to_vec(),
        sketch_err: vec![],
        eh_err: vec![],
        gh_err: vec![],
    };
    for (i, &words) in budgets.iter().enumerate() {
        let sk = sketch_join_error_2d(
            &r,
            &s,
            truth_f,
            bits,
            words,
            trials,
            seed + 31 * i as u64,
            threads,
        );
        let eh = eh_level_for_words(words, bits).map(|l| eh_join_error(&r, &s, truth_f, bits, l));
        let gh = gh_level_for_words(words, bits).map(|l| gh_join_error(&r, &s, truth_f, bits, l));
        table.push_row(vec![
            format_num(words),
            format_num(sk),
            eh.map(format_num).unwrap_or_else(|| "-".into()),
            gh.map(format_num).unwrap_or_else(|| "-".into()),
        ]);
        rec.sketch_err.push(sk);
        rec.eh_err.push(eh);
        rec.gh_err.push(gh);
        eprintln!(
            "  {pair} @ {words:.0} words: SKETCH {sk:.4}, EH {}, GH {}",
            eh.map(|v| format!("{v:.4}")).unwrap_or_else(|| "-".into()),
            gh.map(|v| format!("{v:.4}")).unwrap_or_else(|| "-".into()),
        );
    }
    table.print();
    table.write_csv(&format!("fig9_11_{pair}"));
    rec
}

fn main() {
    let args = Args::parse(&["paper-scale"], &["pair", "trials", "threads", "seed"]);
    let pair = args.get("pair").unwrap_or("all").to_string();
    let trials: u32 = args.get_or("trials", 2).expect("--trials");
    let threads: usize = args
        .get_or("threads", default_threads())
        .expect("--threads");
    let seed: u64 = args.get_or("seed", 1).expect("--seed");
    let paper = args.has("paper-scale");

    // Word budgets per dataset, chosen at the EH/GH level boundaries like
    // the paper's 0..40K-word x-axis.
    let budgets: Vec<f64> = if paper {
        vec![529.0, 1024.0, 2209.0, 4096.0, 9025.0, 16384.0, 36481.0]
    } else {
        vec![529.0, 1024.0, 2209.0, 4096.0, 9025.0]
    };

    println!("# FIG9-11 — error vs space on simulated Wyoming GIS joins");
    let pairs: Vec<&str> = match pair.as_str() {
        "all" => vec!["landc-lando", "landc-soil", "lando-soil"],
        p => vec![p],
    };
    let mut records = Vec::new();
    for p in pairs {
        records.push(run_pair(p, &budgets, trials, threads, seed));
    }
    let json = write_json("fig9_11", &records);
    println!("wrote {}", json.display());
}
