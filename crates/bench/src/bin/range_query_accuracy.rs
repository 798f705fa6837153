//! Ablation A3: range-query estimation (Section 6.4).
//!
//! Compares the paper's *optimized* range estimator (two atomic sketches per
//! dimension pair, query evaluated deterministically — Lemma 9) against
//! treating the query as a singleton-relation join, over a spread of query
//! selectivities.
//!
//! Usage: cargo run --release -p spatial-bench --bin range_query_accuracy
//!   [-- --size 30000] [--queries 40] [--trials 2] [--threads N]

use datagen::SyntheticSpec;
use geometry::{HyperRect, Interval};
use rand::Rng as _;
use rand::SeedableRng;
use serde::Serialize;
use sketch::estimators::joins::{EndpointStrategy, SpatialJoin};
use sketch::estimators::SketchConfig;
use sketch::{par_insert_batch, plan, BoostShape, RangeQuery, RangeStrategy};
use spatial_bench::cli::Args;
use spatial_bench::report::{format_num, rel_error, write_json, Table};
use spatial_bench::runner::{default_threads, mean_sketch_extent};

#[derive(Serialize)]
struct Record {
    size: usize,
    queries: usize,
    instances: usize,
    avg_err_optimized: f64,
    avg_err_join_form: f64,
    avg_selectivity: f64,
}

fn main() {
    let args = Args::parse(&[], &["size", "queries", "trials", "threads"]);
    let size: usize = args.get_or("size", 30_000).expect("--size");
    let queries: usize = args.get_or("queries", 40).expect("--queries");
    let trials: u32 = args.get_or("trials", 2).expect("--trials");
    let threads: usize = args
        .get_or("threads", default_threads())
        .expect("--threads");

    let bits = 14u32;
    let data: Vec<HyperRect<2>> = SyntheticSpec::paper(size, bits, 0.0, 81).generate();
    let max_level = plan::adaptive_max_level(mean_sketch_extent(&[&data]), bits + 2);
    let shape = BoostShape::new(600, 5);
    let instances = shape.instances();

    // Queries with moderate-to-large selectivities: the Lemma 9 variance
    // carries a (3 log2 n + 1) query-cover amplification per dimension, so
    // (as with all guarantees-bearing estimators, paper Section 7.4)
    // accuracy is only meaningful when the result size is substantial.
    let mut qrng = rand::rngs::StdRng::seed_from_u64(83);
    let n = 1u64 << bits;
    let query_set: Vec<HyperRect<2>> = (0..queries)
        .map(|i| {
            let frac = 0.15 + 0.45 * (i as f64 / queries as f64);
            let side = ((n as f64) * frac) as u64;
            let x = qrng.gen_range(0..n - side - 1);
            let y = qrng.gen_range(0..n - side - 1);
            HyperRect::new([Interval::new(x, x + side), Interval::new(y, y + side)])
        })
        .collect();

    let mut err_opt_sum = 0.0;
    let mut err_join_sum = 0.0;
    let mut sel_sum = 0.0;
    let mut table = Table::new(
        "range-query estimation: optimized (Lemma 9) vs join-form",
        &["query", "truth", "optimized err", "join-form err"],
    );

    for t in 0..trials {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8000 + 7 * t as u64);
        let config = SketchConfig {
            shape,
            max_level: Some(max_level),
        };
        // Optimized range estimator.
        let rq = RangeQuery::<2>::new(&mut rng, config, [bits, bits], RangeStrategy::Transform);
        let mut rsk = rq.new_sketch();
        par_insert_batch(&mut rsk, &data, threads).expect("range sketch");
        // Join-form estimator: the data vs a singleton "relation".
        let join =
            SpatialJoin::<2>::new(&mut rng, config, [bits, bits], EndpointStrategy::Transform);
        let mut jr = join.new_sketch_r();
        par_insert_batch(&mut jr, &data, threads).expect("join sketch");

        for (qi, q) in query_set.iter().enumerate() {
            let truth = exact::naive::range_count(&data, q) as f64;
            if truth == 0.0 {
                continue;
            }
            let opt = rq.estimate(&rsk, q).expect("range estimate").value;
            let mut js = join.new_sketch_s();
            js.insert(q).expect("query insert");
            let jf = join.estimate(&jr, &js).expect("join estimate").value;
            let eo = rel_error(opt, truth);
            let ej = rel_error(jf, truth);
            err_opt_sum += eo;
            err_join_sum += ej;
            sel_sum += truth / size as f64;
            if t == 0 && qi % 8 == 0 {
                table.push_row(vec![
                    format!("q{qi}"),
                    format_num(truth),
                    format_num(eo),
                    format_num(ej),
                ]);
            }
        }
    }
    let denom = (trials as usize * queries) as f64;
    let rec = Record {
        size,
        queries,
        instances,
        avg_err_optimized: err_opt_sum / denom,
        avg_err_join_form: err_join_sum / denom,
        avg_selectivity: sel_sum / denom,
    };
    table.print();
    println!(
        "avg relative error over {queries} queries x {trials} trials ({instances} instances): optimized {:.4}, join-form {:.4} (avg selectivity {:.4})",
        rec.avg_err_optimized, rec.avg_err_join_form, rec.avg_selectivity
    );
    table.write_csv("range_query_accuracy");
    let json = write_json("range_query_accuracy", &rec);
    println!("wrote {}", json.display());
}
