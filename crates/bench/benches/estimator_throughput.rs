//! Microbench: the estimation path under every query kernel.
//!
//! Measures whole `estimate` calls — scratch-reusing [`QueryContext`] form —
//! for the spatial join (counter-product combine) and the range query
//! (query-side ξ evaluation against maintained counters) across instance
//! counts and the full kernel matrix: scalar oracle, 256-lane wide and
//! 512-lane wide — plus the batch entry point (`estimate_batch_with`) at
//! batch sizes 1/8/64 over a serving-shaped hot set. The build-side twin lives in `update_throughput`/`xi_throughput`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use geometry::{HyperRect, Interval};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use sketch::estimators::joins::{EndpointStrategy, SpatialJoin};
use sketch::estimators::SketchConfig;
use sketch::{BatchQuery, QueryContext, QueryKernel, RangeQuery, RangeStrategy};

const KERNELS: [QueryKernel; 3] = [QueryKernel::Scalar, QueryKernel::Wide, QueryKernel::Wide512];

fn rects(n: usize, seed: u64) -> Vec<HyperRect<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x = rng.gen_range(0..900u64);
            let y = rng.gen_range(0..900u64);
            HyperRect::new([
                Interval::new(x, x + rng.gen_range(1..60u64)),
                Interval::new(y, y + rng.gen_range(1..60u64)),
            ])
        })
        .collect()
}

fn bench_estimators(c: &mut Criterion) {
    // Join estimation: Z_i = Σ_t c_t · R_i[w] · S_i[w̄] per instance.
    let mut group = c.benchmark_group("estimate_join_2d");
    for (k1, k2) in [(16usize, 5usize), (203, 5), (820, 5)] {
        let instances = k1 * k2;
        let mut rng = StdRng::seed_from_u64(11);
        let join = SpatialJoin::<2>::new(
            &mut rng,
            SketchConfig::new(k1, k2),
            [10, 10],
            EndpointStrategy::Transform,
        );
        let mut r = join.new_sketch_r();
        let mut s = join.new_sketch_s();
        r.insert_slice(&rects(500, 1)).unwrap();
        s.insert_slice(&rects(500, 2)).unwrap();
        group.throughput(Throughput::Elements(instances as u64));
        for kernel in KERNELS {
            group.bench_function(format!("{kernel:?}/{instances}inst"), |b| {
                let mut ctx = QueryContext::new().with_kernel(kernel);
                b.iter(|| {
                    join.estimate_with(&mut ctx, black_box(&r), black_box(&s))
                        .unwrap()
                        .value
                })
            });
        }
    }
    group.finish();

    // Range estimation: deterministic query side, ξ sums per instance.
    let mut group = c.benchmark_group("estimate_range_2d");
    for (k1, k2) in [(16usize, 5usize), (203, 5), (820, 5)] {
        let instances = k1 * k2;
        let mut rng = StdRng::seed_from_u64(12);
        let rq = RangeQuery::<2>::new(
            &mut rng,
            SketchConfig::new(k1, k2),
            [10, 10],
            RangeStrategy::Transform,
        );
        let mut sk = rq.new_sketch();
        sk.insert_slice(&rects(500, 3)).unwrap();
        let q = HyperRect::new([Interval::new(100, 420), Interval::new(250, 700)]);
        group.throughput(Throughput::Elements(instances as u64));
        for kernel in KERNELS {
            group.bench_function(format!("{kernel:?}/{instances}inst"), |b| {
                let mut ctx = QueryContext::new().with_kernel(kernel);
                b.iter(|| {
                    rq.estimate_with(&mut ctx, black_box(&sk), black_box(&q))
                        .unwrap()
                        .value
                })
            });
        }
    }
    group.finish();

    // Batches over a recurring hot set: the first call evaluates each cold
    // query's covers, later calls read each plan's query-product memo
    // (throughput counts queries, so ns/query amortization shows directly).
    let mut group = c.benchmark_group("estimate_range_batch_2d");
    let (k1, k2) = (203usize, 5usize);
    let mut rng = StdRng::seed_from_u64(13);
    let rq = RangeQuery::<2>::new(
        &mut rng,
        SketchConfig::new(k1, k2),
        [10, 10],
        RangeStrategy::Transform,
    );
    let mut sk = rq.new_sketch();
    sk.insert_slice(&rects(500, 4)).unwrap();
    let hot: Vec<BatchQuery<2>> = rects(32, 5)
        .iter()
        .enumerate()
        .map(|(i, q)| {
            if i % 8 == 7 {
                BatchQuery::Stab([q.range(0).lo(), q.range(1).lo()])
            } else {
                BatchQuery::Range(*q)
            }
        })
        .collect();
    for batch in [1usize, 8, 64] {
        let queries: Vec<BatchQuery<2>> = (0..batch).map(|j| hot[j % hot.len()]).collect();
        group.throughput(Throughput::Elements(batch as u64));
        for kernel in [QueryKernel::Wide, QueryKernel::Wide512] {
            group.bench_function(format!("{kernel:?}/batch{batch}"), |b| {
                let mut ctx = QueryContext::new().with_kernel(kernel);
                b.iter(|| {
                    rq.estimate_batch_with(&mut ctx, black_box(&sk), black_box(&queries))
                        .iter()
                        .map(|r| r.as_ref().unwrap().value)
                        .sum::<f64>()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_estimators);
criterion_main!(benches);
