//! Bench: maintenance cost per inserted object for every summary in the
//! workspace — the paper's update-cost story (Section 4.1.5: sketch updates
//! are O(instances · d · log n); histograms pay O(cells spanned)).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use datagen::SyntheticSpec;
use geometry::HyperRect;
use histograms::{EulerHistogram, GeometricHistogram, GridSpec};
use rand::SeedableRng;
use sketch::estimators::joins::{EndpointStrategy, SpatialJoin};
use sketch::estimators::SketchConfig;
use sketch::{par_insert_batch, plan};

const BITS: u32 = 14;

fn data() -> Vec<HyperRect<2>> {
    SyntheticSpec::paper(2_000, BITS, 0.0, 5).generate()
}

fn bench_updates(c: &mut Criterion) {
    let rects = data();
    let mean_extent = 3.0
        * rects
            .iter()
            .map(|r| (r.range(0).length() + r.range(1).length()) as f64 / 2.0)
            .sum::<f64>()
        / rects.len() as f64;
    let max_level = plan::adaptive_max_level(mean_extent, BITS + 2);

    let mut group = c.benchmark_group("insert_per_object");
    group.throughput(Throughput::Elements(rects.len() as u64));

    for instances in [100usize, 500] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let config = SketchConfig::new(instances / 5, 5).with_max_level(max_level);
        let join =
            SpatialJoin::<2>::new(&mut rng, config, [BITS, BITS], EndpointStrategy::Transform);
        // Serial inserts under the blocked kernel (the scalar oracle lives
        // in perf_probe's sweep).
        group.bench_function(format!("sketch_{instances}inst_serial_Wide"), |b| {
            b.iter_batched(
                || join.new_sketch_r(),
                |mut sk| {
                    for r in &rects {
                        sk.insert(black_box(r)).unwrap();
                    }
                    sk
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_function(format!("sketch_{instances}inst_parallel8"), |b| {
            b.iter_batched(
                || join.new_sketch_r(),
                |mut sk| {
                    par_insert_batch(&mut sk, black_box(&rects), 8).unwrap();
                    sk
                },
                BatchSize::LargeInput,
            )
        });
    }

    for level in [3u32, 6] {
        let spec = GridSpec::new(BITS, level);
        group.bench_function(format!("euler_histogram_L{level}"), |b| {
            b.iter_batched(
                || EulerHistogram::new(spec),
                |mut eh| {
                    for r in &rects {
                        eh.insert(black_box(r));
                    }
                    eh
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_function(format!("geometric_histogram_L{level}"), |b| {
            b.iter_batched(
                || GeometricHistogram::new(spec),
                |mut gh| {
                    for r in &rects {
                        gh.insert(black_box(r));
                    }
                    gh
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_updates);
criterion_main!(benches);
