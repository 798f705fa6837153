//! Bench: serving-layer throughput — router QPS vs shard count, against
//! the direct single-sketch estimate, plus the ingest/epoch-swap path.
//!
//! The steady-state serving question: what does sharding cost a reader
//! between ingests? The router caches the cross-shard merged view per
//! worker and epoch, so warm queries should track the unsharded baseline
//! regardless of shard count; the `post_swap` case re-merges on every
//! iteration (worst case: an ingest between every query).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use datagen::SyntheticSpec;
use geometry::HyperRect;
use rand::SeedableRng;
use serve::{ContextPool, QueryRouter, ShardedStore, WorkerContext};
use sketch::estimators::SketchConfig;
use sketch::{QueryContext, RangeQuery, RangeStrategy};
use spatial_bench::probes::range_query_workload;

const BITS: u32 = 14;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn bench_serve(c: &mut Criterion) {
    let data: Vec<HyperRect<2>> = SyntheticSpec::paper(5_000, BITS, 0.0, 5).generate();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let rq = RangeQuery::<2>::new(
        &mut rng,
        SketchConfig::new(88, 5),
        [BITS, BITS],
        RangeStrategy::Transform,
    );
    let qs = range_query_workload(9, 16, BITS);

    let mut group = c.benchmark_group("serve_range_qps");
    group.throughput(Throughput::Elements(1));

    // Unsharded floor: one sketch, one reused context.
    let mut oracle = rq.new_sketch();
    oracle.insert_slice(&data).unwrap();
    let mut octx = QueryContext::new();
    let mut qi = 0usize;
    group.bench_function("unsharded_direct", |b| {
        b.iter(|| {
            qi = (qi + 1) % qs.len();
            rq.estimate_with(&mut octx, &oracle, black_box(&qs[qi]))
                .unwrap()
                .value
        })
    });

    for shards in SHARD_COUNTS {
        let store = ShardedStore::like(&oracle, shards);
        for chunk in data.chunks(512) {
            store.insert_slice(chunk).unwrap();
        }
        let router = QueryRouter::new();

        // Warm path: cached epoch + cached merged view (steady state).
        let pool = ContextPool::new(1);
        let mut qi = 0usize;
        group.bench_function(format!("router_{shards}shards_warm"), |b| {
            b.iter(|| {
                qi = (qi + 1) % qs.len();
                pool.with(|ctx| router.estimate_range(&rq, &store, ctx, black_box(&qs[qi])))
                    .unwrap()
                    .value
            })
        });

        // Worst case: an epoch swap lands before every query, so the warm
        // worker's cached view re-merges each time (epoch-mismatch branch:
        // reset + re-fold into the already-allocated merge target — the
        // path a serving worker actually takes after an ingest). The swap
        // is a one-object ingest, alternately inserted and deleted, run as
        // untimed setup.
        let mut ctx = WorkerContext::new();
        router
            .estimate_range(&rq, &store, &mut ctx, &qs[0])
            .unwrap();
        let (mut qi, mut delta) = (0usize, 1i64);
        group.bench_function(format!("router_{shards}shards_post_swap"), |b| {
            b.iter_batched(
                || {
                    store.update_slice(&data[..1], delta).unwrap();
                    delta = -delta;
                    qi = (qi + 1) % qs.len();
                    &qs[qi]
                },
                |q| {
                    router
                        .estimate_range(&rq, &store, &mut ctx, black_box(q))
                        .unwrap()
                        .value
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();

    // Ingest through the store: staging-shard clone + epoch swap included.
    let mut group = c.benchmark_group("serve_ingest_swap");
    let batch: Vec<HyperRect<2>> = data[..512].to_vec();
    group.throughput(Throughput::Elements(batch.len() as u64));
    for shards in SHARD_COUNTS {
        group.bench_function(format!("insert512_{shards}shards"), |b| {
            let store = ShardedStore::like(&oracle, shards);
            b.iter(|| store.insert_slice(black_box(&batch)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
