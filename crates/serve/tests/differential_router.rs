//! Differential suite: the sharded store + router against an unsharded
//! oracle.
//!
//! The router's exact mode must be **bit-identical** — boosted value *and*
//! every row mean — to a single unsharded `SketchSet` fed the same object
//! stream, for every query class it serves (range selectivity, stabbing
//! counts, spatial joins), across shard counts {1, 3, 8}, both ξ
//! constructions, dimensions 1–3, every query kernel, and through ingest
//! histories that include deletes and multiple epoch swaps. Any divergence
//! at all is a router/merge bug, not float noise: counter merges are
//! integer folds and the estimate then runs the very same kernel code.
//! Pruned mode is held to a different contract: it must equal Exact when
//! nothing prunes, and beat Exact's p90 selectivity error when queries
//! touch few shards.
//!
//! Heavyweight cases (multi-block grids, 3-d) are gated to the
//! `tests-release` lane with `#[cfg_attr(debug_assertions, ignore)]`,
//! following the ROADMAP convention.

use fourwise::XiKind;
use geometry::{HyperRect, Interval, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{ContextPool, QueryRouter, RouterMode, ShardedStore, WorkerContext};
use sketch::estimators::joins::{EndpointStrategy, SpatialJoin};
use sketch::estimators::SketchConfig;
use sketch::{Estimate, QueryContext, QueryKernel, RangeQuery, RangeStrategy, SketchSet};

const KINDS: [XiKind; 2] = [XiKind::Bch, XiKind::Poly];
const SHARD_COUNTS: [usize; 3] = [1, 3, 8];
const KERNELS: [QueryKernel; 2] = [QueryKernel::Scalar, QueryKernel::Wide];

fn assert_bit_identical(oracle: &Estimate, routed: &Estimate, label: &str) {
    assert_eq!(
        oracle.value.to_bits(),
        routed.value.to_bits(),
        "{label}: boosted value diverged ({} vs {})",
        oracle.value,
        routed.value
    );
    assert_eq!(
        oracle.row_means.len(),
        routed.row_means.len(),
        "{label}: row count diverged"
    );
    for (i, (a, b)) in oracle
        .row_means
        .iter()
        .zip(routed.row_means.iter())
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: row mean {i} diverged");
    }
}

fn rand_rects<const D: usize>(rng: &mut StdRng, n: usize, max: u64) -> Vec<HyperRect<D>> {
    (0..n)
        .map(|_| {
            HyperRect::new(std::array::from_fn(|_| {
                let lo = rng.gen_range(0..max - 17);
                Interval::new(lo, lo + rng.gen_range(1..=16u64))
            }))
        })
        .collect()
}

/// Streams the reference history — three insert batches and one delete
/// batch, four epoch swaps — into a sharded store.
fn feed_store<const D: usize>(store: &ShardedStore<D>, data: &[HyperRect<D>]) {
    let third = data.len() / 3;
    for chunk in [&data[..third], &data[third..2 * third], &data[2 * third..]] {
        store.insert_slice(chunk).unwrap();
    }
    store.delete_slice(&data[..data.len() / 4]).unwrap();
}

/// The same history applied to an unsharded oracle sketch.
fn feed_oracle<const D: usize>(oracle: &mut SketchSet<D>, data: &[HyperRect<D>]) {
    let third = data.len() / 3;
    for chunk in [&data[..third], &data[third..2 * third], &data[2 * third..]] {
        oracle.insert_slice(chunk).unwrap();
    }
    oracle.delete_slice(&data[..data.len() / 4]).unwrap();
}

/// One range/stab configuration of `n` objects across the shard counts and
/// both kernels.
fn range_config<const D: usize>(kind: XiKind, k1: usize, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rq = RangeQuery::<D>::new(
        &mut rng,
        SketchConfig::new(k1, 1).with_kind(kind),
        [8; D],
        RangeStrategy::Transform,
    );
    let data = rand_rects::<D>(&mut rng, n, 255);
    let mut oracle = rq.new_sketch();
    feed_oracle(&mut oracle, &data);
    let stores: Vec<ShardedStore<D>> = SHARD_COUNTS
        .iter()
        .map(|&n| {
            let s = ShardedStore::like(&oracle, n);
            feed_store(&s, &data);
            s
        })
        .collect();

    // A query sharing endpoints with the data, the whole domain, and a
    // degenerate query; a stab at a data endpoint.
    let q_shared: HyperRect<D> = HyperRect::new(std::array::from_fn(|d| data[7].range(d)));
    let q_all: HyperRect<D> = HyperRect::new(std::array::from_fn(|_| Interval::new(0, 255)));
    let q_degenerate: HyperRect<D> = HyperRect::new(std::array::from_fn(|d| {
        Interval::point(data[3].range(d).lo())
    }));
    let p: Point<D> = std::array::from_fn(|d| data[11].range(d).lo());

    let router = QueryRouter::new();
    for kernel in KERNELS {
        let mut octx = QueryContext::new().with_kernel(kernel);
        for (store, &n) in stores.iter().zip(SHARD_COUNTS.iter()) {
            let label = format!("range/{kind:?}/{D}d/{k1}x1/{n}shards/{kernel:?}");
            let mut ctx = WorkerContext::new().with_kernel(kernel);
            for (qi, q) in [&q_shared, &q_all, &q_degenerate].into_iter().enumerate() {
                let routed = router.estimate_range(&rq, store, &mut ctx, q).unwrap();
                let want = rq.estimate_with(&mut octx, &oracle, q).unwrap();
                assert_bit_identical(&want, &routed, &format!("{label}/q{qi}"));
                // Warm pass: cached merged view + cached plan agree too.
                let warm = router.estimate_range(&rq, store, &mut ctx, q).unwrap();
                assert_bit_identical(&want, &warm, &format!("{label}/q{qi}/warm"));
            }
            let routed = router.estimate_stab(&rq, store, &mut ctx, &p).unwrap();
            let want = rq.estimate_stab_with(&mut octx, &oracle, &p).unwrap();
            assert_bit_identical(&want, &routed, &format!("{label}/stab"));
        }
    }
}

/// One spatial-join configuration across the shard-count matrix (both
/// sides sharded, different shard counts per side to stress the merge).
fn join_config<const D: usize>(kind: XiKind, k1: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let join = SpatialJoin::<D>::new(
        &mut rng,
        SketchConfig::new(k1, 1).with_kind(kind),
        [8; D],
        EndpointStrategy::Transform,
    );
    let r_data = rand_rects::<D>(&mut rng, 50, 60);
    let s_data = rand_rects::<D>(&mut rng, 50, 60);
    let mut r_oracle = join.new_sketch_r();
    let mut s_oracle = join.new_sketch_s();
    feed_oracle(&mut r_oracle, &r_data);
    feed_oracle(&mut s_oracle, &s_data);
    let router = QueryRouter::new();
    for &rn in &SHARD_COUNTS {
        for &sn in &[1usize, 8] {
            let label = format!("join/{kind:?}/{D}d/{k1}x1/{rn}x{sn}shards");
            let r_store = ShardedStore::like(&r_oracle, rn);
            let s_store = ShardedStore::like(&s_oracle, sn);
            feed_store(&r_store, &r_data);
            feed_store(&s_store, &s_data);
            let mut ctx = WorkerContext::new();
            let routed = router
                .estimate_join(&join, &r_store, &s_store, &mut ctx)
                .unwrap();
            let want = join.estimate(&r_oracle, &s_oracle).unwrap();
            assert_bit_identical(&want, &routed, &label);
        }
    }
}

#[test]
fn range_router_agrees_1d_2d() {
    for (i, kind) in KINDS.into_iter().enumerate() {
        range_config::<1>(kind, 13, 60, 500 + i as u64);
        range_config::<2>(kind, 13, 60, 510 + i as u64);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavyweight: tests-release lane")]
fn range_router_agrees_multiblock() {
    // 67 instances straddle one backing word of a block; 150 in 3-d
    // stresses the blocked kernel's partly filled blocks through the merged
    // view. 520 instances span two 512-lane blocks, and the
    // one-shard store's ingest batches of 130 objects clear
    // INGEST_SPLIT_FLOOR, so its ingest splits the blocks across workers.
    for (i, kind) in KINDS.into_iter().enumerate() {
        range_config::<2>(kind, 67, 60, 520 + i as u64);
        range_config::<3>(kind, 150, 60, 530 + i as u64);
        range_config::<2>(kind, 520, 390, 535 + i as u64);
    }
}

#[test]
fn join_router_agrees_1d_2d() {
    for (i, kind) in KINDS.into_iter().enumerate() {
        join_config::<1>(kind, 13, 540 + i as u64);
        join_config::<2>(kind, 13, 550 + i as u64);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavyweight: tests-release lane")]
fn join_router_agrees_3d_multiblock() {
    for (i, kind) in KINDS.into_iter().enumerate() {
        join_config::<3>(kind, 150, 560 + i as u64);
    }
}

#[test]
fn snapshot_restore_preserves_router_answers() {
    let mut rng = StdRng::seed_from_u64(570);
    let rq = RangeQuery::<2>::new(
        &mut rng,
        SketchConfig::new(13, 3),
        [8, 8],
        RangeStrategy::Transform,
    );
    let store = ShardedStore::like(&rq.new_sketch(), 3);
    let data = rand_rects::<2>(&mut rng, 60, 255);
    feed_store(&store, &data);
    let restored: ShardedStore<2> = ShardedStore::restore(&store.snapshot()).unwrap();

    // The restored store has a restored schema, so its answers are compared
    // against a sketch restored from the *same* snapshot's shards — the
    // merged counters must match the pre-snapshot merged counters exactly.
    let router = QueryRouter::new();
    let before = router.collect(&store, None).unwrap();
    let after = router.collect(&restored, None).unwrap();
    assert_eq!(before.len(), after.len());
    for inst in 0..rq.schema().instances() {
        assert_eq!(
            before.instance_counters(inst),
            after.instance_counters(inst)
        );
    }
}

#[test]
fn concurrent_pool_readers_match_quiescent_oracle() {
    let mut rng = StdRng::seed_from_u64(580);
    let rq = RangeQuery::<2>::new(
        &mut rng,
        SketchConfig::new(13, 3),
        [8, 8],
        RangeStrategy::Transform,
    );
    let store = ShardedStore::like(&rq.new_sketch(), 3);
    let mut oracle = rq.new_sketch();
    let data = rand_rects::<2>(&mut rng, 120, 255);
    let queries: Vec<HyperRect<2>> = (0..6)
        .map(|i| HyperRect::new(std::array::from_fn(|d| data[5 * i + d].range(d))))
        .collect();
    let router = QueryRouter::new();
    let pool = ContextPool::new(3);

    // Readers hammer the pool while the writer swaps epochs in.
    std::thread::scope(|scope| {
        for t in 0..3usize {
            let (pool, router, rq, store, queries) = (&pool, &router, &rq, &store, &queries);
            scope.spawn(move || {
                for i in 0..40 {
                    let q = &queries[(t + i) % queries.len()];
                    let est = pool
                        .with(|ctx| router.estimate_range(rq, store, ctx, q))
                        .unwrap();
                    assert!(est.value.is_finite());
                }
            });
        }
        for chunk in data.chunks(30) {
            store.insert_slice(chunk).unwrap();
        }
    });
    for chunk in data.chunks(30) {
        oracle.insert_slice(chunk).unwrap();
    }

    // Quiescent: every pooled context converges to the oracle bitwise.
    let mut octx = QueryContext::new();
    for q in &queries {
        let want = rq.estimate_with(&mut octx, &oracle, q).unwrap();
        let got = pool
            .with(|ctx| router.estimate_range(&rq, &store, ctx, q))
            .unwrap();
        assert_bit_identical(&want, &got, "post-quiescence");
    }
}

#[test]
fn pruned_mode_is_exact_when_nothing_prunes() {
    // When the query covers every shard's coverage box, Pruned and Exact
    // select identically and must agree bitwise.
    let mut rng = StdRng::seed_from_u64(590);
    let rq = RangeQuery::<2>::new(
        &mut rng,
        SketchConfig::new(13, 3),
        [8, 8],
        RangeStrategy::Transform,
    );
    let store = ShardedStore::like(&rq.new_sketch(), 8);
    feed_store(&store, &rand_rects::<2>(&mut rng, 60, 255));
    let q = HyperRect::new([Interval::new(0, 255), Interval::new(0, 255)]);
    let exact = QueryRouter::new();
    let pruned = QueryRouter::new().with_mode(RouterMode::Pruned);
    let mut ctx = WorkerContext::new();
    let a = exact.estimate_range(&rq, &store, &mut ctx, &q).unwrap();
    let b = pruned.estimate_range(&rq, &store, &mut ctx, &q).unwrap();
    assert_bit_identical(&a, &b, "pruned-all");
}

/// The `q`-quantile of `xs` (nearest rank).
fn quantile(mut xs: Vec<f64>, q: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[((xs.len() - 1) as f64 * q).round() as usize]
}

#[test]
fn pruned_mode_cuts_selectivity_error() {
    // Pruned is the accuracy mode: a query merges only the shards whose
    // coverage it overlaps, so objects elsewhere add no sketch noise. Over
    // a fixed sample of small range queries on a 4-shard store, its p90
    // selectivity error (|estimate − exact| ÷ objects) must beat Exact's.
    let mut rng = StdRng::seed_from_u64(600);
    let data = rand_rects::<2>(&mut rng, 2000, 1023);
    // The paper's §6.5 adaptive maxLevel, at the mean extent in sketch
    // coordinates (the transform triples lengths).
    let extent = data.iter().map(|r| r.range(0).length()).sum::<u64>() as f64 / 2000.0;
    let max_level = sketch::plan::adaptive_max_level(3.0 * extent, 12);
    let rq = RangeQuery::<2>::new(
        &mut rng,
        SketchConfig::new(32, 5).with_max_level(max_level),
        [10, 10],
        RangeStrategy::Transform,
    );
    let store = ShardedStore::like(&rq.new_sketch(), 4);
    store.insert_slice(&data).unwrap();
    let queries: Vec<HyperRect<2>> = (0..256)
        .map(|_| {
            HyperRect::new(std::array::from_fn(|_| {
                let side = rng.gen_range(32..160u64);
                let lo = rng.gen_range(0..1023 - side);
                Interval::new(lo, lo + side)
            }))
        })
        .collect();
    let sel_err = |router: QueryRouter| -> Vec<f64> {
        let mut ctx = WorkerContext::new();
        queries
            .iter()
            .map(|q| {
                let est = router.estimate_range(&rq, &store, &mut ctx, q).unwrap();
                let truth = data.iter().filter(|r| r.overlaps(q)).count() as f64;
                (est.value - truth).abs() / data.len() as f64
            })
            .collect()
    };
    let exact = sel_err(QueryRouter::new());
    let pruned = sel_err(QueryRouter::new().with_mode(RouterMode::Pruned));
    let (exact_p90, pruned_p90) = (quantile(exact, 0.9), quantile(pruned, 0.9));
    assert!(
        pruned_p90 < exact_p90,
        "pruned p90 sel_err {pruned_p90} vs exact {exact_p90}"
    );
}
