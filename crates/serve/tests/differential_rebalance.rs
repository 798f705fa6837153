//! Differential suite for elastic sharding: online split / merge / move
//! and replica failover against an unsharded oracle.
//!
//! Topology changes rebuild shards by **replaying the full update log**
//! through the new partition's routing, and integer counter adds are
//! batch-composition independent — so after *any* sequence of splits,
//! merges and boundary moves, the router's answers must stay
//! **bit-identical** (boosted value and every row mean) to a single
//! unsharded `SketchSet` fed the same object stream. The suite checks that
//! invariant before, between and after each topology op, through
//! post-rebalance ingest and deletes, across both ξ constructions and both
//! query kernels; a concurrency case hammers queries *while* the
//! topology changes under them (cutover is one atomic epoch swap, so no
//! query may ever observe a half-rebalanced store); and the replica cases
//! walk snapshot install → log tail → failover, requiring the promoted
//! replica to answer bit-identically to the oracle as well.
//!
//! Heavyweight cases (multi-block grids, 3-d) are gated to the
//! `tests-release` lane with `#[cfg_attr(debug_assertions, ignore)]`,
//! following the ROADMAP convention.

use fourwise::XiKind;
use geometry::{HyperRect, Interval, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{QueryRouter, Replica, ReplicaSet, ShardedStore, WorkerContext};
use sketch::estimators::joins::{EndpointStrategy, SpatialJoin};
use sketch::estimators::SketchConfig;
use sketch::{
    Estimate, LogRetention, QueryContext, QueryKernel, RangeQuery, RangeStrategy, SketchSet,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const KINDS: [XiKind; 2] = [XiKind::Bch, XiKind::Poly];
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

/// Checks range + stab answers against the oracle under every kernel.
fn check_all_kernels<const D: usize>(
    rq: &RangeQuery<D>,
    store: &ShardedStore<D>,
    oracle: &SketchSet<D>,
    queries: &[HyperRect<D>],
    p: &Point<D>,
    label: &str,
) {
    let router = QueryRouter::new();
    for kernel in KERNELS {
        let mut octx = QueryContext::new().with_kernel(kernel);
        let mut ctx = WorkerContext::new().with_kernel(kernel);
        for (qi, q) in queries.iter().enumerate() {
            let routed = router.estimate_range(rq, store, &mut ctx, q).unwrap();
            let want = rq.estimate_with(&mut octx, oracle, q).unwrap();
            assert_bit_identical(&want, &routed, &format!("{label}/{kernel:?}/q{qi}"));
        }
        let routed = router.estimate_stab(rq, store, &mut ctx, p).unwrap();
        let want = rq.estimate_stab_with(&mut octx, oracle, p).unwrap();
        assert_bit_identical(&want, &routed, &format!("{label}/{kernel:?}/stab"));
    }
}

/// The core scenario over `n` objects: ingest → split (unaligned) → ingest
/// → move → merge → delete, with a full oracle comparison between every
/// step.
fn rebalance_config<const D: usize>(kind: XiKind, k1: usize, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rq = RangeQuery::<D>::new(
        &mut rng,
        SketchConfig::new(k1, 1).with_kind(kind),
        [8; D],
        RangeStrategy::Transform,
    );
    let data = rand_rects::<D>(&mut rng, n, 255);
    let (early, late) = data.split_at(2 * n / 3);

    let mut oracle = rq.new_sketch();
    let store = ShardedStore::like(&oracle, 3).with_log(LogRetention::Full);

    let queries: Vec<HyperRect<D>> = vec![
        HyperRect::new(std::array::from_fn(|d| data[7].range(d))),
        HyperRect::new(std::array::from_fn(|_| Interval::new(0, 255))),
        HyperRect::new(std::array::from_fn(|d| {
            Interval::point(data[3].range(d).lo())
        })),
    ];
    let p: Point<D> = std::array::from_fn(|d| data[11].range(d).lo());
    let label = |step: &str| format!("rebalance/{kind:?}/{D}d/{k1}x1/{step}");

    oracle.insert_slice(early).unwrap();
    store.insert_slice(early).unwrap();
    check_all_kernels(&rq, &store, &oracle, &queries, &p, &label("before"));

    // Split the first shard at a deliberately non-dyadic coordinate: the
    // explicit-boundary partition and the log replay must cope with
    // boundaries that sit at the finest alignment their value allows.
    store.split_shard(0, 37).unwrap();
    check_all_kernels(&rq, &store, &oracle, &queries, &p, &label("post-split"));

    oracle.insert_slice(late).unwrap();
    store.insert_slice(late).unwrap();
    check_all_kernels(&rq, &store, &oracle, &queries, &p, &label("split+ingest"));

    store.move_shard_boundary(2, 90).unwrap();
    check_all_kernels(&rq, &store, &oracle, &queries, &p, &label("post-move"));

    store.merge_shards(1).unwrap();
    check_all_kernels(&rq, &store, &oracle, &queries, &p, &label("post-merge"));

    let deletions = &data[..data.len() / 4];
    oracle.delete_slice(deletions).unwrap();
    store.delete_slice(deletions).unwrap();
    check_all_kernels(&rq, &store, &oracle, &queries, &p, &label("post-delete"));
}

#[test]
fn topology_changes_preserve_answers_1d_2d() {
    for (i, kind) in KINDS.into_iter().enumerate() {
        rebalance_config::<1>(kind, 13, 60, 700 + i as u64);
        rebalance_config::<2>(kind, 13, 60, 710 + i as u64);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavyweight: tests-release lane")]
fn topology_changes_preserve_answers_multiblock() {
    // 67 instances straddle one backing word of a block; 150 in 3-d
    // stresses the blocked kernel's partly filled blocks through the rebuilt
    // shards. 520 instances span two 512-lane blocks, and
    // 1500 objects over three shards give ingest groups and replayed entries
    // above INGEST_SPLIT_FLOOR, so ingest and replay split the blocks
    // across workers.
    for (i, kind) in KINDS.into_iter().enumerate() {
        rebalance_config::<2>(kind, 67, 60, 720 + i as u64);
        rebalance_config::<3>(kind, 150, 60, 730 + i as u64);
        rebalance_config::<2>(kind, 520, 1500, 735 + i as u64);
    }
}

/// Spatial joins merge only at the counter level, on both sides — so
/// topology changes on either (or both) sides must leave the join
/// estimate bit-identical too.
#[test]
fn joins_survive_topology_changes_on_both_sides() {
    for (i, kind) in KINDS.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(740 + i as u64);
        let join = SpatialJoin::<2>::new(
            &mut rng,
            SketchConfig::new(13, 1).with_kind(kind),
            [8, 8],
            EndpointStrategy::Transform,
        );
        let r_data = rand_rects::<2>(&mut rng, 50, 60);
        let s_data = rand_rects::<2>(&mut rng, 50, 60);
        let mut r_oracle = join.new_sketch_r();
        let mut s_oracle = join.new_sketch_s();
        r_oracle.insert_slice(&r_data).unwrap();
        s_oracle.insert_slice(&s_data).unwrap();
        let want = join.estimate(&r_oracle, &s_oracle).unwrap();

        let r_store = ShardedStore::like(&r_oracle, 3).with_log(LogRetention::Full);
        let s_store = ShardedStore::like(&s_oracle, 2).with_log(LogRetention::Full);
        r_store.insert_slice(&r_data).unwrap();
        s_store.insert_slice(&s_data).unwrap();

        let router = QueryRouter::new();
        let mut ctx = WorkerContext::new();
        let label = format!("join-topology/{kind:?}");
        let before = router
            .estimate_join(&join, &r_store, &s_store, &mut ctx)
            .unwrap();
        assert_bit_identical(&want, &before, &format!("{label}/before"));

        r_store.split_shard(0, 19).unwrap();
        s_store.merge_shards(0).unwrap();
        let after = router
            .estimate_join(&join, &r_store, &s_store, &mut ctx)
            .unwrap();
        assert_bit_identical(&want, &after, &format!("{label}/after"));
    }
}

/// Readers hammering the store while its topology changes under them:
/// cutover is a single atomic epoch swap and the data set is held constant
/// through the ops, so **every** answer — whichever epoch the reader
/// caught — must bit-match the one oracle. A torn or half-rebalanced
/// topology would diverge immediately.
#[test]
fn queries_mid_rebalance_never_observe_a_half_swapped_topology() {
    let mut rng = StdRng::seed_from_u64(750);
    let rq = RangeQuery::<2>::new(
        &mut rng,
        SketchConfig::new(16, 3),
        [8, 8],
        RangeStrategy::Transform,
    );
    let data = rand_rects::<2>(&mut rng, 80, 255);
    let mut oracle = rq.new_sketch();
    oracle.insert_slice(&data).unwrap();
    let store = Arc::new(ShardedStore::like(&oracle, 3).with_log(LogRetention::Full));
    store.insert_slice(&data).unwrap();

    let queries: Vec<HyperRect<2>> = vec![
        HyperRect::new([Interval::new(0, 255), Interval::new(0, 255)]),
        HyperRect::new(std::array::from_fn(|d| data[5].range(d))),
        HyperRect::new([Interval::new(30, 130), Interval::new(10, 220)]),
    ];
    let mut octx = QueryContext::new();
    let wants: Vec<Estimate> = queries
        .iter()
        .map(|q| rq.estimate_with(&mut octx, &oracle, q).unwrap())
        .collect();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for reader in 0..3usize {
            let (store, rq, stop) = (Arc::clone(&store), &rq, &stop);
            let (queries, wants) = (&queries, &wants);
            scope.spawn(move || {
                let router = QueryRouter::new();
                let mut ctx = WorkerContext::new();
                let mut round = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let qi = (reader + round) % queries.len();
                    let got = router
                        .estimate_range(rq, &store, &mut ctx, &queries[qi])
                        .unwrap();
                    assert_bit_identical(
                        &wants[qi],
                        &got,
                        &format!("mid-rebalance reader {reader} round {round}"),
                    );
                    round += 1;
                }
            });
        }
        // Writer: a storm of topology changes while the readers run.
        store.split_shard(0, 37).unwrap();
        store.move_shard_boundary(1, 55).unwrap();
        store.merge_shards(0).unwrap();
        store.split_shard(1, 150).unwrap();
        store.move_shard_boundary(2, 166).unwrap();
        store.merge_shards(1).unwrap();
        stop.store(true, Ordering::Relaxed);
    });
}

/// The replica lifecycle end to end: snapshot install → log tail →
/// serving, then primary loss → failover — and the promoted replica's
/// answers are bit-identical to the oracle of the full history.
#[test]
fn replica_failover_serves_bit_identical_answers() {
    let mut rng = StdRng::seed_from_u64(760);
    let rq = RangeQuery::<2>::new(
        &mut rng,
        SketchConfig::new(16, 3),
        [8, 8],
        RangeStrategy::Transform,
    );
    let data = rand_rects::<2>(&mut rng, 60, 255);
    let (early, late) = data.split_at(30);

    let mut oracle = rq.new_sketch();
    let primary = Arc::new(ShardedStore::like(&oracle, 3).with_log(LogRetention::Full));

    // History before the replica exists.
    oracle.insert_slice(early).unwrap();
    primary.insert_slice(early).unwrap();
    primary.split_shard(0, 37).unwrap();

    // Cold replica seeds from a snapshot of the *current* (post-split)
    // primary, then tails the rest of the history from the log.
    let mut replica = Replica::cold();
    replica
        .install_snapshot(&primary.snapshot(), Arc::clone(primary.schema()))
        .unwrap();
    oracle.insert_slice(late).unwrap();
    primary.insert_slice(late).unwrap();
    let deletions = &data[..15];
    oracle.delete_slice(deletions).unwrap();
    primary.delete_slice(deletions).unwrap();
    replica.catch_up(&primary).unwrap();
    let replica_store = Arc::clone(replica.store().unwrap());

    // Failover: the primary goes down, the set serves the replica.
    let mut set = ReplicaSet::new(Arc::clone(&primary));
    set.add_replica(Arc::clone(&replica_store));
    set.mark_down(0);
    let (serving, promoted) = set.serving().expect("replica is up");
    assert_eq!(serving, 1);
    assert_eq!(set.failovers(), 1);

    let queries: Vec<HyperRect<2>> = vec![
        HyperRect::new([Interval::new(0, 255), Interval::new(0, 255)]),
        HyperRect::new(std::array::from_fn(|d| data[9].range(d))),
    ];
    let p: Point<2> = std::array::from_fn(|d| data[21].range(d).lo());
    check_all_kernels(&rq, promoted, &oracle, &queries, &p, "failover");

    // The primary recovers: fail back and keep serving bit-identically.
    set.mark_up(0);
    let (serving, back) = set.serving().expect("primary is back");
    assert_eq!(serving, 0);
    check_all_kernels(&rq, back, &oracle, &queries, &p, "fail-back");
}
