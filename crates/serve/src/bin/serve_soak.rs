//! Serving-layer soak test: bounded, deterministic mixed ingest + query
//! rounds asserting that every router answer **bit-matches** an unsharded
//! oracle — the binary the CI `serve-smoke` lane runs.
//!
//! Usage: cargo run --release -p spatial-serve --bin serve_soak --
//!          [--iters N] [--shards N] [--seed N] [--readers N] [--rebalance N]
//!
//! Three phases:
//!
//! 1. **Differential soak** — each round ingests a batch (inserts plus
//!    deletes of earlier objects) into a sharded range store, two sharded
//!    join stores and their unsharded oracles, then asserts range, stab and
//!    join router totals are bit-identical to the oracles' estimates.
//! 2. **Concurrency smoke** — reader threads hammer the context pool while
//!    the main thread keeps swapping epochs in; estimates must stay finite
//!    and, once quiescent, converge to the oracle bitwise from every pooled
//!    context.
//! 3. **Rebalance soak** (`--rebalance N` rounds, default 6; 0 disables) —
//!    each round ingests a fresh batch, then applies an online topology op
//!    chosen from the store's own load report (split the hottest shard /
//!    move a boundary / merge the coldest neighbours, log-replay rebuilds),
//!    then re-asserts bit-identity against the oracle; a final burst runs
//!    the full op storm *under* concurrent readers, whose every answer must
//!    bit-match the oracle — a query may never observe a half-rebalanced
//!    topology.
//!
//! Everything is seeded; a nonzero exit (assert) means a real router bug.

use geometry::{HyperRect, Interval};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{ContextPool, QueryRouter, ShardedStore, WorkerContext};
use sketch::estimators::joins::{EndpointStrategy, SpatialJoin};
use sketch::estimators::SketchConfig;
use sketch::{Estimate, LogRetention, QueryContext, RangeQuery, RangeStrategy};

const BITS: u32 = 8;

struct Args {
    iters: usize,
    shards: usize,
    seed: u64,
    readers: usize,
    rebalance: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        iters: 30,
        shards: 3,
        seed: 7,
        readers: 2,
        rebalance: 6,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| die(&format!("flag {flag} needs a value")));
        let parsed: u64 = value
            .parse()
            .unwrap_or_else(|_| die(&format!("cannot parse `{value}` for {flag}")));
        match flag.as_str() {
            "--iters" => args.iters = parsed as usize,
            "--shards" => args.shards = (parsed as usize).max(1),
            "--seed" => args.seed = parsed,
            "--readers" => args.readers = (parsed as usize).max(1),
            "--rebalance" => args.rebalance = parsed as usize,
            other => die(&format!(
                "unknown flag `{other}` (supported: --iters --shards --seed --readers --rebalance)"
            )),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("serve_soak: {msg}");
    std::process::exit(2);
}

fn rand_rects(rng: &mut StdRng, n: usize) -> Vec<HyperRect<2>> {
    let max = (1u64 << BITS) - 1;
    (0..n)
        .map(|_| {
            HyperRect::new(std::array::from_fn(|_| {
                let lo = rng.gen_range(0..max - 17);
                Interval::new(lo, lo + rng.gen_range(1..=16u64))
            }))
        })
        .collect()
}

fn assert_bit_identical(want: &Estimate, got: &Estimate, label: &str) {
    assert_eq!(
        want.value.to_bits(),
        got.value.to_bits(),
        "{label}: router total diverged from the unsharded oracle ({} vs {})",
        got.value,
        want.value
    );
    assert_eq!(want.row_means, got.row_means, "{label}: row means diverged");
}

fn main() {
    let args = parse_args();
    let report = sketch::dispatch_report();
    println!(
        "serve-smoke dispatch: ingest_threads={}",
        report.ingest_threads,
    );
    let mut rng = StdRng::seed_from_u64(args.seed);

    let rq = RangeQuery::<2>::new(
        &mut rng,
        SketchConfig::new(13, 3),
        [BITS, BITS],
        RangeStrategy::Transform,
    );
    let join = SpatialJoin::<2>::new(
        &mut rng,
        SketchConfig::new(13, 3),
        [BITS, BITS],
        EndpointStrategy::Transform,
    );
    // A full update log so the rebalance phase can log-replay shard
    // rebuilds; memory stays bounded by the soak's own batch count.
    let range_store =
        ShardedStore::like(&rq.new_sketch(), args.shards).with_log(LogRetention::Full);
    let r_store = ShardedStore::like(&join.new_sketch_r(), args.shards);
    let s_store = ShardedStore::like(&join.new_sketch_s(), args.shards);
    let mut range_oracle = rq.new_sketch();
    let mut r_oracle = join.new_sketch_r();
    let mut s_oracle = join.new_sketch_s();

    let router = QueryRouter::new();
    let mut ctx = WorkerContext::new();
    let mut octx = QueryContext::new();
    let mut live: Vec<HyperRect<2>> = Vec::new();
    let mut checks = 0u64;

    // Phase 1: differential soak.
    for round in 0..args.iters {
        let batch = rand_rects(&mut rng, 40);
        range_store.insert_slice(&batch).unwrap();
        range_oracle.insert_slice(&batch).unwrap();
        r_store.insert_slice(&batch).unwrap();
        r_oracle.insert_slice(&batch).unwrap();
        let other = rand_rects(&mut rng, 40);
        s_store.insert_slice(&other).unwrap();
        s_oracle.insert_slice(&other).unwrap();
        live.extend_from_slice(&batch);
        if live.len() > 100 {
            // Delete a prefix of earlier inserts (exercises negative deltas
            // across epochs; sketches are linear, deletes are exact).
            let dels: Vec<HyperRect<2>> = live.drain(..25).collect();
            range_store.delete_slice(&dels).unwrap();
            range_oracle.delete_slice(&dels).unwrap();
            r_store.delete_slice(&dels).unwrap();
            r_oracle.delete_slice(&dels).unwrap();
        }

        for qi in 0..4 {
            let label = format!("round {round} query {qi}");
            let q = rand_rects(&mut rng, 1)[0];
            let got = router
                .estimate_range(&rq, &range_store, &mut ctx, &q)
                .unwrap();
            let want = rq.estimate_with(&mut octx, &range_oracle, &q).unwrap();
            assert_bit_identical(&want, &got, &label);
            checks += 1;
        }
        for pi in 0..2 {
            let label = format!("round {round} stab {pi}");
            let anchor = live[rng.gen_range(0..live.len())];
            let p = [anchor.range(0).lo(), anchor.range(1).lo()];
            let got = router
                .estimate_stab(&rq, &range_store, &mut ctx, &p)
                .unwrap();
            let want = rq.estimate_stab_with(&mut octx, &range_oracle, &p).unwrap();
            assert_bit_identical(&want, &got, &label);
            checks += 1;
        }
        let got = router
            .estimate_join(&join, &r_store, &s_store, &mut ctx)
            .unwrap();
        let want = join.estimate_with(&mut octx, &r_oracle, &s_oracle).unwrap();
        assert_bit_identical(&want, &got, &format!("round {round} join"));
        checks += 1;
    }

    // Phase 2: concurrency smoke — readers race the epoch swaps.
    let pool = ContextPool::new(args.readers);
    let queries = rand_rects(&mut rng, 8);
    let churn = rand_rects(&mut rng, 60);
    std::thread::scope(|scope| {
        for t in 0..args.readers {
            let (pool, router, rq, store, queries) = (&pool, &router, &rq, &range_store, &queries);
            scope.spawn(move || {
                for i in 0..60usize {
                    let q = &queries[(t + i) % queries.len()];
                    let est = pool
                        .with(|c| router.estimate_range(rq, store, c, q))
                        .unwrap();
                    assert!(
                        est.value.is_finite(),
                        "reader {t} got a non-finite estimate"
                    );
                }
            });
        }
        for chunk in churn.chunks(12) {
            range_store.insert_slice(chunk).unwrap();
        }
    });
    range_oracle.insert_slice(&churn).unwrap();
    for q in &queries {
        let want = rq.estimate_with(&mut octx, &range_oracle, q).unwrap();
        let got = pool
            .with(|c| router.estimate_range(&rq, &range_store, c, q))
            .unwrap();
        assert_bit_identical(&want, &got, "post-churn quiescence");
        checks += 1;
    }

    // Phase 3: rebalance soak — online topology churn with bit-match
    // assertions after every op, then an op storm under concurrent readers.
    let mut topo_ops = 0u64;
    for round in 0..args.rebalance {
        let batch = rand_rects(&mut rng, 20);
        range_store.insert_slice(&batch).unwrap();
        range_oracle.insert_slice(&batch).unwrap();
        live.extend_from_slice(&batch);

        // Steer by the store's own load report, like a rebalancer would:
        // grow while below 2× the starting width, then shrink back.
        let report = range_store.load_report();
        let grow = range_store.shard_count() < (args.shards * 2).max(2);
        if grow {
            if round % 3 == 2 {
                // An occasional boundary move at a deliberately odd offset.
                let spans: Vec<_> = report.shards().iter().map(|s| s.span).collect();
                let b = 1 + round % (spans.len() - 1);
                let at = spans[b - 1].lo() + (spans[b].hi() - spans[b - 1].lo()) / 2 + 1;
                if range_store.move_shard_boundary(b, at).is_ok() {
                    topo_ops += 1;
                }
            } else if let Some((shard, at)) = report.split_candidate() {
                range_store.split_shard(shard, at).unwrap();
                topo_ops += 1;
            }
        } else if let Some(left) = report.merge_candidate() {
            range_store.merge_shards(left).unwrap();
            topo_ops += 1;
        }

        for qi in 0..3 {
            let label = format!("rebalance round {round} query {qi}");
            let q = rand_rects(&mut rng, 1)[0];
            let got = router
                .estimate_range(&rq, &range_store, &mut ctx, &q)
                .unwrap();
            let want = rq.estimate_with(&mut octx, &range_oracle, &q).unwrap();
            assert_bit_identical(&want, &got, &label);
            checks += 1;
        }
        let anchor = live[rng.gen_range(0..live.len())];
        let p = [anchor.range(0).lo(), anchor.range(1).lo()];
        let got = router
            .estimate_stab(&rq, &range_store, &mut ctx, &p)
            .unwrap();
        let want = rq.estimate_stab_with(&mut octx, &range_oracle, &p).unwrap();
        assert_bit_identical(&want, &got, &format!("rebalance round {round} stab"));
        checks += 1;
    }
    if args.rebalance > 0 {
        // Data held constant: every concurrent answer must bit-match the
        // one oracle no matter which epoch the reader catches mid-storm.
        let queries = rand_rects(&mut rng, 6);
        let wants: Vec<Estimate> = queries
            .iter()
            .map(|q| rq.estimate_with(&mut octx, &range_oracle, q).unwrap())
            .collect();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let racing_checks = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..args.readers {
                let (pool, router, rq, store) = (&pool, &router, &rq, &range_store);
                let (queries, wants, stop, racing) = (&queries, &wants, &stop, &racing_checks);
                scope.spawn(move || {
                    let mut i = 0usize;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let qi = (t + i) % queries.len();
                        let got = pool
                            .with(|c| router.estimate_range(rq, store, c, &queries[qi]))
                            .unwrap();
                        assert_bit_identical(
                            &wants[qi],
                            &got,
                            &format!("mid-rebalance reader {t} pass {i}"),
                        );
                        racing.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        i += 1;
                    }
                });
            }
            for _ in 0..args.rebalance {
                let report = range_store.load_report();
                if range_store.shard_count() > 2 {
                    if let Some(left) = report.merge_candidate() {
                        range_store.merge_shards(left).unwrap();
                        topo_ops += 1;
                    }
                } else if let Some((shard, at)) = report.split_candidate() {
                    range_store.split_shard(shard, at).unwrap();
                    topo_ops += 1;
                }
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        checks += racing_checks.load(std::sync::atomic::Ordering::Relaxed);
    }

    let epoch = range_store.load();
    println!(
        "serve-smoke OK: {} rounds, {} bit-match checks, {} topology ops, {} shards, final epoch {}, {} net objects",
        args.iters,
        checks,
        topo_ops,
        range_store.shard_count(),
        epoch.epoch(),
        epoch.total_len()
    );
}
