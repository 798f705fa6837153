//! Differential suite: the batch entry point against the sequential
//! single-query oracle.
//!
//! `RangeQuery::estimate_batch_with` validates a batch, answers each
//! distinct query once through the same per-plan fill the single-query
//! calls run, and clones the answer into its duplicates. Every batched
//! answer must be **bit-identical** — boosted value *and* every row mean —
//! to the corresponding single-query call, across both ξ constructions,
//! dims 1–3, batch sizes 1/7/64 and one batch larger than the plan cache,
//! both kernels, a partly filled block on every prefix-fold branch, and
//! batches containing overlapping rects, exact duplicates, stabs at shared
//! data corners, degenerate rects and out-of-domain failures.
//!
//! Each kernel answers every batch in three rounds — cold (plan-cache
//! misses: each plan's covers evaluated into scratch), the first hit (which
//! fills each plan's query-product memo) and warm (answered from the memos)
//! — then a batch mixing warm and brand-new queries, and the shard-partial
//! entry points after warm-up. Every round must match the scalar oracle bit
//! for bit, and the memo counters must show exactly one fill per unique
//! query, all of them in the first-hit round.
//!
//! Heavyweight cases (batch 64, multi-block 3-d) are gated to the
//! `tests-release` lane with `#[cfg_attr(debug_assertions, ignore)]`,
//! following the ROADMAP convention.

use fourwise::XiKind;
use geometry::{HyperRect, Interval};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sketch::estimators::joins::{EndpointStrategy, SpatialJoin};
use sketch::estimators::SketchConfig;
use sketch::{
    BatchQuery, Estimate, PlanMemoStats, QueryContext, QueryKernel, RangeQuery, RangeStrategy,
    Result, SketchSet,
};
use std::collections::HashSet;

const KINDS: [XiKind; 2] = [XiKind::Bch, XiKind::Poly];

fn assert_bit_identical(want: &Estimate, got: &Estimate, label: &str) {
    assert_eq!(
        want.value.to_bits(),
        got.value.to_bits(),
        "{label}: boosted value diverged ({} vs {})",
        want.value,
        got.value
    );
    assert_eq!(
        want.row_means.len(),
        got.row_means.len(),
        "{label}: row count diverged"
    );
    for (i, (a, b)) in want.row_means.iter().zip(got.row_means.iter()).enumerate() {
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

/// A deterministic batch of `n` queries cycling a small hot pool:
/// overlapping rects anchored on data endpoints (so covers share cells), an
/// exact duplicate, stabs at shared data corners, one degenerate rect and
/// one out-of-domain rect — every shape a serving batch can contain.
fn batch_of<const D: usize>(data: &[HyperRect<D>], n: usize, max: u64) -> Vec<BatchQuery<D>> {
    let rect = |k: usize| {
        let base = &data[(k * 7) % data.len()];
        BatchQuery::Range(HyperRect::new(std::array::from_fn(|d| {
            let lo = base.range(d).lo().saturating_sub(k as u64);
            Interval::new(lo, (lo + 12 + 3 * k as u64).min(max))
        })))
    };
    let stab = |k: usize| {
        let base = &data[(k * 11) % data.len()];
        BatchQuery::Stab(std::array::from_fn(|d| base.range(d).lo()))
    };
    let pool = [
        rect(0),
        stab(0),
        rect(1),
        rect(0), // exact duplicate of slot 0
        stab(1),
        rect(2),
        // Degenerate in every dimension: selects nothing, answers zero.
        BatchQuery::Range(HyperRect::new(std::array::from_fn(|_| Interval::point(9)))),
        rect(3),
        // One past the domain: fails its slot alone (DomainOverflow).
        BatchQuery::Range(HyperRect::new(std::array::from_fn(|_| {
            Interval::new(0, max + 1)
        }))),
        rect(4),
        stab(2),
        rect(5),
        rect(6),
        stab(3),
    ];
    (0..n).map(|i| pool[i % pool.len()]).collect()
}

fn oracle<const D: usize>(
    rq: &RangeQuery<D>,
    ctx: &mut QueryContext,
    sk: &SketchSet<D>,
    q: &BatchQuery<D>,
) -> Result<Estimate> {
    match q {
        BatchQuery::Range(rect) => rq.estimate_with(ctx, sk, rect),
        BatchQuery::Stab(p) => rq.estimate_stab_with(ctx, sk, p),
    }
}

fn check_batch(got: &[Result<Estimate>], want: &[Result<Estimate>], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: reply arity");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let slot = format!("{label}/slot{i}");
        match (g, w) {
            (Ok(g), Ok(w)) => assert_bit_identical(w, g, &slot),
            (Err(g), Err(w)) => assert_eq!(g, w, "{slot}: errors diverged"),
            (g, w) => panic!("{slot}: batched {g:?} vs oracle {w:?}"),
        }
    }
}

/// Distinct queries of `batch` that compile a plan: everything but failing
/// slots and degenerate rects.
fn live_uniques<const D: usize>(batch: &[BatchQuery<D>], want: &[Result<Estimate>]) -> usize {
    batch
        .iter()
        .zip(want)
        .filter(|(q, w)| w.is_ok() && !matches!(q, BatchQuery::Range(r) if r.is_degenerate()))
        .map(|(q, _)| *q)
        .collect::<HashSet<_>>()
        .len()
}

/// Memo counter growth between two reports.
fn memo_delta(before: PlanMemoStats, after: PlanMemoStats) -> (u64, u64) {
    (after.fills - before.fills, after.reuses - before.reuses)
}

/// One configuration: a sketch over random data, batches of every requested
/// size through both kernels, each slot compared bit-for-bit
/// against the sequential scalar oracle over three rounds (cold, memo fill,
/// warm), a half-warm half-new batch, and the partial entry points.
fn batch_config<const D: usize>(kind: XiKind, k1: usize, sizes: &[usize], seed: u64) {
    let label = format!("batch/{kind:?}/{D}d/{k1}x1");
    let mut rng = StdRng::seed_from_u64(seed);
    let rq = RangeQuery::<D>::new(
        &mut rng,
        SketchConfig::new(k1, 1).with_kind(kind),
        [8; D],
        RangeStrategy::Transform,
    );
    let mut sk = rq.new_sketch();
    let data = rand_rects::<D>(&mut rng, 60, 255);
    sk.insert_slice(&data).unwrap();
    let mut octx = QueryContext::new().with_kernel(QueryKernel::Scalar);
    for &n in sizes {
        let batch = batch_of(&data, n, 255);
        let want: Vec<Result<Estimate>> = batch
            .iter()
            .map(|q| oracle(&rq, &mut octx, &sk, q))
            .collect();
        let uniques = live_uniques(&batch, &want) as u64;
        // Half of the mixed batch repeats the (by then warm) batch; the other
        // half is new: fresh rects plus a stab, so at least two cold queries
        // sit beside the warm ones.
        let mut mixed: Vec<BatchQuery<D>> = batch[..n.div_ceil(2)].to_vec();
        mixed.extend(
            rand_rects::<D>(&mut rng, n.div_ceil(2).max(2) - 1, 255)
                .into_iter()
                .map(BatchQuery::Range),
        );
        mixed.push(BatchQuery::Stab(std::array::from_fn(|d| {
            data[n % data.len()].range(d).hi()
        })));
        let mixed_want: Vec<Result<Estimate>> = mixed
            .iter()
            .map(|q| oracle(&rq, &mut octx, &sk, q))
            .collect();
        let mixed_warm = live_uniques(&mixed[..n.div_ceil(2)], &mixed_want) as u64;
        let mixed_cold = live_uniques(&mixed, &mixed_want) as u64 - mixed_warm;
        for kernel in [QueryKernel::Scalar, QueryKernel::Wide] {
            let label = format!("{label}/{kernel:?}/n{n}");
            // The blocked kernel reads and fills query-product memos; the
            // scalar oracle never does.
            let memo = kernel == QueryKernel::Wide;
            let per_memo = |count: u64| if memo { count } else { 0 };
            let mut ctx = QueryContext::new().with_kernel(kernel);
            let mut before = ctx.plan_cache_report().memo;
            for round in ["cold", "fill", "warm"] {
                let got = rq.estimate_batch_with(&mut ctx, &sk, &batch);
                check_batch(&got, &want, &format!("{label}/{round}"));
                let after = ctx.plan_cache_report().memo;
                let (fills, reuses) = memo_delta(before, after);
                let (want_fills, want_reuses) = match round {
                    "cold" => (0, 0),
                    "fill" => (per_memo(uniques), 0),
                    _ => (0, per_memo(uniques)),
                };
                assert_eq!(fills, want_fills, "{label}/{round}: memo fills");
                assert_eq!(reuses, want_reuses, "{label}/{round}: memo reuses");
                before = after;
            }
            assert_eq!(
                ctx.plan_cache_report().single.misses,
                uniques,
                "{label}: one compile per unique query"
            );

            // Warm and new queries in one batch: the warm half reads its
            // memos, the new half is evaluated cold and fills nothing —
            // until it repeats.
            for round in ["mixed", "mixed-again"] {
                let got = rq.estimate_batch_with(&mut ctx, &sk, &mixed);
                check_batch(&got, &mixed_want, &format!("{label}/{round}"));
                let after = ctx.plan_cache_report().memo;
                let (fills, reuses) = memo_delta(before, after);
                let (want_fills, want_reuses) = match round {
                    "mixed" => (0, per_memo(mixed_warm)),
                    _ => (per_memo(mixed_cold), per_memo(mixed_warm)),
                };
                assert_eq!(fills, want_fills, "{label}/{round}: memo fills");
                assert_eq!(reuses, want_reuses, "{label}/{round}: memo reuses");
                before = after;
            }

            // The shard-partial entry points read the same memos.
            for (i, q) in batch.iter().enumerate() {
                let (got, scalar) = match q {
                    BatchQuery::Range(rect) => (
                        rq.estimate_partial_with(&mut ctx, &sk, rect),
                        rq.estimate_partial_with(&mut octx, &sk, rect),
                    ),
                    BatchQuery::Stab(p) => (
                        rq.estimate_stab_partial_with(&mut ctx, &sk, p),
                        rq.estimate_stab_partial_with(&mut octx, &sk, p),
                    ),
                };
                let slot = format!("{label}/partial/slot{i}");
                match (&got, &scalar, &want[i]) {
                    (Ok(g), Ok(s), Ok(w)) => {
                        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(g.atomic()), bits(s.atomic()), "{slot}: atomic grid");
                        assert_bit_identical(w, &g.boost(), &slot);
                    }
                    (Err(g), Err(_), Err(w)) => assert_eq!(g, w, "{slot}: errors diverged"),
                    _ => panic!("{slot}: partial {got:?} vs scalar {scalar:?}"),
                }
            }
            let after = ctx.plan_cache_report().memo;
            assert_eq!(
                memo_delta(before, after).0,
                0,
                "{label}: partials fill nothing"
            );
        }
    }
}

#[test]
fn batch_kernels_agree_1d_2d() {
    for (i, kind) in KINDS.into_iter().enumerate() {
        // 67 instances: a partial block with one full backing word plus a
        // 3-lane tail.
        batch_config::<1>(kind, 67, &[1, 7], 400 + i as u64);
        batch_config::<2>(kind, 13, &[1, 7], 410 + i as u64);
    }
}

/// Instance counts occupying 1, 2, 3 and 4 of a block's 8 backing words:
/// the 1-, 2- and 4-word prefix folds (3 occupied words fold 4) and the
/// first count at the majority cutover, which folds all 8.
const FOLD_WIDTHS: [usize; 4] = [40, 100, 160, 250];

#[test]
fn fold_widths_match_oracle() {
    for (i, k1) in FOLD_WIDTHS.into_iter().enumerate() {
        let seed = 470 + 10 * i as u64;
        // Range and stab batches, cold, memo-filling and warm.
        batch_config::<2>(XiKind::Bch, k1, &[7], seed);
        // Joins: the blocked pair fill over the same partly filled block.
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let join = SpatialJoin::<2>::new(
            &mut rng,
            SketchConfig::new(k1, 1).with_kind(XiKind::Poly),
            [8; 2],
            EndpointStrategy::Transform,
        );
        let mut r = join.new_sketch_r();
        let mut s = join.new_sketch_s();
        r.insert_slice(&rand_rects::<2>(&mut rng, 60, 255)).unwrap();
        s.insert_slice(&rand_rects::<2>(&mut rng, 60, 255)).unwrap();
        let mut octx = QueryContext::new().with_kernel(QueryKernel::Scalar);
        let want = join.estimate_with(&mut octx, &r, &s).unwrap();
        let got = join.estimate(&r, &s).unwrap();
        assert_bit_identical(&want, &got, &format!("join/{k1}x1"));
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavyweight: tests-release lane")]
fn batch_kernels_agree_batch64() {
    for (i, kind) in KINDS.into_iter().enumerate() {
        batch_config::<1>(kind, 67, &[64], 420 + i as u64);
        batch_config::<2>(kind, 67, &[64], 430 + i as u64);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavyweight: tests-release lane")]
fn batch_kernels_agree_3d_multiblock() {
    for (i, kind) in KINDS.into_iter().enumerate() {
        // 520 instances: a full 512-lane block plus an 8-lane tail.
        batch_config::<3>(kind, 520, &[1, 7, 64], 440 + i as u64);
    }
}

#[test]
fn batch_long_truncated_covers_match_oracle() {
    // At maxLevel 4 on a 16-bit sketch domain (14 data bits, tripled) a
    // full-domain rect covers thousands of level-4 cells per dimension, far
    // more than one carry-save counter holds: the blocked fill must fold
    // such a list in chunks, exactly like the scalar oracle sums it.
    let mut rng = StdRng::seed_from_u64(450);
    let config = SketchConfig {
        kind: XiKind::Bch,
        shape: sketch::BoostShape::new(67, 1),
        max_level: Some(4),
    };
    let rq = RangeQuery::<2>::new(&mut rng, config, [14; 2], RangeStrategy::Transform);
    let mut sk = rq.new_sketch();
    sk.insert_slice(&rand_rects::<2>(&mut rng, 200, 16383))
        .unwrap();
    let rect = |lo: u64, hi: u64| HyperRect::new([Interval::new(lo, hi); 2]);
    let batch = [
        BatchQuery::Range(rect(0, 16383)),
        BatchQuery::Range(rect(5, 900)),
    ];
    let mut octx = QueryContext::new().with_kernel(QueryKernel::Scalar);
    let want: Vec<Result<Estimate>> = batch
        .iter()
        .map(|q| oracle(&rq, &mut octx, &sk, q))
        .collect();
    let mut ctx = QueryContext::new().with_kernel(QueryKernel::Wide);
    for round in ["cold", "fill", "warm"] {
        let got = rq.estimate_batch_with(&mut ctx, &sk, &batch);
        check_batch(&got, &want, &format!("long-cover/{round}"));
    }
}

/// Most plans a `QueryContext` caches (its LRU capacity).
const PLAN_CACHE_CAPACITY: u64 = 64;

#[test]
fn batch_larger_than_plan_cache_matches_oracle() {
    // 80 distinct queries (60 rects, 20 stabs) plus duplicates in one batch:
    // the batch's own lookups evict plans from the 64-entry LRU, including
    // the memoized plans of a warmed-up prefix, and every answer must still
    // bit-match the oracle with consistent cache and memo counters.
    let mut rng = StdRng::seed_from_u64(460);
    let rq = RangeQuery::<2>::new(
        &mut rng,
        SketchConfig::new(67, 1),
        [8; 2],
        RangeStrategy::Transform,
    );
    let mut sk = rq.new_sketch();
    sk.insert_slice(&rand_rects::<2>(&mut rng, 60, 255))
        .unwrap();
    let mut uniques: Vec<BatchQuery<2>> = Vec::new();
    let mut seen = HashSet::new();
    while uniques.len() < 80 {
        let q = if uniques.len() % 4 == 3 {
            BatchQuery::Stab(std::array::from_fn(|_| rng.gen_range(0..256u64)))
        } else {
            BatchQuery::Range(rand_rects::<2>(&mut rng, 1, 255)[0])
        };
        if seen.insert(q) {
            uniques.push(q);
        }
    }
    let mut batch = uniques.clone();
    batch.extend_from_slice(&uniques[..8]);
    batch.extend_from_slice(&uniques[70..]);
    let mut octx = QueryContext::new().with_kernel(QueryKernel::Scalar);
    let want: Vec<Result<Estimate>> = batch
        .iter()
        .map(|q| oracle(&rq, &mut octx, &sk, q))
        .collect();
    assert!(want.iter().all(Result::is_ok));
    // The largest memo is a rect plan's: 4 terms × 67 instances × 8 bytes.
    let max_resident = PLAN_CACHE_CAPACITY * 4 * rq.schema().instances() as u64 * 8;
    let label = "over-capacity";
    let mut ctx = QueryContext::new().with_kernel(QueryKernel::Wide);
    // Warm the first 8 queries so they carry memos into the batch.
    for _ in 0..2 {
        for q in &uniques[..8] {
            oracle(&rq, &mut ctx, &sk, q).unwrap();
        }
    }
    let mut lookups = 16u64;
    for round in ["first", "second"] {
        let got = rq.estimate_batch_with(&mut ctx, &sk, &batch);
        check_batch(&got, &want, &format!("{label}/{round}"));
        lookups += uniques.len() as u64;
        let report = ctx.plan_cache_report();
        assert_eq!(
            report.single.hits + report.single.misses,
            lookups,
            "{label}/{round}: one lookup per unique query"
        );
        assert!(
            report.single.evictions > 0,
            "{label}/{round}: LRU overflowed"
        );
        assert!(
            report.memo.resident_bytes <= max_resident,
            "{label}/{round}: {} memo bytes resident",
            report.memo.resident_bytes
        );
    }
    let memo = ctx.plan_cache_report().memo;
    assert_eq!(memo.fills, 8, "{label}: only the warmed-up plans filled");
    assert_eq!(memo.dropped, 8, "{label}: their memos left with them");
    assert_eq!(memo.resident_bytes, 0, "{label}: no memo outlives its plan");
}
