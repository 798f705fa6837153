//! Bulk loading with an explicit worker count, and block-parallel
//! estimation and merging of sketches.
//!
//! Sketch instances are mutually independent, so work parallelizes across
//! the instance axis. [`par_update_batch`] is [`SketchSet::update_slice`]
//! with the caller's worker cap instead of the machine's: the same single
//! walk, which computes each object's dyadic covers and GF(2^k) cubes once
//! per span and splits whole 512-instance blocks across scoped workers, so
//! lanes never straddle a thread boundary. The scalar oracle never splits. This is how the
//! experiment harness affords the paper's thousands-of-instances
//! configurations.
//!
//! Estimation parallelizes the same way ([`par_estimate`]): the atomic
//! estimate grid splits into whole instance blocks, each worker fills its
//! share with the blocked query kernel, and the
//! single-threaded mean-then-median boost runs at the end. The result is
//! bit-identical to [`PairEstimator::estimate`].

use crate::atomic::SketchSet;
use crate::boost::Estimate;
use crate::error::Result;
use crate::estimator::PairEstimator;
use crate::query::pair_fill_blocked;
use geometry::HyperRect;

/// Applies a signed bulk update with at most `threads` workers.
///
/// Equivalent to [`SketchSet::update_slice`] — and to calling
/// [`SketchSet::update`] for every rectangle — with the worker cap chosen by
/// the caller (a slice below [`crate::INGEST_SPLIT_FLOOR`] object·instances
/// still runs on the calling thread). All rectangles are validated up
/// front, so either the whole batch applies or the sketch is untouched.
pub fn par_update_batch<const D: usize>(
    sketch: &mut SketchSet<D>,
    rects: &[HyperRect<D>],
    delta: i64,
    threads: usize,
) -> Result<()> {
    sketch.update_slice_on(rects, delta, threads)
}

/// Folds many sketch sets into `dst` with `threads` workers — the
/// cross-shard fan-in of a sharded serving store. Counter merging is pure
/// integer addition (sketches are linear), so the result is independent of
/// worker split and part order and bit-identical to folding the parts
/// sequentially with [`SketchSet::merge_from`].
///
/// All parts are checked up front (schema, words, policy); on error `dst`
/// is untouched.
pub fn par_merge_batch<const D: usize>(
    dst: &mut SketchSet<D>,
    parts: &[&SketchSet<D>],
    threads: usize,
) -> Result<()> {
    for p in parts {
        dst.check_mergeable(p)?;
    }
    if parts.is_empty() {
        return Ok(());
    }
    let threads = threads.max(1);
    let w = dst.words().len();
    let instances = dst.schema().instances();
    let per_thread = instances.div_ceil(threads) * w;
    let len_delta: i64 = parts.iter().map(|p| p.len()).sum();
    let counters = dst.counters_mut();
    std::thread::scope(|scope| {
        for (t, chunk) in counters.chunks_mut(per_thread).enumerate() {
            scope.spawn(move || {
                let base = t * per_thread;
                for part in parts {
                    let src = &part.counters()[base..base + chunk.len()];
                    for (c, o) in chunk.iter_mut().zip(src.iter()) {
                        *c += o;
                    }
                }
            });
        }
    });
    dst.add_len(len_delta);
    Ok(())
}

/// Parallel bulk insert; see [`par_update_batch`].
pub fn par_insert_batch<const D: usize>(
    sketch: &mut SketchSet<D>,
    rects: &[HyperRect<D>],
    threads: usize,
) -> Result<()> {
    par_update_batch(sketch, rects, 1, threads)
}

/// Block-parallel pair estimation: splits the atomic estimate grid into
/// whole instance blocks across `threads` workers, each running the blocked
/// query kernel over its contiguous share, then boosts single-threaded.
/// Bit-identical to [`PairEstimator::estimate`] under every kernel,
/// worthwhile once `instances × terms` is large enough to amortize thread
/// spawns.
pub fn par_estimate<const D: usize>(
    pair: &PairEstimator<D>,
    r: &SketchSet<D>,
    s: &SketchSet<D>,
    threads: usize,
) -> Result<Estimate> {
    pair.check_sketches(r, s)?;
    let threads = threads.max(1);
    let schema = pair.schema();
    let shape = schema.shape();
    let mut atomic = vec![0.0f64; shape.instances()];
    let blocks = schema.instance_blocks();
    let per_thread = blocks.div_ceil(threads);
    let terms = pair.terms().terms();
    std::thread::scope(|scope| {
        let mut rest = &mut atomic[..];
        let mut block = 0usize;
        while !rest.is_empty() {
            let span_end = (block + per_thread).min(blocks);
            let insts: usize = (block..span_end)
                .map(|b| schema.seed_blocks(0)[b].lanes())
                .sum();
            let (chunk, tail) = rest.split_at_mut(insts);
            rest = tail;
            let first = block;
            block = span_end;
            scope.spawn(move || pair_fill_blocked(terms, r, s, first, chunk));
        }
    });
    Ok(Estimate::from_grid(&atomic, shape.k1, shape.k2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::BuildKernel;
    use crate::atomic::EndpointPolicy;
    use crate::comp::ie_words;
    use crate::schema::{BoostShape, DimSpec, SketchSchema};
    use fourwise::XiKind;
    use geometry::rect2;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng};
    use std::sync::Arc;

    fn rects(n: usize, seed: u64) -> Vec<HyperRect<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = rng.gen_range(0..200u64);
                let y = rng.gen_range(0..200u64);
                rect2(
                    x,
                    x + rng.gen_range(1u64..50),
                    y,
                    y + rng.gen_range(1u64..50),
                )
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(100);
        let schema = SketchSchema::<2>::new(
            &mut rng,
            XiKind::Bch,
            BoostShape::new(7, 3), // deliberately not divisible by threads
            [DimSpec::dyadic(8); 2],
        );
        let words = Arc::new(ie_words::<2>());
        let data = rects(600, 1); // spans multiple blocks
        let mut seq = SketchSet::new(schema.clone(), words.clone(), EndpointPolicy::Raw);
        for r in &data {
            seq.insert(r).unwrap();
        }
        for kernel in [BuildKernel::Scalar, BuildKernel::Wide] {
            for threads in [1usize, 2, 3, 8] {
                let mut par = SketchSet::new(schema.clone(), words.clone(), EndpointPolicy::Raw)
                    .with_kernel(kernel);
                par_insert_batch(&mut par, &data, threads).unwrap();
                assert_eq!(par.len(), seq.len());
                for inst in 0..schema.instances() {
                    assert_eq!(
                        par.instance_counters(inst),
                        seq.instance_counters(inst),
                        "kernel={kernel:?} threads={threads} inst={inst}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_across_block_boundary() {
        // 520 instances: one full 512-lane block plus an 8-lane tail,
        // split across workers that cannot divide the block count evenly;
        // 220 objects put the slice above the split floor.
        let mut rng = StdRng::seed_from_u64(104);
        let schema = SketchSchema::<2>::new(
            &mut rng,
            XiKind::Bch,
            BoostShape::new(260, 2),
            [DimSpec::dyadic(8); 2],
        );
        let words = Arc::new(ie_words::<2>());
        let data = rects(220, 5);
        let mut seq = SketchSet::new(schema.clone(), words.clone(), EndpointPolicy::Raw)
            .with_kernel(BuildKernel::Scalar);
        for r in &data {
            seq.insert(r).unwrap();
        }
        for threads in [1usize, 2, 5] {
            let mut par = SketchSet::new(schema.clone(), words.clone(), EndpointPolicy::Raw);
            par_insert_batch(&mut par, &data, threads).unwrap();
            for inst in 0..schema.instances() {
                assert_eq!(
                    par.instance_counters(inst),
                    seq.instance_counters(inst),
                    "threads={threads} inst={inst}"
                );
            }
        }
    }

    #[test]
    fn invalid_batch_leaves_sketch_untouched() {
        let mut rng = StdRng::seed_from_u64(101);
        let schema = SketchSchema::<2>::new(
            &mut rng,
            XiKind::Bch,
            BoostShape::new(2, 2),
            [DimSpec::dyadic(8); 2],
        );
        let words = Arc::new(ie_words::<2>());
        let mut sk = SketchSet::new(schema, words, EndpointPolicy::Raw);
        let mut data = rects(10, 2);
        data.push(rect2(0, 10_000, 0, 5)); // out of domain
        assert!(par_insert_batch(&mut sk, &data, 4).is_err());
        assert_eq!(sk.len(), 0);
        assert!(
            (0..sk.schema().instances()).all(|i| sk.instance_counters(i).iter().all(|&c| c == 0))
        );
    }

    #[test]
    fn parallel_delete_batch() {
        let mut rng = StdRng::seed_from_u64(102);
        let schema = SketchSchema::<2>::new(
            &mut rng,
            XiKind::Bch,
            BoostShape::new(4, 3),
            [DimSpec::dyadic(8); 2],
        );
        let words = Arc::new(ie_words::<2>());
        let mut sk = SketchSet::new(schema, words, EndpointPolicy::Raw);
        let data = rects(100, 3);
        par_insert_batch(&mut sk, &data, 4).unwrap();
        par_update_batch(&mut sk, &data, -1, 4).unwrap();
        assert!(sk.is_empty());
        assert!(
            (0..sk.schema().instances()).all(|i| sk.instance_counters(i).iter().all(|&c| c == 0))
        );
    }

    #[test]
    fn par_estimate_matches_sequential_bitwise() {
        use crate::estimators::joins::{EndpointStrategy, SpatialJoin};
        use crate::estimators::SketchConfig;
        use crate::query::{QueryContext, QueryKernel};

        let mut rng = StdRng::seed_from_u64(105);
        // 67 instances: one partial block with two occupied words.
        let join = SpatialJoin::<2>::new(
            &mut rng,
            SketchConfig::new(67, 1),
            [8, 8],
            EndpointStrategy::Transform,
        );
        let mut r = join.new_sketch_r();
        let mut s = join.new_sketch_s();
        par_insert_batch(&mut r, &rects(150, 6), 4).unwrap();
        par_insert_batch(&mut s, &rects(150, 7), 4).unwrap();
        let seq = join.estimate(&r, &s).unwrap();
        for kernel in [QueryKernel::Scalar, QueryKernel::Wide] {
            let mut ctx = QueryContext::new().with_kernel(kernel);
            let est = join.estimate_with(&mut ctx, &r, &s).unwrap();
            assert_eq!(seq.value.to_bits(), est.value.to_bits(), "{kernel:?}");
        }
        for threads in [1usize, 2, 3, 8] {
            let par = par_estimate(join.inner(), &r, &s, threads).unwrap();
            assert_eq!(
                par.value.to_bits(),
                seq.value.to_bits(),
                "threads {threads}"
            );
            assert_eq!(par.row_means, seq.row_means, "threads {threads}");
        }
        // Foreign sketches are rejected up front.
        let other = SpatialJoin::<2>::new(
            &mut rng,
            SketchConfig::new(4, 1),
            [8, 8],
            EndpointStrategy::Transform,
        );
        assert!(par_estimate(other.inner(), &r, &s, 2).is_err());
    }

    #[test]
    fn par_merge_matches_sequential_and_reset_clears() {
        let mut rng = StdRng::seed_from_u64(106);
        let schema = SketchSchema::<2>::new(
            &mut rng,
            XiKind::Bch,
            BoostShape::new(67, 3), // straddles a block boundary
            [DimSpec::dyadic(8); 2],
        );
        let words = Arc::new(ie_words::<2>());
        let data = rects(90, 8);
        let mk = || SketchSet::new(schema.clone(), words.clone(), EndpointPolicy::Raw);
        let mut parts: Vec<SketchSet<2>> = (0..3).map(|_| mk()).collect();
        for (i, r) in data.iter().enumerate() {
            parts[i % 3].insert(r).unwrap();
        }
        let mut seq = mk();
        for p in &parts {
            seq.merge_from(p).unwrap();
        }
        let part_refs: Vec<&SketchSet<2>> = parts.iter().collect();
        for threads in [1usize, 2, 5] {
            let mut par = mk();
            par_merge_batch(&mut par, &part_refs, threads).unwrap();
            assert_eq!(par.len(), seq.len());
            for inst in 0..schema.instances() {
                assert_eq!(
                    par.instance_counters(inst),
                    seq.instance_counters(inst),
                    "threads={threads} inst={inst}"
                );
            }
            // Reset returns the merge target to the fresh state, reusable.
            par.reset();
            assert!(par.is_empty());
            assert!(
                (0..schema.instances()).all(|i| par.instance_counters(i).iter().all(|&c| c == 0))
            );
            par_merge_batch(&mut par, &part_refs, threads).unwrap();
            assert_eq!(par.instance_counters(0), seq.instance_counters(0));
        }
        // Foreign parts are rejected up front, destination untouched.
        let foreign_schema = SketchSchema::<2>::new(
            &mut rng,
            XiKind::Bch,
            BoostShape::new(67, 3),
            [DimSpec::dyadic(8); 2],
        );
        let foreign = SketchSet::new(foreign_schema, words.clone(), EndpointPolicy::Raw);
        let mut dst = mk();
        assert!(par_merge_batch(&mut dst, &[&parts[0], &foreign], 2).is_err());
        assert!(dst.is_empty());
    }

    #[test]
    fn more_threads_than_instances() {
        let mut rng = StdRng::seed_from_u64(103);
        let schema = SketchSchema::<2>::new(
            &mut rng,
            XiKind::Bch,
            BoostShape::new(1, 1),
            [DimSpec::dyadic(8); 2],
        );
        let words = Arc::new(ie_words::<2>());
        let mut sk = SketchSet::new(schema, words, EndpointPolicy::Raw);
        par_insert_batch(&mut sk, &rects(5, 4), 16).unwrap();
        assert_eq!(sk.len(), 5);
    }
}
