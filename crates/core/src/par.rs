//! Bulk loading with an explicit worker count.
//!
//! Sketch instances are mutually independent, so work parallelizes across
//! the instance axis. [`par_update_batch`] is [`SketchSet::update_slice`]
//! with the caller's worker cap instead of the machine's: the same single
//! walk, which computes each object's dyadic covers and GF(2^k) cubes once
//! per span and splits whole 512-instance blocks across scoped workers, so
//! lanes never straddle a thread boundary. The scalar oracle never splits. This is how the
//! experiment harness affords the paper's thousands-of-instances
//! configurations.

use crate::atomic::SketchSet;
use crate::error::Result;
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

/// Parallel bulk insert; see [`par_update_batch`].
pub fn par_insert_batch<const D: usize>(
    sketch: &mut SketchSet<D>,
    rects: &[HyperRect<D>],
    threads: usize,
) -> Result<()> {
    par_update_batch(sketch, rects, 1, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::BuildKernel;
    use crate::atomic::EndpointPolicy;
    use crate::comp::ie_words;
    use crate::schema::{BoostShape, DimSpec, SketchSchema};
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
        let schema =
            SketchSchema::<2>::new(&mut rng, BoostShape::new(260, 2), [DimSpec::dyadic(8); 2]);
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
        let schema =
            SketchSchema::<2>::new(&mut rng, BoostShape::new(2, 2), [DimSpec::dyadic(8); 2]);
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
        let schema =
            SketchSchema::<2>::new(&mut rng, BoostShape::new(4, 3), [DimSpec::dyadic(8); 2]);
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
    fn more_threads_than_instances() {
        let mut rng = StdRng::seed_from_u64(103);
        let schema =
            SketchSchema::<2>::new(&mut rng, BoostShape::new(1, 1), [DimSpec::dyadic(8); 2]);
        let words = Arc::new(ie_words::<2>());
        let mut sk = SketchSet::new(schema, words, EndpointPolicy::Raw);
        par_insert_batch(&mut sk, &rects(5, 4), 16).unwrap();
        assert_eq!(sk.len(), 5);
    }
}
