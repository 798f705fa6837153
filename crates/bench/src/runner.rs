//! Shared experiment machinery for the figure harnesses.

use crate::report::rel_error;
use geometry::HyperRect;
use histograms::{EulerHistogram, GeometricHistogram, GridSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch::estimators::joins::{EndpointStrategy, SpatialJoin};
use sketch::estimators::SketchConfig;
use sketch::{par_insert_batch, plan, BoostShape};

/// Worker threads used for parallel sketch building.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(16))
        .unwrap_or(8)
}

/// Splits a per-dataset word budget into a boosting grid: `k2` fixed at a
/// small odd median count (the paper's experiments hold confidence fixed and
/// spend extra memory on averaging), `k1` takes the rest.
pub fn shape_for_words(d: u32, words: f64) -> BoostShape {
    let instances = plan::instances_for_dataset_words(d, words).max(1);
    let k2 = 5usize.min(instances);
    let k2 = if k2.is_multiple_of(2) {
        k2.max(1) - 1
    } else {
        k2
    }
    .max(1);
    let k1 = (instances / k2).max(1);
    BoostShape::new(k1, k2)
}

/// Typical object extent in *sketch* coordinates for the transformed join
/// (tripled domain), feeding the Section 6.5 adaptive `maxLevel` choice.
///
/// Uses the **geometric** mean of per-dimension extents: real map data mixes
/// compact parcels with elongated features (roads, rivers) whose huge long
/// axes would drag an arithmetic mean — and with it the truncation level —
/// far above what the bulk of the endpoint mass wants.
pub fn mean_sketch_extent<const D: usize>(datasets: &[&[HyperRect<D>]]) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0u64;
    for data in datasets {
        for r in data.iter() {
            for d in 0..D {
                log_sum += (3.0 * r.range(d).length().max(1) as f64).log2();
                n += 1;
            }
        }
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp2()
    }
}

/// One SKETCH run: builds both sketches with a fresh schema (with the
/// Section 6.5 adaptive `maxLevel`) and returns the join estimate.
pub fn sketch_join_estimate_2d(
    r: &[HyperRect<2>],
    s: &[HyperRect<2>],
    data_bits: u32,
    shape: BoostShape,
    seed: u64,
    threads: usize,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let max_level = plan::adaptive_max_level(mean_sketch_extent(&[r, s]), data_bits + 2);
    let config = SketchConfig {
        shape,
        max_level: Some(max_level),
    };
    let join = SpatialJoin::<2>::new(
        &mut rng,
        config,
        [data_bits, data_bits],
        EndpointStrategy::Transform,
    );
    let mut sk_r = join.new_sketch_r();
    let mut sk_s = join.new_sketch_s();
    par_insert_batch(&mut sk_r, r, threads).expect("build R sketch");
    par_insert_batch(&mut sk_s, s, threads).expect("build S sketch");
    join.estimate(&sk_r, &sk_s).expect("estimate").value
}

/// Average SKETCH relative error over independent runs (the paper: "the
/// relative errors reported are averages over multiple independent runs").
#[allow(clippy::too_many_arguments)]
pub fn sketch_join_error_2d(
    r: &[HyperRect<2>],
    s: &[HyperRect<2>],
    truth: f64,
    data_bits: u32,
    words: f64,
    trials: u32,
    base_seed: u64,
    threads: usize,
) -> f64 {
    let shape = shape_for_words(2, words);
    let sum: f64 = (0..trials)
        .map(|t| {
            let est = sketch_join_estimate_2d(
                r,
                s,
                data_bits,
                shape,
                base_seed + 1000 * t as u64,
                threads,
            );
            rel_error(est, truth)
        })
        .sum();
    sum / trials as f64
}

/// EH relative error at a grid level.
pub fn eh_join_error(
    r: &[HyperRect<2>],
    s: &[HyperRect<2>],
    truth: f64,
    data_bits: u32,
    level: u32,
) -> f64 {
    let spec = GridSpec::new(data_bits, level);
    let mut eh_r = EulerHistogram::new(spec);
    let mut eh_s = EulerHistogram::new(spec);
    for x in r {
        eh_r.insert(x);
    }
    for x in s {
        eh_s.insert(x);
    }
    rel_error(eh_r.estimate_join(&eh_s), truth)
}

/// GH relative error at a grid level.
pub fn gh_join_error(
    r: &[HyperRect<2>],
    s: &[HyperRect<2>],
    truth: f64,
    data_bits: u32,
    level: u32,
) -> f64 {
    let spec = GridSpec::new(data_bits, level);
    let mut gh_r = GeometricHistogram::new(spec);
    let mut gh_s = GeometricHistogram::new(spec);
    for x in r {
        gh_r.insert(x);
    }
    for x in s {
        gh_s.insert(x);
    }
    rel_error(gh_r.estimate_join(&gh_s), truth)
}

/// Largest EH level (>= 1) whose footprint fits a word budget.
pub fn eh_level_for_words(budget: f64, max_level: u32) -> Option<u32> {
    (1..=max_level)
        .filter(|&l| EulerHistogram::words_at_level(l) as f64 <= budget)
        .max()
}

/// Largest GH level (>= 1) whose footprint fits a word budget.
pub fn gh_level_for_words(budget: f64, max_level: u32) -> Option<u32> {
    (1..=max_level)
        .filter(|&l| GeometricHistogram::words_at_level(l) as f64 <= budget)
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::SyntheticSpec;

    #[test]
    fn shape_splits_budget() {
        let shape = shape_for_words(2, 2209.0);
        // 2209 words / 5 per instance = 441 instances.
        assert_eq!(shape.instances(), 441 / 5 * 5);
        assert_eq!(shape.k2 % 2, 1);
        // Tiny budgets degrade gracefully.
        let tiny = shape_for_words(2, 7.0);
        assert_eq!(tiny.instances(), 1);
    }

    #[test]
    fn level_selection() {
        assert_eq!(eh_level_for_words(36_481.0, 10), Some(6));
        assert_eq!(eh_level_for_words(36_480.0, 10), Some(5));
        assert_eq!(eh_level_for_words(10.0, 10), None);
        // GH at level 5 uses 4^(5+1) = 4096 words — exactly the budget.
        assert_eq!(gh_level_for_words(4096.0, 10), Some(5));
        assert_eq!(gh_level_for_words(4095.0, 10), Some(4));
    }

    #[test]
    fn end_to_end_smoke() {
        // A tiny end-to-end run of all three estimators on one workload.
        let r: Vec<geometry::HyperRect<2>> = SyntheticSpec::paper(400, 10, 0.0, 1).generate();
        let s: Vec<geometry::HyperRect<2>> = SyntheticSpec::paper(400, 10, 0.0, 2).generate();
        let truth = exact::rect_join_count(&r, &s) as f64;
        assert!(truth > 0.0);
        let sk = sketch_join_error_2d(&r, &s, truth, 10, 600.0, 1, 7, 2);
        let eh = eh_join_error(&r, &s, truth, 10, 2);
        let gh = gh_join_error(&r, &s, truth, 10, 2);
        assert!(sk.is_finite() && eh.is_finite() && gh.is_finite());
        // Sanity: none of them should be absurdly wrong on uniform data.
        assert!(sk < 3.0 && eh < 3.0 && gh < 3.0, "sk {sk} eh {eh} gh {gh}");
    }
}
