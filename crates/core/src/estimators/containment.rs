//! Containment-join estimation (Appendix B.2).
//!
//! "Assume we want to estimate how many intervals `[c, d] ∈ S` are contained
//! in intervals `[a, b] ∈ R`. We count how many squares `[a, b] × [a, b]`
//! contain the point `(c, d)`" — the d-dimensional containment problem
//! becomes a 2d-dimensional point-in-hyper-rectangle problem, estimated with
//! the same machinery as the ε-join. Containment is closed
//! (`a ≤ c ≤ d ≤ b`), so — like the ε-join — the estimator is unbiased with
//! no endpoint assumption.

use crate::atomic::{EndpointPolicy, SketchSet};
use crate::boost::Estimate;
use crate::comp::Comp;
use crate::error::Result;
use crate::estimator::{DimTerm, PairEstimator, PairTerms};
use crate::estimators::SketchConfig;
use crate::query::QueryContext;
use crate::schema::{DimSpec, SketchSchema};
use geometry::{HyperRect, Interval};
use rand::Rng;

fn containment_pair<const SD: usize, R: Rng + ?Sized>(
    rng: &mut R,
    config: SketchConfig,
    data_bits: u32,
) -> PairEstimator<SD> {
    let dims: [DimSpec; SD] = std::array::from_fn(|_| match config.max_level {
        Some(ml) => DimSpec::with_max_level(data_bits, ml),
        None => DimSpec::dyadic(data_bits),
    });
    let schema = SketchSchema::new(rng, config.shape, dims);
    // Outer side: interval cover of [a, b] in every sketch dimension.
    // Inner side: the point (c, d, ...) — one point cover per dimension.
    let per_dim: [Vec<DimTerm>; SD] =
        std::array::from_fn(|_| vec![DimTerm::new(Comp::Interval, Comp::LowerPoint, 1.0)]);
    let terms = PairTerms::from_dim_terms(&per_dim);
    PairEstimator::new(schema, terms, EndpointPolicy::Raw, EndpointPolicy::Raw)
}

/// Estimator for the 1-d containment join `#{(r, s) ∈ R × S : s ⊆ r}`.
///
/// Internally a 2-dimensional sketch: each outer interval `[a, b]` is the
/// square `[a, b]²`, each inner interval the point `(c, d)`.
#[derive(Debug, Clone)]
pub struct IntervalContainment {
    inner: PairEstimator<2>,
}

impl IntervalContainment {
    /// Creates the estimator for intervals over `{0, .., 2^data_bits - 1}`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, config: SketchConfig, data_bits: u32) -> Self {
        Self {
            inner: containment_pair::<2, R>(rng, config, data_bits),
        }
    }

    /// The underlying generic estimator.
    pub fn inner(&self) -> &PairEstimator<2> {
        &self.inner
    }

    /// Creates an empty sketch for the outer ("container") relation.
    pub fn new_sketch_outer(&self) -> SketchSet<2> {
        self.inner.new_sketch_r()
    }

    /// Creates an empty sketch for the inner ("contained") relation.
    pub fn new_sketch_inner(&self) -> SketchSet<2> {
        self.inner.new_sketch_s()
    }

    /// Inserts an outer interval.
    pub fn insert_outer(&self, sketch: &mut SketchSet<2>, iv: &Interval) -> Result<()> {
        sketch.insert(&HyperRect::new([*iv, *iv]))
    }

    /// Deletes an outer interval.
    pub fn delete_outer(&self, sketch: &mut SketchSet<2>, iv: &Interval) -> Result<()> {
        sketch.delete(&HyperRect::new([*iv, *iv]))
    }

    /// Inserts an inner interval.
    pub fn insert_inner(&self, sketch: &mut SketchSet<2>, iv: &Interval) -> Result<()> {
        sketch.insert(&HyperRect::new([
            Interval::point(iv.lo()),
            Interval::point(iv.hi()),
        ]))
    }

    /// Deletes an inner interval.
    pub fn delete_inner(&self, sketch: &mut SketchSet<2>, iv: &Interval) -> Result<()> {
        sketch.delete(&HyperRect::new([
            Interval::point(iv.lo()),
            Interval::point(iv.hi()),
        ]))
    }

    /// Combines the sketches into the boosted estimate of
    /// `#{(r, s) : s ⊆ r}`.
    pub fn estimate(&self, outer: &SketchSet<2>, inner: &SketchSet<2>) -> Result<Estimate> {
        self.inner.estimate(outer, inner)
    }

    /// Like [`IntervalContainment::estimate`] but with the caller's
    /// [`QueryContext`].
    pub fn estimate_with(
        &self,
        ctx: &mut QueryContext,
        outer: &SketchSet<2>,
        inner: &SketchSet<2>,
    ) -> Result<Estimate> {
        self.inner.estimate_with(ctx, outer, inner)
    }
}

/// Estimator for the 2-d containment join (rectangles containing
/// rectangles), a 4-dimensional sketch.
#[derive(Debug, Clone)]
pub struct RectContainment {
    inner: PairEstimator<4>,
}

impl RectContainment {
    /// Creates the estimator for rectangles over a `2^data_bits`-sided
    /// domain.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, config: SketchConfig, data_bits: u32) -> Self {
        Self {
            inner: containment_pair::<4, R>(rng, config, data_bits),
        }
    }

    /// The underlying generic estimator.
    pub fn inner(&self) -> &PairEstimator<4> {
        &self.inner
    }

    /// Creates an empty sketch for the outer relation.
    pub fn new_sketch_outer(&self) -> SketchSet<4> {
        self.inner.new_sketch_r()
    }

    /// Creates an empty sketch for the inner relation.
    pub fn new_sketch_inner(&self) -> SketchSet<4> {
        self.inner.new_sketch_s()
    }

    fn outer_rect(r: &HyperRect<2>) -> HyperRect<4> {
        HyperRect::new([r.range(0), r.range(0), r.range(1), r.range(1)])
    }

    fn inner_rect(r: &HyperRect<2>) -> HyperRect<4> {
        HyperRect::new([
            Interval::point(r.range(0).lo()),
            Interval::point(r.range(0).hi()),
            Interval::point(r.range(1).lo()),
            Interval::point(r.range(1).hi()),
        ])
    }

    /// Inserts an outer rectangle.
    pub fn insert_outer(&self, sketch: &mut SketchSet<4>, r: &HyperRect<2>) -> Result<()> {
        sketch.insert(&Self::outer_rect(r))
    }

    /// Deletes an outer rectangle.
    pub fn delete_outer(&self, sketch: &mut SketchSet<4>, r: &HyperRect<2>) -> Result<()> {
        sketch.delete(&Self::outer_rect(r))
    }

    /// Inserts an inner rectangle.
    pub fn insert_inner(&self, sketch: &mut SketchSet<4>, r: &HyperRect<2>) -> Result<()> {
        sketch.insert(&Self::inner_rect(r))
    }

    /// Deletes an inner rectangle.
    pub fn delete_inner(&self, sketch: &mut SketchSet<4>, r: &HyperRect<2>) -> Result<()> {
        sketch.delete(&Self::inner_rect(r))
    }

    /// Combines the sketches into the boosted estimate of
    /// `#{(r, s) : s ⊆ r}`.
    pub fn estimate(&self, outer: &SketchSet<4>, inner: &SketchSet<4>) -> Result<Estimate> {
        self.inner.estimate(outer, inner)
    }

    /// Like [`RectContainment::estimate`] but with the caller's
    /// [`QueryContext`].
    pub fn estimate_with(
        &self,
        ctx: &mut QueryContext,
        outer: &SketchSet<4>,
        inner: &SketchSet<4>,
    ) -> Result<Estimate> {
        self.inner.estimate_with(ctx, outer, inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::rect2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_se<const SD: usize>(
        pair: &PairEstimator<SD>,
        r: &SketchSet<SD>,
        s: &SketchSet<SD>,
    ) -> (f64, f64) {
        let shape = pair.schema().shape();
        let mut vals = Vec::new();
        for inst in 0..shape.instances() {
            let rc = r.instance_counters(inst);
            let sc = s.instance_counters(inst);
            let mut z = 0.0;
            for t in pair.terms().terms() {
                z += t.coeff * (rc[t.r_word] as i128 * sc[t.s_word] as i128) as f64;
            }
            vals.push(z);
        }
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
        (mean, (var / n).sqrt())
    }

    #[test]
    fn interval_containment_unbiased() {
        let mut rng = StdRng::seed_from_u64(80);
        let est = IntervalContainment::new(&mut rng, SketchConfig::new(400, 5), 8);
        let mut grng = StdRng::seed_from_u64(4);
        let outer: Vec<Interval> = (0..30)
            .map(|_| {
                let lo = grng.gen_range(0..200u64);
                Interval::new(lo, lo + grng.gen_range(10..50u64).min(255 - lo))
            })
            .collect();
        let inner: Vec<Interval> = (0..30)
            .map(|_| {
                let lo = grng.gen_range(0..240u64);
                Interval::new(lo, lo + grng.gen_range(1..14u64).min(255 - lo))
            })
            .collect();
        let truth = exact::interval_containment_count(&outer, &inner) as f64;
        assert!(truth > 0.0);
        let mut osk = est.new_sketch_outer();
        let mut isk = est.new_sketch_inner();
        for iv in &outer {
            est.insert_outer(&mut osk, iv).unwrap();
        }
        for iv in &inner {
            est.insert_inner(&mut isk, iv).unwrap();
        }
        let (mean, se) = mean_se(est.inner(), &osk, &isk);
        assert!(
            (mean - truth).abs() <= 6.0 * se + 1e-9,
            "mean {mean} vs truth {truth} (se {se})"
        );
    }

    #[test]
    fn closed_boundaries_count() {
        // Identical interval pairs are containment pairs; expectation must
        // reflect that exactly (closed semantics, no transform needed).
        let mut rng = StdRng::seed_from_u64(81);
        let est = IntervalContainment::new(&mut rng, SketchConfig::new(2000, 3), 5);
        let iv = Interval::new(7, 19);
        let mut osk = est.new_sketch_outer();
        let mut isk = est.new_sketch_inner();
        est.insert_outer(&mut osk, &iv).unwrap();
        est.insert_inner(&mut isk, &iv).unwrap();
        let (mean, se) = mean_se(est.inner(), &osk, &isk);
        assert!((mean - 1.0).abs() <= 6.0 * se + 1e-9, "mean {mean} se {se}");
    }

    #[test]
    fn rect_containment_unbiased() {
        let mut rng = StdRng::seed_from_u64(82);
        let est = RectContainment::new(&mut rng, SketchConfig::new(500, 5), 6);
        let mut grng = StdRng::seed_from_u64(5);
        let outer: Vec<HyperRect<2>> = (0..20)
            .map(|_| {
                let x = grng.gen_range(0..30u64);
                let y = grng.gen_range(0..30u64);
                rect2(
                    x,
                    x + grng.gen_range(8..30u64),
                    y,
                    y + grng.gen_range(8..30u64),
                )
            })
            .collect();
        let inner: Vec<HyperRect<2>> = (0..20)
            .map(|_| {
                let x = grng.gen_range(0..50u64);
                let y = grng.gen_range(0..50u64);
                rect2(
                    x,
                    x + grng.gen_range(1..8u64),
                    y,
                    y + grng.gen_range(1..8u64),
                )
            })
            .collect();
        let truth = exact::containment_count(&outer, &inner) as f64;
        assert!(truth > 0.0);
        let mut osk = est.new_sketch_outer();
        let mut isk = est.new_sketch_inner();
        for r in &outer {
            est.insert_outer(&mut osk, r).unwrap();
        }
        for r in &inner {
            est.insert_inner(&mut isk, r).unwrap();
        }
        let (mean, se) = mean_se(est.inner(), &osk, &isk);
        assert!(
            (mean - truth).abs() <= 6.0 * se + 1e-9,
            "mean {mean} vs truth {truth} (se {se})"
        );
    }

    #[test]
    fn deletions_work() {
        let mut rng = StdRng::seed_from_u64(83);
        let est = IntervalContainment::new(&mut rng, SketchConfig::new(8, 3), 8);
        let mut osk = est.new_sketch_outer();
        est.insert_outer(&mut osk, &Interval::new(5, 100)).unwrap();
        est.delete_outer(&mut osk, &Interval::new(5, 100)).unwrap();
        assert!(osk.is_empty());
        assert!(
            (0..osk.schema().instances()).all(|i| osk.instance_counters(i).iter().all(|&c| c == 0))
        );
    }
}
