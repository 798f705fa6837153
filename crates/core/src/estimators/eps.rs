//! ε-join estimation for point sets under L∞ (Section 6.3).
//!
//! Each point `b ∈ B` is replaced by the hyper-cube of side `2ε` centered at
//! `b`; then `dist_∞(a, b) ≤ ε ⇔ a ∈ cube(b)`, and the join cardinality is
//! the number of (point, cube) containment events. Containment is *closed*,
//! so — unlike the overlap join — no endpoint assumption or transform is
//! needed: Lemma 8 gives `E[X_E Y_I] = |A ⋈_ε B|` unconditionally, with
//! `Var ≤ (3^d - 1)·SJ(X_E)·SJ(Y_I)`.

use crate::atomic::{EndpointPolicy, SketchSet};
use crate::boost::Estimate;
use crate::comp::Comp;
use crate::error::Result;
use crate::estimator::{DimTerm, PairEstimator, PairTerms};
use crate::estimators::SketchConfig;
use crate::query::QueryContext;
use crate::schema::{DimSpec, SketchSchema};
use geometry::distance::linf_cube;
use geometry::{HyperRect, Point};
use rand::Rng;

/// Estimator for `|A ⋈_ε B|` over d-dimensional point sets.
#[derive(Debug, Clone)]
pub struct EpsJoin<const D: usize> {
    inner: PairEstimator<D>,
    eps: u64,
    domain_max: u64,
}

impl<const D: usize> EpsJoin<D> {
    /// Creates the estimator for points over `{0, .., 2^data_bits - 1}^D`
    /// and distance threshold `eps`.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        config: SketchConfig,
        data_bits: u32,
        eps: u64,
    ) -> Self {
        let dims: [DimSpec; D] = std::array::from_fn(|_| match config.max_level {
            Some(ml) => DimSpec::with_max_level(data_bits, ml),
            None => DimSpec::dyadic(data_bits),
        });
        let schema = SketchSchema::new(rng, config.shape, dims);
        // Per-dimension factor: point cover of a_i  ×  interval cover of the
        // cube's range — one term, coefficient 1 (Lemma 8).
        let per_dim: [Vec<DimTerm>; D] =
            std::array::from_fn(|_| vec![DimTerm::new(Comp::LowerPoint, Comp::Interval, 1.0)]);
        let terms = PairTerms::from_dim_terms(&per_dim);
        let inner = PairEstimator::new(schema, terms, EndpointPolicy::Raw, EndpointPolicy::Raw);
        Self {
            inner,
            eps,
            domain_max: (1u64 << data_bits) - 1,
        }
    }

    /// The distance threshold.
    pub fn eps(&self) -> u64 {
        self.eps
    }

    /// The underlying generic estimator.
    pub fn inner(&self) -> &PairEstimator<D> {
        &self.inner
    }

    /// Creates an empty sketch for the point set `A`.
    pub fn new_sketch_a(&self) -> SketchSet<D> {
        self.inner.new_sketch_r()
    }

    /// Creates an empty sketch for the point set `B`.
    pub fn new_sketch_b(&self) -> SketchSet<D> {
        self.inner.new_sketch_s()
    }

    /// Inserts a point into the `A`-side sketch.
    pub fn insert_a(&self, sketch: &mut SketchSet<D>, p: &Point<D>) -> Result<()> {
        sketch.insert(&HyperRect::from_point(*p))
    }

    /// Deletes a point from the `A`-side sketch.
    pub fn delete_a(&self, sketch: &mut SketchSet<D>, p: &Point<D>) -> Result<()> {
        sketch.delete(&HyperRect::from_point(*p))
    }

    /// Inserts a point into the `B`-side sketch (expanded to its ε-cube).
    pub fn insert_b(&self, sketch: &mut SketchSet<D>, p: &Point<D>) -> Result<()> {
        sketch.insert(&linf_cube(p, self.eps, self.domain_max))
    }

    /// Deletes a point from the `B`-side sketch.
    pub fn delete_b(&self, sketch: &mut SketchSet<D>, p: &Point<D>) -> Result<()> {
        sketch.delete(&linf_cube(p, self.eps, self.domain_max))
    }

    /// Combines the two sketches into the boosted cardinality estimate.
    pub fn estimate(&self, a: &SketchSet<D>, b: &SketchSet<D>) -> Result<Estimate> {
        self.inner.estimate(a, b)
    }

    /// Like [`EpsJoin::estimate`] but with the caller's [`QueryContext`]
    /// (kernel choice + reused scratch for serving loops).
    pub fn estimate_with(
        &self,
        ctx: &mut QueryContext,
        a: &SketchSet<D>,
        b: &SketchSet<D>,
    ) -> Result<Estimate> {
        self.inner.estimate_with(ctx, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_se<const D: usize>(
        join: &PairEstimator<D>,
        a: &SketchSet<D>,
        b: &SketchSet<D>,
    ) -> (f64, f64) {
        let shape = join.schema().shape();
        let mut vals = Vec::new();
        for inst in 0..shape.instances() {
            let ac = a.instance_counters(inst);
            let bc = b.instance_counters(inst);
            let mut z = 0.0;
            for t in join.terms().terms() {
                z += t.coeff * (ac[t.r_word] as i128 * bc[t.s_word] as i128) as f64;
            }
            vals.push(z);
        }
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
        (mean, (var / n).sqrt())
    }

    #[test]
    fn eps_join_unbiased_2d() {
        let mut rng = StdRng::seed_from_u64(60);
        let est = EpsJoin::<2>::new(&mut rng, SketchConfig::new(300, 5), 8, 6);
        let gen = |seed: u64, n: usize| -> Vec<Point<2>> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n)
                .map(|_| [rng.gen_range(0..256u64), rng.gen_range(0..256u64)])
                .collect()
        };
        let a_pts = gen(1, 60);
        let b_pts = gen(2, 60);
        let truth = exact::eps_join_count(&a_pts, &b_pts, 6) as f64;
        assert!(truth > 0.0, "pick eps so the truth is nonzero");
        let mut a = est.new_sketch_a();
        let mut b = est.new_sketch_b();
        for p in &a_pts {
            est.insert_a(&mut a, p).unwrap();
        }
        for p in &b_pts {
            est.insert_b(&mut b, p).unwrap();
        }
        let (mean, se) = mean_se(est.inner(), &a, &b);
        assert!(
            (mean - truth).abs() <= 6.0 * se + 1e-9,
            "mean {mean} vs truth {truth} (se {se})"
        );
    }

    #[test]
    fn eps_join_exact_on_identical_points() {
        // Shared coordinates are fine for the ε-join (closed containment):
        // a single identical point pair with eps=0 must give E[Z] = 1.
        let mut rng = StdRng::seed_from_u64(61);
        let est = EpsJoin::<1>::new(&mut rng, SketchConfig::new(2000, 3), 5, 0);
        let mut a = est.new_sketch_a();
        let mut b = est.new_sketch_b();
        est.insert_a(&mut a, &[17]).unwrap();
        est.insert_b(&mut b, &[17]).unwrap();
        let (mean, se) = mean_se(est.inner(), &a, &b);
        assert!(
            (mean - 1.0).abs() <= 6.0 * se + 1e-9,
            "mean {mean}, se {se}"
        );
    }

    #[test]
    fn deletion_removes_contribution() {
        let mut rng = StdRng::seed_from_u64(62);
        let est = EpsJoin::<2>::new(&mut rng, SketchConfig::new(8, 3), 8, 4);
        let mut a = est.new_sketch_a();
        est.insert_a(&mut a, &[5, 9]).unwrap();
        est.insert_a(&mut a, &[100, 200]).unwrap();
        est.delete_a(&mut a, &[5, 9]).unwrap();
        est.delete_a(&mut a, &[100, 200]).unwrap();
        assert!(a.is_empty());
        assert!((0..a.schema().instances()).all(|i| a.instance_counters(i).iter().all(|&c| c == 0)));
    }

    #[test]
    fn cube_clamping_at_domain_edge() {
        let mut rng = StdRng::seed_from_u64(63);
        let est = EpsJoin::<2>::new(&mut rng, SketchConfig::new(400, 5), 6, 5);
        // Points hugging the domain boundary.
        let a_pts: Vec<Point<2>> = vec![[0, 0], [63, 63], [0, 63]];
        let b_pts: Vec<Point<2>> = vec![[2, 3], [60, 61], [1, 60], [30, 30]];
        let truth = exact::eps_join_count(&a_pts, &b_pts, 5) as f64;
        let mut a = est.new_sketch_a();
        let mut b = est.new_sketch_b();
        for p in &a_pts {
            est.insert_a(&mut a, p).unwrap();
        }
        for p in &b_pts {
            est.insert_b(&mut b, p).unwrap();
        }
        let (mean, se) = mean_se(est.inner(), &a, &b);
        assert!(
            (mean - truth).abs() <= 6.0 * se + 1e-9,
            "mean {mean} vs truth {truth} (se {se})"
        );
    }
}
