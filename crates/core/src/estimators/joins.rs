//! Spatial join estimators for sets of hyper-rectangles.
//!
//! [`SpatialJoin`] estimates `|R ⋈_o S|` (Definition 1: full-dimensional
//! intersection). Three strategies handle the common-endpoint problem of
//! Section 4.1.2:
//!
//! * [`EndpointStrategy::AssumeDistinct`] — the raw estimator of
//!   Theorems 1-3. Exact in expectation **only** under Assumption 1 (no
//!   endpoint coordinate shared between `R` and `S` in any dimension).
//! * [`EndpointStrategy::Transform`] — the Section 5.2 domain transform:
//!   both relations are embedded into the tripled domain and `S` is shrunk;
//!   unbiased for arbitrary inputs at the cost of two extra domain bits.
//! * [`EndpointStrategy::CorrectCommon`] — the Appendix C estimator: stays
//!   on the raw domain and subtracts the over-counts with additional
//!   leaf-endpoint sketches `X_L`/`X_U` (more atomic sketches, larger
//!   variance bound `2·SJ(R)·SJ(S)` instead of `SJ(R)·SJ(S)/2` in 1-d).
//!
//! [`OverlapPlusJoin`] estimates the extended join `|R ⋈+_o S|`
//! (Definition 4: touching boundaries count), per Appendix B.1.
//!
//! Both require non-degenerate objects (zero-extent objects contribute
//! nothing to `⋈_o` by definition and are mishandled by `⋈+_o` counting;
//! the paper makes the same assumption in Section 4.1).

use crate::atomic::{EndpointPolicy, SketchSet};
use crate::boost::Estimate;
use crate::comp::Comp;
use crate::error::Result;
use crate::estimator::{DimTerm, PairEstimator, PairTerms};
use crate::estimators::SketchConfig;
use crate::query::QueryContext;
use crate::schema::{DimSpec, SketchSchema};
use rand::Rng;

/// How shared endpoint coordinates between `R` and `S` are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointStrategy {
    /// Trust Assumption 1; cheapest and matches Theorems 1-3 verbatim.
    AssumeDistinct,
    /// Section 5.2 endpoint transform (tripled domain, `S` shrunk).
    Transform,
    /// Appendix C corrective sketches on the raw domain.
    CorrectCommon,
}

fn join_dim_terms(strategy: EndpointStrategy) -> Vec<DimTerm> {
    let mut terms = vec![
        DimTerm::new(Comp::Interval, Comp::Endpoints, 0.5),
        DimTerm::new(Comp::Endpoints, Comp::Interval, 0.5),
    ];
    if strategy == EndpointStrategy::CorrectCommon {
        // Appendix C (Lemma 13): subtract the over-counts of Figure 3 cases
        // (2), (5) and (6) using leaf-endpoint sketches.
        terms.extend([
            DimTerm::new(Comp::LowerLeaf, Comp::UpperLeaf, -1.0),
            DimTerm::new(Comp::UpperLeaf, Comp::LowerLeaf, -1.0),
            DimTerm::new(Comp::LowerLeaf, Comp::LowerLeaf, -0.5),
            DimTerm::new(Comp::UpperLeaf, Comp::UpperLeaf, -0.5),
        ]);
    }
    terms
}

fn policies(strategy: EndpointStrategy) -> (EndpointPolicy, EndpointPolicy) {
    match strategy {
        EndpointStrategy::AssumeDistinct | EndpointStrategy::CorrectCommon => {
            (EndpointPolicy::Raw, EndpointPolicy::Raw)
        }
        EndpointStrategy::Transform => (EndpointPolicy::Tripled, EndpointPolicy::TripledShrunk),
    }
}

fn build_pair<const D: usize, R: Rng + ?Sized>(
    rng: &mut R,
    config: SketchConfig,
    data_bits: [u32; D],
    per_dim_terms: Vec<DimTerm>,
    r_policy: EndpointPolicy,
    s_policy: EndpointPolicy,
) -> PairEstimator<D> {
    let extra = r_policy.extra_bits().max(s_policy.extra_bits());
    let dims: [DimSpec; D] = std::array::from_fn(|i| {
        let bits = data_bits[i] + extra;
        match config.max_level {
            Some(ml) => DimSpec::with_max_level(bits, ml),
            None => DimSpec::dyadic(bits),
        }
    });
    let schema = SketchSchema::new(rng, config.shape, dims);
    let per_dim: [Vec<DimTerm>; D] = std::array::from_fn(|_| per_dim_terms.clone());
    let terms = PairTerms::from_dim_terms(&per_dim);
    PairEstimator::new(schema, terms, r_policy, s_policy)
}

/// Estimator for the spatial join `|R ⋈_o S|` of d-dimensional
/// hyper-rectangle sets (Theorems 1-3 with the Section 5 generalizations).
///
/// ```
/// use rand::SeedableRng;
/// use sketch::estimators::{joins::{EndpointStrategy, SpatialJoin}, SketchConfig};
/// use geometry::rect2;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let join = SpatialJoin::<2>::new(
///     &mut rng,
///     SketchConfig::new(64, 5),
///     [10, 10],
///     EndpointStrategy::Transform,
/// );
/// let mut r = join.new_sketch_r();
/// let mut s = join.new_sketch_s();
/// r.insert(&rect2(0, 100, 0, 100)).unwrap();
/// s.insert(&rect2(50, 150, 50, 150)).unwrap();
/// let est = join.estimate(&r, &s).unwrap();
/// assert!(est.value.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct SpatialJoin<const D: usize> {
    inner: PairEstimator<D>,
    strategy: EndpointStrategy,
}

impl<const D: usize> SpatialJoin<D> {
    /// Creates the estimator for data domains of `2^data_bits[i]` values per
    /// dimension.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        config: SketchConfig,
        data_bits: [u32; D],
        strategy: EndpointStrategy,
    ) -> Self {
        let (rp, sp) = policies(strategy);
        let inner = build_pair(rng, config, data_bits, join_dim_terms(strategy), rp, sp);
        Self { inner, strategy }
    }

    /// The endpoint strategy in use.
    pub fn strategy(&self) -> EndpointStrategy {
        self.strategy
    }

    /// The underlying generic estimator (schema, words, terms).
    pub fn inner(&self) -> &PairEstimator<D> {
        &self.inner
    }

    /// Creates an empty sketch for `R`.
    pub fn new_sketch_r(&self) -> SketchSet<D> {
        self.inner.new_sketch_r()
    }

    /// Creates an empty sketch for `S`.
    pub fn new_sketch_s(&self) -> SketchSet<D> {
        self.inner.new_sketch_s()
    }

    /// Combines the two sketches into the boosted cardinality estimate.
    pub fn estimate(&self, r: &SketchSet<D>, s: &SketchSet<D>) -> Result<Estimate> {
        self.inner.estimate(r, s)
    }

    /// Like [`SpatialJoin::estimate`] but with the caller's
    /// [`QueryContext`] (kernel choice + reused scratch for serving loops).
    pub fn estimate_with(
        &self,
        ctx: &mut QueryContext,
        r: &SketchSet<D>,
        s: &SketchSet<D>,
    ) -> Result<Estimate> {
        self.inner.estimate_with(ctx, r, s)
    }

    /// Estimated selectivity `|R ⋈_o S| / (|R|·|S|)`.
    pub fn estimate_selectivity(&self, r: &SketchSet<D>, s: &SketchSet<D>) -> Result<f64> {
        let est = self.estimate(r, s)?;
        let denom = (r.len().max(1) as f64) * (s.len().max(1) as f64);
        Ok(est.value / denom)
    }
}

/// Estimator for the extended join `|R ⋈+_o S|` (Appendix B.1): overlap of
/// any dimensionality counts, including touching boundaries.
#[derive(Debug, Clone)]
pub struct OverlapPlusJoin<const D: usize> {
    inner: PairEstimator<D>,
}

impl<const D: usize> OverlapPlusJoin<D> {
    /// Creates the estimator. The Appendix B.1 construction sketches shrunken
    /// `S` geometry alongside untransformed leaf endpoints, so both sides
    /// live on the tripled domain (`data_bits + 2` sketch bits).
    pub fn new<R: Rng + ?Sized>(rng: &mut R, config: SketchConfig, data_bits: [u32; D]) -> Self {
        // Per-dimension factor (B.1): (X_I Y_E + X_E Y_I)/2 + X_L Y_U + X_U Y_L.
        let terms = vec![
            DimTerm::new(Comp::Interval, Comp::Endpoints, 0.5),
            DimTerm::new(Comp::Endpoints, Comp::Interval, 0.5),
            DimTerm::new(Comp::LowerLeaf, Comp::UpperLeaf, 1.0),
            DimTerm::new(Comp::UpperLeaf, Comp::LowerLeaf, 1.0),
        ];
        let inner = build_pair(
            rng,
            config,
            data_bits,
            terms,
            EndpointPolicy::Tripled,
            EndpointPolicy::TripledShrunk,
        );
        Self { inner }
    }

    /// The underlying generic estimator.
    pub fn inner(&self) -> &PairEstimator<D> {
        &self.inner
    }

    /// Creates an empty sketch for `R`.
    pub fn new_sketch_r(&self) -> SketchSet<D> {
        self.inner.new_sketch_r()
    }

    /// Creates an empty sketch for `S`.
    pub fn new_sketch_s(&self) -> SketchSet<D> {
        self.inner.new_sketch_s()
    }

    /// Combines the two sketches into the boosted cardinality estimate.
    pub fn estimate(&self, r: &SketchSet<D>, s: &SketchSet<D>) -> Result<Estimate> {
        self.inner.estimate(r, s)
    }

    /// Like [`OverlapPlusJoin::estimate`] but with the caller's
    /// [`QueryContext`].
    pub fn estimate_with(
        &self,
        ctx: &mut QueryContext,
        r: &SketchSet<D>,
        s: &SketchSet<D>,
    ) -> Result<Estimate> {
        self.inner.estimate_with(ctx, r, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::{rect2, HyperRect, Interval};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Mean and standard error of the atomic estimates — used for
    /// self-normalizing unbiasedness checks: if E[Z] = truth, the sample mean
    /// over `n` i.i.d. instances deviates by more than 6 standard errors with
    /// probability ~1e-9.
    fn mean_se(join: &PairEstimator<1>, r: &SketchSet<1>, s: &SketchSet<1>) -> (f64, f64) {
        let shape = join.schema().shape();
        let est = join.estimate(r, s).unwrap();
        // Reconstruct atomic values from row means is lossy; recompute here.
        let _ = est;
        let mut vals = Vec::new();
        for inst in 0..shape.instances() {
            let rc = r.instance_counters(inst);
            let sc = s.instance_counters(inst);
            let mut z = 0.0;
            for t in join.terms().terms() {
                z += t.coeff * (rc[t.r_word] as i128 * sc[t.s_word] as i128) as f64;
            }
            vals.push(z);
        }
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
        (mean, (var / n).sqrt())
    }

    fn intervals_even(seed: u64, count: usize, domain: u64) -> Vec<HyperRect<1>> {
        // Even endpoints only: guarantees Assumption 1 against odd-endpoint sets.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let lo = 2 * rng.gen_range(0..domain / 2 - 2);
                let len = 2 * rng.gen_range(1..12u64);
                Interval::new(lo, (lo + len).min(domain - 2)).into()
            })
            .collect()
    }

    fn intervals_odd(seed: u64, count: usize, domain: u64) -> Vec<HyperRect<1>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let lo = 2 * rng.gen_range(0..domain / 2 - 8) + 1;
                let len = 2 * rng.gen_range(1..12u64);
                Interval::new(lo, (lo + len).min(domain - 1)).into()
            })
            .collect()
    }

    fn build_and_fill(
        join: &SpatialJoin<1>,
        r_data: &[HyperRect<1>],
        s_data: &[HyperRect<1>],
    ) -> (SketchSet<1>, SketchSet<1>) {
        let mut r = join.new_sketch_r();
        let mut s = join.new_sketch_s();
        for x in r_data {
            r.insert(x).unwrap();
        }
        for x in s_data {
            s.insert(x).unwrap();
        }
        (r, s)
    }

    #[test]
    fn interval_join_unbiased_under_assumption1() {
        let mut rng = StdRng::seed_from_u64(42);
        let join = SpatialJoin::<1>::new(
            &mut rng,
            SketchConfig::new(300, 5),
            [8],
            EndpointStrategy::AssumeDistinct,
        );
        let r_data = intervals_even(1, 40, 256);
        let s_data = intervals_odd(2, 40, 256);
        let truth = exact::naive::join_count(&r_data, &s_data) as f64;
        assert!(truth > 0.0);
        let (r, s) = build_and_fill(&join, &r_data, &s_data);
        let (mean, se) = mean_se(join.inner(), &r, &s);
        assert!(
            (mean - truth).abs() <= 6.0 * se + 1e-9,
            "mean {mean} vs truth {truth} (se {se})"
        );
    }

    #[test]
    fn transform_strategy_unbiased_with_shared_endpoints() {
        let mut rng = StdRng::seed_from_u64(43);
        let join = SpatialJoin::<1>::new(
            &mut rng,
            SketchConfig::new(300, 5),
            [8],
            EndpointStrategy::Transform,
        );
        // Same generator for both sides: many shared endpoints, including
        // identical intervals.
        let r_data = intervals_even(5, 40, 256);
        let mut s_data = intervals_even(5, 30, 256);
        s_data.extend_from_slice(&r_data[..10]);
        let truth = exact::naive::join_count(&r_data, &s_data) as f64;
        assert!(truth > 0.0);
        let (r, s) = build_and_fill(&join, &r_data, &s_data);
        let (mean, se) = mean_se(join.inner(), &r, &s);
        assert!(
            (mean - truth).abs() <= 6.0 * se + 1e-9,
            "mean {mean} vs truth {truth} (se {se})"
        );
    }

    #[test]
    fn appendix_c_strategy_unbiased_with_shared_endpoints() {
        let mut rng = StdRng::seed_from_u64(44);
        let join = SpatialJoin::<1>::new(
            &mut rng,
            SketchConfig::new(400, 5),
            [8],
            EndpointStrategy::CorrectCommon,
        );
        let r_data = intervals_even(7, 35, 256);
        let mut s_data = intervals_even(8, 25, 256);
        s_data.extend_from_slice(&r_data[..12]); // force cases (5)/(6)
        let truth = exact::naive::join_count(&r_data, &s_data) as f64;
        assert!(truth > 0.0);
        let (r, s) = build_and_fill(&join, &r_data, &s_data);
        let (mean, se) = mean_se(join.inner(), &r, &s);
        assert!(
            (mean - truth).abs() <= 6.0 * se + 1e-9,
            "mean {mean} vs truth {truth} (se {se})"
        );
    }

    #[test]
    fn raw_strategy_biased_on_identical_inputs() {
        // Negative control: AssumeDistinct must over-count case (6) —
        // otherwise the transform/Appendix-C strategies would be pointless.
        // For a single identical pair, Section 4.1.2's counting yields
        // 4/2 = 2 instead of 1.
        let mut rng = StdRng::seed_from_u64(45);
        let join = SpatialJoin::<1>::new(
            &mut rng,
            SketchConfig::new(4000, 3),
            [4],
            EndpointStrategy::AssumeDistinct,
        );
        let data: Vec<HyperRect<1>> = vec![Interval::new(5, 11).into()];
        let truth = exact::naive::join_count(&data, &data) as f64;
        assert_eq!(truth, 1.0);
        let (r, s) = build_and_fill(&join, &data, &data);
        let (mean, se) = mean_se(join.inner(), &r, &s);
        assert!(
            (mean - truth).abs() > 6.0 * se,
            "raw estimator should be biased here: mean {mean}, truth {truth}, se {se}"
        );
        // And the bias is exactly the predicted over-count: E = 2, not 1.
        assert!(
            (mean - 2.0).abs() <= 6.0 * se,
            "expected E[Z] = 2 for an identical pair: mean {mean}, se {se}"
        );
    }

    #[test]
    fn rect_join_2d_unbiased() {
        let mut rng = StdRng::seed_from_u64(46);
        let join = SpatialJoin::<2>::new(
            &mut rng,
            SketchConfig::new(400, 5),
            [6, 6],
            EndpointStrategy::Transform,
        );
        let gen = |seed: u64, n: usize| -> Vec<HyperRect<2>> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n)
                .map(|_| {
                    let x = rng.gen_range(0..50u64);
                    let y = rng.gen_range(0..50u64);
                    rect2(
                        x,
                        x + rng.gen_range(1u64..12),
                        y,
                        y + rng.gen_range(1u64..12),
                    )
                })
                .collect()
        };
        let r_data = gen(1, 80);
        let s_data = gen(2, 80);
        let truth = exact::rect_join_count(&r_data, &s_data) as f64;
        assert!(truth > 100.0, "workload too sparse: {truth}");
        let mut r = join.new_sketch_r();
        let mut s = join.new_sketch_s();
        for x in &r_data {
            r.insert(x).unwrap();
        }
        for x in &s_data {
            s.insert(x).unwrap();
        }
        // Self-normalized mean check over instances (2-d variant).
        let shape = join.inner().schema().shape();
        let mut vals = Vec::new();
        for inst in 0..shape.instances() {
            let rc = r.instance_counters(inst);
            let sc = s.instance_counters(inst);
            let mut z = 0.0;
            for t in join.inner().terms().terms() {
                z += t.coeff * (rc[t.r_word] as i128 * sc[t.s_word] as i128) as f64;
            }
            vals.push(z);
        }
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
        let se = (var / n).sqrt();
        assert!(
            (mean - truth).abs() <= 6.0 * se + 1e-9,
            "mean {mean} vs truth {truth} (se {se})"
        );
        // The boosted estimate should land in a sane ballpark too. (The
        // sharp statistical statement is the 6-sigma mean check above; with
        // k1 = 400 on this tiny workload the median's own deviation can be
        // on the order of the truth itself, so this is a loose smoke bound —
        // the integration tests exercise tight accuracy at realistic sizes.)
        let est = join.estimate(&r, &s).unwrap();
        assert!(
            (est.value - truth).abs() / truth < 2.0,
            "boosted {} vs truth {truth}",
            est.value
        );
    }

    #[test]
    fn overlap_plus_counts_touching() {
        let mut rng = StdRng::seed_from_u64(47);
        let join = OverlapPlusJoin::<1>::new(&mut rng, SketchConfig::new(400, 5), [8]);
        // Chains of exactly-touching intervals: ⋈+ differs from ⋈ by the meets.
        let r_data: Vec<HyperRect<1>> = (0..20u64)
            .map(|i| Interval::new(10 * i, 10 * i + 10).into())
            .collect();
        let s_data: Vec<HyperRect<1>> = (0..20u64)
            .map(|i| Interval::new(10 * i + 10, 10 * i + 14).into())
            .collect();
        let truth_plus = exact::naive::join_plus_count(&r_data, &s_data) as f64;
        let truth_strict = exact::naive::join_count(&r_data, &s_data) as f64;
        assert!(truth_plus > truth_strict);
        let mut r = join.new_sketch_r();
        let mut s = join.new_sketch_s();
        for x in &r_data {
            r.insert(x).unwrap();
        }
        for x in &s_data {
            s.insert(x).unwrap();
        }
        let shape = join.inner().schema().shape();
        let mut vals = Vec::new();
        for inst in 0..shape.instances() {
            let rc = r.instance_counters(inst);
            let sc = s.instance_counters(inst);
            let mut z = 0.0;
            for t in join.inner().terms().terms() {
                z += t.coeff * (rc[t.r_word] as i128 * sc[t.s_word] as i128) as f64;
            }
            vals.push(z);
        }
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
        let se = (var / n).sqrt();
        assert!(
            (mean - truth_plus).abs() <= 6.0 * se + 1e-9,
            "mean {mean} vs truth {truth_plus} (se {se})"
        );
    }

    #[test]
    fn estimate_rejects_foreign_sketches() {
        let mut rng = StdRng::seed_from_u64(48);
        let a = SpatialJoin::<1>::new(
            &mut rng,
            SketchConfig::new(4, 3),
            [8],
            EndpointStrategy::AssumeDistinct,
        );
        let b = SpatialJoin::<1>::new(
            &mut rng,
            SketchConfig::new(4, 3),
            [8],
            EndpointStrategy::AssumeDistinct,
        );
        let r = a.new_sketch_r();
        let s_foreign = b.new_sketch_s();
        assert!(a.estimate(&r, &s_foreign).is_err());
        // Swapped word sets are rejected too.
        let s = a.new_sketch_s();
        // r in place of s: word lists coincide for the symmetric join, so
        // this is actually allowed; use the Appendix-C variant for asymmetry.
        let _ = s;
        let c = SpatialJoin::<1>::new(
            &mut rng,
            SketchConfig::new(4, 3),
            [8],
            EndpointStrategy::CorrectCommon,
        );
        let rc_sk = c.new_sketch_r();
        assert!(a.estimate(&rc_sk, &a.new_sketch_s()).is_err());
    }

    #[test]
    fn selectivity_normalization() {
        let mut rng = StdRng::seed_from_u64(49);
        let join = SpatialJoin::<1>::new(
            &mut rng,
            SketchConfig::new(64, 3),
            [8],
            EndpointStrategy::Transform,
        );
        let r_data = intervals_even(3, 16, 256);
        let s_data = intervals_odd(4, 8, 256);
        let (r, s) = build_and_fill(&join, &r_data, &s_data);
        let est = join.estimate(&r, &s).unwrap();
        let sel = join.estimate_selectivity(&r, &s).unwrap();
        assert!((sel - est.value / (16.0 * 8.0)).abs() < 1e-12);
    }
}
