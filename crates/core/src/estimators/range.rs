//! Range-query selectivity estimation (Section 6.4).
//!
//! A range query is a join with a singleton relation, but the paper's
//! optimized estimator stores only two atomic sketches per dimension pair —
//! `X_I` (whole intervals) and `X_U` (upper endpoints) — and evaluates the
//! query side *deterministically* at estimation time:
//!
//! ```text
//! Z = ξ̄[u,v] · X_U + ξ̄[v] · X_I          (Lemma 9, one dimension)
//! ```
//!
//! An interval `[a, b]` overlaps `q = [u, v]` iff (`b ∈ [u, v]`) xor
//! (`v ∈ [a, b]`) under Assumption 1; the two mutually exclusive events are
//! counted by the two terms. In d dimensions the per-dimension factor is
//! multiplied out over `{I, U}^d` (Section 6.4: "replace X_E with X_U").
//!
//! The module also provides *stabbing counts* (`#{r : p ∈ r}`, closed): the
//! all-`I` word paired with the query point's covers, which is exact without
//! any endpoint assumption.

use crate::atomic::{EndpointPolicy, SketchSet};
use crate::boost::Estimate;
use crate::comp::{Comp, Word};
use crate::error::{Result, SketchError};
use crate::estimators::SketchConfig;
use crate::query::{
    PartialEstimate, PlanKey, QueryContext, XiQueryPlan, XiWordTerm, PLAN_CLASS_OVERLAP,
    PLAN_CLASS_STAB,
};
use crate::schema::{BoostShape, DimSpec, SketchSchema};
use dyadic::{interval_cover, point_cover};
use geometry::transform::{shrink_interval, triple};
use geometry::{HyperRect, Interval, Point};
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// How the estimator deals with query/data endpoint coincidences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeStrategy {
    /// Raw domain; unbiased when the query shares no endpoint coordinate
    /// with the data (Assumption 1 between data and query).
    AssumeDistinct,
    /// Section 5.2 transform: data tripled, query shrunk at estimate time;
    /// unbiased for arbitrary queries.
    Transform,
}

/// One query of a batch: either an overlap range query
/// ([`RangeQuery::estimate_with`] semantics) or a stabbing count
/// ([`RangeQuery::estimate_stab_with`] semantics). Both classes reduce to
/// dyadic-cover sums over the same maintained sketch, so one
/// [`RangeQuery::estimate_batch_with`] call answers a mixed batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchQuery<const D: usize> {
    /// Count objects whose intersection with the rect is full-dimensional.
    Range(HyperRect<D>),
    /// Count objects containing the point (closed containment).
    Stab(Point<D>),
}

/// Estimator for `|Q(q, R)|` (Definition 3) over one maintained sketch.
#[derive(Debug, Clone)]
pub struct RangeQuery<const D: usize> {
    schema: Arc<SketchSchema<D>>,
    words: Arc<Vec<Word<D>>>,
    strategy: RangeStrategy,
}

impl<const D: usize> RangeQuery<D> {
    /// Creates the estimator for data domains of `2^data_bits[i]` values.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        config: SketchConfig,
        data_bits: [u32; D],
        strategy: RangeStrategy,
    ) -> Self {
        let extra = match strategy {
            RangeStrategy::AssumeDistinct => 0,
            RangeStrategy::Transform => 2,
        };
        let dims: [DimSpec; D] = std::array::from_fn(|i| {
            let bits = data_bits[i] + extra;
            match config.max_level {
                Some(ml) => DimSpec::with_max_level(bits, ml),
                None => DimSpec::dyadic(bits),
            }
        });
        let schema = SketchSchema::new(rng, config.shape, dims);
        // Words {I, U}^D in mask order (bit set = UpperPoint).
        let mut words = Vec::with_capacity(1 << D);
        for mask in 0..(1u32 << D) {
            let mut w = [Comp::Interval; D];
            for (i, c) in w.iter_mut().enumerate() {
                if mask >> i & 1 == 1 {
                    *c = Comp::UpperPoint;
                }
            }
            words.push(w);
        }
        Self {
            schema,
            words: Arc::new(words),
            strategy,
        }
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<SketchSchema<D>> {
        &self.schema
    }

    /// The strategy in use.
    pub fn strategy(&self) -> RangeStrategy {
        self.strategy
    }

    /// Creates the (single) maintained sketch over the data set.
    pub fn new_sketch(&self) -> SketchSet<D> {
        let policy = match self.strategy {
            RangeStrategy::AssumeDistinct => EndpointPolicy::Raw,
            RangeStrategy::Transform => EndpointPolicy::Tripled,
        };
        SketchSet::new(Arc::clone(&self.schema), Arc::clone(&self.words), policy)
    }

    fn check_sketch(&self, sketch: &SketchSet<D>) -> Result<()> {
        if sketch.schema().id() != self.schema.id() {
            return Err(SketchError::SchemaMismatch);
        }
        if **sketch.words() != *self.words {
            return Err(SketchError::WordMismatch);
        }
        Ok(())
    }

    /// Compiles the query side of an overlap estimate: per dimension the
    /// (possibly shrunk) interval cover (slot 0) and the upper-endpoint
    /// point cover (slot 1), node ids and GF cubes precomputed once and
    /// shared by every instance; one word term per maintained word.
    fn overlap_plan(&self, q: &HyperRect<D>) -> XiQueryPlan<D> {
        let mut plan = XiQueryPlan::<D>::default();
        for (dim, lists) in plan.lists.iter_mut().enumerate() {
            let geo: Interval = match self.strategy {
                RangeStrategy::AssumeDistinct => q.range(dim),
                RangeStrategy::Transform => {
                    shrink_interval(&q.range(dim)).expect("degenerate handled by caller")
                }
            };
            let dyadic = &self.schema.dyadic()[dim];
            let ctx = &self.schema.xi_ctx()[dim];
            let ml = self.schema.dims()[dim].max_level;
            lists.push(
                interval_cover(dyadic, &geo, ml)
                    .into_iter()
                    .map(|id| ctx.precompute(id))
                    .collect(),
            );
            lists.push(
                point_cover(dyadic, geo.hi(), ml)
                    .into_iter()
                    .map(|id| ctx.precompute(id))
                    .collect(),
            );
        }
        // Word bit set = UpperPoint sketch component, which pairs with the
        // query's *interval* value (slot 0); Interval components pair with
        // the query's upper-endpoint value (slot 1).
        plan.terms = (0..self.words.len())
            .map(|mask| XiWordTerm {
                word: mask,
                slots: std::array::from_fn(|dim| if mask >> dim & 1 == 1 { 0 } else { 1 }),
            })
            .collect();
        plan
    }

    /// Compiles the query side of a stabbing count: per dimension the stab
    /// point's cover; a single term on the all-`Interval` word (mask 0).
    fn stab_plan(&self, p: &Point<D>) -> XiQueryPlan<D> {
        let mut plan = XiQueryPlan::<D>::default();
        for (dim, lists) in plan.lists.iter_mut().enumerate() {
            let coord = match self.strategy {
                RangeStrategy::AssumeDistinct => p[dim],
                RangeStrategy::Transform => triple(p[dim]),
            };
            let dyadic = &self.schema.dyadic()[dim];
            let ctx = &self.schema.xi_ctx()[dim];
            let ml = self.schema.dims()[dim].max_level;
            lists.push(
                point_cover(dyadic, coord, ml)
                    .into_iter()
                    .map(|id| ctx.precompute(id))
                    .collect(),
            );
        }
        plan.terms = vec![XiWordTerm {
            word: 0, // mask 0 = Interval in every dim
            slots: [0; D],
        }];
        plan
    }

    /// Compiles the query side of `q`: an overlap or a stabbing plan.
    fn compile(&self, q: &BatchQuery<D>) -> XiQueryPlan<D> {
        match q {
            BatchQuery::Range(rect) => self.overlap_plan(rect),
            BatchQuery::Stab(p) => self.stab_plan(p),
        }
    }

    /// Validates `q` against the sketch's domain and returns its plan-cache
    /// key; `Ok(None)` means a degenerate rect, which selects nothing under
    /// Definition 3. Plans depend only on (schema, query): repeated queries
    /// through the same context skip cover compilation via its plan cache.
    fn key_of(&self, sketch: &SketchSet<D>, q: &BatchQuery<D>) -> Result<Option<PlanKey>> {
        for dim in 0..D {
            let max = (1u64 << sketch.data_bits()[dim]) - 1;
            let coord = match q {
                BatchQuery::Range(rect) => rect.range(dim).hi(),
                BatchQuery::Stab(p) => p[dim],
            };
            if coord > max {
                return Err(SketchError::DomainOverflow { coord, max, dim });
            }
        }
        let (class, coords) = match q {
            BatchQuery::Range(rect) if rect.is_degenerate() => return Ok(None),
            BatchQuery::Range(rect) => (
                PLAN_CLASS_OVERLAP,
                (0..D)
                    .flat_map(|dim| [rect.range(dim).lo(), rect.range(dim).hi()])
                    .collect(),
            ),
            BatchQuery::Stab(p) => (PLAN_CLASS_STAB, p.to_vec()),
        };
        Ok(Some(PlanKey::new(self.schema.id(), class, coords)))
    }

    /// The one range/stab path every public entry wraps. Validates the
    /// sketch and then each query, answers each distinct query once —
    /// compile or recall its plan, fill the grid, `finish` it — and clones
    /// that answer into the query's duplicates. Finishing boosts
    /// ([`QueryContext::boost`]) or copies the grid out unboosted
    /// ([`QueryContext::partial`]); a degenerate rect fills zeros and takes
    /// the same finish. A failing query (domain overflow) fails its slot
    /// alone.
    fn answer<T: Clone>(
        &self,
        ctx: &mut QueryContext,
        sketch: &SketchSet<D>,
        queries: &[BatchQuery<D>],
        finish: fn(&mut QueryContext, BoostShape) -> T,
    ) -> Vec<Result<T>> {
        if let Err(e) = self.check_sketch(sketch) {
            return queries.iter().map(|_| Err(e.clone())).collect();
        }
        // Identical queries share their first slot's answer (a stab at a
        // rect corner's coordinates is a distinct plan class, never a
        // duplicate); degenerate rects all share the `None` key.
        let shape = self.schema.shape();
        let mut firsts: HashMap<Option<PlanKey>, usize> = HashMap::new();
        let mut out: Vec<Result<T>> = Vec::with_capacity(queries.len());
        for (slot, q) in queries.iter().enumerate() {
            let answer = match self.key_of(sketch, q) {
                Err(e) => Err(e),
                Ok(key) => match firsts.get(&key) {
                    Some(&first) => out[first].clone(),
                    None => {
                        firsts.insert(key.clone(), slot);
                        let plan = key.map(|key| ctx.plan_for(key, || self.compile(q)));
                        ctx.xi_fill(plan.as_ref(), sketch);
                        Ok(finish(ctx, shape))
                    }
                },
            };
            out.push(answer);
        }
        out
    }

    /// [`RangeQuery::answer`] for one query.
    fn answer_one<T: Clone>(
        &self,
        ctx: &mut QueryContext,
        sketch: &SketchSet<D>,
        q: BatchQuery<D>,
        finish: fn(&mut QueryContext, BoostShape) -> T,
    ) -> Result<T> {
        let mut answers = self.answer(ctx, sketch, &[q], finish);
        answers.pop().expect("one answer per query")
    }

    /// Estimates `|Q(q, R)|`: the number of summarized objects whose
    /// intersection with `q` is full-dimensional.
    ///
    /// Degenerate queries select nothing under Definition 3 and return a
    /// zero estimate; use [`RangeQuery::estimate_stab`] for stabbing counts.
    ///
    /// Convenience form of [`RangeQuery::estimate_with`] that builds a
    /// throwaway [`QueryContext`]; serving loops should hold one context and
    /// reuse it across calls.
    pub fn estimate(&self, sketch: &SketchSet<D>, q: &HyperRect<D>) -> Result<Estimate> {
        self.estimate_with(&mut QueryContext::new(), sketch, q)
    }

    /// Estimates `|Q(q, R)|` using the caller's [`QueryContext`] (kernel
    /// choice + reused scratch).
    pub fn estimate_with(
        &self,
        ctx: &mut QueryContext,
        sketch: &SketchSet<D>,
        q: &HyperRect<D>,
    ) -> Result<Estimate> {
        self.answer_one(ctx, sketch, BatchQuery::Range(*q), QueryContext::boost)
    }

    /// Like [`RangeQuery::estimate_with`] but returns the **unboosted**
    /// shard-mergeable partial grid (see [`PartialEstimate`] for the merge
    /// rules). A distributed deployment computes one partial per shard,
    /// sums them, and boosts once at the router.
    pub fn estimate_partial_with(
        &self,
        ctx: &mut QueryContext,
        sketch: &SketchSet<D>,
        q: &HyperRect<D>,
    ) -> Result<PartialEstimate> {
        self.answer_one(ctx, sketch, BatchQuery::Range(*q), QueryContext::partial)
    }

    /// Estimates the stabbing count `#{r ∈ R : p ∈ r}` (closed containment;
    /// exact in expectation with no endpoint assumption).
    ///
    /// Convenience form of [`RangeQuery::estimate_stab_with`].
    pub fn estimate_stab(&self, sketch: &SketchSet<D>, p: &Point<D>) -> Result<Estimate> {
        self.estimate_stab_with(&mut QueryContext::new(), sketch, p)
    }

    /// Estimates the stabbing count using the caller's [`QueryContext`].
    pub fn estimate_stab_with(
        &self,
        ctx: &mut QueryContext,
        sketch: &SketchSet<D>,
        p: &Point<D>,
    ) -> Result<Estimate> {
        self.answer_one(ctx, sketch, BatchQuery::Stab(*p), QueryContext::boost)
    }

    /// Like [`RangeQuery::estimate_stab_with`] but returns the unboosted
    /// shard-mergeable partial grid (see [`PartialEstimate`]).
    pub fn estimate_stab_partial_with(
        &self,
        ctx: &mut QueryContext,
        sketch: &SketchSet<D>,
        p: &Point<D>,
    ) -> Result<PartialEstimate> {
        self.answer_one(ctx, sketch, BatchQuery::Stab(*p), QueryContext::partial)
    }

    /// Answers a whole batch of range/stab queries. The batch validates
    /// every query, answers each distinct query once, and clones the answer
    /// into its duplicates; each distinct query runs the same per-plan fill
    /// as [`RangeQuery::estimate_with`] / [`RangeQuery::estimate_stab_with`]
    /// — a warm plan answers from its query-product memo (one counter dot
    /// product), a cold one evaluates its own dyadic covers. Every answer is
    /// therefore **bit-identical** to the corresponding single-query call,
    /// at every kernel.
    ///
    /// Per-query failures (domain overflow) fail only that slot; degenerate
    /// rects yield zero estimates.
    pub fn estimate_batch_with(
        &self,
        ctx: &mut QueryContext,
        sketch: &SketchSet<D>,
        queries: &[BatchQuery<D>],
    ) -> Vec<Result<Estimate>> {
        self.answer(ctx, sketch, queries, QueryContext::boost)
    }

    /// [`RangeQuery::estimate_batch_with`] stopping before the boost: each
    /// slot holds the unboosted partial grid that
    /// [`RangeQuery::estimate_partial_with`] /
    /// [`RangeQuery::estimate_stab_partial_with`] returns for its query.
    pub fn estimate_partial_batch_with(
        &self,
        ctx: &mut QueryContext,
        sketch: &SketchSet<D>,
        queries: &[BatchQuery<D>],
    ) -> Vec<Result<PartialEstimate>> {
        self.answer(ctx, sketch, queries, QueryContext::partial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::rect2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn data_1d(seed: u64, n: usize, domain: u64) -> Vec<HyperRect<1>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let lo = rng.gen_range(0..domain - 16);
                Interval::new(lo, lo + rng.gen_range(1..16u64)).into()
            })
            .collect()
    }

    /// Mean/SE over repeated estimation with fresh schemas (the query side
    /// is deterministic per schema, so unbiasedness must be measured across
    /// instances of one schema — row means of a wide flat schema work).
    fn flat_estimate<const D: usize>(
        rq: &RangeQuery<D>,
        sketch: &SketchSet<D>,
        q: &HyperRect<D>,
    ) -> (f64, f64) {
        let est = rq.estimate(sketch, q).unwrap();
        let n = est.row_means.len() as f64;
        let mean = est.row_means.iter().sum::<f64>() / n;
        let var = est
            .row_means
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / (n - 1.0);
        (mean, (var / n).sqrt())
    }

    #[test]
    fn range_count_unbiased_transform() {
        let mut rng = StdRng::seed_from_u64(70);
        // k1 = 1 so each row mean is a raw instance: gives us SE over rows.
        let rq = RangeQuery::<1>::new(
            &mut rng,
            SketchConfig::new(1, 1500),
            [8],
            RangeStrategy::Transform,
        );
        let data = data_1d(3, 60, 256);
        let mut sk = rq.new_sketch();
        for r in &data {
            sk.insert(r).unwrap();
        }
        // Query sharing endpoints with data on purpose.
        let q: HyperRect<1> = data[5].range(0).into();
        let truth = exact::naive::range_count(&data, &q) as f64;
        assert!(truth > 0.0);
        let (mean, se) = flat_estimate(&rq, &sk, &q);
        assert!(
            (mean - truth).abs() <= 6.0 * se + 1e-9,
            "mean {mean} vs truth {truth} (se {se})"
        );
    }

    #[test]
    fn range_count_2d_unbiased() {
        let mut rng = StdRng::seed_from_u64(71);
        let rq = RangeQuery::<2>::new(
            &mut rng,
            SketchConfig::new(1, 1200),
            [6, 6],
            RangeStrategy::Transform,
        );
        let mut data = Vec::new();
        let mut grng = StdRng::seed_from_u64(8);
        for _ in 0..50 {
            let x = grng.gen_range(0..50u64);
            let y = grng.gen_range(0..50u64);
            data.push(rect2(
                x,
                x + grng.gen_range(1u64..10),
                y,
                y + grng.gen_range(1u64..10),
            ));
        }
        let mut sk = rq.new_sketch();
        for r in &data {
            sk.insert(r).unwrap();
        }
        let q = rect2(10, 30, 15, 40);
        let truth = exact::naive::range_count(&data, &q) as f64;
        assert!(truth > 0.0);
        let (mean, se) = flat_estimate(&rq, &sk, &q);
        assert!(
            (mean - truth).abs() <= 6.0 * se + 1e-9,
            "mean {mean} vs truth {truth} (se {se})"
        );
    }

    #[test]
    fn stab_count_exact_in_expectation() {
        let mut rng = StdRng::seed_from_u64(72);
        let rq = RangeQuery::<1>::new(
            &mut rng,
            SketchConfig::new(1, 1500),
            [8],
            RangeStrategy::AssumeDistinct,
        );
        let data = data_1d(9, 50, 256);
        let mut sk = rq.new_sketch();
        for r in &data {
            sk.insert(r).unwrap();
        }
        // Stab at a data endpoint (shared coordinate) — closed semantics.
        let p = [data[7].range(0).lo()];
        let truth = data.iter().filter(|r| r.range(0).contains(p[0])).count() as f64;
        let est = rq.estimate_stab(&sk, &p).unwrap();
        let n = est.row_means.len() as f64;
        let mean = est.row_means.iter().sum::<f64>() / n;
        let var = est
            .row_means
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / (n - 1.0);
        let se = (var / n).sqrt();
        assert!(
            (mean - truth).abs() <= 6.0 * se + 1e-9,
            "mean {mean} vs truth {truth} (se {se})"
        );
    }

    #[test]
    fn plan_cache_hits_match_cold_compiles() {
        let mut rng = StdRng::seed_from_u64(75);
        let rq = RangeQuery::<2>::new(
            &mut rng,
            SketchConfig::new(13, 3),
            [8, 8],
            RangeStrategy::Transform,
        );
        let mut sk = rq.new_sketch();
        let mut grng = StdRng::seed_from_u64(76);
        for _ in 0..40 {
            let x = grng.gen_range(0..200u64);
            let y = grng.gen_range(0..200u64);
            sk.insert(&rect2(x, x + grng.gen_range(1..20u64), y, y + 9))
                .unwrap();
        }
        let q_a = rect2(10, 90, 20, 130);
        let q_b = rect2(11, 90, 20, 130); // differs in one coordinate
        let p = [40u64, 50u64];

        let mut ctx = QueryContext::new();
        let cold_a = rq.estimate_with(&mut ctx, &sk, &q_a).unwrap();
        let cold_b = rq.estimate_with(&mut ctx, &sk, &q_b).unwrap();
        let cold_p = rq.estimate_stab_with(&mut ctx, &sk, &p).unwrap();
        let counts = |ctx: &QueryContext| {
            let single = ctx.plan_cache_report().single;
            (single.hits, single.misses)
        };
        assert_eq!(counts(&ctx), (0, 3), "three distinct plans");

        // Repeats hit the cache and return bit-identical estimates.
        let warm_a = rq.estimate_with(&mut ctx, &sk, &q_a).unwrap();
        let warm_b = rq.estimate_with(&mut ctx, &sk, &q_b).unwrap();
        let warm_p = rq.estimate_stab_with(&mut ctx, &sk, &p).unwrap();
        assert_eq!(counts(&ctx), (3, 3));
        assert_eq!(cold_a.value.to_bits(), warm_a.value.to_bits());
        assert_eq!(cold_a.row_means, warm_a.row_means);
        assert_eq!(cold_b.value.to_bits(), warm_b.value.to_bits());
        assert_eq!(cold_p.value.to_bits(), warm_p.value.to_bits());
        // A fresh context (cold cache) still agrees with the cached path.
        let fresh = rq.estimate(&sk, &q_a).unwrap();
        assert_eq!(fresh.value.to_bits(), warm_a.value.to_bits());

        // A stab at the same coordinates as a rect corner is a different
        // plan class, never a false hit: q_a's plan stays untouched.
        let q_point_like = [q_a.range(0).lo(), q_a.range(1).lo()];
        let _ = rq.estimate_stab_with(&mut ctx, &sk, &q_point_like).unwrap();
        assert_eq!(counts(&ctx), (3, 4));
    }

    #[test]
    fn partial_estimates_boost_to_the_full_estimate() {
        let mut rng = StdRng::seed_from_u64(77);
        let rq = RangeQuery::<2>::new(
            &mut rng,
            SketchConfig::new(13, 3),
            [8, 8],
            RangeStrategy::Transform,
        );
        let mut sk = rq.new_sketch();
        let mut grng = StdRng::seed_from_u64(78);
        let data: Vec<HyperRect<2>> = (0..50)
            .map(|_| {
                let x = grng.gen_range(0..200u64);
                let y = grng.gen_range(0..200u64);
                rect2(x, x + grng.gen_range(1..20u64), y, y + 9)
            })
            .collect();
        for r in &data {
            sk.insert(r).unwrap();
        }
        let q = rect2(20, 120, 10, 150);
        let p = [44u64, 91u64];
        let mut ctx = QueryContext::new();

        // One sketch: partial + boost is bit-identical to the direct path.
        let direct = rq.estimate_with(&mut ctx, &sk, &q).unwrap();
        let partial = rq.estimate_partial_with(&mut ctx, &sk, &q).unwrap();
        assert_eq!(partial.atomic().len(), rq.schema().instances());
        let boosted = partial.boost();
        assert_eq!(direct.value.to_bits(), boosted.value.to_bits());
        assert_eq!(direct.row_means, boosted.row_means);
        let direct_stab = rq.estimate_stab_with(&mut ctx, &sk, &p).unwrap();
        let stab = rq.estimate_stab_partial_with(&mut ctx, &sk, &p).unwrap();
        assert_eq!(direct_stab.value.to_bits(), stab.boost().value.to_bits());

        // Sharded: per-shard partials merged pre-boost agree with the full
        // sketch up to float-summation order (unbiased; not bit-pinned).
        let mut a = rq.new_sketch();
        let mut b = rq.new_sketch();
        for (i, r) in data.iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.insert(r).unwrap();
        }
        let mut merged = rq.estimate_partial_with(&mut ctx, &a, &q).unwrap();
        merged
            .merge_from(&rq.estimate_partial_with(&mut ctx, &b, &q).unwrap())
            .unwrap();
        let merged = merged.boost();
        let tol = 1e-9 * (1.0 + direct.value.abs());
        assert!(
            (merged.value - direct.value).abs() <= tol,
            "merged {} vs direct {}",
            merged.value,
            direct.value
        );

        // Degenerate queries yield an all-zero partial of the right shape.
        let degenerate: HyperRect<2> = geometry::rect2(5, 5, 9, 9);
        let zero = rq
            .estimate_partial_with(&mut ctx, &sk, &degenerate)
            .unwrap();
        assert!(zero.atomic().iter().all(|&z| z == 0.0));
        assert_eq!(zero.boost().value, 0.0);

        // Mismatched shapes are rejected.
        let mut other_rng = StdRng::seed_from_u64(79);
        let other = RangeQuery::<2>::new(
            &mut other_rng,
            SketchConfig::new(5, 3),
            [8, 8],
            RangeStrategy::Transform,
        );
        let other_sk = other.new_sketch();
        let other_partial = other
            .estimate_partial_with(&mut ctx, &other_sk, &q)
            .unwrap();
        let mut broken = rq.estimate_partial_with(&mut ctx, &sk, &q).unwrap();
        assert!(broken.merge_from(&other_partial).is_err());
    }

    #[test]
    fn degenerate_query_returns_zero() {
        let mut rng = StdRng::seed_from_u64(73);
        let rq = RangeQuery::<1>::new(
            &mut rng,
            SketchConfig::new(4, 3),
            [8],
            RangeStrategy::Transform,
        );
        let mut sk = rq.new_sketch();
        sk.insert(&Interval::new(10, 50).into()).unwrap();
        let q: HyperRect<1> = Interval::point(20).into();
        let est = rq.estimate(&sk, &q).unwrap();
        assert_eq!(est.value, 0.0);
    }

    #[test]
    fn rejects_wrong_sketch_and_oob_query() {
        let mut rng = StdRng::seed_from_u64(74);
        let rq1 = RangeQuery::<1>::new(
            &mut rng,
            SketchConfig::new(4, 3),
            [8],
            RangeStrategy::AssumeDistinct,
        );
        let rq2 = RangeQuery::<1>::new(
            &mut rng,
            SketchConfig::new(4, 3),
            [8],
            RangeStrategy::AssumeDistinct,
        );
        let sk = rq1.new_sketch();
        assert!(matches!(
            rq2.estimate(&sk, &Interval::new(0, 5).into()),
            Err(SketchError::SchemaMismatch)
        ));
        assert!(matches!(
            rq1.estimate(&sk, &Interval::new(0, 500).into()),
            Err(SketchError::DomainOverflow { .. })
        ));
    }
}
