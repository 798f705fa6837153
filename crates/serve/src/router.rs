//! The concurrent query router: compile once, select shards, merge
//! exactly, estimate.
//!
//! ## Why the merge happens at the counter level
//!
//! Boosting (mean-then-median) is nonlinear and pair estimators are
//! *bilinear* in the two sides' counters, so per-shard boosted estimates
//! can never be combined correctly, and per-shard pair grids would lose
//! every cross-shard product term. The one merge point that is always
//! correct — and *exact* — is the maintained counters themselves: sketches
//! are linear, counters are `i64`, and integer addition is associative, so
//! the fold of the selected shards' counters is **bit-identical** to the
//! counters of one unsharded sketch over the same objects. Every router
//! answer is therefore bit-identical to a plain [`SketchSet`] estimate over
//! the selected shards' data; with [`RouterMode::Exact`] that is the whole
//! store (the unsharded-oracle property `crates/serve/tests/`
//! `differential_router.rs` pins down). The merged view is cached per
//! worker and epoch, so between ingests the router adds nothing to the
//! single-sketch hot path.
//!
//! Query-side compilation is cached too: the worker's [`QueryContext`]
//! memoizes compiled `XiQueryPlan`s per (schema, query), so a repeated
//! query is compiled once and fanned out from there.
//!
//! [`RouterMode::Pruned`] additionally restricts a range/stab query to the
//! shards whose coverage boxes overlap it — the accuracy mode: objects far
//! from the query contribute only sketch noise (the variance bounds of the
//! paper's Theorems 1–3 grow with the self-join size of the sketched set),
//! so pruning them cuts variance. On each benchmark workload's fixed
//! 1024-query sample it lowered the selectivity error's p50 by 20–28% and
//! its p90 by 15–34% against Exact (EXPERIMENTS.md "Shard pruning";
//! `differential_router.rs` pins the p90 gain on a seeded 4-shard store).
//! Its answers are bit-identical to an unsharded sketch of the selected
//! shards' objects, not of the full store.
//!
//! [`QueryContext`]: sketch::QueryContext

use crate::context::{view_of, WorkerContext};
use crate::store::{ShardedStore, StoreEpoch};
use geometry::{HyperRect, Point};
use sketch::estimators::joins::SpatialJoin;
use sketch::{BatchQuery, Estimate, PartialEstimate, RangeQuery, Result, SketchSet};

/// How the router selects the shards a query merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterMode {
    /// Merge every shard that was ever touched (untouched shards have
    /// all-zero counters and are skipped — an exact no-op). Answers are
    /// bit-identical to a single unsharded sketch of the full store.
    #[default]
    Exact,
    /// Merge only the touched shards whose coverage boxes overlap the
    /// query (closed semantics; sound because coverage is a monotone
    /// over-approximation of every object a shard's counters reference).
    /// The accuracy mode: lower-variance (far objects contribute only
    /// sketch noise; see the module docs for measured errors), and
    /// cheaper *when the query footprint is stable*: the worker caches one
    /// merged view per store, so a stream alternating between different
    /// shard selections re-folds the view on every switch — workloads with
    /// a churning footprint should prefer [`RouterMode::Exact`], whose
    /// selection never varies within an epoch. Answers equal an unsharded
    /// sketch of the selected shards' objects.
    Pruned,
}

/// A query router over [`ShardedStore`]s; cheap to construct and `Copy`-
/// light, typically one per service configuration.
#[derive(Debug, Clone, Copy)]
pub struct QueryRouter {
    mode: RouterMode,
    merge_threads: usize,
}

impl Default for QueryRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryRouter {
    /// An [`RouterMode::Exact`] router with single-threaded merges.
    pub fn new() -> Self {
        Self {
            mode: RouterMode::Exact,
            merge_threads: 1,
        }
    }

    /// Sets the shard-selection mode (builder form).
    pub fn with_mode(mut self, mode: RouterMode) -> Self {
        self.mode = mode;
        self
    }

    /// Uses `threads` workers for cross-shard counter merges (worthwhile
    /// for many-instance schemas; merges are integer folds, so the result
    /// is identical at any thread count).
    pub fn with_merge_threads(mut self, threads: usize) -> Self {
        self.merge_threads = threads.max(1);
        self
    }

    /// The shard-selection mode.
    pub fn mode(&self) -> RouterMode {
        self.mode
    }

    /// The shard-selection mask this router would use for a query against
    /// `epoch` (`None` = a query without a spatial footprint, e.g. a join
    /// side). Exposed for tests and diagnostics; the serving paths fill a
    /// worker-owned scratch via `QueryRouter::selection_into` instead.
    pub fn selection<const D: usize>(
        &self,
        epoch: &StoreEpoch<D>,
        q: Option<&HyperRect<D>>,
    ) -> Vec<bool> {
        let mut mask = Vec::new();
        self.selection_into(epoch, q, &mut mask);
        mask
    }

    /// Fills `mask` with the shard selection (cleared first), so warm
    /// serving paths reuse one buffer instead of allocating per query.
    ///
    /// Each selected shard's query tally is bumped here — the read-side
    /// half of [`crate::rebalance::ShardLoadReport`]. Tallies count
    /// selection passes, so an exact-mode batch (one pass for the whole
    /// batch) counts once per selected shard, and diagnostics through
    /// [`QueryRouter::selection`] count too — load telemetry, not an exact
    /// query ledger.
    fn selection_into<const D: usize>(
        &self,
        epoch: &StoreEpoch<D>,
        q: Option<&HyperRect<D>>,
        mask: &mut Vec<bool>,
    ) {
        mask.clear();
        mask.extend(epoch.shards().iter().map(|s| {
            if s.is_untouched() {
                return false;
            }
            let selected = match (self.mode, q) {
                (RouterMode::Exact, _) | (RouterMode::Pruned, None) => true,
                (RouterMode::Pruned, Some(q)) => s.covers(q),
            };
            if selected {
                s.record_query();
            }
            selected
        }));
    }

    /// Brings `store`'s merged view in `ctx` up to date for the selection
    /// of `q`, cycling the worker's mask scratch.
    fn route<const D: usize>(
        &self,
        store: &ShardedStore<D>,
        ctx: &mut WorkerContext<D>,
        q: Option<&HyperRect<D>>,
    ) -> Result<()> {
        let epoch = ctx.epoch_for(store);
        let mut mask = std::mem::take(&mut ctx.mask);
        self.selection_into(&epoch, q, &mut mask);
        let res = ctx.ensure_view(store, &epoch, &mask, self.merge_threads);
        ctx.mask = mask;
        res
    }

    /// Routes a range-selectivity estimate: selects shards, reuses (or
    /// folds) the worker's merged view, and evaluates through the worker's
    /// plan-caching [`sketch::QueryContext`].
    pub fn estimate_range<const D: usize>(
        &self,
        rq: &RangeQuery<D>,
        store: &ShardedStore<D>,
        ctx: &mut WorkerContext<D>,
        q: &HyperRect<D>,
    ) -> Result<Estimate> {
        self.route(store, ctx, Some(q))?;
        let (query, views) = ctx.split();
        rq.estimate_with(query, view_of(views, store.id()), q)
    }

    /// Routes a stabbing-count estimate.
    pub fn estimate_stab<const D: usize>(
        &self,
        rq: &RangeQuery<D>,
        store: &ShardedStore<D>,
        ctx: &mut WorkerContext<D>,
        p: &Point<D>,
    ) -> Result<Estimate> {
        let footprint = HyperRect::from_point(*p);
        self.route(store, ctx, Some(&footprint))?;
        let (query, views) = ctx.split();
        rq.estimate_stab_with(query, view_of(views, store.id()), p)
    }

    /// Routes a whole batch of range/stab estimates against one store,
    /// paying each route and view fold once per shard selection instead of
    /// once per query (see [`RangeQuery::estimate_batch_with`] — answers are
    /// bit-identical to the corresponding single-query routes).
    ///
    /// With [`RouterMode::Exact`] the shard selection is
    /// footprint-independent, so the whole batch shares one merged view and
    /// one `estimate_batch_with` call. With [`RouterMode::Pruned`] queries
    /// are grouped by their shard selection; each group shares a view and a
    /// call, preserving per-group pruning exactly.
    pub fn estimate_batch<const D: usize>(
        &self,
        rq: &RangeQuery<D>,
        store: &ShardedStore<D>,
        ctx: &mut WorkerContext<D>,
        queries: &[BatchQuery<D>],
    ) -> Vec<Result<Estimate>> {
        if queries.is_empty() {
            return Vec::new();
        }
        match self.mode {
            RouterMode::Exact => {
                // Exact selection ignores the footprint: one route serves
                // the whole batch.
                if let Err(e) = self.route(store, ctx, None) {
                    return queries.iter().map(|_| Err(e.clone())).collect();
                }
                let (query, views) = ctx.split();
                rq.estimate_batch_with(query, view_of(views, store.id()), queries)
            }
            RouterMode::Pruned => {
                let epoch = ctx.epoch_for(store);
                let mut results: Vec<Option<Result<Estimate>>> =
                    (0..queries.len()).map(|_| None).collect();
                // Group queries by shard selection; batches are small
                // (`max_batch`-bounded upstream), so a linear scan over the
                // distinct masks beats hashing them.
                let mut masks: Vec<Vec<bool>> = Vec::new();
                let mut groups: Vec<Vec<usize>> = Vec::new();
                let mut mask = std::mem::take(&mut ctx.mask);
                for (i, q) in queries.iter().enumerate() {
                    let footprint = match q {
                        BatchQuery::Range(rect) => *rect,
                        BatchQuery::Stab(p) => HyperRect::from_point(*p),
                    };
                    self.selection_into(&epoch, Some(&footprint), &mut mask);
                    match masks.iter().position(|m| *m == mask) {
                        Some(g) => groups[g].push(i),
                        None => {
                            masks.push(mask.clone());
                            groups.push(vec![i]);
                        }
                    }
                }
                ctx.mask = mask;
                let mut sub = std::mem::take(&mut ctx.batch);
                for (m, idxs) in masks.iter().zip(&groups) {
                    if let Err(e) = ctx.ensure_view(store, &epoch, m, self.merge_threads) {
                        for &i in idxs {
                            results[i] = Some(Err(e.clone()));
                        }
                        continue;
                    }
                    sub.clear();
                    sub.extend(idxs.iter().map(|&i| queries[i]));
                    let (query, views) = ctx.split();
                    let answers = rq.estimate_batch_with(query, view_of(views, store.id()), &sub);
                    for (&i, a) in idxs.iter().zip(answers) {
                        results[i] = Some(a);
                    }
                }
                ctx.batch = sub;
                results
                    .into_iter()
                    .map(|r| r.expect("every query grouped"))
                    .collect()
            }
        }
    }

    /// Routes a range-selectivity estimate but stops **before boosting**,
    /// returning the shard-merged partial grid — the mergeable form a
    /// distributed scatter-gather path ships from a store node to its
    /// router (see [`crate::cluster`]). Boosting the result of a single
    /// node's partial is bit-identical to [`QueryRouter::estimate_range`];
    /// merging partials from *several* nodes is deterministic in a fixed
    /// merge order but sums in `f64`, so it is unbiased rather than
    /// bit-identical to a one-node counter merge (see
    /// [`PartialEstimate`]'s merge rules).
    pub fn partial_range<const D: usize>(
        &self,
        rq: &RangeQuery<D>,
        store: &ShardedStore<D>,
        ctx: &mut WorkerContext<D>,
        q: &HyperRect<D>,
    ) -> Result<PartialEstimate> {
        self.route(store, ctx, Some(q))?;
        let (query, views) = ctx.split();
        rq.estimate_partial_with(query, view_of(views, store.id()), q)
    }

    /// Routes a stabbing-count estimate, unboosted — the stabbing
    /// counterpart of [`QueryRouter::partial_range`].
    pub fn partial_stab<const D: usize>(
        &self,
        rq: &RangeQuery<D>,
        store: &ShardedStore<D>,
        ctx: &mut WorkerContext<D>,
        p: &Point<D>,
    ) -> Result<PartialEstimate> {
        let footprint = HyperRect::from_point(*p);
        self.route(store, ctx, Some(&footprint))?;
        let (query, views) = ctx.split();
        rq.estimate_stab_partial_with(query, view_of(views, store.id()), p)
    }

    /// Routes a spatial-join estimate over two sharded stores sharing the
    /// join's schema. Joins are bilinear, so both sides merge *all* touched
    /// shards regardless of mode (there is no sound per-query spatial
    /// pruning without a join predicate region).
    pub fn estimate_join<const D: usize>(
        &self,
        join: &SpatialJoin<D>,
        r_store: &ShardedStore<D>,
        s_store: &ShardedStore<D>,
        ctx: &mut WorkerContext<D>,
    ) -> Result<Estimate> {
        // Both views are ensured before either is looked up: ensuring the
        // second may evict an *older* cache entry and shift positions, so
        // views resolve by store id, never by index.
        self.route(r_store, ctx, None)?;
        self.route(s_store, ctx, None)?;
        let (query, views) = ctx.split();
        join.estimate_with(
            query,
            view_of(views, r_store.id()),
            view_of(views, s_store.id()),
        )
    }

    /// The merged sketch a query against `store` would currently evaluate
    /// over, as a fresh standalone [`SketchSet`] (diagnostics / snapshot
    /// hand-off; serving paths use the pooled cached views instead).
    pub fn collect<const D: usize>(
        &self,
        store: &ShardedStore<D>,
        q: Option<&HyperRect<D>>,
    ) -> Result<SketchSet<D>> {
        let epoch = store.load();
        let mask = self.selection(&epoch, q);
        let mut merged = store.empty_sketch();
        for (shard, selected) in epoch.shards().iter().zip(mask) {
            if selected {
                merged.merge_from(shard.sketch())?;
            }
        }
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ShardedStore;
    use geometry::rect2;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng};
    use sketch::estimators::SketchConfig;
    use sketch::RangeStrategy;

    fn rects(n: usize, seed: u64, max: u64) -> Vec<HyperRect<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = rng.gen_range(0..max - 20);
                let y = rng.gen_range(0..max - 20);
                rect2(
                    x,
                    x + rng.gen_range(1..16u64),
                    y,
                    y + rng.gen_range(1..16u64),
                )
            })
            .collect()
    }

    #[test]
    fn exact_mode_bit_matches_unsharded_oracle() {
        let mut rng = StdRng::seed_from_u64(21);
        let rq = RangeQuery::<2>::new(
            &mut rng,
            SketchConfig::new(13, 3),
            [8, 8],
            RangeStrategy::Transform,
        );
        let store = ShardedStore::like(&rq.new_sketch(), 3);
        let mut oracle = rq.new_sketch();
        let data = rects(80, 22, 255);
        store.insert_slice(&data).unwrap();
        oracle.insert_slice(&data).unwrap();

        let router = QueryRouter::new();
        let mut ctx = WorkerContext::new();
        let mut octx = sketch::QueryContext::new();
        for q in [
            rect2(10, 60, 10, 60),
            rect2(0, 255, 0, 255),
            rect2(200, 210, 5, 9),
        ] {
            let got = router.estimate_range(&rq, &store, &mut ctx, &q).unwrap();
            let want = rq.estimate_with(&mut octx, &oracle, &q).unwrap();
            assert_eq!(got.value.to_bits(), want.value.to_bits());
            assert_eq!(got.row_means, want.row_means);
        }
        let p = [data[5].range(0).lo(), data[5].range(1).lo()];
        let got = router.estimate_stab(&rq, &store, &mut ctx, &p).unwrap();
        let want = rq.estimate_stab_with(&mut octx, &oracle, &p).unwrap();
        assert_eq!(got.value.to_bits(), want.value.to_bits());
    }

    #[test]
    fn pruned_mode_equals_oracle_over_selected_shards() {
        let mut rng = StdRng::seed_from_u64(23);
        let rq = RangeQuery::<2>::new(
            &mut rng,
            SketchConfig::new(13, 3),
            [8, 8],
            RangeStrategy::Transform,
        );
        let store = ShardedStore::like(&rq.new_sketch(), 4);
        // Two well-separated clusters so pruning has something to skip.
        let left = rects(30, 24, 60);
        let right: Vec<HyperRect<2>> = rects(30, 25, 60)
            .into_iter()
            .map(|r| {
                rect2(
                    r.range(0).lo() + 192,
                    r.range(0).hi() + 192,
                    r.range(1).lo(),
                    r.range(1).hi(),
                )
            })
            .collect();
        store.insert_slice(&left).unwrap();
        store.insert_slice(&right).unwrap();

        let router = QueryRouter::new().with_mode(RouterMode::Pruned);
        let q = rect2(200, 250, 0, 60); // only the right cluster's shards
        let epoch = store.load();
        let mask = router.selection(&epoch, Some(&q));
        assert!(mask.iter().any(|&m| m), "selects something");
        assert!(!mask.iter().all(|&m| m), "prunes something");

        // Oracle over exactly the objects owned by the selected shards.
        let mut oracle = rq.new_sketch();
        for r in left.iter().chain(right.iter()) {
            if mask[store.partition().shard_of(r.range(0).lo())] {
                oracle.insert(r).unwrap();
            }
        }
        let mut ctx = WorkerContext::new();
        let got = router.estimate_range(&rq, &store, &mut ctx, &q).unwrap();
        let want = rq.estimate(&oracle, &q).unwrap();
        assert_eq!(got.value.to_bits(), want.value.to_bits());
        assert_eq!(got.row_means, want.row_means);

        // `collect` reproduces the same merged counters.
        let merged = router.collect(&store, Some(&q)).unwrap();
        for inst in 0..rq.schema().instances() {
            assert_eq!(
                merged.instance_counters(inst),
                oracle.instance_counters(inst)
            );
        }
    }

    #[test]
    fn batched_routes_bit_match_single_query_routes() {
        let mut rng = StdRng::seed_from_u64(29);
        let rq = RangeQuery::<2>::new(
            &mut rng,
            SketchConfig::new(13, 3),
            [8, 8],
            RangeStrategy::Transform,
        );
        let store = ShardedStore::like(&rq.new_sketch(), 4);
        store.insert_slice(&rects(80, 30, 255)).unwrap();
        let queries = vec![
            BatchQuery::Range(rect2(10, 60, 10, 60)),
            BatchQuery::Stab([15, 33]),
            BatchQuery::Range(rect2(0, 255, 0, 255)),
            BatchQuery::Range(rect2(10, 60, 10, 60)), // duplicate of slot 0
            BatchQuery::Range(rect2(0, 300, 0, 50)),  // out of domain: fails alone
            BatchQuery::Range(rect2(200, 210, 5, 9)),
        ];
        for mode in [RouterMode::Exact, RouterMode::Pruned] {
            let router = QueryRouter::new().with_mode(mode);
            let mut bctx = WorkerContext::new();
            let mut sctx = WorkerContext::new();
            let got = router.estimate_batch(&rq, &store, &mut bctx, &queries);
            assert_eq!(got.len(), queries.len());
            for (i, (q, g)) in queries.iter().zip(&got).enumerate() {
                let want = match q {
                    BatchQuery::Range(rect) => router.estimate_range(&rq, &store, &mut sctx, rect),
                    BatchQuery::Stab(p) => router.estimate_stab(&rq, &store, &mut sctx, p),
                };
                match (g, want) {
                    (Ok(g), Ok(want)) => {
                        assert_eq!(g.value.to_bits(), want.value.to_bits(), "{mode:?} slot {i}");
                        assert_eq!(g.row_means, want.row_means, "{mode:?} slot {i}");
                    }
                    (Err(g), Err(want)) => assert_eq!(g, &want, "{mode:?} slot {i}"),
                    (g, want) => panic!("{mode:?} slot {i}: batched {g:?} vs single {want:?}"),
                }
            }
        }
    }

    #[test]
    fn boosted_partials_bit_match_direct_estimates() {
        let mut rng = StdRng::seed_from_u64(31);
        let rq = RangeQuery::<2>::new(
            &mut rng,
            SketchConfig::new(13, 3),
            [8, 8],
            RangeStrategy::Transform,
        );
        let store = ShardedStore::like(&rq.new_sketch(), 3);
        store.insert_slice(&rects(60, 32, 255)).unwrap();
        let router = QueryRouter::new();
        let mut ctx = WorkerContext::new();
        let q = rect2(20, 180, 5, 200);
        // One node's partial, boosted, IS the direct estimate: the partial
        // stops just short of the final (deterministic) boosting step.
        let partial = router.partial_range(&rq, &store, &mut ctx, &q).unwrap();
        let direct = router.estimate_range(&rq, &store, &mut ctx, &q).unwrap();
        assert_eq!(partial.boost().value.to_bits(), direct.value.to_bits());
        assert_eq!(partial.boost().row_means, direct.row_means);
        let p = [30u64, 40u64];
        let partial = router.partial_stab(&rq, &store, &mut ctx, &p).unwrap();
        let direct = router.estimate_stab(&rq, &store, &mut ctx, &p).unwrap();
        assert_eq!(partial.boost().value.to_bits(), direct.value.to_bits());
    }

    #[test]
    fn selection_tallies_queries_per_shard() {
        let mut rng = StdRng::seed_from_u64(33);
        let rq = RangeQuery::<2>::new(
            &mut rng,
            SketchConfig::new(5, 3),
            [8, 8],
            RangeStrategy::Transform,
        );
        let store = ShardedStore::like(&rq.new_sketch(), 2);
        store.insert_slice(&rects(20, 34, 255)).unwrap();
        let router = QueryRouter::new();
        let mut ctx = WorkerContext::new();
        let before: u64 = store.load().shards().iter().map(|s| s.queries()).sum();
        router
            .estimate_range(&rq, &store, &mut ctx, &rect2(0, 255, 0, 255))
            .unwrap();
        let after: u64 = store.load().shards().iter().map(|s| s.queries()).sum();
        assert_eq!(after - before, 2, "both touched shards tallied once");
    }

    #[test]
    fn untouched_and_emptied_stores_answer_zero_like_oracle() {
        let mut rng = StdRng::seed_from_u64(26);
        let rq = RangeQuery::<2>::new(
            &mut rng,
            SketchConfig::new(5, 3),
            [8, 8],
            RangeStrategy::Transform,
        );
        let store = ShardedStore::like(&rq.new_sketch(), 3);
        let router = QueryRouter::new();
        let mut ctx = WorkerContext::new();
        let q = rect2(10, 50, 10, 50);
        let empty = router.estimate_range(&rq, &store, &mut ctx, &q).unwrap();
        assert_eq!(empty.value, 0.0);
        // Insert then delete everything: counters cancel exactly, and the
        // (touched) shards still merge to the all-zero oracle.
        let data = rects(40, 27, 255);
        store.insert_slice(&data).unwrap();
        store.delete_slice(&data).unwrap();
        let after = router.estimate_range(&rq, &store, &mut ctx, &q).unwrap();
        assert_eq!(after.value, 0.0);
        assert_eq!(store.load().total_len(), 0);
    }
}
