//! Per-worker serving state: reusable estimation scratch, cached store
//! epochs, and cached cross-shard merge views — everything a serving loop
//! needs to keep the hot path allocation-free and lock-free.

use crate::store::{ShardedStore, StoreEpoch};
use sketch::{QueryContext, QueryKernel, Result, SketchSet};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Most stores one worker caches views/epochs for (oldest evicted first).
const STORE_CACHE_CAPACITY: usize = 8;

/// One worker's serving state.
///
/// Holds a core [`QueryContext`] (kernel scratch + compiled-plan cache), a
/// cached `Arc<StoreEpoch>` per store — revalidated against the store's
/// epoch tag with a single atomic load, so steady-state queries never touch
/// a lock — and a cached *merged view* per store: one reusable [`SketchSet`]
/// holding the integer fold of the selected shards' counters. The view is
/// rebuilt only when the epoch or the shard selection changes; between
/// ingests, every query runs at full single-sketch speed with zero
/// allocation.
#[derive(Debug, Default)]
pub struct WorkerContext<const D: usize> {
    /// The core estimation scratch (kernel choice, atomic grid, plan cache).
    pub query: QueryContext,
    /// Reusable shard-selection mask: the router takes it, fills it per
    /// query and puts it back, so warm queries allocate nothing.
    pub(crate) mask: Vec<bool>,
    /// Reusable per-group query gather for the router's batched entry
    /// point (same take/put-back protocol as `mask`).
    pub(crate) batch: Vec<sketch::BatchQuery<D>>,
    epochs: Vec<CachedEpoch<D>>,
    views: Vec<StoreView<D>>,
}

#[derive(Debug)]
struct CachedEpoch<const D: usize> {
    store: u64,
    epoch: Arc<StoreEpoch<D>>,
}

/// A cached cross-shard merge: the counters of every selected shard folded
/// into one sketch (exact `i64` linearity — see the router docs).
#[derive(Debug)]
pub(crate) struct StoreView<const D: usize> {
    store: u64,
    epoch: u64,
    mask: Vec<bool>,
    pub(crate) merged: SketchSet<D>,
}

impl<const D: usize> WorkerContext<D> {
    /// Fresh worker state (default [`QueryKernel::Wide`] kernel).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins the estimation kernel (builder form).
    pub fn with_kernel(mut self, kernel: QueryKernel) -> Self {
        self.query.set_kernel(kernel);
        self
    }

    /// The store epoch this worker serves from, revalidated against the
    /// store's lock-free epoch tag; only an actual epoch change re-reads
    /// the store's published pointer.
    ///
    /// Like `WorkerContext::ensure_view`, the cache is LRU over *uses*,
    /// not FIFO over insertions: every hit — including an in-place refresh
    /// of a stale epoch — moves the entry to the back. A hot store whose
    /// epoch keeps changing therefore cannot be evicted by
    /// `STORE_CACHE_CAPACITY` cold one-shot stores, and the epoch cache's
    /// eviction order always mirrors the view cache's.
    pub fn epoch_for(&mut self, store: &ShardedStore<D>) -> Arc<StoreEpoch<D>> {
        let tag = store.epoch_tag();
        match self.epochs.iter().position(|c| c.store == store.id()) {
            Some(i) => {
                let mut hit = self.epochs.remove(i);
                if hit.epoch.epoch() != tag {
                    hit.epoch = store.load();
                }
                let epoch = Arc::clone(&hit.epoch);
                self.epochs.push(hit);
                epoch
            }
            None => {
                if self.epochs.len() >= STORE_CACHE_CAPACITY {
                    self.epochs.remove(0);
                }
                let fresh = store.load();
                self.epochs.push(CachedEpoch {
                    store: store.id(),
                    epoch: Arc::clone(&fresh),
                });
                fresh
            }
        }
    }

    /// Brings the merged view of `epoch`'s shards selected by `mask` up to
    /// date, rebuilding it only on epoch/selection change, and refreshes
    /// the entry's recency (least recently *ensured* is evicted first).
    /// Look the view up afterwards with [`WorkerContext::split`] +
    /// [`view_of`] — views are addressed by store id, never by position:
    /// ensuring a *second* store's view may evict the oldest cache entry
    /// and shift positions.
    pub(crate) fn ensure_view(
        &mut self,
        store: &ShardedStore<D>,
        epoch: &StoreEpoch<D>,
        mask: &[bool],
    ) -> Result<()> {
        // LRU, not FIFO: a hit moves to the back, so a multi-store query
        // (join) that ensures its views back to back can never evict one
        // of its own — the invariant `view_of` relies on.
        match self.views.iter().position(|v| v.store == store.id()) {
            Some(i) => {
                let hit = self.views.remove(i);
                self.views.push(hit);
            }
            None => {
                if self.views.len() >= STORE_CACHE_CAPACITY {
                    self.views.remove(0);
                }
                self.views.push(StoreView {
                    store: store.id(),
                    epoch: 0, // forces the first build below
                    mask: Vec::new(),
                    merged: store.empty_sketch(),
                });
            }
        }
        let view = self.views.last_mut().expect("just positioned at the back");
        if view.epoch != epoch.epoch() || view.mask != mask {
            view.merged.reset();
            for (shard, _) in epoch.shards().iter().zip(mask).filter(|(_, &on)| on) {
                view.merged.merge_from(shard.sketch())?;
            }
            view.epoch = epoch.epoch();
            view.mask.clear();
            view.mask.extend_from_slice(mask);
        }
        Ok(())
    }

    /// Splits the worker into its estimation scratch and its views, so a
    /// router can borrow the query context mutably alongside one or two
    /// merged views immutably.
    pub(crate) fn split(&mut self) -> (&mut QueryContext, &[StoreView<D>]) {
        (&mut self.query, &self.views)
    }

    /// Clears every cache and scratch after a panic unwound through this
    /// context. A panic can strike mid-[`WorkerContext::ensure_view`] and
    /// leave a half-folded merged view (or a stale epoch) behind, so
    /// nothing cached is trustworthy; all of it is rebuildable from the
    /// store on the next query. The kernel pin survives — it is
    /// configuration, not state.
    fn reset_after_panic(&mut self) {
        let kernel = self.query.kernel();
        *self = Self::default();
        self.query.set_kernel(kernel);
    }
}

/// The merged view of `store_id` within a split worker's view list.
///
/// # Panics
///
/// Panics if the view is absent — callers must have run
/// [`WorkerContext::ensure_view`] for every store of the query *before*
/// splitting. That is always safe: the cache holds
/// [`STORE_CACHE_CAPACITY`] ≥ 2 entries, evicts least-recently-*ensured*
/// first, and every `ensure_view` (hit or miss) moves its entry to the
/// back, so ensuring one query's stores back to back can never evict each
/// other.
pub(crate) fn view_of<const D: usize>(views: &[StoreView<D>], store_id: u64) -> &SketchSet<D> {
    &views
        .iter()
        .find(|v| v.store == store_id)
        .expect("merged view evicted between ensure_view and use")
        .merged
}

/// A fixed set of [`WorkerContext`]s shared by concurrent request handlers.
///
/// [`ContextPool::with`] hands the calling thread an uncontended slot when
/// one is free (slots are probed starting from a thread-local hash, so
/// steady worker threads keep hitting *their* slot and its warm caches) and
/// blocks on one slot only when every context is busy.
#[derive(Debug)]
pub struct ContextPool<const D: usize> {
    slots: Vec<Mutex<WorkerContext<D>>>,
}

impl<const D: usize> ContextPool<D> {
    /// A pool of `workers` contexts (at least one).
    pub fn new(workers: usize) -> Self {
        Self {
            slots: (0..workers.max(1))
                .map(|_| Mutex::new(WorkerContext::new()))
                .collect(),
        }
    }

    /// Number of pooled contexts.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Runs `f` with a checked-out worker context.
    ///
    /// A slot whose previous holder panicked is **recovered**, not skipped:
    /// the poisoned guard is taken back, the worker state (caches +
    /// scratch, all rebuildable from the store) is reset, and the slot
    /// serves `f` normally. Without this, one handler panic would brick the
    /// slot for the lifetime of the pool — the `try_lock` probe loop would
    /// silently skip it forever (quietly shrinking the pool) and the
    /// blocking fallback would panic every caller hashed onto it.
    pub fn with<R>(&self, f: impl FnOnce(&mut WorkerContext<D>) -> R) -> R {
        let mut hasher = DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        let start = (hasher.finish() as usize) % self.slots.len();
        for i in 0..self.slots.len() {
            let slot = &self.slots[(start + i) % self.slots.len()];
            match slot.try_lock() {
                Ok(mut ctx) => return f(&mut ctx),
                Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                    let mut ctx = poisoned.into_inner();
                    ctx.reset_after_panic();
                    slot.clear_poison();
                    return f(&mut ctx);
                }
                Err(std::sync::TryLockError::WouldBlock) => {}
            }
        }
        // Every slot busy: wait for "our" slot.
        let slot = &self.slots[start];
        match slot.lock() {
            Ok(mut ctx) => f(&mut ctx),
            Err(poisoned) => {
                let mut ctx = poisoned.into_inner();
                ctx.reset_after_panic();
                slot.clear_poison();
                f(&mut ctx)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::rect2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sketch::{ie_words, BoostShape, DimSpec, EndpointPolicy, SketchSchema};

    fn store(shards: usize) -> ShardedStore<2> {
        let mut rng = StdRng::seed_from_u64(11);
        let schema =
            SketchSchema::<2>::new(&mut rng, BoostShape::new(5, 3), [DimSpec::dyadic(8); 2]);
        ShardedStore::new(
            schema,
            Arc::new(ie_words::<2>()),
            EndpointPolicy::Raw,
            shards,
        )
    }

    #[test]
    fn epoch_cache_revalidates_by_tag() {
        let st = store(2);
        let mut ctx = WorkerContext::<2>::new();
        let e1 = ctx.epoch_for(&st);
        assert_eq!(e1.epoch(), 1);
        assert!(Arc::ptr_eq(&e1, &ctx.epoch_for(&st)), "cache hit");
        st.insert_slice(&[rect2(1, 5, 1, 5)]).unwrap();
        let e2 = ctx.epoch_for(&st);
        assert_eq!(e2.epoch(), 2);
        assert!(!Arc::ptr_eq(&e1, &e2));
    }

    #[test]
    fn merged_view_rebuilds_only_on_change() {
        let st = store(3);
        st.insert_slice(&[rect2(1, 5, 1, 5), rect2(200, 210, 7, 9)])
            .unwrap();
        let mut ctx = WorkerContext::<2>::new();
        let epoch = ctx.epoch_for(&st);
        let all = vec![true; 3];
        ctx.ensure_view(&st, &epoch, &all).unwrap();
        assert_eq!(view_of(&ctx.views, st.id()).len(), 2);
        // Same epoch + mask: counters must not double up.
        ctx.ensure_view(&st, &epoch, &all).unwrap();
        assert_eq!(view_of(&ctx.views, st.id()).len(), 2);
        // A different selection rebuilds.
        let mut some = vec![true; 3];
        some[st.partition().shard_of(200)] = false;
        ctx.ensure_view(&st, &epoch, &some).unwrap();
        assert_eq!(view_of(&ctx.views, st.id()).len(), 1);
        // Switching back resets the view before refolding.
        ctx.ensure_view(&st, &epoch, &all).unwrap();
        assert_eq!(view_of(&ctx.views, st.id()).len(), 2);
    }

    #[test]
    fn views_resolve_by_store_id_across_evictions() {
        // Fill the view cache past capacity, then ensure two more stores
        // back to back (the join shape): both must resolve by id even
        // though the second ensure evicted an entry and shifted positions.
        let old: Vec<ShardedStore<2>> = (0..STORE_CACHE_CAPACITY).map(|_| store(2)).collect();
        let mut ctx = WorkerContext::<2>::new();
        for st in &old {
            let epoch = ctx.epoch_for(st);
            ctx.ensure_view(st, &epoch, &[false, false]).unwrap();
        }
        assert_eq!(ctx.views.len(), STORE_CACHE_CAPACITY);
        let r = store(2);
        let s = store(2);
        r.insert_slice(&[rect2(1, 5, 1, 5)]).unwrap();
        s.insert_slice(&[rect2(1, 5, 1, 5), rect2(9, 12, 1, 2)])
            .unwrap();
        let re = ctx.epoch_for(&r);
        let se = ctx.epoch_for(&s);
        ctx.ensure_view(&r, &re, &[true, true]).unwrap();
        ctx.ensure_view(&s, &se, &[true, true]).unwrap();
        assert_eq!(view_of(&ctx.views, r.id()).len(), 1);
        assert_eq!(view_of(&ctx.views, s.id()).len(), 2);
        assert_eq!(ctx.views.len(), STORE_CACHE_CAPACITY);

        // The LRU case a FIFO cache gets wrong: a join whose first store's
        // view is the *oldest* cached entry and whose second store is new.
        // The hit must refresh recency so the miss evicts some other entry,
        // never the view just ensured.
        let oldest = ctx.views[0].store;
        let first = old
            .iter()
            .chain([&r, &s])
            .find(|st| st.id() == oldest)
            .unwrap();
        let fe = ctx.epoch_for(first);
        let fresh = store(2);
        let fresh_epoch = ctx.epoch_for(&fresh);
        ctx.ensure_view(first, &fe, &[false, false]).unwrap();
        ctx.ensure_view(&fresh, &fresh_epoch, &[false, false])
            .unwrap();
        assert!(ctx.views.iter().any(|v| v.store == first.id()));
        let _ = view_of(&ctx.views, first.id());
        let _ = view_of(&ctx.views, fresh.id());
    }

    #[test]
    fn epoch_cache_is_lru_not_fifo() {
        // Fill the epoch cache to capacity, then keep the *oldest* entry
        // hot by refreshing it (its store's epoch changes every time, so
        // each hit takes the refresh-in-place path). Cold one-shot stores
        // must evict each other, never the hot store — the FIFO bug this
        // pins down evicted by insertion order and dropped the hot store
        // after STORE_CACHE_CAPACITY cold lookups.
        let hot = store(2);
        let mut ctx = WorkerContext::<2>::new();
        ctx.epoch_for(&hot);
        let mut cold: Vec<ShardedStore<2>> = Vec::new();
        for i in 0..STORE_CACHE_CAPACITY - 1 {
            cold.push(store(2));
            ctx.epoch_for(cold.last().unwrap());
            // Refresh the hot store through an actual epoch change: the
            // stale-entry refresh must move it to the back, like a hit.
            hot.insert_slice(&[rect2(1, 5, 1, 5)]).unwrap();
            let e = ctx.epoch_for(&hot);
            assert_eq!(e.epoch(), 2 + i as u64);
        }
        assert_eq!(ctx.epochs.len(), STORE_CACHE_CAPACITY);
        // One more cold store overflows the cache: the victim must be the
        // oldest *cold* entry, and the hot store must survive at the back.
        cold.push(store(2));
        ctx.epoch_for(cold.last().unwrap());
        assert_eq!(ctx.epochs.len(), STORE_CACHE_CAPACITY);
        assert!(
            ctx.epochs.iter().any(|c| c.store == hot.id()),
            "hot store evicted by cold one-shot lookups"
        );
        assert!(
            !ctx.epochs.iter().any(|c| c.store == cold[0].id()),
            "oldest cold entry should have been the victim"
        );
        // Pure hits (no epoch change) refresh recency too.
        ctx.epoch_for(&cold[1]);
        assert_eq!(ctx.epochs.last().unwrap().store, cold[1].id());
    }

    #[test]
    fn pool_recovers_poisoned_slot() {
        use geometry::HyperRect;
        use sketch::{QueryContext, QueryKernel, RangeQuery, RangeStrategy};

        let mut rng = StdRng::seed_from_u64(31);
        let rq = RangeQuery::<2>::new(
            &mut rng,
            sketch::estimators::SketchConfig::new(13, 3),
            [8, 8],
            RangeStrategy::Transform,
        );
        let st = ShardedStore::like(&rq.new_sketch(), 3);
        let data: Vec<HyperRect<2>> = (0..40).map(|i| rect2(i, i + 9, 2 * i, 2 * i + 5)).collect();
        st.insert_slice(&data).unwrap();
        let mut oracle = rq.new_sketch();
        oracle.insert_slice(&data).unwrap();

        // One slot, so the panicking holder and every later caller share it.
        let pool = ContextPool::<2>::new(1);
        let router = crate::QueryRouter::new();
        let q = rect2(5, 60, 5, 60);
        // Warm the slot's caches so the reset actually discards something,
        // and pin a non-default kernel so recovery must preserve it.
        pool.with(|ctx| {
            ctx.query.set_kernel(QueryKernel::Scalar);
            router.estimate_range(&rq, &st, ctx, &q).unwrap();
        });

        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.with(|_ctx| panic!("injected handler panic while holding the slot"));
        }));
        assert!(panicked.is_err());

        // The slot must serve again — repeatedly — and answers must still
        // bit-match the unsharded oracle (the half-warm caches were reset,
        // not trusted). Before the fix this `with` panicked forever on
        // "pool lock poisoned".
        let mut octx = QueryContext::new();
        let want = rq.estimate_with(&mut octx, &oracle, &q).unwrap();
        for round in 0..3 {
            let got = pool
                .with(|ctx| {
                    assert_eq!(
                        ctx.query.kernel(),
                        QueryKernel::Scalar,
                        "kernel pin must survive recovery"
                    );
                    router.estimate_range(&rq, &st, ctx, &q)
                })
                .unwrap();
            assert_eq!(
                want.value.to_bits(),
                got.value.to_bits(),
                "round {round} after recovery diverged from the oracle"
            );
            assert_eq!(want.row_means, got.row_means);
        }
        // The poison flag was cleared: the probing fast path sees a clean
        // mutex again (a poisoned one would re-enter recovery every call).
        assert!(pool.slots[0].try_lock().is_ok());
    }

    #[test]
    fn pool_hands_out_contexts_concurrently() {
        let pool = Arc::new(ContextPool::<2>::new(3));
        assert_eq!(pool.workers(), 3);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for _ in 0..50 {
                        pool.with(|ctx| {
                            let _ = &mut ctx.query;
                        });
                    }
                });
            }
        });
    }
}
