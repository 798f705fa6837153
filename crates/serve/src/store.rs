//! The sharded sketch store: partitioned ingest with an epoch-swapped,
//! lock-free read path.
//!
//! A [`ShardedStore`] partitions the keyed domain (dimension 0 of the data
//! coordinate space) across `N` [`SketchShard`]s along a dyadic-aligned
//! [`DomainPartition`], so shard boundaries sit on dyadic node boundaries
//! and range/stab covers split cleanly at them (see
//! [`dyadic::partition`]). Every shard shares one [`SketchSchema`], word
//! set and endpoint policy — the precondition for the router's exact
//! counter-level merge (sketches are linear, so the fold of all shard
//! counters is bit-identical to one unsharded sketch of the same objects).
//!
//! ## Epoch/swap concurrency
//!
//! Readers never lock on the hot path. The store publishes immutable
//! [`StoreEpoch`]s (an `Arc`'d shard vector **plus the partition that
//! routed it** — topology is epoch state, so a rebalance cutover is the
//! same single atomic swap as an ingest batch); ingest **builds into
//! staging shards** — clones of just the shards a batch touches —
//! assembles a new epoch, and atomically swaps it in. An epoch *tag* is
//! mirrored in an `AtomicU64` outside the lock: a reader holding a cached
//! `Arc<StoreEpoch>` (every pooled [`crate::context::WorkerContext`] does)
//! revalidates with a single atomic load and only touches the `RwLock` on
//! an actual epoch change — steady-state queries are one atomic load plus
//! the estimate, with zero locks and zero allocation.
//!
//! Writers are serialized by the swap lock; batches are atomic (readers
//! see either the previous epoch or the fully ingested one, never a
//! partial batch).
//!
//! A panic while one of the store's locks is held (the epoch pointer, the
//! writer lock, the journal) poisons it; every site takes the lock over as
//! it stands. None of them can be left half-updated: the epoch pointer
//! changes in one assignment, the writer lock guards no data, and an
//! ingest takes the journal and copies its batch *before* it publishes,
//! so only `UpdateLog::record` runs between a publication and its journal
//! entry, and its one check (epoch order) comes before it changes
//! anything. The journal therefore never lacks a published batch, and
//! recovery needs no reset.
//!
//! ## The update log
//!
//! Stores opted in via [`ShardedStore::with_log`] journal every published
//! batch into an [`UpdateLog`]. [`LogRetention::Full`] is what the
//! rebalancer replays to rebuild shards across a topology change (see
//! [`crate::rebalance`]); [`LogRetention::Entries`] gives replicas a
//! bounded catch-up window (see [`crate::replica`]). The default,
//! [`LogRetention::None`], journals nothing and costs nothing.

use crate::shard::SketchShard;
use dyadic::DomainPartition;
use geometry::HyperRect;
use serde::{Deserialize, Serialize};
use sketch::{
    restore_schema, restore_sketch_with_schema, snapshot_sketch, EndpointPolicy, LogRetention,
    Result, SketchError, SketchSchema, SketchSet, SketchSnapshot, UpdateLog, Word,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

static STORE_COUNTER: AtomicU64 = AtomicU64::new(1);

/// An immutable published state of a [`ShardedStore`]: the shard vector
/// and routing partition of one generation. Readers clone the `Arc` once
/// per epoch change and evaluate whole queries against it without further
/// synchronization.
#[derive(Debug)]
pub struct StoreEpoch<const D: usize> {
    epoch: u64,
    partition: DomainPartition,
    shards: Vec<Arc<SketchShard<D>>>,
}

impl<const D: usize> StoreEpoch<D> {
    pub(crate) fn assemble(
        epoch: u64,
        partition: DomainPartition,
        shards: Vec<Arc<SketchShard<D>>>,
    ) -> Self {
        debug_assert_eq!(partition.shards(), shards.len());
        Self {
            epoch,
            partition,
            shards,
        }
    }

    /// The generation number (strictly increasing per published change —
    /// ingest batch or topology cutover).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The partition that routed this generation's shards. Topology is
    /// epoch state: a query evaluated against one epoch sees one
    /// partition, never a half-rebalanced mixture.
    pub fn partition(&self) -> &DomainPartition {
        &self.partition
    }

    /// The shards of this generation.
    pub fn shards(&self) -> &[Arc<SketchShard<D>>] {
        &self.shards
    }

    /// Net objects summarized across all shards.
    pub fn total_len(&self) -> i64 {
        self.shards.iter().map(|s| s.sketch().len()).sum()
    }
}

/// A sharded sketch store over one schema; see the module docs.
#[derive(Debug)]
pub struct ShardedStore<const D: usize> {
    id: u64,
    schema: Arc<SketchSchema<D>>,
    words: Arc<Vec<Word<D>>>,
    policy: EndpointPolicy,
    /// Admissible data-domain bits per dimension (schema bits minus the
    /// policy's transform headroom) — the ingest validation bound.
    data_bits: [u32; D],
    current: RwLock<Arc<StoreEpoch<D>>>,
    /// Epoch tag mirrored outside the lock for the reader fast path.
    epoch_tag: AtomicU64,
    /// Serializes ingest batches and topology changes (clone → update →
    /// swap).
    writer: Mutex<()>,
    /// Journal of published batches; retention [`LogRetention::None`]
    /// unless [`ShardedStore::with_log`] opted in.
    log: Mutex<UpdateLog<D>>,
}

impl<const D: usize> ShardedStore<D> {
    /// Creates an empty store of `shards` shards sharing `schema`, `words`
    /// and `policy` (the effective shard count is clamped to the dimension-0
    /// domain size; see [`DomainPartition::new`]).
    pub fn new(
        schema: Arc<SketchSchema<D>>,
        words: Arc<Vec<Word<D>>>,
        policy: EndpointPolicy,
        shards: usize,
    ) -> Self {
        let data_bits: [u32; D] =
            std::array::from_fn(|i| schema.dims()[i].sketch_bits - policy.extra_bits());
        let partition = DomainPartition::new(data_bits[0], shards);
        let shards: Vec<Arc<SketchShard<D>>> = (0..partition.shards())
            .map(|_| {
                Arc::new(SketchShard::new(SketchSet::new(
                    Arc::clone(&schema),
                    Arc::clone(&words),
                    policy,
                )))
            })
            .collect();
        Self {
            id: STORE_COUNTER.fetch_add(1, Ordering::Relaxed),
            schema,
            words,
            policy,
            data_bits,
            current: RwLock::new(Arc::new(StoreEpoch::assemble(1, partition, shards))),
            epoch_tag: AtomicU64::new(1),
            writer: Mutex::new(()),
            log: Mutex::new(UpdateLog::new(LogRetention::None)),
        }
    }

    /// Creates a store shaped like an estimator's sketch (same schema,
    /// words and policy), so router answers stay combinable with — and
    /// bit-comparable to — sketches the estimator builds directly.
    pub fn like(prototype: &SketchSet<D>, shards: usize) -> Self {
        Self::new(
            Arc::clone(prototype.schema()),
            Arc::clone(prototype.words()),
            prototype.policy(),
            shards,
        )
    }

    /// Opts the store into journaling published batches under `retention`
    /// (builder style — chain after [`ShardedStore::new`] or
    /// [`ShardedStore::like`]). [`LogRetention::Full`] enables topology
    /// changes, [`LogRetention::Entries`] bounds memory for replica
    /// catch-up. The truncation floor carries over, so re-configuring a
    /// restored store keeps its history honest.
    pub fn with_log(self, retention: LogRetention) -> Self {
        {
            let mut log = self.log();
            *log = UpdateLog::new_with_floor(retention, log.floor());
        }
        self
    }

    /// The journal's retention policy.
    pub fn log_retention(&self) -> LogRetention {
        self.log().retention()
    }

    /// Process-unique store identity (worker caches key on it).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<SketchSchema<D>> {
        &self.schema
    }

    /// The dimension-0 partition currently routing objects to shards (a
    /// clone of the published epoch's — topology is epoch state and may
    /// change at the next rebalance cutover).
    pub fn partition(&self) -> DomainPartition {
        self.load().partition.clone()
    }

    /// Current shard count (like [`ShardedStore::partition`], epoch state).
    pub fn shard_count(&self) -> usize {
        self.load().shards.len()
    }

    /// An empty sketch over the store's schema/words/policy — the merge
    /// target shape workers allocate once and reuse.
    pub fn empty_sketch(&self) -> SketchSet<D> {
        SketchSet::new(
            Arc::clone(&self.schema),
            Arc::clone(&self.words),
            self.policy,
        )
    }

    /// An empty shard over the store's schema (staging target for
    /// rebalance replays).
    pub(crate) fn empty_shard(&self) -> SketchShard<D> {
        SketchShard::new(self.empty_sketch())
    }

    /// The current epoch tag without taking any lock (reader fast path:
    /// compare against a cached epoch's tag).
    pub fn epoch_tag(&self) -> u64 {
        self.epoch_tag.load(Ordering::Acquire)
    }

    /// The current published epoch (brief read lock to clone the `Arc`;
    /// pooled workers cache the result and revalidate by tag instead of
    /// calling this per query). A poisoned lock is taken over as it stands
    /// (see the module docs).
    pub fn load(&self) -> Arc<StoreEpoch<D>> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Serializes this caller against ingest and other topology changes,
    /// taking a poisoned lock over: it guards no data.
    pub(crate) fn writer_lock(&self) -> MutexGuard<'_, ()> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The update journal, taking a poisoned lock over as it stands (see
    /// the module docs).
    pub(crate) fn log(&self) -> MutexGuard<'_, UpdateLog<D>> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes `next` as the current epoch: swap behind the write lock,
    /// then advance the tag — a reader observing the new tag will find (at
    /// least) the new epoch behind the lock. Callers hold the writer lock.
    pub(crate) fn publish(&self, next: Arc<StoreEpoch<D>>) {
        let epoch = next.epoch;
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = next;
        self.epoch_tag.store(epoch, Ordering::Release);
    }

    /// Inserts a batch; see [`ShardedStore::update_slice`].
    pub fn insert_slice(&self, rects: &[HyperRect<D>]) -> Result<()> {
        self.update_slice(rects, 1)
    }

    /// Deletes a batch; see [`ShardedStore::update_slice`].
    pub fn delete_slice(&self, rects: &[HyperRect<D>]) -> Result<()> {
        self.update_slice(rects, -1)
    }

    /// Applies one signed update per rectangle, routed to shards by the
    /// dimension-0 lower endpoint, and publishes the result as one new
    /// epoch. Which shard an object lands in never changes any *exact-mode*
    /// router answer (counter merges are linear); routing only shapes
    /// coverage locality for pruned-mode queries.
    ///
    /// All rectangles are validated up front: either the whole batch
    /// becomes visible atomically or the store is untouched. An empty batch
    /// is a no-op: it publishes no epoch and journals nothing, so pooled
    /// readers keep their merged views.
    ///
    /// The writer lock is held across each touched shard's apply, and
    /// `SketchSet::update_slice` splits a large enough group's instance
    /// blocks across cores inside it; a shard whose schema fits one
    /// instance block never splits.
    pub fn update_slice(&self, rects: &[HyperRect<D>], delta: i64) -> Result<()> {
        for r in rects {
            self.validate(r)?;
        }
        if rects.is_empty() {
            return Ok(());
        }
        let _writer = self.writer_lock();
        let cur = self.load();
        // Route into per-shard groups along this epoch's partition.
        let mut groups: Vec<Vec<HyperRect<D>>> = vec![Vec::new(); cur.shards.len()];
        for r in rects {
            groups[cur.partition.shard_of(r.range(0).lo())].push(*r);
        }
        // Build staging shards for the touched partitions only.
        let mut shards = cur.shards.clone();
        for (s, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let mut staging = (*shards[s]).clone();
            staging.apply(group, delta).expect("validated above");
            shards[s] = Arc::new(staging);
        }
        let next = Arc::new(StoreEpoch::assemble(
            cur.epoch + 1,
            cur.partition.clone(),
            shards,
        ));
        // Journal under the new epoch, still inside the writer lock so
        // entries land in epoch order. The journal is taken and the batch
        // copied before the swap, so a panic there publishes nothing. A
        // no-retention log only advances its floor — skip copying the
        // batch.
        let mut log = self.log();
        let batch = if matches!(log.retention(), LogRetention::None) {
            Arc::new(Vec::new())
        } else {
            Arc::new(rects.to_vec())
        };
        self.publish(Arc::clone(&next));
        log.record(next.epoch, delta, batch);
        Ok(())
    }

    fn validate(&self, rect: &HyperRect<D>) -> Result<()> {
        for dim in 0..D {
            let max = (1u64 << self.data_bits[dim]) - 1;
            if rect.range(dim).hi() > max {
                return Err(SketchError::DomainOverflow {
                    coord: rect.range(dim).hi(),
                    max,
                    dim,
                });
            }
        }
        Ok(())
    }

    /// Captures the current epoch as a self-contained snapshot.
    pub fn snapshot(&self) -> StoreSnapshot {
        let epoch = self.load();
        StoreSnapshot {
            epoch: epoch.epoch,
            boundaries: epoch.partition.boundaries().to_vec(),
            shards: epoch
                .shards
                .iter()
                .map(|s| snapshot_sketch(s.sketch()))
                .collect(),
            coverage: epoch
                .shards
                .iter()
                .map(|s| {
                    s.coverage()
                        .map(|c| (0..D).map(|d| (c.range(d).lo(), c.range(d).hi())).collect())
                })
                .collect(),
            updates: epoch.shards.iter().map(|s| s.updates()).collect(),
        }
    }

    /// Restores a store from a snapshot. All shards are rebuilt against one
    /// freshly restored schema, so they stay mutually mergeable — and
    /// combinable with sketches restored *from the same snapshot's* schema.
    pub fn restore(snap: &StoreSnapshot) -> Result<Self> {
        let first = snap.shards.first().ok_or(SketchError::InvalidParameter(
            "store snapshot carries no shards",
        ))?;
        let schema = restore_schema::<D>(first.schema())?;
        Self::restore_with_schema(snap, schema)
    }

    /// Restores a store from a snapshot **against a caller-supplied
    /// schema** — the replica path, where every node must share the
    /// cluster's schema rather than trust whatever a snapshot carries.
    /// Every shard is validated against `schema` as it is rebuilt
    /// ([`SketchError::SchemaMismatch`] on any disagreement), so a
    /// mismatched snapshot fails cleanly before any state is published.
    pub fn restore_with_schema(snap: &StoreSnapshot, schema: Arc<SketchSchema<D>>) -> Result<Self> {
        if snap.shards.is_empty() {
            return Err(SketchError::InvalidParameter(
                "store snapshot carries no shards",
            ));
        }
        if snap.coverage.len() != snap.shards.len() || snap.updates.len() != snap.shards.len() {
            return Err(SketchError::InvalidParameter(
                "store snapshot metadata arity mismatch",
            ));
        }
        let mut shards = Vec::with_capacity(snap.shards.len());
        for (i, shard_snap) in snap.shards.iter().enumerate() {
            let sketch = restore_sketch_with_schema(shard_snap, Arc::clone(&schema))?;
            let coverage = match &snap.coverage[i] {
                None => None,
                Some(ranges) => {
                    let ranges: Vec<geometry::Interval> = ranges
                        .iter()
                        .map(|&(lo, hi)| geometry::Interval::try_new(lo, hi))
                        .collect::<Option<_>>()
                        .ok_or(SketchError::InvalidParameter(
                            "store snapshot coverage box is inverted",
                        ))?;
                    let ranges = ranges.try_into().map_err(|_| {
                        SketchError::InvalidParameter(
                            "store snapshot coverage has wrong dimensionality",
                        )
                    })?;
                    Some(HyperRect::new(ranges))
                }
            };
            shards.push(Arc::new(SketchShard::with_restored_meta(
                sketch,
                coverage,
                snap.updates[i],
            )));
        }
        let proto = shards[0].sketch();
        let words = Arc::clone(proto.words());
        let policy = proto.policy();
        for s in &shards {
            if *s.sketch().words() != words || s.sketch().policy() != policy {
                return Err(SketchError::WordMismatch);
            }
        }
        // `restore_sketch_with_schema` rejected any domain narrower than the
        // policy's extra bits, so this cannot underflow.
        let data_bits: [u32; D] =
            std::array::from_fn(|i| schema.dims()[i].sketch_bits - policy.extra_bits());
        let partition = DomainPartition::from_boundaries(data_bits[0], snap.boundaries.clone())
            .ok_or(SketchError::InvalidParameter(
                "store snapshot carries an invalid partition",
            ))?;
        if partition.shards() != shards.len() {
            return Err(SketchError::InvalidParameter(
                "store snapshot partition does not match its shard count",
            ));
        }
        // The restored store resumes at the snapshot's epoch; its journal
        // starts truncated there — updates before the snapshot exist only
        // inside it.
        let epoch = snap.epoch.max(1);
        Ok(Self {
            id: STORE_COUNTER.fetch_add(1, Ordering::Relaxed),
            schema,
            words,
            policy,
            data_bits,
            current: RwLock::new(Arc::new(StoreEpoch::assemble(epoch, partition, shards))),
            epoch_tag: AtomicU64::new(epoch),
            writer: Mutex::new(()),
            log: Mutex::new(UpdateLog::new_with_floor(LogRetention::None, epoch)),
        })
    }
}

/// Serializable form of a [`ShardedStore`]: per-shard sketch snapshots
/// (sharing one schema on restore) plus the shard bookkeeping the pruned
/// router mode depends on, the partition boundaries, and the epoch the
/// snapshot captured — the point a replica tails the update log from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreSnapshot {
    /// The epoch this snapshot captured.
    epoch: u64,
    /// The partition's shard start coordinates
    /// ([`DomainPartition::boundaries`]).
    boundaries: Vec<u64>,
    shards: Vec<SketchSnapshot>,
    /// Per shard, the coverage box as `(lo, hi)` per dimension (`None` for
    /// untouched shards).
    coverage: Vec<Option<Vec<(u64, u64)>>>,
    /// Per shard, the gross update count.
    updates: Vec<u64>,
}

impl StoreSnapshot {
    /// The epoch this snapshot captured — where replica catch-up resumes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::rect2;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng};
    use sketch::{ie_words, BoostShape, DimSpec};

    fn store(shards: usize, seed: u64) -> ShardedStore<2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema =
            SketchSchema::<2>::new(&mut rng, BoostShape::new(13, 3), [DimSpec::dyadic(8); 2]);
        ShardedStore::new(
            schema,
            Arc::new(ie_words::<2>()),
            EndpointPolicy::Raw,
            shards,
        )
    }

    fn rects(n: usize, seed: u64) -> Vec<HyperRect<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = rng.gen_range(0..200u64);
                let y = rng.gen_range(0..200u64);
                rect2(
                    x,
                    x + rng.gen_range(1..50u64),
                    y,
                    y + rng.gen_range(1..50u64),
                )
            })
            .collect()
    }

    #[test]
    fn ingest_swaps_epochs_and_matches_unsharded_counters() {
        let st = store(3, 1);
        assert_eq!(st.epoch_tag(), 1);
        let data = rects(120, 2);
        st.insert_slice(&data).unwrap();
        assert_eq!(st.epoch_tag(), 2);
        st.delete_slice(&data[..40]).unwrap();
        assert_eq!(st.epoch_tag(), 3);

        // Folding all shards reproduces an unsharded sketch bit-for-bit.
        let mut oracle = st.empty_sketch();
        oracle.insert_slice(&data).unwrap();
        oracle.delete_slice(&data[..40]).unwrap();
        let mut merged = st.empty_sketch();
        let epoch = st.load();
        for s in epoch.shards() {
            merged.merge_from(s.sketch()).unwrap();
        }
        assert_eq!(merged.len(), oracle.len());
        assert_eq!(epoch.total_len(), oracle.len());
        for inst in 0..st.schema().instances() {
            assert_eq!(
                merged.instance_counters(inst),
                oracle.instance_counters(inst)
            );
        }
    }

    #[test]
    fn objects_route_by_dim0_lower_endpoint() {
        let st = store(4, 3);
        let r = rect2(200, 255, 0, 10); // lo = 200 → last shard
        st.insert_slice(&[r]).unwrap();
        let epoch = st.load();
        let expect = st.partition().shard_of(200);
        for (i, s) in epoch.shards().iter().enumerate() {
            assert_eq!(s.is_untouched(), i != expect, "shard {i}");
        }
    }

    #[test]
    fn failed_batch_leaves_store_and_epoch_untouched() {
        let st = store(3, 4);
        let mut data = rects(10, 5);
        data.push(rect2(0, 999, 0, 5)); // out of domain
        assert!(st.insert_slice(&data).is_err());
        assert_eq!(st.epoch_tag(), 1);
        assert!(st.load().shards().iter().all(|s| s.is_untouched()));
    }

    #[test]
    fn empty_batch_publishes_nothing() {
        let st = store(2, 17).with_log(LogRetention::Full);
        st.insert_slice(&rects(20, 18)).unwrap();
        let mut reader = crate::WorkerContext::<2>::new();
        let (tag, cached) = (st.epoch_tag(), reader.epoch_for(&st));
        st.insert_slice(&[]).unwrap();
        st.delete_slice(&[]).unwrap();
        assert_eq!(st.epoch_tag(), tag);
        assert!(Arc::ptr_eq(&reader.epoch_for(&st), &cached));
        assert_eq!(st.log().entries().count(), 1);
    }

    #[test]
    fn old_epochs_stay_readable_after_swap() {
        let st = store(2, 6);
        let before = st.load();
        st.insert_slice(&rects(30, 7)).unwrap();
        let after = st.load();
        assert_eq!(before.epoch(), 1);
        assert_eq!(after.epoch(), 2);
        // The pre-swap epoch still answers from its own shards.
        assert_eq!(before.total_len(), 0);
        assert_eq!(after.total_len(), 30);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let st = store(3, 8);
        let data = rects(60, 9);
        st.insert_slice(&data).unwrap();
        st.delete_slice(&data[..10]).unwrap();
        let snap = st.snapshot();
        assert_eq!(snap.epoch(), 3);
        let json = serde_json::to_string(&snap).unwrap();
        let back: StoreSnapshot = serde_json::from_str(&json).unwrap();
        let restored: ShardedStore<2> = ShardedStore::restore(&back).unwrap();
        assert_eq!(restored.shard_count(), st.shard_count());
        assert_eq!(restored.partition(), st.partition());
        assert_eq!(restored.epoch_tag(), 3);
        let (a, b) = (st.load(), restored.load());
        for (x, y) in a.shards().iter().zip(b.shards().iter()) {
            assert_eq!(x.updates(), y.updates());
            assert_eq!(x.coverage(), y.coverage());
            assert_eq!(x.sketch().len(), y.sketch().len());
            for inst in 0..st.schema().instances() {
                assert_eq!(
                    x.sketch().instance_counters(inst),
                    y.sketch().instance_counters(inst)
                );
            }
        }
        // Restored shards share one schema: still mergeable.
        let mut merged = restored.empty_sketch();
        for s in b.shards() {
            merged.merge_from(s.sketch()).unwrap();
        }
        assert_eq!(merged.len(), 50);
    }

    #[test]
    fn restore_with_schema_rejects_mismatched_snapshots() {
        // Satellite: restoring against the wrong schema must error (the
        // per-shard validation inside `restore_sketch_with_schema`), not
        // hand back a corrupt store.
        let st = store(2, 11);
        st.insert_slice(&rects(20, 12)).unwrap();
        let snap = st.snapshot();
        let mut other_rng = StdRng::seed_from_u64(999);
        let other = SketchSchema::<2>::new(
            &mut other_rng,
            BoostShape::new(13, 3),
            [DimSpec::dyadic(8); 2],
        );
        assert!(matches!(
            ShardedStore::restore_with_schema(&snap, other),
            Err(SketchError::SchemaMismatch)
        ));
        // The matching schema restores fine.
        let ok = ShardedStore::restore_with_schema(&snap, Arc::clone(st.schema())).unwrap();
        assert_eq!(ok.load().total_len(), 20);

        // Hostile snapshots fail with a typed error, not a panic.
        let invalid = |snap: &StoreSnapshot| {
            matches!(
                ShardedStore::<2>::restore(snap),
                Err(SketchError::InvalidParameter(_))
            )
        };
        // An inverted coverage box.
        let mut inverted = snap.clone();
        inverted.coverage[0] = Some(vec![(90, 10), (0, 5)]);
        assert!(invalid(&inverted));
        // A 1-bit domain under the tripled policy, which needs 2 extra bits.
        let json = serde_json::to_string(&snap).unwrap();
        let narrow = json
            .replace(r#""dims":[[8,8],[8,8]]"#, r#""dims":[[1,1],[1,1]]"#)
            .replace(r#""policy_tag":0"#, r#""policy_tag":1"#);
        assert_ne!(narrow, json);
        assert!(invalid(&serde_json::from_str(&narrow).unwrap()));
        // The format with a `kind` field and `{"Bch": {..}}`-tagged seeds
        // no longer parses.
        let tagged = tag_seeds(&json.replace(r#""k1":"#, r#""kind":"Bch","k1":"#));
        assert_ne!(tagged, json);
        assert!(serde_json::from_str::<StoreSnapshot>(&tagged).is_err());
    }

    /// Wraps every seed object `{"b0":..}` of a snapshot's JSON as
    /// `{"Bch":{"b0":..}}`.
    fn tag_seeds(json: &str) -> String {
        let mut parts = json.split(r#"{"b0":"#);
        let mut out = parts.next().unwrap_or_default().to_string();
        for part in parts {
            let close = part.find('}').expect("seed object closes");
            out.push_str(r#"{"Bch":{"b0":"#);
            out.push_str(&part[..=close]);
            out.push('}');
            out.push_str(&part[close + 1..]);
        }
        out
    }

    #[test]
    fn update_log_journals_under_published_epochs() {
        let st = store(2, 13).with_log(LogRetention::Full);
        let data = rects(12, 14);
        st.insert_slice(&data).unwrap();
        st.delete_slice(&data[..4]).unwrap();
        let log = st.log();
        assert!(log.is_complete());
        let entries: Vec<(u64, i64, usize)> = log
            .entries()
            .map(|e| (e.epoch(), e.delta(), e.rects().len()))
            .collect();
        assert_eq!(entries, vec![(2, 1, 12), (3, -1, 4)]);
    }

    #[test]
    fn restored_stores_log_is_truncated_at_the_snapshot() {
        let st = store(2, 15).with_log(LogRetention::Full);
        st.insert_slice(&rects(10, 16)).unwrap();
        let restored = ShardedStore::<2>::restore(&st.snapshot())
            .unwrap()
            .with_log(LogRetention::Full);
        // History before the snapshot lives only in the snapshot: the
        // journal reports itself truncated there even after opting in.
        let log = restored.log();
        assert!(!log.is_complete());
        assert_eq!(log.floor(), 2);
    }

    /// The store locks a panic can poison.
    #[derive(Debug, Clone, Copy)]
    enum StoreLock {
        Epoch,
        Writer,
        Log,
    }

    /// Poisons `lock` by panicking on another thread while holding it.
    fn poison(st: &ShardedStore<2>, lock: StoreLock) {
        std::thread::scope(|scope| {
            let held = scope.spawn(|| match lock {
                StoreLock::Epoch => {
                    let _guard = st.current.write();
                    panic!("injected panic while holding the epoch lock");
                }
                StoreLock::Writer => {
                    let _guard = st.writer.lock();
                    panic!("injected panic while holding the writer lock");
                }
                StoreLock::Log => {
                    let _guard = st.log.lock();
                    panic!("injected panic while holding the journal lock");
                }
            });
            assert!(held.join().is_err());
        });
        let poisoned = match lock {
            StoreLock::Epoch => st.current.is_poisoned(),
            StoreLock::Writer => st.writer.is_poisoned(),
            StoreLock::Log => st.log.is_poisoned(),
        };
        assert!(poisoned, "{lock:?} lock not poisoned");
    }

    /// Asserts the fold of `st`'s shards is bit-identical to `oracle`.
    fn assert_matches(st: &ShardedStore<2>, oracle: &SketchSet<2>, label: &str) {
        let mut merged = st.empty_sketch();
        for s in st.load().shards() {
            merged.merge_from(s.sketch()).unwrap();
        }
        assert_eq!(merged.len(), oracle.len(), "{label}: net length");
        for inst in 0..st.schema().instances() {
            assert_eq!(
                merged.instance_counters(inst),
                oracle.instance_counters(inst),
                "{label}: instance {inst}"
            );
        }
    }

    #[test]
    fn poisoned_locks_are_taken_over() {
        for (i, lock) in [StoreLock::Epoch, StoreLock::Writer, StoreLock::Log]
            .into_iter()
            .enumerate()
        {
            let st = store(3, 40 + i as u64).with_log(LogRetention::Full);
            let data = rects(90, 50 + i as u64);
            st.insert_slice(&data[..40]).unwrap();
            poison(&st, lock);
            let label = format!("{lock:?}");
            // Ingest and load through the poisoned lock.
            st.insert_slice(&data[40..]).unwrap();
            st.delete_slice(&data[..15]).unwrap();
            assert_eq!(st.load().epoch(), 4, "{label}");
            assert_eq!(st.log().entries().count(), 3, "{label}: journal");
            let mut oracle = st.empty_sketch();
            oracle.insert_slice(&data[15..]).unwrap();
            assert_matches(&st, &oracle, &label);
            // A split replays the journal through the new partition.
            st.split_shard(0, 37).unwrap();
            assert_eq!(st.shard_count(), 4, "{label}");
            assert_matches(&st, &oracle, &format!("{label}/split"));
            // A snapshot restores to the same store.
            let restored = ShardedStore::<2>::restore(&st.snapshot()).unwrap();
            assert_eq!(restored.epoch_tag(), 5, "{label}");
            assert_matches(&restored, &oracle, &format!("{label}/restored"));
        }
    }

    #[test]
    fn shard_count_clamps_to_domain() {
        let st = store(1000, 10);
        assert_eq!(st.shard_count(), 256);
    }
}
