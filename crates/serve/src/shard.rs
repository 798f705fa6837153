//! A single shard of a [`crate::store::ShardedStore`]: one [`SketchSet`]
//! over the store's shared schema, plus the coverage metadata the router's
//! pruned mode selects shards by.

use geometry::{HyperRect, Interval};
use sketch::{Result, SketchSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// One shard: a sketch set summarizing the objects routed to this shard's
/// partition region, and a monotone coverage bounding box.
///
/// Shards are immutable once published (ingest clones the affected shard,
/// updates the clone — the *staging* shard — and swaps it into a new store
/// epoch), so readers can hold a shard across an entire query without any
/// lock. The one exception is the query tally, a relaxed atomic the router
/// bumps on the read path — load telemetry, not shard state.
#[derive(Debug)]
pub struct SketchShard<const D: usize> {
    sketch: SketchSet<D>,
    /// Bounding box of every object ever referenced by an update, in data
    /// coordinates. A **monotone over-approximation**: deletes never shrink
    /// it (a shrinking box could unsoundly prune a shard whose counters
    /// still carry the delete's contribution).
    coverage: Option<HyperRect<D>>,
    /// Gross number of objects applied (inserts + deletes). Zero guarantees
    /// all-zero counters, which is the only *exact* skip condition: a net
    /// length of zero can hide nonzero counters (insert A, delete B).
    updates: u64,
    /// Queries the router selected this shard for — the read-side half of
    /// the load report feeding rebalance decisions. Relaxed: a tally, not
    /// a synchronization point.
    queries: AtomicU64,
}

impl<const D: usize> Clone for SketchShard<D> {
    fn clone(&self) -> Self {
        Self {
            sketch: self.sketch.clone(),
            coverage: self.coverage,
            updates: self.updates,
            queries: AtomicU64::new(self.queries.load(Ordering::Relaxed)),
        }
    }
}

impl<const D: usize> SketchShard<D> {
    /// Wraps an empty sketch set as an untouched shard.
    pub fn new(sketch: SketchSet<D>) -> Self {
        Self {
            sketch,
            coverage: None,
            updates: 0,
            queries: AtomicU64::new(0),
        }
    }

    /// The shard's maintained sketch.
    pub fn sketch(&self) -> &SketchSet<D> {
        &self.sketch
    }

    /// The coverage bounding box (`None` until the first update).
    pub fn coverage(&self) -> Option<&HyperRect<D>> {
        self.coverage.as_ref()
    }

    /// Gross updates applied to this shard.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Queries the router has selected this shard for, across every epoch
    /// this shard has been carried through (ingest clones preserve the
    /// tally). Counts selection-pass decisions: in exact batch mode a whole
    /// batch routed in one pass bumps each selected shard once.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Bumps the query tally (router read path; relaxed — telemetry only).
    pub(crate) fn record_query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether no update ever touched this shard. Untouched shards have
    /// all-zero counters and can be skipped from any merge *exactly*.
    pub fn is_untouched(&self) -> bool {
        self.updates == 0
    }

    /// Whether the coverage box overlaps `q` under closed semantics (the
    /// sound predicate for both range overlap and stabbing containment).
    /// Untouched shards overlap nothing.
    pub fn covers(&self, q: &HyperRect<D>) -> bool {
        self.coverage.as_ref().is_some_and(|c| c.overlaps_plus(q))
    }

    /// Applies one signed batch to the staging copy: counters via the
    /// kernel ingest path, coverage grown to include every rectangle.
    /// All-or-nothing like [`SketchSet::update_slice`].
    pub(crate) fn apply(&mut self, rects: &[HyperRect<D>], delta: i64) -> Result<()> {
        self.sketch.update_slice(rects, delta)?;
        for r in rects {
            self.grow_coverage(r);
        }
        self.updates += rects.len() as u64;
        Ok(())
    }

    /// Restores the bookkeeping of a snapshotted shard (the query tally is
    /// process-local telemetry and starts fresh).
    pub(crate) fn with_restored_meta(
        sketch: SketchSet<D>,
        coverage: Option<HyperRect<D>>,
        updates: u64,
    ) -> Self {
        Self {
            sketch,
            coverage,
            updates,
            queries: AtomicU64::new(0),
        }
    }

    /// The shard owning both inputs' objects: counters merged linearly,
    /// coverage boxes unioned, update and query tallies summed. The
    /// counter merge is exact (sketches are linear), so a rebalancer can
    /// fuse two neighbouring shards without touching the update log.
    pub(crate) fn merged_with(&self, other: &Self) -> Result<Self> {
        let mut sketch = self.sketch.clone();
        sketch.merge_from(&other.sketch)?;
        let coverage = match (self.coverage, other.coverage) {
            (None, c) | (c, None) => c,
            (Some(a), Some(b)) => Some(HyperRect::new(std::array::from_fn(|d| {
                Interval::new(
                    a.range(d).lo().min(b.range(d).lo()),
                    a.range(d).hi().max(b.range(d).hi()),
                )
            }))),
        };
        Ok(Self {
            sketch,
            coverage,
            updates: self.updates + other.updates,
            queries: AtomicU64::new(self.queries() + other.queries()),
        })
    }

    fn grow_coverage(&mut self, r: &HyperRect<D>) {
        self.coverage = Some(match self.coverage {
            None => *r,
            Some(c) => HyperRect::new(std::array::from_fn(|d| {
                Interval::new(
                    c.range(d).lo().min(r.range(d).lo()),
                    c.range(d).hi().max(r.range(d).hi()),
                )
            })),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::rect2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sketch::{ie_words, BoostShape, DimSpec, EndpointPolicy, SketchSchema};
    use std::sync::Arc;

    fn shard() -> SketchShard<2> {
        let mut rng = StdRng::seed_from_u64(1);
        let schema =
            SketchSchema::<2>::new(&mut rng, BoostShape::new(4, 3), [DimSpec::dyadic(8); 2]);
        SketchShard::new(SketchSet::new(
            schema,
            Arc::new(ie_words::<2>()),
            EndpointPolicy::Raw,
        ))
    }

    #[test]
    fn coverage_grows_monotonically_and_survives_deletes() {
        let mut s = shard();
        assert!(s.is_untouched());
        assert!(!s.covers(&rect2(0, 255, 0, 255)));
        s.apply(&[rect2(10, 20, 30, 40)], 1).unwrap();
        assert_eq!(s.coverage().unwrap(), &rect2(10, 20, 30, 40));
        s.apply(&[rect2(5, 12, 35, 90)], 1).unwrap();
        assert_eq!(s.coverage().unwrap(), &rect2(5, 20, 30, 90));
        // Deleting everything zeroes counters but not coverage or updates.
        s.apply(&[rect2(10, 20, 30, 40), rect2(5, 12, 35, 90)], -1)
            .unwrap();
        assert!(s.sketch().is_empty());
        assert!(!s.is_untouched());
        assert_eq!(s.coverage().unwrap(), &rect2(5, 20, 30, 90));
        assert_eq!(s.updates(), 4);
        // Closed-overlap coverage test (touching counts).
        assert!(s.covers(&rect2(20, 25, 90, 99)));
        assert!(!s.covers(&rect2(21, 25, 91, 99)));
    }

    #[test]
    fn failed_apply_leaves_shard_untouched() {
        let mut s = shard();
        assert!(s
            .apply(&[rect2(0, 5, 0, 5), rect2(0, 999, 0, 5)], 1)
            .is_err());
        assert!(s.is_untouched());
        assert!(s.coverage().is_none());
    }
}
