//! Online topology changes for [`ShardedStore`]: hot-shard detection and
//! split / merge / boundary-move cutovers that readers never observe
//! half-done.
//!
//! ## Why replay works
//!
//! A shard's sketch cannot be *spatially* split — counters mix every
//! object routed to the shard — so splitting and boundary moves rebuild
//! the affected shards by replaying the store's full update journal
//! ([`sketch::LogRetention::Full`], see [`ShardedStore::with_log`])
//! filtered through the **new** partition. Because `i64` counter
//! arithmetic is associative and commutative over batch composition, the
//! rebuilt shards carry exactly the counters, coverage boxes and update
//! tallies they would have had if the new partition had routed every batch
//! from the beginning. Merging two neighbours needs no journal at all:
//! sketches are linear, so the counter fold *is* the merged shard.
//!
//! ## Cutover
//!
//! Every topology change runs under the store's writer lock (ingest
//! pauses — the pause the rebalance perf probe measures) and publishes its
//! result exactly like an ingest batch: one new [`crate::StoreEpoch`]
//! carrying the new partition and shard vector, swapped in atomically.
//! Queries never pause and never see a half-rebalanced topology — a reader
//! holds either the old epoch (old partition, old shards) or the new one,
//! and in exact router mode both merge to bit-identical counters.
//!
//! ## Deciding what to change
//!
//! [`ShardedStore::load_report`] snapshots per-shard load — gross updates
//! (ingest side) and router query selections (read side) — as a
//! [`ShardLoadReport`]. Reports are cumulative; diff two of them
//! ([`ShardLoadReport::rates_since`]) for rates. The report nominates a
//! [`ShardLoadReport::split_candidate`] (hottest splittable shard, cut at
//! its span midpoint) and a [`ShardLoadReport::merge_candidate`] (coldest
//! adjacent pair) for policy loops that want a default.

use crate::shard::SketchShard;
use crate::store::{ShardedStore, StoreEpoch};
use dyadic::DomainPartition;
use geometry::{Coord, HyperRect, Interval};
use sketch::SketchError;
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Why a topology change was refused. The store is untouched in every
/// case: validation happens before any shard is rebuilt, and the rebuilt
/// state is published atomically or not at all.
#[derive(Debug, Clone, PartialEq)]
pub enum RebalanceError {
    /// The named shard (or boundary) index does not exist.
    UnknownShard(usize),
    /// The split/move coordinate does not fall strictly inside the
    /// admissible span (both sides of every boundary must stay non-empty,
    /// and a move must actually move).
    InvalidBoundary(Coord),
    /// The update journal does not reach back to the beginning of the
    /// store's history (retention is not `Full`, or the store was restored
    /// from a snapshot), so replay-based changes cannot rebuild shards
    /// exactly. Merges never need the journal.
    LogIncomplete,
    /// A sketch operation failed while rebuilding (schema or word
    /// mismatch — possible only if shards diverged, which the store's
    /// constructors prevent).
    Sketch(SketchError),
}

impl std::fmt::Display for RebalanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownShard(s) => write!(f, "shard or boundary index {s} out of range"),
            Self::InvalidBoundary(at) => {
                write!(f, "coordinate {at} is not a valid boundary position")
            }
            Self::LogIncomplete => write!(
                f,
                "update log incomplete: replay-based topology changes need LogRetention::Full \
                 from the store's creation"
            ),
            Self::Sketch(e) => write!(f, "sketch error during shard rebuild: {e}"),
        }
    }
}

impl std::error::Error for RebalanceError {}

impl From<SketchError> for RebalanceError {
    fn from(e: SketchError) -> Self {
        Self::Sketch(e)
    }
}

/// Load of one shard at the moment a [`ShardLoadReport`] was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLoad {
    /// The dimension-0 span the shard owns.
    pub span: Interval,
    /// Gross updates (inserts + deletes) applied so far.
    pub updates: u64,
    /// Router query selections so far.
    pub queries: u64,
    /// Net objects currently summarized.
    pub len: i64,
}

impl ShardLoad {
    /// Combined update + query pressure — the scalar the default
    /// candidates rank by.
    pub fn pressure(&self) -> u64 {
        self.updates + self.queries
    }
}

/// A point-in-time snapshot of per-shard load, tagged with the epoch it
/// observed (so a policy loop can tell whether the topology changed under
/// it).
#[derive(Debug, Clone)]
pub struct ShardLoadReport {
    epoch: u64,
    loads: Vec<ShardLoad>,
}

impl ShardLoadReport {
    /// The epoch the report observed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-shard loads, in shard order.
    pub fn shards(&self) -> &[ShardLoad] {
        &self.loads
    }

    /// The shard with the highest [`ShardLoad::pressure`].
    pub fn hottest(&self) -> Option<usize> {
        (0..self.loads.len()).max_by_key(|&s| self.loads[s].pressure())
    }

    /// The hottest shard whose span is wide enough to split, and the
    /// midpoint to cut at. `None` when every shard is already a single
    /// coordinate (or the report is empty).
    pub fn split_candidate(&self) -> Option<(usize, Coord)> {
        let splittable =
            (0..self.loads.len()).filter(|&s| self.loads[s].span.hi() > self.loads[s].span.lo());
        let shard = splittable.max_by_key(|&s| self.loads[s].pressure())?;
        let span = self.loads[shard].span;
        Some((shard, span.lo() + (span.hi() - span.lo()).div_ceil(2)))
    }

    /// The left index of the adjacent pair with the lowest combined
    /// pressure — the default merge target. `None` with fewer than two
    /// shards.
    pub fn merge_candidate(&self) -> Option<usize> {
        (0..self.loads.len().checked_sub(1)?)
            .min_by_key(|&s| self.loads[s].pressure() + self.loads[s + 1].pressure())
    }

    /// Per-shard `(updates, queries)` accumulated since `earlier`, for
    /// rate-based policies. `None` if the topology changed between the two
    /// reports (spans differ), which would make per-shard differences
    /// meaningless.
    pub fn rates_since(&self, earlier: &ShardLoadReport) -> Option<Vec<(u64, u64)>> {
        if self.loads.len() != earlier.loads.len()
            || self
                .loads
                .iter()
                .zip(earlier.loads.iter())
                .any(|(a, b)| a.span != b.span)
        {
            return None;
        }
        Some(
            self.loads
                .iter()
                .zip(earlier.loads.iter())
                .map(|(a, b)| {
                    (
                        a.updates.saturating_sub(b.updates),
                        a.queries.saturating_sub(b.queries),
                    )
                })
                .collect(),
        )
    }
}

impl<const D: usize> ShardedStore<D> {
    /// Snapshots per-shard load from the current epoch — the input to
    /// rebalance policy.
    pub fn load_report(&self) -> ShardLoadReport {
        let epoch = self.load();
        let partition = epoch.partition();
        ShardLoadReport {
            epoch: epoch.epoch(),
            loads: epoch
                .shards()
                .iter()
                .enumerate()
                .map(|(s, shard)| ShardLoad {
                    span: partition.span(s),
                    updates: shard.updates(),
                    queries: shard.queries(),
                    len: shard.sketch().len(),
                })
                .collect(),
        }
    }

    /// Splits `shard` at coordinate `at` (the right child starts at `at`)
    /// and publishes the result as one new epoch. Rebuilds both children
    /// by replaying the full update journal through the new partition, so
    /// the split store's counter fold stays bit-identical to the unsharded
    /// oracle; requires [`sketch::LogRetention::Full`] from the store's
    /// creation ([`RebalanceError::LogIncomplete`] otherwise). Ingest
    /// pauses for the duration (writer lock); queries do not.
    ///
    /// The children's query tallies restart at zero — they are new shards
    /// as far as read-side telemetry is concerned.
    pub fn split_shard(&self, shard: usize, at: Coord) -> Result<(), RebalanceError> {
        let _writer = self.writer_lock();
        let cur = self.load();
        if shard >= cur.shards().len() {
            return Err(RebalanceError::UnknownShard(shard));
        }
        let partition = cur
            .partition()
            .split_at(shard, at)
            .ok_or(RebalanceError::InvalidBoundary(at))?;
        self.replay_cut_over(&cur, partition, shard..=shard)
    }

    /// Merges shard `left` with its right neighbour into one shard and
    /// publishes the result as one new epoch. Pure counter fold — sketches
    /// are linear — so no journal is needed and the merged store answers
    /// bit-identically. Coverage boxes union; update and query tallies
    /// sum.
    pub fn merge_shards(&self, left: usize) -> Result<(), RebalanceError> {
        let _writer = self.writer_lock();
        let cur = self.load();
        let partition = cur
            .partition()
            .merge_at(left)
            .ok_or(RebalanceError::UnknownShard(left))?;
        let merged = cur.shards()[left].merged_with(&cur.shards()[left + 1])?;
        self.cut_over(&cur, partition, left..=left + 1, vec![merged]);
        Ok(())
    }

    /// Moves the boundary between shards `boundary - 1` and `boundary` to
    /// coordinate `at`, rebuilding both neighbours by journal replay (same
    /// requirements and guarantees as [`ShardedStore::split_shard`]).
    pub fn move_shard_boundary(&self, boundary: usize, at: Coord) -> Result<(), RebalanceError> {
        let _writer = self.writer_lock();
        let cur = self.load();
        if boundary == 0 || boundary >= cur.shards().len() {
            return Err(RebalanceError::UnknownShard(boundary));
        }
        let partition = cur
            .partition()
            .move_boundary(boundary, at)
            .ok_or(RebalanceError::InvalidBoundary(at))?;
        self.replay_cut_over(&cur, partition, boundary - 1..=boundary)
    }

    /// Publishes `partition` as the next epoch after `cur`, with `cur`'s
    /// shards `old` replaced by `new` — the cutover every topology change
    /// ends with.
    fn cut_over(
        &self,
        cur: &StoreEpoch<D>,
        partition: DomainPartition,
        old: RangeInclusive<usize>,
        new: Vec<SketchShard<D>>,
    ) {
        let mut shards = cur.shards().to_vec();
        shards.splice(old, new.into_iter().map(Arc::new));
        self.publish(Arc::new(StoreEpoch::assemble(
            cur.epoch() + 1,
            partition,
            shards,
        )));
    }

    /// Rebuilds the two shards of `partition` that start at `old`'s first
    /// index by replaying the complete journal, then cuts over to them in
    /// place of `cur`'s shards `old` (the split parent, or the two
    /// neighbours of a moved boundary). Each journal entry's rectangles are
    /// routed through the **new** partition and applied with the entry's
    /// original delta, entry by entry in epoch order — recomputing
    /// counters, coverage and update tallies exactly as if `partition` had
    /// routed the whole history.
    fn replay_cut_over(
        &self,
        cur: &StoreEpoch<D>,
        partition: DomainPartition,
        old: RangeInclusive<usize>,
    ) -> Result<(), RebalanceError> {
        let log = self.log();
        if !log.is_complete() {
            return Err(RebalanceError::LogIncomplete);
        }
        let first = *old.start();
        let mut rebuilt = vec![self.empty_shard(), self.empty_shard()];
        let mut groups: [Vec<HyperRect<D>>; 2] = Default::default();
        for entry in log.entries() {
            for g in groups.iter_mut() {
                g.clear();
            }
            for r in entry.rects() {
                // Shards before `first` wrap past both groups.
                let i = partition.shard_of(r.range(0).lo()).wrapping_sub(first);
                if let Some(g) = groups.get_mut(i) {
                    g.push(*r);
                }
            }
            for (shard, g) in rebuilt.iter_mut().zip(&groups) {
                if !g.is_empty() {
                    shard.apply(g, entry.delta())?;
                }
            }
        }
        self.cut_over(cur, partition, old, rebuilt);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::rect2;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng};
    use sketch::{
        ie_words, BoostShape, DimSpec, EndpointPolicy, LogRetention, SketchSchema, SketchSet,
    };

    fn store(shards: usize, seed: u64) -> ShardedStore<2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema =
            SketchSchema::<2>::new(&mut rng, BoostShape::new(13, 3), [DimSpec::dyadic(8); 2]);
        ShardedStore::new(
            schema,
            std::sync::Arc::new(ie_words::<2>()),
            EndpointPolicy::Raw,
            shards,
        )
        .with_log(LogRetention::Full)
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

    /// Counter fold across all shards, for bit-comparisons.
    fn fold(st: &ShardedStore<2>) -> SketchSet<2> {
        let mut merged = st.empty_sketch();
        for s in st.load().shards() {
            merged.merge_from(s.sketch()).unwrap();
        }
        merged
    }

    fn assert_counters_match(st: &ShardedStore<2>, oracle: &SketchSet<2>, label: &str) {
        let merged = fold(st);
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
    fn split_merge_move_preserve_the_counter_fold() {
        let st = store(2, 1);
        let data = rects(150, 2);
        st.insert_slice(&data).unwrap();
        st.delete_slice(&data[..50]).unwrap();
        let mut oracle = st.empty_sketch();
        oracle.insert_slice(&data).unwrap();
        oracle.delete_slice(&data[..50]).unwrap();

        st.split_shard(0, 37).unwrap(); // deliberately unaligned
        assert_eq!(st.shard_count(), 3);
        assert_counters_match(&st, &oracle, "after split");

        st.move_shard_boundary(1, 90).unwrap();
        assert_counters_match(&st, &oracle, "after move");

        st.merge_shards(0).unwrap();
        assert_eq!(st.shard_count(), 2);
        assert_counters_match(&st, &oracle, "after merge");

        // Ingest keeps working against the new topology.
        let more = rects(30, 3);
        st.insert_slice(&more).unwrap();
        oracle.insert_slice(&more).unwrap();
        assert_counters_match(&st, &oracle, "after post-rebalance ingest");
    }

    #[test]
    fn split_rebuilds_exact_per_shard_routing() {
        let st = store(1, 4);
        let data = rects(80, 5);
        st.insert_slice(&data).unwrap();
        st.split_shard(0, 100).unwrap();
        let epoch = st.load();
        // Every object sits in the shard the new partition routes it to.
        let by_route = |lo: u64| epoch.partition().shard_of(lo);
        let expected: Vec<u64> = {
            let mut counts = vec![0u64; 2];
            for r in &data {
                counts[by_route(r.range(0).lo())] += 1;
            }
            counts
        };
        for (s, shard) in epoch.shards().iter().enumerate() {
            assert_eq!(shard.updates(), expected[s], "shard {s} update tally");
        }
    }

    #[test]
    fn topology_changes_demand_a_complete_log() {
        let st = store(2, 6); // Full log…
        let truncated = ShardedStore::<2>::restore(&st.snapshot())
            .unwrap()
            .with_log(LogRetention::Full);
        // …but the restored store's history starts at its snapshot.
        assert_eq!(
            truncated.split_shard(0, 10),
            Err(RebalanceError::LogIncomplete)
        );
        assert_eq!(
            truncated.move_shard_boundary(1, 10),
            Err(RebalanceError::LogIncomplete)
        );
        // Merging needs no history at all.
        truncated.merge_shards(0).unwrap();
        assert_eq!(truncated.shard_count(), 1);
    }

    #[test]
    fn invalid_targets_are_rejected_cleanly() {
        let st = store(2, 7);
        st.insert_slice(&rects(10, 8)).unwrap();
        let epoch_before = st.epoch_tag();
        assert_eq!(st.split_shard(5, 10), Err(RebalanceError::UnknownShard(5)));
        assert_eq!(
            st.split_shard(0, 0),
            Err(RebalanceError::InvalidBoundary(0))
        );
        assert_eq!(st.merge_shards(1), Err(RebalanceError::UnknownShard(1)));
        assert_eq!(
            st.move_shard_boundary(0, 10),
            Err(RebalanceError::UnknownShard(0))
        );
        assert_eq!(
            st.move_shard_boundary(1, 128),
            Err(RebalanceError::InvalidBoundary(128)) // no-op move
        );
        assert_eq!(st.epoch_tag(), epoch_before, "failed ops publish nothing");
    }

    #[test]
    fn load_report_feeds_split_and_merge_candidates() {
        let st = store(2, 9);
        // Load shard 0 much harder than shard 1.
        let heavy: Vec<_> = (0..40u64)
            .map(|i| rect2(i % 100, i % 100 + 3, 0, 5))
            .collect();
        st.insert_slice(&heavy).unwrap();
        let report = st.load_report();
        assert_eq!(report.epoch(), st.epoch_tag());
        assert_eq!(report.shards().len(), 2);
        assert!(report.shards()[0].updates > report.shards()[1].updates);
        assert_eq!(report.hottest(), Some(0));
        let (shard, at) = report.split_candidate().unwrap();
        assert_eq!(shard, 0);
        assert!(at > 0 && at <= report.shards()[0].span.hi());
        assert_eq!(report.merge_candidate(), Some(0));

        // Rates diff cleanly while topology is stable…
        let later = st.load_report();
        let rates = later.rates_since(&report).unwrap();
        assert!(rates.iter().all(|&(u, q)| u == 0 && q == 0));
        // …and refuse to diff across a topology change.
        st.split_shard(0, at).unwrap();
        assert!(st.load_report().rates_since(&report).is_none());
    }
}
