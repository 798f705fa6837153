//! Snapshot-seeded replicas with log catch-up, and the health view that
//! fails queries over to one.
//!
//! A [`Replica`] is a follower copy of a primary [`ShardedStore`]. Its
//! lifecycle is a three-state machine:
//!
//! ```text
//!          install_snapshot            catch_up (tail applied)
//!   Cold ───────────────────▶ CatchingUp ─────────────────────▶ Serving
//!    ▲                                                             │
//!    └─────────────── catch_up finds the log truncated ◀───────────┘
//!                     (snapshot too old — re-seed)
//! ```
//!
//! * **Cold** — no usable state. Seeding restores a [`StoreSnapshot`]
//!   *against the cluster's shared schema*
//!   ([`ShardedStore::restore_with_schema`]), so a snapshot from the wrong
//!   universe fails loudly instead of corrupting answers.
//! * **Catching up** — the replica holds the snapshot's state and tails
//!   the primary's bounded update log ([`sketch::LogRetention::Entries`])
//!   from the snapshot's epoch. Entries re-apply through the replica's own
//!   ingest path; linearity makes the result bit-identical to the
//!   primary's counter fold, even though the replica's private epoch
//!   numbering (and, after a primary-side rebalance, its topology) may
//!   differ.
//! * **Serving** — caught up through the last tailed entry; eligible as a
//!   failover target. A later `catch_up` keeps it current; if the primary
//!   truncated past the replica's position, the replica demotes itself to
//!   Cold and must re-seed from a fresh snapshot.
//!
//! [`ReplicaSet`] is the router-side health view over a primary and its
//! replicas: queries go to the lowest-indexed member marked up (member 0
//! is the primary, so recovery fails *back* automatically), and each
//! loss of the active member counts one failover.

use crate::store::{ShardedStore, StoreSnapshot};
use sketch::{Result, SketchSchema};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Where a [`Replica`] is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// No usable state; needs a snapshot.
    Cold,
    /// Snapshot installed; tailing the primary's log.
    CatchingUp,
    /// Applied every tailed entry; eligible for failover.
    Serving,
}

/// A follower copy of a primary [`ShardedStore`]; see the module docs for
/// the state machine.
#[derive(Debug)]
pub struct Replica<const D: usize> {
    store: Option<Arc<ShardedStore<D>>>,
    /// Highest **primary** epoch whose updates this replica has applied
    /// (snapshot epoch, then advanced per tailed entry). Distinct from the
    /// replica store's own epoch counter.
    applied: u64,
    state: ReplicaState,
}

impl<const D: usize> Replica<D> {
    /// A cold replica awaiting its first snapshot.
    pub fn cold() -> Self {
        Self {
            store: None,
            applied: 0,
            state: ReplicaState::Cold,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ReplicaState {
        self.state
    }

    /// Highest primary epoch applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// The replica's store, once seeded.
    pub fn store(&self) -> Option<&Arc<ShardedStore<D>>> {
        self.store.as_ref()
    }

    /// Seeds (or re-seeds) the replica from a snapshot, validated against
    /// the cluster's shared `schema` — `Cold → CatchingUp`. On error the
    /// replica keeps its previous state untouched.
    pub fn install_snapshot(
        &mut self,
        snap: &StoreSnapshot,
        schema: Arc<SketchSchema<D>>,
    ) -> Result<()> {
        let store = ShardedStore::restore_with_schema(snap, schema)?;
        self.store = Some(Arc::new(store));
        self.applied = snap.epoch();
        self.state = ReplicaState::CatchingUp;
        Ok(())
    }

    /// Tails `primary`'s update log from the last applied epoch and
    /// re-applies every new entry — `CatchingUp → Serving` (and keeps a
    /// serving replica current). Returns how many entries were applied.
    ///
    /// If the primary's log has been truncated past this replica's
    /// position, the replica demotes itself to `Cold` (its state is intact
    /// but can no longer provably converge) and returns the truncation
    /// error: the caller must re-seed from a fresh snapshot.
    pub fn catch_up(&mut self, primary: &ShardedStore<D>) -> Result<usize> {
        let store = self
            .store
            .as_ref()
            .ok_or(sketch::SketchError::InvalidParameter(
                "cold replica has no store to catch up",
            ))?;
        let tail = match primary.log().tail_since(self.applied) {
            Ok(tail) => tail,
            Err(e) => {
                self.state = ReplicaState::Cold;
                return Err(e);
            }
        };
        for entry in &tail {
            store.update_slice(entry.rects(), entry.delta())?;
            self.applied = entry.epoch();
        }
        self.state = ReplicaState::Serving;
        Ok(tail.len())
    }
}

/// One member of a [`ReplicaSet`]: a store plus its liveness flag.
#[derive(Debug)]
struct Member<const D: usize> {
    store: Arc<ShardedStore<D>>,
    up: AtomicBool,
}

/// The router-side health view over a primary (member 0) and its caught-up
/// replicas: [`ReplicaSet::serving`] names the store queries should hit,
/// failing over — and back — as members are marked down and up.
#[derive(Debug)]
pub struct ReplicaSet<const D: usize> {
    members: Vec<Member<D>>,
    /// Lowest-indexed member believed up (queries prefer the primary).
    active: AtomicUsize,
    failovers: AtomicU64,
}

impl<const D: usize> ReplicaSet<D> {
    /// A set containing only the primary.
    pub fn new(primary: Arc<ShardedStore<D>>) -> Self {
        Self {
            members: vec![Member {
                store: primary,
                up: AtomicBool::new(true),
            }],
            active: AtomicUsize::new(0),
            failovers: AtomicU64::new(0),
        }
    }

    /// Registers a caught-up replica as a failover target (build-time;
    /// the set's membership is fixed once serving starts).
    pub fn add_replica(&mut self, store: Arc<ShardedStore<D>>) {
        self.members.push(Member {
            store,
            up: AtomicBool::new(true),
        });
    }

    /// Number of members (primary included).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Always false — a set carries at least its primary.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether member `i` is currently marked up.
    pub fn is_up(&self, i: usize) -> bool {
        self.members[i].up.load(Ordering::Acquire)
    }

    /// Failovers so far: how many times the active member was lost and
    /// queries moved to another.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Marks member `i` down (health prober or a failed query path). If it
    /// was the active member, the next up member takes over and one
    /// failover is counted.
    pub fn mark_down(&self, i: usize) {
        self.members[i].up.store(false, Ordering::Release);
        if self.active.load(Ordering::Acquire) == i {
            let next = self.first_up();
            self.active
                .store(next.unwrap_or(self.members.len()), Ordering::Release);
            self.failovers.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Marks member `i` up again. A recovered member with a lower index
    /// than the active one takes back over (queries prefer the primary).
    pub fn mark_up(&self, i: usize) {
        self.members[i].up.store(true, Ordering::Release);
        if i < self.active.load(Ordering::Acquire) {
            self.active.store(i, Ordering::Release);
        }
    }

    /// The member queries should hit: the lowest-indexed up member, or
    /// `None` if everything is down.
    pub fn serving(&self) -> Option<(usize, &Arc<ShardedStore<D>>)> {
        let a = self.active.load(Ordering::Acquire);
        if a < self.members.len() && self.members[a].up.load(Ordering::Acquire) {
            return Some((a, &self.members[a].store));
        }
        let i = self.first_up()?;
        Some((i, &self.members[i].store))
    }

    /// Per-member liveness, primary first.
    pub fn health(&self) -> Vec<bool> {
        self.members
            .iter()
            .map(|m| m.up.load(Ordering::Acquire))
            .collect()
    }

    fn first_up(&self) -> Option<usize> {
        self.members
            .iter()
            .position(|m| m.up.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::{rect2, HyperRect};
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng};
    use sketch::{
        ie_words, BoostShape, DimSpec, EndpointPolicy, LogRetention, SketchSchema, SketchSet,
    };

    fn primary(seed: u64, window: usize) -> ShardedStore<2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema =
            SketchSchema::<2>::new(&mut rng, BoostShape::new(13, 3), [DimSpec::dyadic(8); 2]);
        ShardedStore::new(schema, Arc::new(ie_words::<2>()), EndpointPolicy::Raw, 3)
            .with_log(LogRetention::Entries(window))
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

    fn fold(st: &ShardedStore<2>) -> SketchSet<2> {
        let mut merged = st.empty_sketch();
        for s in st.load().shards() {
            merged.merge_from(s.sketch()).unwrap();
        }
        merged
    }

    fn assert_converged(replica: &Replica<2>, primary: &ShardedStore<2>) {
        let (a, b) = (fold(replica.store().unwrap()), fold(primary));
        assert_eq!(a.len(), b.len());
        for inst in 0..primary.schema().instances() {
            assert_eq!(a.instance_counters(inst), b.instance_counters(inst));
        }
    }

    #[test]
    fn replica_walks_cold_to_serving_and_converges() {
        let p = primary(1, 64);
        p.insert_slice(&rects(50, 2)).unwrap();

        let mut r = Replica::<2>::cold();
        assert_eq!(r.state(), ReplicaState::Cold);
        assert!(r.catch_up(&p).is_err(), "cold replicas cannot tail");

        r.install_snapshot(&p.snapshot(), Arc::clone(p.schema()))
            .unwrap();
        assert_eq!(r.state(), ReplicaState::CatchingUp);

        // Primary keeps moving while the replica restores.
        let more = rects(30, 3);
        p.insert_slice(&more).unwrap();
        p.delete_slice(&more[..10]).unwrap();

        assert_eq!(r.catch_up(&p).unwrap(), 2);
        assert_eq!(r.state(), ReplicaState::Serving);
        assert_converged(&r, &p);

        // Idle catch-up is a no-op; further updates keep it current.
        assert_eq!(r.catch_up(&p).unwrap(), 0);
        p.insert_slice(&rects(5, 4)).unwrap();
        assert_eq!(r.catch_up(&p).unwrap(), 1);
        assert_converged(&r, &p);
    }

    #[test]
    fn truncation_demotes_to_cold_and_reseeding_recovers() {
        let p = primary(5, 2); // tiny window
        p.insert_slice(&rects(10, 6)).unwrap();
        let mut r = Replica::<2>::cold();
        r.install_snapshot(&p.snapshot(), Arc::clone(p.schema()))
            .unwrap();
        // Push the log window past the replica's snapshot.
        for i in 0..4u64 {
            p.insert_slice(&rects(5, 100 + i)).unwrap();
        }
        assert!(r.catch_up(&p).is_err());
        assert_eq!(r.state(), ReplicaState::Cold);
        // A fresh snapshot re-seeds it.
        r.install_snapshot(&p.snapshot(), Arc::clone(p.schema()))
            .unwrap();
        assert_eq!(r.catch_up(&p).unwrap(), 0);
        assert_eq!(r.state(), ReplicaState::Serving);
        assert_converged(&r, &p);
    }

    #[test]
    fn replica_set_fails_over_and_back() {
        let p = Arc::new(primary(7, 64));
        p.insert_slice(&rects(20, 8)).unwrap();
        let mut replica = Replica::<2>::cold();
        replica
            .install_snapshot(&p.snapshot(), Arc::clone(p.schema()))
            .unwrap();
        replica.catch_up(&p).unwrap();

        let mut set = ReplicaSet::new(Arc::clone(&p));
        set.add_replica(Arc::clone(replica.store().unwrap()));
        assert_eq!(set.len(), 2);
        assert_eq!(set.serving().unwrap().0, 0);
        assert_eq!(set.failovers(), 0);

        set.mark_down(0);
        let (idx, store) = set.serving().unwrap();
        assert_eq!(idx, 1);
        assert_eq!(set.failovers(), 1);
        assert_eq!(fold(store).len(), 20);
        assert_eq!(set.health(), vec![false, true]);

        // Losing the replica too leaves nothing to serve.
        set.mark_down(1);
        assert!(set.serving().is_none());
        assert_eq!(set.failovers(), 2);

        // Recovery fails back to the primary.
        set.mark_up(1);
        assert_eq!(set.serving().unwrap().0, 1);
        set.mark_up(0);
        assert_eq!(set.serving().unwrap().0, 0);
    }
}
