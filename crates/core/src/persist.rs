//! Sketch persistence: serializable snapshots of schemas and sketch sets.
//!
//! Sketches summarize unbounded streams into a few kilobytes, which makes
//! them natural things to ship — from stream processors to a query
//! optimizer, between nodes of a distributed scan (merge the snapshots, the
//! sketches are linear), or to disk across restarts. A snapshot carries
//! everything needed to resume: the schema's seeds and shape, the word set,
//! the endpoint policy, and the counters.
//!
//! Snapshots are plain `serde` values (the workspace ships `serde_json` for
//! the harness; any format works). Every seed is a plain BCH seed
//! ([`BchSeed`], `2k + 1` bits per family). Restoring reconstructs the
//! GF(2^k) contexts deterministically from the domain configuration, so a
//! snapshot is self-contained. Restore validates the shape and domain
//! fields first, so a corrupt or hostile snapshot fails with
//! [`SketchError::InvalidParameter`] instead of a panic.

use crate::atomic::{EndpointPolicy, SketchSet};
use crate::comp::{Comp, Word};
use crate::error::{Result, SketchError};
use crate::schema::{BoostShape, DimSpec, SketchSchema};
use dyadic::DyadicDomain;
use fourwise::BchSeed;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Serializable form of a [`SketchSchema`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SchemaSnapshot {
    k1: usize,
    k2: usize,
    /// `(sketch_bits, max_level)` per dimension.
    dims: Vec<(u32, u32)>,
    /// Seeds, instance-major (`seeds[instance][dim]`).
    seeds: Vec<Vec<BchSeed>>,
}

/// Serializable form of a [`SketchSet`] (including its schema, so a single
/// snapshot round-trips; pair sketches share the schema by construction
/// when restored through [`SketchPairSnapshot`]).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SketchSnapshot {
    schema: SchemaSnapshot,
    words: Vec<Vec<Comp>>,
    policy_tag: u8,
    counters: Vec<i64>,
    len: i64,
}

impl SketchSnapshot {
    /// The embedded schema snapshot. Multi-sketch containers (a sharded
    /// store's shards all share one schema) restore the schema once from
    /// here and rebuild every sketch against it with
    /// [`restore_sketch_with_schema`], preserving combinability.
    pub fn schema(&self) -> &SchemaSnapshot {
        &self.schema
    }
}

/// A joinable pair of sketches sharing one schema — the unit a distributed
/// join-estimation pipeline ships around.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SketchPairSnapshot {
    /// Snapshot of the `R`-side sketch (carries the shared schema).
    pub r: SketchSnapshot,
    /// Snapshot of the `S`-side sketch (same schema, by construction).
    pub s: SketchSnapshot,
}

fn policy_tag(p: EndpointPolicy) -> u8 {
    match p {
        EndpointPolicy::Raw => 0,
        EndpointPolicy::Tripled => 1,
        EndpointPolicy::TripledShrunk => 2,
    }
}

fn policy_from_tag(tag: u8) -> Result<EndpointPolicy> {
    match tag {
        0 => Ok(EndpointPolicy::Raw),
        1 => Ok(EndpointPolicy::Tripled),
        2 => Ok(EndpointPolicy::TripledShrunk),
        _ => Err(SketchError::InvalidParameter("unknown endpoint policy tag")),
    }
}

/// Captures a schema.
pub fn snapshot_schema<const D: usize>(schema: &SketchSchema<D>) -> SchemaSnapshot {
    SchemaSnapshot {
        k1: schema.shape().k1,
        k2: schema.shape().k2,
        dims: schema
            .dims()
            .iter()
            .map(|d| (d.sketch_bits, d.max_level))
            .collect(),
        seeds: (0..schema.instances())
            .map(|i| schema.instance_seeds(i).to_vec())
            .collect(),
    }
}

/// `Ok` when `ok`, else [`SketchError::InvalidParameter`] with `msg`.
fn ensure(ok: bool, msg: &'static str) -> Result<()> {
    ok.then_some(()).ok_or(SketchError::InvalidParameter(msg))
}

/// Restores a schema. The const dimensionality must match the snapshot.
pub fn restore_schema<const D: usize>(snap: &SchemaSnapshot) -> Result<Arc<SketchSchema<D>>> {
    ensure(
        snap.dims.len() == D,
        "snapshot dimensionality does not match the requested type",
    )?;
    ensure(
        snap.k1 >= 1 && snap.k2 >= 1,
        "snapshot boosting shape factors must be positive",
    )?;
    ensure(
        snap.k1.checked_mul(snap.k2) == Some(snap.seeds.len()),
        "snapshot seed count does not match its boosting shape",
    )?;
    for &(bits, max_level) in &snap.dims {
        ensure(
            (1..=DyadicDomain::MAX_BITS).contains(&bits),
            "snapshot domain bits out of range",
        )?;
        ensure(
            max_level <= bits,
            "snapshot maxLevel exceeds its domain bits",
        )?;
    }
    let dims: [DimSpec; D] = std::array::from_fn(|i| DimSpec {
        sketch_bits: snap.dims[i].0,
        max_level: snap.dims[i].1,
    });
    // A family over `2^k` indices reads `k = sketch_bits + 1` seed bits:
    // higher bits change no answer but would survive a re-snapshot.
    let fits = |seed: &BchSeed, (bits, _): (u32, u32)| (seed.s1 | seed.s3) >> (bits + 1) == 0;
    ensure(
        snap.seeds.iter().all(|row| {
            row.iter()
                .zip(&snap.dims)
                .all(|(seed, &dim)| fits(seed, dim))
        }),
        "snapshot seed wider than its domain",
    )?;
    let seeds = snap
        .seeds
        .iter()
        .map(|row| row.as_slice().try_into())
        .collect::<std::result::Result<_, _>>()
        .map_err(|_| SketchError::InvalidParameter("snapshot seed row has wrong dimensionality"))?;
    Ok(SketchSchema::restore(
        BoostShape::new(snap.k1, snap.k2),
        dims,
        seeds,
    ))
}

/// Captures a sketch set (schema included).
pub fn snapshot_sketch<const D: usize>(sketch: &SketchSet<D>) -> SketchSnapshot {
    let words = sketch.words().iter().map(|w| w.to_vec()).collect();
    let instances = sketch.schema().instances();
    let w = sketch.words().len();
    let mut counters = Vec::with_capacity(instances * w);
    for inst in 0..instances {
        counters.extend_from_slice(sketch.instance_counters(inst));
    }
    SketchSnapshot {
        schema: snapshot_schema(sketch.schema()),
        words,
        policy_tag: policy_tag(sketch.policy()),
        counters,
        len: sketch.len(),
    }
}

/// Restores a sketch set against an already-restored schema (so several
/// sketches can share it). The supplied schema must *be* the snapshot's
/// schema — same shape, dimensions and seeds
/// ([`SketchError::SchemaMismatch`] otherwise): counters are only
/// meaningful under the seeds that built them, so restoring against any
/// other schema would silently corrupt every subsequent estimate.
pub fn restore_sketch_with_schema<const D: usize>(
    snap: &SketchSnapshot,
    schema: Arc<SketchSchema<D>>,
) -> Result<SketchSet<D>> {
    if snapshot_schema(&schema) != snap.schema {
        return Err(SketchError::SchemaMismatch);
    }
    let words: Vec<Word<D>> = snap
        .words
        .iter()
        .map(|w| w.as_slice().try_into())
        .collect::<std::result::Result<_, _>>()
        .map_err(|_| SketchError::InvalidParameter("snapshot word has wrong dimensionality"))?;
    ensure(!words.is_empty(), "snapshot carries no words")?;
    ensure(
        snap.counters.len() == schema.instances() * words.len(),
        "snapshot counter array has wrong size",
    )?;
    let policy = policy_from_tag(snap.policy_tag)?;
    ensure(
        schema
            .dims()
            .iter()
            .all(|d| d.sketch_bits >= policy.extra_bits()),
        "snapshot domain is narrower than its endpoint policy needs",
    )?;
    let mut sketch = SketchSet::new(schema, Arc::new(words), policy);
    sketch.counters_mut().copy_from_slice(&snap.counters);
    sketch.add_len(snap.len);
    Ok(sketch)
}

/// Restores a standalone sketch (reconstructing its schema).
pub fn restore_sketch<const D: usize>(snap: &SketchSnapshot) -> Result<SketchSet<D>> {
    let schema = restore_schema::<D>(&snap.schema)?;
    restore_sketch_with_schema(snap, schema)
}

/// Captures a joinable pair.
pub fn snapshot_pair<const D: usize>(
    r: &SketchSet<D>,
    s: &SketchSet<D>,
) -> Result<SketchPairSnapshot> {
    if !r.same_schema(s) {
        return Err(SketchError::SchemaMismatch);
    }
    Ok(SketchPairSnapshot {
        r: snapshot_sketch(r),
        s: snapshot_sketch(s),
    })
}

/// Restores a joinable pair sharing one schema instance.
pub fn restore_pair<const D: usize>(
    snap: &SketchPairSnapshot,
) -> Result<(SketchSet<D>, SketchSet<D>)> {
    let schema = restore_schema::<D>(&snap.r.schema)?;
    let r = restore_sketch_with_schema(&snap.r, Arc::clone(&schema))?;
    let s = restore_sketch_with_schema(&snap.s, schema)?;
    Ok((r, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comp::ie_words;
    use geometry::rect2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_sketch() -> SketchSet<2> {
        let mut rng = StdRng::seed_from_u64(5);
        let schema = SketchSchema::<2>::new(
            &mut rng,
            BoostShape::new(4, 3),
            [DimSpec::with_max_level(10, 7); 2],
        );
        let mut sk = SketchSet::new(schema, Arc::new(ie_words::<2>()), EndpointPolicy::Tripled);
        sk.insert(&rect2(5, 90, 10, 200)).unwrap();
        sk.insert(&rect2(0, 255, 0, 255)).unwrap();
        sk.delete(&rect2(5, 90, 10, 200)).unwrap();
        sk
    }

    #[test]
    fn sketch_roundtrip_preserves_everything() {
        let sk = sample_sketch();
        let snap = snapshot_sketch(&sk);
        let restored: SketchSet<2> = restore_sketch(&snap).unwrap();
        assert_eq!(restored.len(), sk.len());
        assert_eq!(restored.policy(), sk.policy());
        assert_eq!(restored.words(), sk.words());
        for inst in 0..sk.schema().instances() {
            assert_eq!(restored.instance_counters(inst), sk.instance_counters(inst));
        }
        // Updates after restore behave identically to the original.
        let mut a = sk.clone();
        let mut b = restored;
        a.insert(&rect2(1, 2, 3, 4)).unwrap();
        b.insert(&rect2(1, 2, 3, 4)).unwrap();
        for inst in 0..a.schema().instances() {
            assert_eq!(a.instance_counters(inst), b.instance_counters(inst));
        }
    }

    #[test]
    fn json_roundtrip() {
        let sk = sample_sketch();
        let snap = snapshot_sketch(&sk);
        let json = serde_json::to_string(&snap).unwrap();
        let back: SketchSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let restored: SketchSet<2> = restore_sketch(&back).unwrap();
        assert_eq!(restored.len(), sk.len());
    }

    #[test]
    fn restored_pair_is_joinable() {
        use crate::estimator::{DimTerm, PairEstimator, PairTerms};
        let mut rng = StdRng::seed_from_u64(6);
        let schema = SketchSchema::<1>::new(&mut rng, BoostShape::new(32, 3), [DimSpec::dyadic(8)]);
        let dim = vec![
            DimTerm::new(Comp::Interval, Comp::Endpoints, 0.5),
            DimTerm::new(Comp::Endpoints, Comp::Interval, 0.5),
        ];
        let pair = PairEstimator::new(
            Arc::clone(&schema),
            PairTerms::from_dim_terms(&[dim]),
            EndpointPolicy::Raw,
            EndpointPolicy::Raw,
        );
        let mut r = pair.new_sketch_r();
        let mut s = pair.new_sketch_s();
        r.insert(&geometry::Interval::new(10, 40).into()).unwrap();
        s.insert(&geometry::Interval::new(21, 61).into()).unwrap();
        let before = pair.estimate(&r, &s).unwrap().value;

        let snap = snapshot_pair(&r, &s).unwrap();
        let (r2, s2): (SketchSet<1>, SketchSet<1>) = restore_pair(&snap).unwrap();
        // The restored pair shares a schema and can be estimated with a
        // pair estimator rebuilt over that schema.
        let pair2 = PairEstimator::new(
            Arc::clone(r2.schema()),
            PairTerms::from_dim_terms(&[vec![
                DimTerm::new(Comp::Interval, Comp::Endpoints, 0.5),
                DimTerm::new(Comp::Endpoints, Comp::Interval, 0.5),
            ]]),
            EndpointPolicy::Raw,
            EndpointPolicy::Raw,
        );
        let after = pair2.estimate(&r2, &s2).unwrap().value;
        assert_eq!(before, after);
    }

    #[test]
    fn mismatched_snapshots_rejected() {
        let sk = sample_sketch();
        let mut snap = snapshot_sketch(&sk);
        // Wrong dimensionality.
        assert!(restore_sketch::<1>(&snap).is_err());
        // Corrupt counters.
        snap.counters.pop();
        assert!(restore_sketch::<2>(&snap).is_err());
        // Foreign pair.
        let mut rng = StdRng::seed_from_u64(7);
        let other_schema =
            SketchSchema::<2>::new(&mut rng, BoostShape::new(4, 3), [DimSpec::dyadic(10); 2]);
        let other = SketchSet::new(other_schema, Arc::new(ie_words::<2>()), EndpointPolicy::Raw);
        assert_eq!(
            snapshot_pair(&sk, &other).unwrap_err(),
            SketchError::SchemaMismatch
        );
        // Hostile schema fields fail with a typed error, not a panic: zero
        // boost factors, domain bits outside 1..=40, maxLevel above the
        // domain bits, a domain too narrow for the tripled endpoint policy,
        // an empty word set, and seeds wider than their domain.
        let hostile: [fn(&mut SketchSnapshot); 10] = [
            |s| s.schema.k1 = 0,
            |s| s.schema.k2 = 0,
            |s| s.schema.dims[0].0 = 0,
            |s| s.schema.dims[1] = (70, 7),
            |s| s.schema.dims[0].1 = 11,
            |s| s.schema.dims = vec![(1, 1); 2],
            |s| s.schema.k1 = usize::MAX,
            |s| s.words.clear(),
            // Seed bits at `sketch_bits + 1` (here 11) and above.
            |s| s.schema.seeds[3][1].s1 |= 1 << 11,
            |s| s.schema.seeds[0][0].s3 |= 1 << 40,
        ];
        for (i, corrupt) in hostile.into_iter().enumerate() {
            let mut snap = snapshot_sketch(&sk);
            corrupt(&mut snap);
            assert!(
                matches!(
                    restore_sketch::<2>(&snap),
                    Err(SketchError::InvalidParameter(_))
                ),
                "hostile snapshot {i}"
            );
        }
        // The top bit a family reads (bit `sketch_bits`) still restores.
        let mut widest = snapshot_sketch(&sk);
        widest.schema.seeds[3][1].s1 |= 1 << 10;
        assert!(restore_sketch::<2>(&widest).is_ok());
        // The format before seeds became plain BCH seeds carried a `kind`
        // and tagged every seed `{"Bch": {..}}`; it no longer parses.
        let tagged = r#"{"kind":"Bch","k1":1,"k2":1,"dims":[[4,4]],"seeds":[[{"Bch":{"b0":true,"s1":3,"s3":5}}]]}"#;
        assert!(serde_json::from_str::<SchemaSnapshot>(tagged).is_err());
        let plain = r#"{"k1":1,"k2":1,"dims":[[4,4]],"seeds":[[{"b0":true,"s1":3,"s3":5}]]}"#;
        let back: SchemaSnapshot = serde_json::from_str(plain).unwrap();
        assert!(restore_schema::<1>(&back).is_ok());
    }
}
