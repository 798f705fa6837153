//! Differential suite: the blocked build kernel against the scalar oracle.
//!
//! `BuildKernel::Wide` (512-lane bit-sliced blocks) must produce
//! **bit-identical** `SketchSet` counters to the scalar reference path for
//! every endpoint policy, dimensionality, word set,
//! insert/delete mix and block occupancy — sketches are exact integer
//! linear summaries, so any divergence at all is a kernel bug. Partly
//! filled blocks fold 1, 2, 4 or all 8 backing words depending on how many
//! are occupied, so the suite runs a schema on each fold branch.
//!
//! The blocked kernels evaluate only the components a word set reads, so
//! besides the every-component word list the suite runs the word sets that
//! skip some: the range words `{I, U}^D` (no lower point cover, no
//! leaves), the join words `{I, E}^D` (no leaves) and single-component
//! sets. An adaptive-`maxLevel` shape folds cover lists of 24–31 nodes,
//! whose per-lane counts reach the counter's upper planes.
//!
//! Seeded stand-ins for property tests: each configuration streams ≥200
//! random objects (with interleaved deletions of earlier inserts) through
//! all kernels and compares every counter. Heavyweight 3-d configurations
//! run in the CI `tests-release` lane
//! (`#[cfg_attr(debug_assertions, ignore)]`), following the ROADMAP
//! convention.

use geometry::{HyperRect, Interval};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sketch::{
    ie_words, par_update_batch, BoostShape, BuildKernel, Comp, DimSpec, EndpointPolicy,
    SketchSchema, SketchSet, Word,
};
use std::sync::Arc;

const POLICIES: [EndpointPolicy; 3] = [
    EndpointPolicy::Raw,
    EndpointPolicy::Tripled,
    EndpointPolicy::TripledShrunk,
];

/// Every component class in one word list: the `{I,E}^D` join words plus
/// point- and leaf-reading words (range/containment/ε-join shapes).
fn all_comp_words<const D: usize>() -> Vec<Word<D>> {
    let mut words = ie_words::<D>();
    words.push([Comp::LowerPoint; D]);
    words.push([Comp::UpperPoint; D]);
    words.push([Comp::LowerLeaf; D]);
    words.push([Comp::UpperLeaf; D]);
    // A mixed word exercising different components per dimension.
    let cycle = [Comp::Interval, Comp::LowerLeaf, Comp::UpperPoint];
    words.push(std::array::from_fn(|d| cycle[d % cycle.len()]));
    words
}

/// The range sketch's `{I, U}^D` words: `{I, E}^D` with every endpoint
/// component narrowed to the upper point cover.
fn range_words<const D: usize>() -> Vec<Word<D>> {
    let upper = |c| {
        if c == Comp::Endpoints {
            Comp::UpperPoint
        } else {
            c
        }
    };
    ie_words::<D>().into_iter().map(|w| w.map(upper)).collect()
}

/// The word sets whose words leave some components unread: the range and
/// join words and single-component sets.
fn partial_word_sets<const D: usize>() -> [(&'static str, Vec<Word<D>>); 5] {
    [
        ("range {I,U}", range_words::<D>()),
        ("join {I,E}", ie_words::<D>()),
        ("LowerPoint only", vec![[Comp::LowerPoint; D]]),
        ("UpperLeaf only", vec![[Comp::UpperLeaf; D]]),
        ("Endpoints only", vec![[Comp::Endpoints; D]]),
    ]
}

/// Runs every partial word set under every policy.
fn run_partial_word_sets<const D: usize>(shape: BoostShape, seed: u64) {
    for (i, policy) in POLICIES.into_iter().enumerate() {
        for (j, (set, words)) in partial_word_sets::<D>().into_iter().enumerate() {
            let seed = seed + 10 * i as u64 + j as u64;
            run_words(policy, shape, seed, words, set);
        }
    }
}

fn rand_rect<const D: usize>(rng: &mut StdRng, max: u64) -> HyperRect<D> {
    HyperRect::new(std::array::from_fn(|_| {
        let a = rng.gen_range(0..=max);
        let b = rng.gen_range(0..=max);
        Interval::new(a.min(b), a.max(b))
    }))
}

/// Compares every counter of `blocked` with the same word's counter in
/// `scalar`, whose words `blocked`'s must prefix.
fn assert_identical<const D: usize>(scalar: &SketchSet<D>, blocked: &SketchSet<D>, label: &str) {
    assert_eq!(scalar.len(), blocked.len(), "{label}: net length diverged");
    let w = blocked.words().len();
    for inst in 0..scalar.schema().instances() {
        assert_eq!(
            &scalar.instance_counters(inst)[..w],
            blocked.instance_counters(inst),
            "{label}: instance {inst} diverged"
        );
    }
}

/// Streams a seeded insert/delete mix through the scalar oracle and the
/// blocked kernel and demands bit-identical counters after every phase of
/// the stream.
fn run_config<const D: usize>(policy: EndpointPolicy, shape: BoostShape, seed: u64) {
    run_words(policy, shape, seed, all_comp_words::<D>(), "all");
}

/// [`run_config`] over an explicit word set.
fn run_words<const D: usize>(
    policy: EndpointPolicy,
    shape: BoostShape,
    seed: u64,
    words: Vec<Word<D>>,
    set: &str,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = SketchSchema::<D>::new(&mut rng, shape, [DimSpec::dyadic(8); D]);
    // The oracle also maintains a word for every component, so its scratch
    // compiles every cover list whatever `words` read: a word's counters
    // must not depend on which other words its sketch maintains.
    let oracle_words = Arc::new([words.clone(), all_comp_words::<D>()].concat());
    let words = Arc::new(words);
    let mut scalar =
        SketchSet::new(schema.clone(), oracle_words, policy).with_kernel(BuildKernel::Scalar);
    let mut blocked = SketchSet::new(schema.clone(), words, policy).with_kernel(BuildKernel::Wide);
    let label = format!("{policy:?}/{D}d/{shape:?}/{set}");
    let max = (1u64 << scalar.data_bits()[0]) - 1;

    let mut live: Vec<HyperRect<D>> = Vec::new();
    let mut inserted = 0usize;
    let mut step = 0usize;
    // ≥200 random objects per configuration, with ~30% interleaved deletes.
    while inserted < 210 {
        if !live.is_empty() && rng.gen_range(0..10u32) < 3 {
            let r = live.swap_remove(rng.gen_range(0..live.len()));
            scalar.delete(&r).unwrap();
            blocked.delete(&r).unwrap();
        } else {
            let r = rand_rect::<D>(&mut rng, max);
            scalar.insert(&r).unwrap();
            blocked.insert(&r).unwrap();
            live.push(r);
            inserted += 1;
        }
        step += 1;
        if step % 75 == 74 {
            assert_identical(&scalar, &blocked, &label);
        }
    }

    // Drain: linearity means both kernels return to exactly zero together.
    for r in live.drain(..) {
        scalar.delete(&r).unwrap();
        blocked.delete(&r).unwrap();
    }
    assert_identical(&scalar, &blocked, &label);
    assert!(blocked.instance_counters(0).iter().all(|&c| c == 0));
}

/// 67 instances: one partial block whose second backing word holds 3 lanes
/// (the 2-word prefix fold).
const BLOCK_SPANNING: BoostShape = BoostShape { k1: 67, k2: 1 };

/// 300 instances: one partial block with 5 of 8 backing words occupied
/// (above the majority cutover: the full fold).
const WIDE_SPANNING: BoostShape = BoostShape { k1: 150, k2: 2 };

/// 520 instances: one full 512-lane block plus an 8-lane tail (a single
/// occupied backing word in the tail block).
const WIDE512_SPANNING: BoostShape = BoostShape { k1: 260, k2: 2 };

/// Instance counts occupying 1, 2, 3 and 4 of a block's 8 backing words:
/// the 1-, 2- and 4-word prefix folds (3 occupied words fold 4) and the
/// first count at the majority cutover, which folds all 8.
const FOLD_WIDTHS: [usize; 4] = [40, 100, 160, 250];

#[test]
fn differential_bch_all_policies_1d() {
    for (i, policy) in POLICIES.into_iter().enumerate() {
        run_config::<1>(policy, BLOCK_SPANNING, 900 + i as u64);
    }
}

#[test]
fn differential_bch_all_policies_2d() {
    for (i, policy) in POLICIES.into_iter().enumerate() {
        run_config::<2>(policy, BLOCK_SPANNING, 910 + i as u64);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavyweight: tests-release lane")]
fn differential_bch_all_policies_3d() {
    for (i, policy) in POLICIES.into_iter().enumerate() {
        run_config::<3>(policy, BLOCK_SPANNING, 920 + i as u64);
    }
}

#[test]
fn differential_partial_word_sets_1d_2d() {
    // TripledShrunk drops the geometry of degenerate ranges but keeps the
    // leaves, so every policy runs on the 2-word prefix fold.
    run_partial_word_sets::<1>(BLOCK_SPANNING, 1000);
    run_partial_word_sets::<2>(BLOCK_SPANNING, 1100);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavyweight: tests-release lane")]
fn differential_partial_word_sets_3d_multiblock() {
    run_partial_word_sets::<3>(WIDE_SPANNING, 1200);
}

#[test]
fn differential_instance_shapes() {
    // One-word, exactly-one-word, just-over-one-word and multi-word
    // partial blocks — tail handling must stay identical everywhere.
    for (i, (k1, k2)) in [(5, 1), (64, 1), (13, 5), (64, 3)].into_iter().enumerate() {
        run_config::<2>(
            EndpointPolicy::Tripled,
            BoostShape::new(k1, k2),
            960 + i as u64,
        );
    }
}

#[test]
fn differential_fold_widths_match_oracle() {
    // One partly filled block per prefix-fold branch, every component
    // word and the range/join word sets.
    for (i, k1) in FOLD_WIDTHS.into_iter().enumerate() {
        let shape = BoostShape::new(k1, 1);
        let seed = 990 + 10 * i as u64;
        run_config::<2>(EndpointPolicy::Tripled, shape, seed);
        run_words(
            EndpointPolicy::Raw,
            shape,
            seed + 1,
            range_words::<2>(),
            "range {I,U}",
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavyweight: tests-release lane")]
fn differential_wide_spanning_shapes() {
    // Partly filled blocks at and just above the majority cutover: 300
    // lanes (5 of 8 words) and 256 lanes (4 of 8).
    run_config::<2>(EndpointPolicy::Tripled, WIDE_SPANNING, 970);
    run_config::<1>(EndpointPolicy::Raw, BoostShape::new(256, 1), 971);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavyweight: tests-release lane")]
fn differential_wide512_spanning_shapes() {
    // Shapes straddling the 512-lane block width: a full block plus a tiny
    // tail (one occupied backing word of eight), and an exact fit.
    run_config::<2>(EndpointPolicy::Tripled, WIDE512_SPANNING, 975);
    run_config::<1>(EndpointPolicy::Raw, BoostShape::new(512, 1), 976);
}

/// A rect whose interval cover, in every dimension of `domain` truncated
/// at `max_level`, holds 24–31 nodes: a list whose per-lane counts reach
/// 16, so the counter extraction must read planes 4 and up.
fn long_cover_rect<const D: usize>(
    rng: &mut StdRng,
    domain: &dyadic::DyadicDomain,
    max_level: u32,
) -> HyperRect<D> {
    let top = (1u64 << domain.bits()) - 1;
    HyperRect::new(std::array::from_fn(|_| loop {
        let iv = Interval::new(rng.gen_range(0..top / 6), rng.gen_range(top * 4 / 5..=top));
        if (24..=31).contains(&dyadic::interval_cover(domain, &iv, max_level).len()) {
            return iv;
        }
    }))
}

#[test]
fn differential_long_cover_lists_match_oracle() {
    // An adaptive maxLevel (§6.5): a 2^8 domain truncated at level 3 turns
    // a wide rect's interval cover into a run of 24–31 level-3 and edge
    // nodes. Streamed and sliced, inserted and deleted, on a 1-word and a
    // 4-word partial block, every counter must match the scalar oracle.
    const MAX_LEVEL: u32 = 3;
    for (i, k1) in [160, 40].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(1100 + i as u64);
        let schema = SketchSchema::<2>::new(
            &mut rng,
            BoostShape::new(k1, 1),
            [DimSpec::with_max_level(8, MAX_LEVEL); 2],
        );
        let words = Arc::new(all_comp_words::<2>());
        let new =
            |k| SketchSet::new(schema.clone(), words.clone(), EndpointPolicy::Raw).with_kernel(k);
        let domain = &schema.dyadic()[0];
        let data: Vec<HyperRect<2>> = (0..90)
            .map(|_| long_cover_rect(&mut rng, domain, MAX_LEVEL))
            .collect();
        let label = format!("long covers/{k1} instances");
        let (mut scalar, mut streamed, mut sliced) = (
            new(BuildKernel::Scalar),
            new(BuildKernel::Wide),
            new(BuildKernel::Wide),
        );
        for r in &data {
            scalar.insert(r).unwrap();
            streamed.insert(r).unwrap();
        }
        sliced.insert_slice(&data).unwrap();
        assert_identical(&scalar, &streamed, &label);
        assert_identical(&scalar, &sliced, &format!("{label}/slice"));
        for r in &data[..30] {
            scalar.delete(r).unwrap();
            streamed.delete(r).unwrap();
        }
        sliced.delete_slice(&data[..30]).unwrap();
        assert_identical(&scalar, &streamed, &format!("{label}/deleted"));
        assert_identical(&scalar, &sliced, &format!("{label}/slice deleted"));
    }
}

#[test]
fn default_kernel_is_blocked_at_every_size() {
    // One blocked width serves every schema, however few or many instances
    // it has.
    let mut rng = StdRng::seed_from_u64(980);
    let words = Arc::new(ie_words::<1>());
    for k1 in [1, 67, 160, 383, 384, 1015] {
        let schema = SketchSchema::<1>::new(&mut rng, BoostShape::new(k1, 1), [DimSpec::dyadic(8)]);
        let sk = SketchSet::new(schema, words.clone(), EndpointPolicy::Raw);
        assert_eq!(sk.kernel(), BuildKernel::Wide, "{k1} instances");
        assert_eq!(sketch::preferred_lane_width(k1), 512, "{k1} instances");
    }
}

#[test]
fn slice_ingestion_matches_streaming_inserts() {
    let mut rng = StdRng::seed_from_u64(70);
    let schema = SketchSchema::<2>::new(&mut rng, BoostShape::new(33, 2), [DimSpec::dyadic(8); 2]);
    let words = Arc::new(all_comp_words::<2>());
    let data: Vec<HyperRect<2>> = (0..300).map(|_| rand_rect::<2>(&mut rng, 255)).collect();

    let mut streamed = SketchSet::new(schema.clone(), words.clone(), EndpointPolicy::Raw)
        .with_kernel(BuildKernel::Scalar);
    for r in &data {
        streamed.insert(r).unwrap();
    }
    for kernel in [BuildKernel::Scalar, BuildKernel::Wide] {
        let mut sliced =
            SketchSet::new(schema.clone(), words.clone(), EndpointPolicy::Raw).with_kernel(kernel);
        sliced.insert_slice(&data).unwrap();
        assert_identical(&streamed, &sliced, &format!("insert_slice/{kernel:?}"));
        sliced.delete_slice(&data[..150]).unwrap();
        let mut partial = SketchSet::new(schema.clone(), words.clone(), EndpointPolicy::Raw)
            .with_kernel(BuildKernel::Scalar);
        for r in &data[150..] {
            partial.insert(r).unwrap();
        }
        assert_identical(&partial, &sliced, &format!("delete_slice/{kernel:?}"));
    }
}

/// Slices above and just below `INGEST_SPLIT_FLOOR`, through
/// `update_slice` (the machine's worker cap) and `par_update_batch` at
/// forced worker counts, so that a one-CPU runner still splits the
/// instance blocks, must match the scalar streaming oracle bit for bit.
fn run_split(shape: BoostShape, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = SketchSchema::<2>::new(&mut rng, shape, [DimSpec::dyadic(8); 2]);
    let words = Arc::new(all_comp_words::<2>());
    let new = |k| SketchSet::new(schema.clone(), words.clone(), EndpointPolicy::Raw).with_kernel(k);
    let above = sketch::INGEST_SPLIT_FLOOR.div_ceil(schema.instances()) + 3;
    let below = (sketch::INGEST_SPLIT_FLOOR - 1) / schema.instances();
    let data: Vec<HyperRect<2>> = (0..2 * above).map(|_| rand_rect(&mut rng, 255)).collect();
    let (gone_below, gone_above) = (&data[..below], &data[below..below + above]);
    let mut oracle = new(BuildKernel::Scalar);
    data.iter().for_each(|r| oracle.insert(r).unwrap());
    let inserted = oracle.clone();
    for r in gone_below.iter().chain(gone_above) {
        oracle.delete(r).unwrap();
    }
    for threads in [None, Some(1), Some(2), Some(3), Some(8)] {
        let label = format!("split/{shape:?}/threads {threads:?}");
        let mut sk = new(BuildKernel::Wide);
        let mut apply = |rects: &[HyperRect<2>], delta| match threads {
            None => sk.update_slice(rects, delta).unwrap(),
            Some(t) => par_update_batch(&mut sk, rects, delta, t).unwrap(),
        };
        apply(&data, 1);
        apply(gone_below, -1);
        apply(gone_above, -1);
        assert_identical(&oracle, &sk, &label);
        sk.insert_slice(gone_above).unwrap();
        sk.insert_slice(gone_below).unwrap();
        assert_identical(&inserted, &sk, &format!("{label}/reinserted"));
    }
}

#[test]
fn split_slices_match_streaming_oracle_520() {
    // One full 512-lane block plus an 8-lane tail.
    run_split(WIDE512_SPANNING, 985);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavyweight: tests-release lane")]
fn split_slices_match_streaming_oracle_1015() {
    // Two 512-lane blocks, the second 503 lanes full.
    run_split(BoostShape::new(203, 5), 986);
}

#[test]
fn non_unit_deltas_match_oracle() {
    // Deltas 3 and -7 through the slice walk and a forced two-worker walk,
    // for every word set, on a partly filled block (67 instances) and on a
    // full block plus an 8-lane tail whose slices split (520 instances).
    for (shape, seed) in [(BLOCK_SPANNING, 1300), (WIDE512_SPANNING, 1400)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = SketchSchema::<2>::new(&mut rng, shape, [DimSpec::dyadic(8); 2]);
        // Each phase reaches the split floor; only two blocks can split.
        let above = sketch::INGEST_SPLIT_FLOOR.div_ceil(schema.instances()) + 3;
        let objects = 2 * above;
        // 6-bit coordinates fit every policy's data domain.
        let data: Vec<HyperRect<2>> = (0..objects).map(|_| rand_rect(&mut rng, 63)).collect();
        let sets = std::iter::once(("all", all_comp_words::<2>())).chain(partial_word_sets::<2>());
        for (i, (set, words)) in sets.enumerate() {
            let policy = POLICIES[i % POLICIES.len()];
            let words = Arc::new(words);
            let new = |k| SketchSet::new(schema.clone(), words.clone(), policy).with_kernel(k);
            let mut oracle = new(BuildKernel::Scalar);
            let (mut sliced, mut split) = (new(BuildKernel::Wide), new(BuildKernel::Wide));
            for (delta, rects) in [(3, &data[..]), (-7, &data[objects - above..])] {
                let label = format!("{policy:?}/{shape:?}/{set}/delta {delta}");
                oracle.update_slice(rects, delta).unwrap();
                sliced.update_slice(rects, delta).unwrap();
                par_update_batch(&mut split, rects, delta, 2).unwrap();
                assert_identical(&oracle, &sliced, &label);
                assert_identical(&oracle, &split, &format!("{label}/split"));
            }
        }
    }
}

#[test]
fn slice_ingestion_validates_up_front() {
    let mut rng = StdRng::seed_from_u64(71);
    let schema = SketchSchema::<2>::new(&mut rng, BoostShape::new(4, 2), [DimSpec::dyadic(8); 2]);
    let words = Arc::new(ie_words::<2>());
    let mut sk = SketchSet::new(schema, words, EndpointPolicy::Raw);
    let mut data: Vec<HyperRect<2>> = (0..20).map(|_| rand_rect::<2>(&mut rng, 255)).collect();
    data.push(HyperRect::new([
        Interval::new(0, 400), // out of the 8-bit domain
        Interval::new(0, 1),
    ]));
    assert!(sk.insert_slice(&data).is_err());
    assert_eq!(sk.len(), 0);
    assert!((0..sk.schema().instances()).all(|i| sk.instance_counters(i).iter().all(|&c| c == 0)));
}

#[test]
fn kernels_are_switchable_mid_stream() {
    // A sketch may swap kernels at any point without perturbing its state.
    let mut rng = StdRng::seed_from_u64(72);
    let schema = SketchSchema::<2>::new(&mut rng, BoostShape::new(20, 1), [DimSpec::dyadic(8); 2]);
    let words = Arc::new(ie_words::<2>());
    let data: Vec<HyperRect<2>> = (0..120).map(|_| rand_rect::<2>(&mut rng, 255)).collect();

    let mut oracle = SketchSet::new(schema.clone(), words.clone(), EndpointPolicy::Raw)
        .with_kernel(BuildKernel::Scalar);
    let mut mixed = SketchSet::new(schema, words, EndpointPolicy::Raw);
    for (i, r) in data.iter().enumerate() {
        oracle.insert(r).unwrap();
        if i == 30 {
            mixed.set_kernel(BuildKernel::Scalar);
        }
        if i == 60 {
            mixed.set_kernel(BuildKernel::Wide);
        }
        if i == 90 {
            mixed.set_kernel(BuildKernel::Scalar);
        }
        mixed.insert(r).unwrap();
    }
    assert_identical(&oracle, &mixed, "mid-stream kernel switch");
}
