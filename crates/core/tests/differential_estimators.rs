//! Differential suite: the blocked query kernels against the scalar oracle.
//!
//! Every estimator under the blocked kernel (`QueryKernel::Wide`, 512-lane
//! bit-sliced block evaluation, which is also the default) must
//! produce **bit-identical** `Estimate`s —
//! boosted value *and* every row mean — to the scalar reference kernel
//! across all five query classes (spatial join, overlap+, range/stab,
//! containment, ε-join) and dimensions 1–3. The
//! blocked kernels reorder the arithmetic across lanes but never within one
//! instance's accumulation, so any divergence at all is a kernel bug, not
//! float noise.
//!
//! Heavyweight cases (multi-block instance grids, 3-d) are gated to the
//! `tests-release` lane with `#[cfg_attr(debug_assertions, ignore)]`,
//! following the ROADMAP convention.

use geometry::{HyperRect, Interval, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sketch::estimators::joins::{EndpointStrategy, OverlapPlusJoin, SpatialJoin};
use sketch::estimators::SketchConfig;
use sketch::{
    EpsJoin, Estimate, IntervalContainment, QueryContext, QueryKernel, RangeQuery, RangeStrategy,
    RectContainment,
};

fn assert_bit_identical(scalar: &Estimate, blocked: &Estimate, label: &str) {
    assert_eq!(
        scalar.value.to_bits(),
        blocked.value.to_bits(),
        "{label}: boosted value diverged ({} vs {})",
        scalar.value,
        blocked.value
    );
    assert_eq!(
        scalar.row_means.len(),
        blocked.row_means.len(),
        "{label}: row count diverged"
    );
    for (i, (a, b)) in scalar
        .row_means
        .iter()
        .zip(blocked.row_means.iter())
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: row mean {i} diverged");
    }
}

/// Runs the same estimate under the scalar oracle and the blocked kernel
/// (a default context) and demands bit-identical results.
fn both(mut estimate: impl FnMut(&mut QueryContext) -> Estimate, label: &str) {
    let mut scalar_ctx = QueryContext::new().with_kernel(QueryKernel::Scalar);
    let scalar = estimate(&mut scalar_ctx);
    let mut ctx = QueryContext::new();
    assert_eq!(ctx.kernel(), QueryKernel::Wide, "blocked default");
    let got = estimate(&mut ctx);
    assert_bit_identical(&scalar, &got, &format!("{label}/wide"));
    // Contexts are reusable: a second pass through warm scratch (and a
    // warm plan cache) agrees too.
    let again = estimate(&mut ctx);
    assert_bit_identical(&scalar, &again, &format!("{label}/wide/warm-context"));
}

fn rand_rects<const D: usize>(rng: &mut StdRng, n: usize, max: u64) -> Vec<HyperRect<D>> {
    (0..n)
        .map(|_| {
            HyperRect::new(std::array::from_fn(|_| {
                let lo = rng.gen_range(0..max - 17);
                Interval::new(lo, lo + rng.gen_range(1..=16u64))
            }))
        })
        .collect()
}

fn rand_points<const D: usize>(rng: &mut StdRng, n: usize, max: u64) -> Vec<Point<D>> {
    (0..n)
        .map(|_| std::array::from_fn(|_| rng.gen_range(0..=max)))
        .collect()
}

/// One spatial-join configuration through both kernels.
fn join_config<const D: usize>(strategy: EndpointStrategy, k1: usize, seed: u64) {
    let label = format!("join/{strategy:?}/{D}d/{k1}x1");
    let mut rng = StdRng::seed_from_u64(seed);
    let join = SpatialJoin::<D>::new(&mut rng, SketchConfig::new(k1, 1), [8; D], strategy);
    let mut r = join.new_sketch_r();
    let mut s = join.new_sketch_s();
    let max = (1u64 << r.data_bits()[0]) - 1;
    r.insert_slice(&rand_rects::<D>(&mut rng, 50, max)).unwrap();
    s.insert_slice(&rand_rects::<D>(&mut rng, 50, max)).unwrap();
    both(|ctx| join.estimate_with(ctx, &r, &s).unwrap(), &label);
}

#[test]
fn spatial_join_kernels_agree_1d() {
    for (i, strategy) in [
        EndpointStrategy::AssumeDistinct,
        EndpointStrategy::Transform,
        EndpointStrategy::CorrectCommon,
    ]
    .into_iter()
    .enumerate()
    {
        // 67 instances: a partial block with one full backing word
        // plus a 3-lane tail.
        join_config::<1>(strategy, 67, 300 + i as u64);
    }
}

#[test]
fn spatial_join_kernels_agree_2d() {
    join_config::<2>(EndpointStrategy::Transform, 67, 310);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavyweight: tests-release lane")]
fn spatial_join_kernels_agree_3d_multiblock() {
    // 520 instances: a full 512-lane block plus an 8-lane tail.
    join_config::<3>(EndpointStrategy::Transform, 520, 320);
    join_config::<3>(EndpointStrategy::AssumeDistinct, 520, 325);
}

#[test]
fn overlap_plus_kernels_agree() {
    let label = "overlap+";
    let mut rng = StdRng::seed_from_u64(340);
    let join = OverlapPlusJoin::<2>::new(&mut rng, SketchConfig::new(13, 5), [8; 2]);
    let mut r = join.new_sketch_r();
    let mut s = join.new_sketch_s();
    let max = (1u64 << r.data_bits()[0]) - 1;
    r.insert_slice(&rand_rects::<2>(&mut rng, 40, max)).unwrap();
    s.insert_slice(&rand_rects::<2>(&mut rng, 40, max)).unwrap();
    both(|ctx| join.estimate_with(ctx, &r, &s).unwrap(), label);
}

/// One range-query configuration (overlap counts + stabbing counts +
/// degenerate query) through both kernels.
fn range_config<const D: usize>(strategy: RangeStrategy, k1: usize, seed: u64) {
    let label = format!("range/{strategy:?}/{D}d/{k1}x1");
    let mut rng = StdRng::seed_from_u64(seed);
    let rq = RangeQuery::<D>::new(&mut rng, SketchConfig::new(k1, 1), [8; D], strategy);
    let mut sk = rq.new_sketch();
    let data = rand_rects::<D>(&mut rng, 60, 255);
    sk.insert_slice(&data).unwrap();
    // A query sharing endpoints with the data on purpose.
    let q: HyperRect<D> = HyperRect::new(std::array::from_fn(|d| data[7].range(d)));
    both(|ctx| rq.estimate_with(ctx, &sk, &q).unwrap(), &label);
    // Stabbing at a data endpoint.
    let p: Point<D> = std::array::from_fn(|d| data[11].range(d).lo());
    both(
        |ctx| rq.estimate_stab_with(ctx, &sk, &p).unwrap(),
        &format!("{label}/stab"),
    );
    // Degenerate queries take the zero-grid path in both kernels.
    let degenerate: HyperRect<D> = HyperRect::new(std::array::from_fn(|d| {
        Interval::point(data[3].range(d).lo())
    }));
    both(
        |ctx| rq.estimate_with(ctx, &sk, &degenerate).unwrap(),
        &format!("{label}/degenerate"),
    );
}

#[test]
fn range_kernels_agree_1d_2d() {
    range_config::<1>(RangeStrategy::Transform, 67, 350);
    range_config::<2>(RangeStrategy::AssumeDistinct, 13, 355);
    range_config::<2>(RangeStrategy::Transform, 67, 360);
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
fn range_kernels_agree_on_long_cover_lists() {
    // An adaptive maxLevel (§6.5): a 2^8 domain truncated at level 3, with
    // data and queries whose interval covers hold 24–31 nodes on both the
    // build and the query side. Raw endpoints (AssumeDistinct) keep the
    // query's cover exactly the one `long_cover_rect` measured.
    const MAX_LEVEL: u32 = 3;
    for (i, k1) in [160, 40].into_iter().enumerate() {
        let label = format!("range/long covers/{k1}x1");
        let mut rng = StdRng::seed_from_u64(380 + i as u64);
        let rq = RangeQuery::<2>::new(
            &mut rng,
            SketchConfig::new(k1, 1).with_max_level(MAX_LEVEL),
            [8; 2],
            RangeStrategy::AssumeDistinct,
        );
        let domain = &rq.schema().dyadic()[0];
        let mut sk = rq.new_sketch();
        let data: Vec<HyperRect<2>> = (0..60)
            .map(|_| long_cover_rect(&mut rng, domain, MAX_LEVEL))
            .collect();
        sk.insert_slice(&data).unwrap();
        for q in 0..4 {
            let query = long_cover_rect::<2>(&mut rng, domain, MAX_LEVEL);
            both(
                |ctx| rq.estimate_with(ctx, &sk, &query).unwrap(),
                &format!("{label}/query {q}"),
            );
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavyweight: tests-release lane")]
fn range_kernels_agree_3d_multiblock() {
    range_config::<3>(RangeStrategy::Transform, 520, 370);
}

#[test]
fn containment_kernels_agree() {
    let label = "containment";
    let mut rng = StdRng::seed_from_u64(380);
    let est = IntervalContainment::new(&mut rng, SketchConfig::new(67, 1), 8);
    let mut outer = est.new_sketch_outer();
    let mut inner = est.new_sketch_inner();
    for _ in 0..40 {
        let lo = rng.gen_range(0..200u64);
        est.insert_outer(&mut outer, &Interval::new(lo, lo + rng.gen_range(8..40u64)))
            .unwrap();
        let lo = rng.gen_range(0..240u64);
        est.insert_inner(&mut inner, &Interval::new(lo, lo + rng.gen_range(1..14u64)))
            .unwrap();
    }
    both(|ctx| est.estimate_with(ctx, &outer, &inner).unwrap(), label);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavyweight: tests-release lane")]
fn rect_containment_kernels_agree_4d_sketch() {
    let label = "rect-containment";
    let mut rng = StdRng::seed_from_u64(390);
    let est = RectContainment::new(&mut rng, SketchConfig::new(130, 1), 6);
    let mut outer = est.new_sketch_outer();
    let mut inner = est.new_sketch_inner();
    for _ in 0..25 {
        let x = rng.gen_range(0..30u64);
        let y = rng.gen_range(0..30u64);
        est.insert_outer(
            &mut outer,
            &geometry::rect2(
                x,
                x + rng.gen_range(8..30u64),
                y,
                y + rng.gen_range(8..30u64),
            ),
        )
        .unwrap();
        let x = rng.gen_range(0..55u64);
        let y = rng.gen_range(0..55u64);
        est.insert_inner(
            &mut inner,
            &geometry::rect2(x, x + rng.gen_range(1..8u64), y, y + rng.gen_range(1..8u64)),
        )
        .unwrap();
    }
    both(|ctx| est.estimate_with(ctx, &outer, &inner).unwrap(), label);
}

#[test]
fn eps_join_kernels_agree() {
    for k1 in [13usize, 67] {
        let label = format!("eps/{k1}x1");
        let mut rng = StdRng::seed_from_u64(400 + k1 as u64);
        let est = EpsJoin::<2>::new(&mut rng, SketchConfig::new(k1, 1), 8, 5);
        let mut a = est.new_sketch_a();
        let mut b = est.new_sketch_b();
        for p in rand_points::<2>(&mut rng, 50, 255) {
            est.insert_a(&mut a, &p).unwrap();
        }
        for p in rand_points::<2>(&mut rng, 50, 255) {
            est.insert_b(&mut b, &p).unwrap();
        }
        both(|ctx| est.estimate_with(ctx, &a, &b).unwrap(), &label);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavyweight: tests-release lane")]
fn eps_join_kernels_agree_3d_multiblock() {
    let label = "eps/3d";
    let mut rng = StdRng::seed_from_u64(420);
    let est = EpsJoin::<3>::new(&mut rng, SketchConfig::new(520, 1), 7, 4);
    let mut a = est.new_sketch_a();
    let mut b = est.new_sketch_b();
    for p in rand_points::<3>(&mut rng, 40, 127) {
        est.insert_a(&mut a, &p).unwrap();
    }
    for p in rand_points::<3>(&mut rng, 40, 127) {
        est.insert_b(&mut b, &p).unwrap();
    }
    both(|ctx| est.estimate_with(ctx, &a, &b).unwrap(), label);
}

#[test]
fn self_join_estimates_agree() {
    use sketch::selfjoin::{estimate_self_join_with, estimate_word_self_join_with};
    let label = "selfjoin";
    let mut rng = StdRng::seed_from_u64(430);
    let join = SpatialJoin::<2>::new(
        &mut rng,
        SketchConfig::new(67, 1),
        [8; 2],
        EndpointStrategy::AssumeDistinct,
    );
    let mut r = join.new_sketch_r();
    r.insert_slice(&rand_rects::<2>(&mut rng, 60, 255)).unwrap();
    both(|ctx| estimate_self_join_with(ctx, &r), label);
    both(
        |ctx| estimate_word_self_join_with(ctx, &r, 1),
        &format!("{label}/word1"),
    );
}

#[test]
fn boosting_grid_shapes_agree() {
    // Shapes below, at, and straddling one 64-lane backing word — plus
    // blocks with 5 and 9 occupied words (the full fold, and one full block
    // plus a tail); the row means feed the median, so every row must match
    // bitwise, not just the final value.
    for (i, (k1, k2)) in [
        (5usize, 3usize),
        (64, 1),
        (13, 5),
        (33, 4),
        (130, 2),
        (173, 3),
    ]
    .into_iter()
    .enumerate()
    {
        let label = format!("shapes/{k1}x{k2}");
        let mut rng = StdRng::seed_from_u64(440 + i as u64);
        let join = SpatialJoin::<1>::new(
            &mut rng,
            SketchConfig::new(k1, k2),
            [8],
            EndpointStrategy::Transform,
        );
        let mut r = join.new_sketch_r();
        let mut s = join.new_sketch_s();
        let max = (1u64 << r.data_bits()[0]) - 1;
        r.insert_slice(&rand_rects::<1>(&mut rng, 45, max)).unwrap();
        s.insert_slice(&rand_rects::<1>(&mut rng, 45, max)).unwrap();
        both(|ctx| join.estimate_with(ctx, &r, &s).unwrap(), &label);
    }
}
