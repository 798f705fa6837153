//! Cross-crate integration tests: full pipelines from workload generation
//! through sketch maintenance to estimation, checked against the exact
//! processors.

use rand::SeedableRng;
use spatial_sketch::datagen::{churn_stream, replay, SyntheticSpec, Update};
use spatial_sketch::exact;
use spatial_sketch::geometry::HyperRect;
use spatial_sketch::sketch::estimators::joins::{EndpointStrategy, SpatialJoin};
use spatial_sketch::sketch::estimators::SketchConfig;
use spatial_sketch::sketch::{par_insert_batch, plan, SketchSet};

fn workload(n: usize, bits: u32, z: f64, seed: u64) -> Vec<HyperRect<2>> {
    SyntheticSpec::paper(n, bits, z, seed).generate()
}

fn adaptive_config(k1: usize, k2: usize, data: &[&[HyperRect<2>]], bits: u32) -> SketchConfig {
    let mut log_sum = 0.0;
    let mut n = 0u64;
    for set in data {
        for r in set.iter() {
            for d in 0..2 {
                log_sum += (3.0 * r.range(d).length().max(1) as f64).log2();
                n += 1;
            }
        }
    }
    let mean = (log_sum / n as f64).exp2();
    SketchConfig::new(k1, k2).with_max_level(plan::adaptive_max_level(mean, bits + 2))
}

/// The headline pipeline: generate, sketch in one parallel pass, estimate,
/// compare with the exact join. The tolerance is wide but meaningful — the
/// estimate must carry real signal, not noise.
///
/// Heavyweight statistical test: ignored under debug builds (the CI
/// `tests-release` lane runs it via `cargo test --release`).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavyweight statistical test; run with --release"
)]
fn join_pipeline_accuracy_2d() {
    // Dense-enough workload that the variance band sits well below the
    // truth: 3K objects over a 2^10 domain gives selectivity ~4e-3.
    let bits = 10u32;
    let r = workload(3000, bits, 0.0, 1);
    let s = workload(3000, bits, 0.5, 2);
    let truth = exact::rect_join_count(&r, &s) as f64;
    assert!(truth > 10_000.0, "workload too sparse: {truth}");

    let mut errs = Vec::new();
    for seed in 0..3u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(40 + seed);
        let config = adaptive_config(240, 5, &[&r, &s], bits);
        let join =
            SpatialJoin::<2>::new(&mut rng, config, [bits, bits], EndpointStrategy::Transform);
        let mut sk_r = join.new_sketch_r();
        let mut sk_s = join.new_sketch_s();
        par_insert_batch(&mut sk_r, &r, 4).unwrap();
        par_insert_batch(&mut sk_s, &s, 4).unwrap();
        let est = join.estimate(&sk_r, &sk_s).unwrap().value;
        errs.push((est - truth).abs() / truth);
    }
    let avg = errs.iter().sum::<f64>() / errs.len() as f64;
    assert!(avg < 0.5, "avg relative error too high: {avg} ({errs:?})");
}

/// Sketches are linear: building from a stream with deletions must produce
/// *bit-identical* counters to building from the surviving live set.
#[test]
fn streaming_deletions_equal_rebuild() {
    let bits = 10u32;
    let base = workload(400, bits, 0.3, 7);
    let stream = churn_stream(&base, 600, 0.5, 8);
    let live = replay(&stream);

    let mut rng = rand::rngs::StdRng::seed_from_u64(50);
    let config = SketchConfig::new(6, 3);
    let join = SpatialJoin::<2>::new(&mut rng, config, [bits, bits], EndpointStrategy::Transform);

    let mut streamed = join.new_sketch_r();
    for u in &stream {
        match u {
            Update::Insert(x) => streamed.insert(x).unwrap(),
            Update::Delete(x) => streamed.delete(x).unwrap(),
        }
    }
    let mut rebuilt = join.new_sketch_r();
    for x in &live {
        rebuilt.insert(x).unwrap();
    }
    assert_eq!(streamed.len(), live.len() as i64);
    for inst in 0..streamed.schema().instances() {
        assert_eq!(
            streamed.instance_counters(inst),
            rebuilt.instance_counters(inst),
            "instance {inst} diverged"
        );
    }
}

/// Distributed building: sketching shards independently and merging equals
/// sketching everything centrally, and estimates follow suit.
#[test]
fn sharded_merge_equals_central_build() {
    let bits = 10u32;
    let data = workload(900, bits, 0.0, 9);
    let other = workload(500, bits, 0.0, 10);

    let mut rng = rand::rngs::StdRng::seed_from_u64(60);
    let config = SketchConfig::new(8, 3);
    let join = SpatialJoin::<2>::new(&mut rng, config, [bits, bits], EndpointStrategy::Transform);

    let mut central = join.new_sketch_r();
    par_insert_batch(&mut central, &data, 3).unwrap();

    let mut merged = join.new_sketch_r();
    for shard in data.chunks(250) {
        let mut sk: SketchSet<2> = join.new_sketch_r();
        par_insert_batch(&mut sk, shard, 2).unwrap();
        merged.merge_from(&sk).unwrap();
    }
    let mut sk_s = join.new_sketch_s();
    par_insert_batch(&mut sk_s, &other, 3).unwrap();

    assert_eq!(
        join.estimate(&central, &sk_s).unwrap().value,
        join.estimate(&merged, &sk_s).unwrap().value
    );
}

/// The planner's Theorem-1 sizing really does deliver the guarantee on a
/// concrete workload (with margin — the variance bound is conservative).
///
/// Heavyweight statistical test (~60 s debug, seconds in release): ignored
/// under debug builds, run by the CI `tests-release` lane.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavyweight statistical test; run with --release"
)]
fn planner_guarantee_holds() {
    // Dense small-domain workload keeps the planned instance count modest:
    // Theorem 2 sizes k1 from SJ(R)·SJ(S)/E[Z]², and density grows E[Z]
    // faster than the self-join sizes. (The build cost of the planned
    // sketch is n·k1·k2, which this CI-sized single-core test must afford
    // in debug mode — hence the loose epsilon below.)
    let bits = 8u32;
    let r = workload(2000, bits, 0.0, 11);
    let s = workload(2000, bits, 0.0, 12);
    let truth = exact::rect_join_count(&r, &s) as f64;
    assert!(truth > 5_000.0, "workload too sparse: {truth}");

    // Loose-but-honest inputs: sketched SJ estimates and a half-truth
    // sanity bound would be used in production; here exact values keep the
    // test fast and deterministic.
    let config = adaptive_config(1, 1, &[&r, &s], bits);
    let max_level = config.max_level.unwrap();
    let dims = [spatial_sketch::sketch::DimSpec::with_max_level(bits + 2, max_level); 2];
    let sj_r = spatial_sketch::sketch::selfjoin::exact_self_join(
        &r,
        &dims,
        spatial_sketch::sketch::EndpointPolicy::Tripled,
        &spatial_sketch::sketch::ie_words::<2>(),
    ) as f64;
    let sj_s = spatial_sketch::sketch::selfjoin::exact_self_join(
        &s,
        &dims,
        spatial_sketch::sketch::EndpointPolicy::TripledShrunk,
        &spatial_sketch::sketch::ie_words::<2>(),
    ) as f64;
    // Sanity bound = the exact truth: the tightest admissible bound, which
    // any valid lower bound only loosens into more instances (Lemma 1).
    let guarantee = plan::Guarantee::new(0.9, 0.1).unwrap();
    let shape = plan::join_shape(guarantee, 2, sj_r, sj_s, truth).unwrap();
    // The conservative Cauchy-Schwarz variance bound plans generously (the
    // paper: guarantees are "usually overly pessimistic in practice");
    // keep a ceiling so the test stays fast.
    assert!(
        shape.instances() < 60_000,
        "planned shape unexpectedly large: {} instances",
        shape.instances()
    );

    let mut rng = rand::rngs::StdRng::seed_from_u64(70);
    let cfg = SketchConfig {
        shape,
        max_level: Some(max_level),
    };
    let join = SpatialJoin::<2>::new(&mut rng, cfg, [bits, bits], EndpointStrategy::Transform);
    let mut sk_r = join.new_sketch_r();
    let mut sk_s = join.new_sketch_s();
    par_insert_batch(&mut sk_r, &r, 4).unwrap();
    par_insert_batch(&mut sk_s, &s, 4).unwrap();
    let est = join.estimate(&sk_r, &sk_s).unwrap().value;
    let err = (est - truth).abs() / truth;
    assert!(
        err <= guarantee.epsilon,
        "guaranteed {} but measured {err}",
        guarantee.epsilon
    );
}

/// Baselines and sketch agree on the same workload within their respective
/// regimes (coarse EH accurate; GH accurate on uniform; SKETCH within its
/// variance band) — a three-way consistency net.
///
/// Heavyweight statistical test: ignored under debug builds, run by the CI
/// `tests-release` lane.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavyweight statistical test; run with --release"
)]
fn three_estimators_consistent_on_uniform() {
    use spatial_sketch::histograms::{EulerHistogram, GeometricHistogram, GridSpec};
    let bits = 11u32;
    let r = workload(2500, bits, 0.0, 13);
    let s = workload(2500, bits, 0.0, 14);
    let truth = exact::rect_join_count(&r, &s) as f64;

    let spec = GridSpec::new(bits, 2);
    let mut eh_r = EulerHistogram::new(spec);
    let mut eh_s = EulerHistogram::new(spec);
    let mut gh_r = GeometricHistogram::new(spec);
    let mut gh_s = GeometricHistogram::new(spec);
    for x in &r {
        eh_r.insert(x);
        gh_r.insert(x);
    }
    for x in &s {
        eh_s.insert(x);
        gh_s.insert(x);
    }
    let eh_err = (eh_r.estimate_join(&eh_s) - truth).abs() / truth;
    let gh_err = (gh_r.estimate_join(&gh_s) - truth).abs() / truth;
    assert!(eh_err < 0.5, "EH err {eh_err}");
    assert!(gh_err < 0.5, "GH err {gh_err}");

    let mut rng = rand::rngs::StdRng::seed_from_u64(80);
    let config = adaptive_config(320, 5, &[&r, &s], bits);
    let join = SpatialJoin::<2>::new(&mut rng, config, [bits, bits], EndpointStrategy::Transform);
    let mut sk_r = join.new_sketch_r();
    let mut sk_s = join.new_sketch_s();
    par_insert_batch(&mut sk_r, &r, 4).unwrap();
    par_insert_batch(&mut sk_s, &s, 4).unwrap();
    let sk_err = (join.estimate(&sk_r, &sk_s).unwrap().value - truth).abs() / truth;
    assert!(sk_err < 0.8, "SKETCH err {sk_err}");
}
