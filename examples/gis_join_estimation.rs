//! GIS scenario: size a spatial-join plan for map overlays without touching
//! the data twice.
//!
//! A query optimizer deciding between join strategies for
//! `LANDO ⋈ SOIL`-style map overlays needs the join cardinality *before*
//! running the join. This example maintains sketches over the two (simulated
//! Wyoming) map relations and compares the sketch estimate against the
//! histogram baselines and the exact answer, at equal memory.
//!
//! Run with: `cargo run --release --example gis_join_estimation`

use rand::SeedableRng;
use spatial_sketch::datagen;
use spatial_sketch::exact;
use spatial_sketch::histograms::{EulerHistogram, GeometricHistogram, GridSpec};
use spatial_sketch::sketch::estimators::joins::{EndpointStrategy, SpatialJoin};
use spatial_sketch::sketch::estimators::SketchConfig;
use spatial_sketch::sketch::{par_insert_batch, plan, BoostShape};

fn main() {
    let bits = datagen::GIS_DOMAIN_BITS;
    let lando = datagen::lando(1);
    let soil = datagen::soil(1);
    println!(
        "datasets: LANDO = {} objects, SOIL = {} objects (simulated; see DESIGN.md)",
        lando.len(),
        soil.len()
    );

    let truth = exact::rect_join_count(&lando, &soil);
    println!("exact |LANDO jn SOIL| = {truth}\n");

    // Give every estimator the same memory: an EH at level 4 (2209 words).
    let level = 4u32;
    let words = EulerHistogram::words_at_level(level) as f64;
    println!("memory budget per dataset: {words} words\n");

    // SKETCH with adaptive maxLevel.
    let mean_extent: f64 = lando
        .iter()
        .chain(soil.iter())
        .map(|x| 3.0 * (x.range(0).length() + x.range(1).length()) as f64 / 2.0)
        .sum::<f64>()
        / (lando.len() + soil.len()) as f64;
    let max_level = plan::adaptive_max_level(mean_extent, bits + 2);
    let instances = plan::instances_for_dataset_words(2, words);
    let shape = BoostShape::new(instances / 5, 5);
    let config = SketchConfig {
        shape,
        max_level: Some(max_level),
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let join = SpatialJoin::<2>::new(&mut rng, config, [bits, bits], EndpointStrategy::Transform);
    let mut sk_r = join.new_sketch_r();
    let mut sk_s = join.new_sketch_s();
    par_insert_batch(&mut sk_r, &lando, 8).expect("LANDO sketch");
    par_insert_batch(&mut sk_s, &soil, 8).expect("SOIL sketch");
    let sketch_est = join.estimate(&sk_r, &sk_s).expect("estimate").value;

    // Histogram baselines at the same budget.
    let spec = GridSpec::new(bits, level);
    let mut eh_r = EulerHistogram::new(spec);
    let mut eh_s = EulerHistogram::new(spec);
    let gh_level = 4; // 4^5 = 1024 words <= budget
    let gspec = GridSpec::new(bits, gh_level);
    let mut gh_r = GeometricHistogram::new(gspec);
    let mut gh_s = GeometricHistogram::new(gspec);
    for x in &lando {
        eh_r.insert(x);
        gh_r.insert(x);
    }
    for x in &soil {
        eh_s.insert(x);
        gh_s.insert(x);
    }
    let eh_est = eh_r.estimate_join(&eh_s);
    let gh_est = gh_r.estimate_join(&gh_s);

    let rel = |est: f64| (est - truth as f64).abs() / truth as f64;
    println!("estimator  estimate      relative error");
    println!("SKETCH     {sketch_est:>10.0}    {:.3}", rel(sketch_est));
    println!("EH  (L{level})   {eh_est:>10.0}    {:.3}", rel(eh_est));
    println!("GH  (L{gh_level})   {gh_est:>10.0}    {:.3}", rel(gh_est));
    println!();
    println!(
        "Only SKETCH comes with a guarantee: with {} instances (k1 = {}, k2 = {}),",
        shape.instances(),
        shape.k1,
        shape.k2
    );
    println!("Lemma 1 bounds the error given the self-join sizes — and the sketch keeps");
    println!("working under inserts AND deletes, which the paper's Section 7.4 highlights");
    println!("as the practical advantage over static histograms.");
}
