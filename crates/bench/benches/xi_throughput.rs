//! Microbench: four-wise independent variable generation — the innermost
//! operation of every sketch update. Times the BCH construction with and
//! without shared cube precomputation, the bit-sliced evaluation of a full
//! 512-lane block (the width the blocked kernels run) against the same
//! lanes evaluated one family at a time, plus the GF(2^k) cube itself.
//! The `cover_sum` groups time one bit-sliced cover sum on the cover shapes
//! the kernels see, at a full and a partly filled 512-lane block.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dyadic::{interval_cover, point_cover, DyadicDomain};
use fourwise::{BchBlock, BchFamily, BchSeed, LaneCounter, LaneWord, XiContext};
use geometry::Interval;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_xi(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let bits = 17u32; // node space of a 2^16 dyadic domain
    let indices: Vec<u64> = (0..1024u64)
        .map(|i| (i * 2654435761) % (1 << bits))
        .collect();

    let mut group = c.benchmark_group("xi_generation");
    group.throughput(Throughput::Elements(indices.len() as u64));

    let ctx = XiContext::new(bits);
    let fam = ctx.family(ctx.random_seed(&mut rng));
    let pres: Vec<_> = indices.iter().map(|&i| ctx.precompute(i)).collect();
    group.bench_function("Bch/precomputed", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for p in &pres {
                acc += fam.xi_pre(black_box(*p));
            }
            acc
        })
    });
    group.bench_function("Bch/standalone", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for &i in &indices {
                acc += fam.xi(black_box(i));
            }
            acc
        })
    });
    group.finish();

    // Block evaluation: a whole lane word of instances per pass (the
    // blocked build kernels' inner operation) against the equivalent scalar
    // evaluations.
    let mut group = c.benchmark_group(format!("xi_block_{}lanes", LaneWord::LANES));
    group.throughput(Throughput::Elements(
        indices.len() as u64 * LaneWord::LANES as u64,
    ));
    let seeds: Vec<BchSeed> = (0..LaneWord::LANES)
        .map(|_| ctx.random_seed(&mut rng))
        .collect();
    let fams: Vec<BchFamily> = seeds.iter().map(|&s| ctx.family(s)).collect();
    let block = BchBlock::pack(&ctx, &seeds);
    group.bench_function("Bch/bitsliced", |b| {
        let mut counter = LaneCounter::new();
        let mut sums = vec![0i64; LaneWord::LANES];
        b.iter(|| {
            block.sum_pre_into(black_box(&pres), &mut counter, &mut sums);
            sums[0]
        })
    });
    group.bench_function("Bch/scalar_lanes", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for fam in &fams {
                acc += fam.sum_pre(black_box(&pres));
            }
            acc
        })
    });
    group.finish();

    // Cover sums on the shapes the kernels fold, over a 2^16 domain: a cold
    // range query's interval cover under an adaptive maxLevel of 6 (a long
    // run of top-level nodes plus the edges; 69 nodes), a 9-node point
    // cover, and a 70-node run of level-8 ids. 69 and 70 nodes take the
    // eight-mask fold plus a remainder, 9 nodes one octet plus one mask.
    let domain = DyadicDomain::new(bits - 1);
    let shapes: [(&str, Vec<u64>); 3] = [
        (
            "cold_query",
            interval_cover(&domain, &Interval::new(1001, 5095), 6),
        ),
        ("point_cover", point_cover(&domain, 12_345, 8)),
        ("level8_run", (256 + 40..256 + 110).collect()),
    ];
    for lanes in [LaneWord::LANES, 160] {
        let mut group = c.benchmark_group(format!("cover_sum_{lanes}lanes"));
        let seeds: Vec<BchSeed> = (0..lanes).map(|_| ctx.random_seed(&mut rng)).collect();
        let block = BchBlock::pack(&ctx, &seeds);
        for (name, ids) in &shapes {
            let pres: Vec<_> = ids.iter().map(|&i| ctx.precompute(i)).collect();
            group.throughput(Throughput::Elements(pres.len() as u64));
            group.bench_function(format!("{name}/{}nodes", pres.len()), |b| {
                let mut counter = LaneCounter::new();
                let mut sums = vec![0i64; lanes];
                b.iter(|| {
                    block.sum_pre_into(black_box(&pres), &mut counter, &mut sums);
                    sums[0]
                })
            });
        }
        group.finish();
    }

    // The shared per-index precomputation itself (table-hit path).
    let mut group = c.benchmark_group("cube_precompute");
    group.throughput(Throughput::Elements(indices.len() as u64));
    group.bench_function("tabulated", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &i in &indices {
                acc ^= ctx.precompute(black_box(i)).cube;
            }
            acc
        })
    });
    // And the raw field arithmetic (what large domains pay).
    let gf = fourwise::GfContext::new(40);
    group.bench_function("gf_cube_40bit", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &i in &indices {
                acc ^= gf.cube(black_box(i));
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_xi);
criterion_main!(benches);
