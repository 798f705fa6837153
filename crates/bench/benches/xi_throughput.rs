//! Microbench: four-wise independent variable generation — the innermost
//! operation of every sketch update. Compares the BCH construction (with
//! and without shared cube precomputation) against the cubic-polynomial
//! family, the bit-sliced block evaluation behind the wide (256-lane) and
//! wide512 (512-lane) build kernels, plus the GF(2^k) cube itself.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fourwise::{
    Lane, LaneCounter, WideLane, WideLane512, XiBlock, XiContext, XiFamily, XiKind, XiSeed,
};
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

    for kind in [XiKind::Bch, XiKind::Poly] {
        let ctx = XiContext::new(kind, bits);
        let fam = ctx.family(ctx.random_seed(&mut rng));
        let pres: Vec<_> = indices.iter().map(|&i| ctx.precompute(i)).collect();

        group.bench_function(format!("{kind:?}/precomputed"), |b| {
            b.iter(|| {
                let mut acc = 0i64;
                for p in &pres {
                    acc += fam.xi_pre(black_box(*p));
                }
                acc
            })
        });
        group.bench_function(format!("{kind:?}/standalone"), |b| {
            b.iter(|| {
                let mut acc = 0i64;
                for &i in &indices {
                    acc += fam.xi(black_box(i));
                }
                acc
            })
        });
    }
    group.finish();

    // Block evaluation: a whole lane word of instances per pass (the
    // blocked build kernels' inner operation) against the equivalent scalar
    // evaluations, at every lane width.
    fn bench_blocks<L: Lane>(c: &mut Criterion, rng: &mut StdRng, bits: u32, indices: &[u64]) {
        let mut group = c.benchmark_group(format!("xi_block_{}lanes", L::LANES));
        group.throughput(Throughput::Elements(indices.len() as u64 * L::LANES as u64));
        for kind in [XiKind::Bch, XiKind::Poly] {
            let ctx = XiContext::new(kind, bits);
            let seeds: Vec<XiSeed> = (0..L::LANES).map(|_| ctx.random_seed(rng)).collect();
            let fams: Vec<XiFamily> = seeds.iter().map(|&s| ctx.family(s)).collect();
            let block = XiBlock::<L>::pack(&ctx, &seeds);
            let pres: Vec<_> = indices.iter().map(|&i| ctx.precompute(i)).collect();

            group.bench_function(format!("{kind:?}/bitsliced"), |b| {
                let mut counter = LaneCounter::<L>::new();
                let mut sums = vec![0i64; L::LANES];
                b.iter(|| {
                    block.sum_pre_into(black_box(&pres), &mut counter, &mut sums);
                    sums[0]
                })
            });
            group.bench_function(format!("{kind:?}/scalar_lanes"), |b| {
                b.iter(|| {
                    let mut acc = 0i64;
                    for fam in &fams {
                        acc += fam.sum_pre(black_box(&pres));
                    }
                    acc
                })
            });
        }
        group.finish();
    }
    bench_blocks::<WideLane>(c, &mut rng, bits, &indices);
    bench_blocks::<WideLane512>(c, &mut rng, bits, &indices);

    // The shared per-index precomputation itself (table-hit path).
    let ctx = XiContext::new(XiKind::Bch, bits);
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
