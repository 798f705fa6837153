//! Property tests for `fourwise::batch` across the cube-table boundary.
//!
//! `XiContext` eagerly tabulates GF(2^k) cubes for `k <=`
//! [`CUBE_TABLE_MAX_BITS`] and computes them on the fly above it; the block
//! evaluation path consumes `IndexPre` either way and must agree with the
//! scalar `BchFamily` evaluation bit for bit on both sides of the boundary,
//! in full and partly filled 512-lane blocks alike.
//!
//! Seeded stand-ins for property tests (deterministic randomized loops).

use fourwise::{
    BchBlock, BchSeed, IndexPre, LaneCounter, LaneWord, XiContext, CUBE_TABLE_MAX_BITS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Domains straddling the table/no-table split (table for 20 and 21, on-the-
/// fly field arithmetic for 22).
const BOUNDARY_KS: [u32; 3] = [
    CUBE_TABLE_MAX_BITS - 1,
    CUBE_TABLE_MAX_BITS,
    CUBE_TABLE_MAX_BITS + 1,
];

#[test]
fn boundary_constants_still_straddle() {
    // The satellite contract: k = 20, 21, 22 crosses the tabulation cutoff.
    assert_eq!(CUBE_TABLE_MAX_BITS, 21);
    assert_eq!(BOUNDARY_KS, [20, 21, 22]);
}

#[test]
fn size_one_blocks_equal_family_evaluation() {
    for k in BOUNDARY_KS {
        let ctx = XiContext::new(k);
        let mut rng = StdRng::seed_from_u64(1000 + k as u64);
        for trial in 0..8 {
            let seed = ctx.random_seed(&mut rng);
            let block = BchBlock::pack(&ctx, &[seed]);
            assert_eq!(block.lanes(), 1);
            let fam = ctx.family(seed);
            let top = (1u64 << k) - 1;
            for t in 0..200u64 {
                // Deterministic spread plus random draws, hitting both
                // domain ends.
                let i = match t {
                    0 => 0,
                    1 => top,
                    _ => rng.gen_range(0..=top),
                };
                let pre = ctx.precompute(i);
                let mask = block.eval_mask(pre);
                let got = 1 - 2 * mask.bit(0) as i64;
                assert_eq!(got, fam.xi_pre(pre), "k={k} trial={trial} index={i}");
                assert_eq!(fam.xi_pre(pre), fam.xi(i), "precompute path diverged");
            }
        }
    }
}

#[test]
fn full_blocks_equal_family_sums_at_boundary() {
    for k in BOUNDARY_KS {
        let ctx = XiContext::new(k);
        let mut rng = StdRng::seed_from_u64(2000 + k as u64);
        let seeds: Vec<BchSeed> = (0..LaneWord::LANES)
            .map(|_| ctx.random_seed(&mut rng))
            .collect();
        let block = BchBlock::pack(&ctx, &seeds);
        let top = (1u64 << k) - 1;
        let pres: Vec<IndexPre> = (0..40)
            .map(|_| ctx.precompute(rng.gen_range(0..=top)))
            .collect();
        let mut counter = LaneCounter::new();
        let mut sums = vec![0i64; LaneWord::LANES];
        block.sum_pre_into(&pres, &mut counter, &mut sums);
        for (lane, &seed) in seeds.iter().enumerate() {
            let fam = ctx.family(seed);
            assert_eq!(sums[lane], fam.sum_pre(&pres), "k={k} lane={lane}");
        }
    }
}

/// A `lanes`-lane partial tail block against the scalar families lane by
/// lane, above the cube-table cutoff — exercising the occupancy skip (only
/// `lanes.div_ceil(64)` of the 8 backing words are live).
fn tail_blocks_match_scalar_at(lanes: usize, seed: u64) {
    let k = CUBE_TABLE_MAX_BITS + 1;
    let ctx = XiContext::new(k);
    let mut rng = StdRng::seed_from_u64(seed);
    let seeds: Vec<BchSeed> = (0..lanes).map(|_| ctx.random_seed(&mut rng)).collect();
    let block = BchBlock::pack(&ctx, &seeds);
    assert_eq!(block.lanes(), lanes);
    assert_eq!(block.occupied_words(), lanes.div_ceil(64));
    let pres: Vec<IndexPre> = (0..60)
        .map(|_| ctx.precompute(rng.gen_range(0..1u64 << k)))
        .collect();
    let mut counter = LaneCounter::new();
    let mut sums = vec![0i64; lanes];
    block.sum_pre_into(&pres, &mut counter, &mut sums);
    for (lane, &seed) in seeds.iter().enumerate() {
        let fam = ctx.family(seed);
        assert_eq!(sums[lane], fam.sum_pre(&pres), "lanes={lanes} lane={lane}");
    }
}

#[test]
fn tail_blocks_match_scalar_at_boundary() {
    // 100 and 300 lanes: 2 and 5 of 8 occupied words (a 2-word prefix fold
    // and the full fold).
    tail_blocks_match_scalar_at(100, 3000);
    tail_blocks_match_scalar_at(300, 3001);
}
