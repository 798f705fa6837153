//! The BCH construction of four-wise independent {-1, +1} families.
//!
//! This is exactly the construction referenced by Alon, Matias and Szegedy
//! and by the spatial-sketches paper (Section 2.2): for a domain of size
//! `2^k`, a seed of `2k + 1` bits defines the whole family
//!
//! ```text
//! xi_i = (-1) ^ ( b0  ⊕  <s1, i>  ⊕  <s3, i^3> )
//! ```
//!
//! where `<a, b>` is the GF(2) inner product (parity of `a & b`) and `i^3`
//! is computed in GF(2^k). Any four distinct columns of the matrix
//! `[1; i; i^3]` are linearly independent over GF(2) (this is the
//! parity-check matrix of a double-error-correcting BCH code, designed
//! distance 5), which gives exact four-wise independence.
//!
//! Generating one `xi_i` costs two field multiplications (for `i^3`) plus a
//! handful of word operations — linear in the seed size, as the paper states.
//! Crucially for sketches that maintain thousands of independent instances:
//! `i^3` depends only on `i`, **not** on the seed, so when many families over
//! the same domain evaluate the same index, the cube can be computed once and
//! shared (see [`BchFamily::xi_with_cube`]).

use crate::family::IndexPre;
use crate::gf2::GfContext;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Seed of a BCH four-wise independent family: `2k + 1` random bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BchSeed {
    /// Sign-flip bit.
    pub b0: bool,
    /// First-order mask (`k` bits).
    pub s1: u64,
    /// Third-order mask (`k` bits).
    pub s3: u64,
}

impl BchSeed {
    /// Draws a uniformly random seed for a domain of `2^k` values.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, k: u32) -> Self {
        let mask = if k >= 64 { u64::MAX } else { (1u64 << k) - 1 };
        Self {
            b0: rng.gen::<bool>(),
            s1: rng.gen::<u64>() & mask,
            s3: rng.gen::<u64>() & mask,
        }
    }

    /// Size of this seed in bits (`2k + 1`), the storage cost the paper
    /// attributes to one xi-family.
    pub fn bits(k: u32) -> u32 {
        2 * k + 1
    }
}

/// A concrete four-wise independent family over the domain `{0, .., 2^k - 1}`.
#[derive(Debug, Clone, Copy)]
pub struct BchFamily {
    seed: BchSeed,
    gf: GfContext,
}

impl BchFamily {
    /// Builds the family for domain size `2^k` from a seed.
    pub fn new(seed: BchSeed, gf: GfContext) -> Self {
        Self { seed, gf }
    }

    /// Builds the family with a fresh context for GF(2^k).
    pub fn from_seed(seed: BchSeed, k: u32) -> Self {
        Self::new(seed, GfContext::new(k))
    }

    /// The seed of this family.
    pub fn seed(&self) -> BchSeed {
        self.seed
    }

    /// The field context (shared across families over the same domain).
    pub fn context(&self) -> GfContext {
        self.gf
    }

    /// Evaluates `xi_i` as +1 or -1.
    #[inline]
    pub fn xi(&self, i: u64) -> i64 {
        debug_assert!(
            i < self.gf.order(),
            "index {i} outside domain 2^{}",
            self.gf.degree()
        );
        self.xi_with_cube(i, self.gf.cube(i))
    }

    /// Evaluates `xi_i` given a precomputed `cube = i^3` in GF(2^k).
    ///
    /// This is the hot path of sketch maintenance: `cube` is computed once
    /// per index per update and reused across all sketch instances.
    #[inline(always)]
    pub fn xi_with_cube(&self, i: u64, cube: u64) -> i64 {
        // parity(popcnt(s1 & i)) ^ parity(popcnt(s3 & i^3)) ^ b0
        // = parity(popcnt((s1 & i) ^ (s3 & i^3))) ^ b0
        let mixed = (self.seed.s1 & i) ^ (self.seed.s3 & cube);
        let bit = (mixed.count_ones() & 1) as u64 ^ self.seed.b0 as u64;
        1 - 2 * bit as i64
    }

    /// Evaluates `xi_i` (+1 or -1) with the shared precomputation of an
    /// [`XiContext`](crate::XiContext).
    #[inline(always)]
    pub fn xi_pre(&self, pre: IndexPre) -> i64 {
        self.xi_with_cube(pre.index, pre.cube)
    }

    /// Sums `xi` over a precomputed index list — the inner loop of sketch
    /// updates (covers are short: O(log n) entries).
    #[inline]
    pub fn sum_pre(&self, pres: &[IndexPre]) -> i64 {
        pres.iter().map(|&p| self.xi_pre(p)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Enumerates all seeds for a small k and checks that the expectation of
    /// the product of any t <= 4 distinct variables is exactly zero — the
    /// defining property of four-wise independence for symmetric +-1
    /// variables.
    #[test]
    fn exhaustive_four_wise_independence_k3() {
        let k = 3u32;
        let gf = GfContext::new(k);
        let n = 1u64 << k;
        let seeds: Vec<BchSeed> = (0..2u64)
            .flat_map(|b0| {
                (0..n).flat_map(move |s1| {
                    (0..n).map(move |s3| BchSeed {
                        b0: b0 == 1,
                        s1,
                        s3,
                    })
                })
            })
            .collect();
        assert_eq!(seeds.len(), 1 << (2 * k + 1));

        // All index tuples of size 1..=4 with strictly increasing indices.
        let idx: Vec<u64> = (0..n).collect();
        let mut tuples: Vec<Vec<u64>> = Vec::new();
        for a in 0..idx.len() {
            tuples.push(vec![idx[a]]);
            for b in a + 1..idx.len() {
                tuples.push(vec![idx[a], idx[b]]);
                for c in b + 1..idx.len() {
                    tuples.push(vec![idx[a], idx[b], idx[c]]);
                    for d in c + 1..idx.len() {
                        tuples.push(vec![idx[a], idx[b], idx[c], idx[d]]);
                    }
                }
            }
        }

        for tuple in &tuples {
            let mut sum: i64 = 0;
            for seed in &seeds {
                let fam = BchFamily::new(*seed, gf);
                let mut prod = 1i64;
                for &i in tuple {
                    prod *= fam.xi(i);
                }
                sum += prod;
            }
            assert_eq!(sum, 0, "E[product over {tuple:?}] != 0");
        }
    }

    /// Each individual variable is exactly unbiased over the seed space.
    #[test]
    fn exhaustive_unbiased_k4() {
        let k = 4u32;
        let gf = GfContext::new(k);
        let n = 1u64 << k;
        for i in 0..n {
            let mut sum = 0i64;
            for b0 in 0..2u64 {
                for s1 in 0..n {
                    for s3 in 0..n {
                        let fam = BchFamily::new(
                            BchSeed {
                                b0: b0 == 1,
                                s1,
                                s3,
                            },
                            gf,
                        );
                        sum += fam.xi(i);
                    }
                }
            }
            assert_eq!(sum, 0, "E[xi_{i}] != 0");
        }
    }

    /// Pairwise independence consequence used throughout the paper:
    /// E[xi_i * xi_j] = [i == j]. Checked exhaustively over seeds for k=4.
    #[test]
    fn exhaustive_pairwise_orthogonality_k4() {
        let k = 4u32;
        let gf = GfContext::new(k);
        let n = 1u64 << k;
        let total_seeds = (2 * n * n) as i64;
        for i in 0..n {
            for j in 0..n {
                let mut sum = 0i64;
                for b0 in 0..2u64 {
                    for s1 in 0..n {
                        for s3 in 0..n {
                            let fam = BchFamily::new(
                                BchSeed {
                                    b0: b0 == 1,
                                    s1,
                                    s3,
                                },
                                gf,
                            );
                            sum += fam.xi(i) * fam.xi(j);
                        }
                    }
                }
                let expect = if i == j { total_seeds } else { 0 };
                assert_eq!(sum, expect, "E[xi_{i} xi_{j}]");
            }
        }
    }

    #[test]
    fn xi_with_cube_matches_xi() {
        let mut rng = StdRng::seed_from_u64(7);
        for k in [5u32, 12, 20, 33] {
            let gf = GfContext::new(k);
            let fam = BchFamily::new(BchSeed::random(&mut rng, k), gf);
            for _ in 0..200 {
                let i = rng.gen::<u64>() & (gf.order() - 1);
                assert_eq!(fam.xi(i), fam.xi_with_cube(i, gf.cube(i)));
            }
        }
    }

    #[test]
    fn values_are_plus_minus_one() {
        let mut rng = StdRng::seed_from_u64(99);
        let gf = GfContext::new(16);
        let fam = BchFamily::new(BchSeed::random(&mut rng, 16), gf);
        for i in 0..1000u64 {
            let v = fam.xi(i);
            assert!(v == 1 || v == -1);
        }
    }

    #[test]
    fn seed_bits_matches_paper() {
        // "for xi_i with i of length k bits, the seed has length 2k+1 bits"
        assert_eq!(BchSeed::bits(10), 21);
        assert_eq!(BchSeed::bits(32), 65);
    }

    #[test]
    fn empirical_balance_large_domain() {
        // Over a large domain a single family should be near-balanced.
        let mut rng = StdRng::seed_from_u64(3);
        let k = 20u32;
        let gf = GfContext::new(k);
        let fam = BchFamily::new(BchSeed::random(&mut rng, k), gf);
        let n = 1u64 << k;
        let mut sum = 0i64;
        for i in 0..n {
            sum += fam.xi(i);
        }
        // Exact balance is not guaranteed for one seed, but the sum should be
        // far below n (it concentrates around O(sqrt(n))).
        assert!(
            (sum.unsigned_abs()) < n / 8,
            "family badly unbalanced: {sum} of {n}"
        );
    }
}
