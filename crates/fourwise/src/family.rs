//! The shared per-domain evaluation context of the BCH families.
//!
//! Every atomic sketch instance draws its own [`BchSeed`] and evaluates
//! variables through a [`BchFamily`]. The interface is shaped around the
//! sketch hot loop: callers first precompute per-index data shared by *all*
//! instances (the GF(2^k) cube, see [`IndexPre`]) through one
//! [`XiContext`], then evaluate each instance's variable with a few word
//! operations.

use crate::bch::{BchFamily, BchSeed};
use crate::gf2::GfContext;
use rand::Rng;
use std::sync::Arc;

/// Largest index-space size (in bits) for which [`XiContext`] eagerly
/// tabulates all GF(2^k) cubes (2^21 entries = 16 MiB). Above this the cube
/// is computed on the fly per index.
pub const CUBE_TABLE_MAX_BITS: u32 = 21;

/// Precomputed per-index data shared by every instance over the same domain.
///
/// This holds `i^3` in GF(2^k); computing it once per index per update
/// (instead of once per index per *instance*) is what makes maintaining
/// thousands of instances affordable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexPre {
    /// The index itself.
    pub index: u64,
    /// `index^3` in GF(2^k).
    pub cube: u64,
}

/// Shared, instance-independent evaluation context for a domain of `2^k`
/// indices.
///
/// Over moderate domains (`k <=` [`CUBE_TABLE_MAX_BITS`]) the context
/// eagerly tabulates `i³` for every index — cubes are seed-independent, so
/// this one table serves every sketch instance and turns the per-index
/// precomputation into an array load.
#[derive(Debug, Clone)]
pub struct XiContext {
    gf: GfContext,
    cube_table: Option<Arc<[u64]>>,
}

impl XiContext {
    /// Creates a context for indices in `[0, 2^k)`.
    pub fn new(k: u32) -> Self {
        let gf = GfContext::new(k);
        let cube_table = (k <= CUBE_TABLE_MAX_BITS).then(|| {
            let table: Vec<u64> = (0..(1u64 << k)).map(|i| gf.cube(i)).collect();
            Arc::from(table.into_boxed_slice())
        });
        Self { gf, cube_table }
    }

    /// Domain bits `k`.
    pub fn bits(&self) -> u32 {
        self.gf.degree()
    }

    /// Precomputes the shared per-index data.
    #[inline]
    pub fn precompute(&self, index: u64) -> IndexPre {
        let cube = match &self.cube_table {
            Some(table) => table[index as usize],
            None => self.gf.cube(index),
        };
        IndexPre { index, cube }
    }

    /// Instantiates a family from a seed drawn for this context.
    pub fn family(&self, seed: BchSeed) -> BchFamily {
        BchFamily::new(seed, self.gf)
    }

    /// Draws a fresh random seed appropriate for this context.
    pub fn random_seed<R: Rng + ?Sized>(&self, rng: &mut R) -> BchSeed {
        BchSeed::random(rng, self.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn context_roundtrip() {
        let mut rng = StdRng::seed_from_u64(21);
        let ctx = XiContext::new(14);
        let fam = ctx.family(ctx.random_seed(&mut rng));
        for i in [0u64, 1, 77, 16383] {
            let pre = ctx.precompute(i);
            assert_eq!(fam.xi(i), fam.xi_pre(pre));
            assert!(fam.xi(i) == 1 || fam.xi(i) == -1);
        }
    }

    #[test]
    fn sum_pre_matches_loop() {
        let mut rng = StdRng::seed_from_u64(22);
        let ctx = XiContext::new(10);
        let fam = ctx.family(ctx.random_seed(&mut rng));
        let pres: Vec<IndexPre> = (0..100u64).map(|i| ctx.precompute(i)).collect();
        let expect: i64 = pres.iter().map(|p| fam.xi(p.index)).sum();
        assert_eq!(fam.sum_pre(&pres), expect);
    }

    #[test]
    fn deterministic_given_seed() {
        let ctx = XiContext::new(12);
        let seed = BchSeed {
            b0: true,
            s1: 0b1010_1010_1010,
            s3: 0b0110_0110_0110,
        };
        let f1 = ctx.family(seed);
        let f2 = ctx.family(seed);
        for i in 0..4096u64 {
            assert_eq!(f1.xi(i), f2.xi(i));
        }
    }
}
