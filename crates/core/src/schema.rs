//! Sketch schemas: the shared randomness that makes sketches combinable.
//!
//! Two sketches can only be multiplied into a join estimate if they were
//! built over the *same* ξ-families (Section 4.1: `X_I`, `X_E` for `R` and
//! `Y_I`, `Y_E` for `S` share the ξ's). A [`SketchSchema`] captures that
//! shared state: per-dimension domain configuration, the boosting grid shape
//! `k1 × k2` (Figure 1), and one independently drawn seed per (instance,
//! dimension). Sketch sets hold an `Arc` to their schema and estimation
//! verifies schema identity.

use crate::error::{Result, SketchError};
use crate::kernel::BlockLane;
use dyadic::DyadicDomain;
use fourwise::{Lane, XiBlock, XiContext, XiKind, XiSeed};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Per-dimension sketch-domain configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimSpec {
    /// Domain bits of the *sketch* coordinate space for this dimension
    /// (after any endpoint transform; the tripled domain of Section 5.2 needs
    /// `data_bits + 2`).
    pub sketch_bits: u32,
    /// Maximum dyadic level used by covers (Section 6.5). Use `sketch_bits`
    /// for the standard fully-dyadic sketch, `0` for the paper's "standard"
    /// (per-coordinate) sketch.
    pub max_level: u32,
}

impl DimSpec {
    /// Fully dyadic configuration for a domain of `2^bits` coordinates.
    pub fn dyadic(bits: u32) -> Self {
        Self {
            sketch_bits: bits,
            max_level: bits,
        }
    }

    /// Truncated configuration (Section 6.5).
    pub fn with_max_level(bits: u32, max_level: u32) -> Self {
        Self {
            sketch_bits: bits,
            max_level: max_level.min(bits),
        }
    }
}

/// Shape of the boosting grid (Section 2.3, Figure 1): estimates are means
/// over `k1` i.i.d. atomic estimates, then the median over `k2` such means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoostShape {
    /// Averaging width (variance reduction).
    pub k1: usize,
    /// Median count (confidence boosting); odd values make the median exact.
    pub k2: usize,
}

impl BoostShape {
    /// Creates a shape; both factors must be positive.
    pub fn new(k1: usize, k2: usize) -> Self {
        assert!(k1 >= 1 && k2 >= 1, "boost shape factors must be positive");
        Self { k1, k2 }
    }

    /// Total number of atomic sketch instances.
    pub fn instances(&self) -> usize {
        self.k1 * self.k2
    }
}

static SCHEMA_COUNTER: AtomicU64 = AtomicU64::new(1);

/// The shared-randomness contract for a family of combinable sketches.
#[derive(Debug)]
pub struct SketchSchema<const D: usize> {
    id: u64,
    kind: XiKind,
    shape: BoostShape,
    dims: [DimSpec; D],
    dyadic: [DyadicDomain; D],
    xi_ctx: [XiContext; D],
    /// One seed per (instance, dimension); instance `i = row * k1 + col`.
    seeds: Vec<[XiSeed; D]>,
    /// Per dimension, the instance seeds re-packed into bit-sliced
    /// evaluation blocks of 512 consecutive instances (the last block may
    /// be partial) — the blocked kernels' working set. Packed lazily on
    /// first blocked-kernel use, so a schema that only ever runs the scalar
    /// oracle never packs it.
    seed_blocks: OnceLock<[Vec<XiBlock<BlockLane>>; D]>,
}

impl<const D: usize> SketchSchema<D> {
    /// Draws a fresh schema. All `k1·k2·D` seeds are independent, matching
    /// the paper's requirement that instances be i.i.d. and that dimensions
    /// use mutually independent ξ-families.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        kind: XiKind,
        shape: BoostShape,
        dims: [DimSpec; D],
    ) -> Arc<Self> {
        assert!(D >= 1, "schemas need at least one dimension");
        let dyadic = dims.map(|d| DyadicDomain::new(d.sketch_bits));
        // ξ indices are dyadic node ids, which need bits+1 bits.
        let xi_ctx = dims.map(|d| XiContext::new(kind, d.sketch_bits + 1));
        let mut seeds = Vec::with_capacity(shape.instances());
        for _ in 0..shape.instances() {
            let mut row = [XiSeed::random(rng, kind, 1); D];
            for (i, ctx) in xi_ctx.iter().enumerate() {
                row[i] = ctx.random_seed(rng);
            }
            seeds.push(row);
        }
        Arc::new(Self {
            id: SCHEMA_COUNTER.fetch_add(1, Ordering::Relaxed),
            kind,
            shape,
            dims,
            dyadic,
            xi_ctx,
            seeds,
            seed_blocks: OnceLock::new(),
        })
    }

    /// Rebuilds a schema from explicit seeds (snapshot restore; see the
    /// `persist` module). The restored schema gets a fresh process-local
    /// identity: sketches restored *together* share it, which preserves
    /// combinability exactly for sketches that were combinable when captured.
    pub(crate) fn restore(
        kind: XiKind,
        shape: BoostShape,
        dims: [DimSpec; D],
        seeds: Vec<[XiSeed; D]>,
    ) -> Arc<Self> {
        assert_eq!(seeds.len(), shape.instances(), "seed/shape mismatch");
        let dyadic = dims.map(|d| DyadicDomain::new(d.sketch_bits));
        let xi_ctx: [XiContext; D] =
            std::array::from_fn(|i| XiContext::new(kind, dims[i].sketch_bits + 1));
        Arc::new(Self {
            id: SCHEMA_COUNTER.fetch_add(1, Ordering::Relaxed),
            kind,
            shape,
            dims,
            dyadic,
            xi_ctx,
            seeds,
            seed_blocks: OnceLock::new(),
        })
    }

    /// Unique identity of this schema within the process.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The xi construction in use.
    pub fn kind(&self) -> XiKind {
        self.kind
    }

    /// Boosting grid shape.
    pub fn shape(&self) -> BoostShape {
        self.shape
    }

    /// Number of atomic instances (`k1 · k2`).
    pub fn instances(&self) -> usize {
        self.shape.instances()
    }

    /// Per-dimension configuration.
    pub fn dims(&self) -> &[DimSpec; D] {
        &self.dims
    }

    /// Per-dimension dyadic domains.
    pub fn dyadic(&self) -> &[DyadicDomain; D] {
        &self.dyadic
    }

    /// Per-dimension ξ evaluation contexts.
    pub fn xi_ctx(&self) -> &[XiContext; D] {
        &self.xi_ctx
    }

    /// Seeds of one instance.
    pub fn instance_seeds(&self, instance: usize) -> &[XiSeed; D] {
        &self.seeds[instance]
    }

    /// Bit-sliced evaluation blocks of dimension `dim`: block `b` packs the
    /// seeds of instances `[512·b, 512·(b+1))` (the last block holds the
    /// remainder). The first call packs the planes from the instance seeds
    /// (thread-safe, once per schema).
    pub fn seed_blocks(&self, dim: usize) -> &[XiBlock<fourwise::WideLane512>] {
        &self.seed_blocks.get_or_init(|| {
            std::array::from_fn(|dim| {
                self.seeds
                    .chunks(BlockLane::LANES)
                    .map(|chunk| {
                        let col: Vec<XiSeed> = chunk.iter().map(|row| row[dim]).collect();
                        XiBlock::pack(&self.xi_ctx[dim], &col)
                    })
                    .collect()
            })
        })[dim]
    }

    /// Number of instance blocks per dimension.
    pub fn instance_blocks(&self) -> usize {
        self.instances().div_ceil(BlockLane::LANES)
    }

    /// Validates that a sketch coordinate fits dimension `dim`.
    pub fn check_coord(&self, dim: usize, coord: u64) -> Result<()> {
        let max = (1u64 << self.dims[dim].sketch_bits) - 1;
        if coord > max {
            Err(SketchError::DomainOverflow { coord, max, dim })
        } else {
            Ok(())
        }
    }

    /// Seed storage in *bits* across all instances and dimensions — the
    /// paper's accounting charges `2k + 1` bits per BCH family.
    pub fn seed_bits(&self) -> u64 {
        let per_dim: u64 = self
            .dims
            .iter()
            .map(|d| 2 * (d.sketch_bits as u64 + 1) + 1)
            .sum();
        self.instances() as u64 * per_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn schema_shape_and_ids() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = SketchSchema::<2>::new(
            &mut rng,
            XiKind::Bch,
            BoostShape::new(4, 3),
            [DimSpec::dyadic(8); 2],
        );
        let b = SketchSchema::<2>::new(
            &mut rng,
            XiKind::Bch,
            BoostShape::new(4, 3),
            [DimSpec::dyadic(8); 2],
        );
        assert_ne!(a.id(), b.id());
        assert_eq!(a.instances(), 12);
        assert_eq!(a.instance_seeds(0).len(), 2);
        // Seeds differ across instances and dims with overwhelming probability.
        assert_ne!(a.instance_seeds(0), a.instance_seeds(1));
    }

    #[test]
    fn coordinate_validation() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = SketchSchema::<1>::new(
            &mut rng,
            XiKind::Bch,
            BoostShape::new(1, 1),
            [DimSpec::dyadic(4)],
        );
        assert!(s.check_coord(0, 15).is_ok());
        assert_eq!(
            s.check_coord(0, 16),
            Err(SketchError::DomainOverflow {
                coord: 16,
                max: 15,
                dim: 0
            })
        );
    }

    #[test]
    fn seed_bits_accounting() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = SketchSchema::<1>::new(
            &mut rng,
            XiKind::Bch,
            BoostShape::new(2, 2),
            [DimSpec::dyadic(10)],
        );
        // node bits = 11, per-family seed = 2*11+1 = 23 bits, 4 instances.
        assert_eq!(s.seed_bits(), 4 * 23);
    }

    #[test]
    fn seed_blocks_cover_all_instances() {
        let mut rng = StdRng::seed_from_u64(4);
        // 65 instances: one partial block, two occupied words.
        let s = SketchSchema::<2>::new(
            &mut rng,
            XiKind::Bch,
            BoostShape::new(13, 5),
            [DimSpec::dyadic(8); 2],
        );
        assert_eq!(s.instance_blocks(), 1);
        for dim in 0..2 {
            let blocks = s.seed_blocks(dim);
            assert_eq!(blocks.len(), 1);
            assert_eq!(blocks[0].lanes(), 65);
            assert_eq!(blocks[0].occupied_words(), 2);
        }
        // Block lanes evaluate exactly the per-instance families.
        let ctx = &s.xi_ctx()[1];
        let pre = ctx.precompute(37);
        for inst in [0usize, 63, 64] {
            let fam = ctx.family(s.instance_seeds(inst)[1]);
            let got = 1 - 2 * s.seed_blocks(1)[0].eval_mask(pre).bit(inst) as i64;
            assert_eq!(got, fam.xi_pre(pre), "instance {inst}");
        }
    }

    /// Every lane of the packed blocks evaluates exactly its instance's
    /// family, in dimension 0.
    fn assert_blocks_mirror_seeds(s: &SketchSchema<2>, instances: &[usize]) {
        let ctx = &s.xi_ctx()[0];
        let pre = ctx.precompute(99);
        for &inst in instances {
            let fam = ctx.family(s.instance_seeds(inst)[0]);
            let block = &s.seed_blocks(0)[inst / 512];
            let got = 1 - 2 * block.eval_mask(pre).bit(inst % 512) as i64;
            assert_eq!(got, fam.xi_pre(pre), "instance {inst}");
        }
    }

    #[test]
    fn wide_seed_blocks_mirror_narrow_packing() {
        let mut rng = StdRng::seed_from_u64(5);
        // 300 instances: one partial block with 5 of 8 words occupied.
        let s = SketchSchema::<2>::new(
            &mut rng,
            XiKind::Bch,
            BoostShape::new(150, 2),
            [DimSpec::dyadic(8); 2],
        );
        assert_eq!(s.instance_blocks(), 1);
        for dim in 0..2 {
            let blocks = s.seed_blocks(dim);
            assert_eq!(blocks.len(), 1);
            assert_eq!(blocks[0].lanes(), 300);
            assert_eq!(blocks[0].occupied_words(), 5);
        }
        assert_blocks_mirror_seeds(&s, &[0, 63, 64, 255, 256, 299]);
    }

    #[test]
    fn wide512_seed_blocks_mirror_narrow_packing() {
        let mut rng = StdRng::seed_from_u64(6);
        // 520 instances: one full 512-lane block plus an 8-lane tail.
        let s = SketchSchema::<2>::new(
            &mut rng,
            XiKind::Bch,
            BoostShape::new(260, 2),
            [DimSpec::dyadic(8); 2],
        );
        assert_eq!(s.instance_blocks(), 2);
        let blocks = s.seed_blocks(0);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].lanes(), 512);
        assert_eq!(blocks[1].lanes(), 8);
        assert_eq!(blocks[1].occupied_words(), 1);
        assert_blocks_mirror_seeds(&s, &[0, 63, 64, 255, 256, 511, 512, 519]);
    }

    #[test]
    fn max_level_clamped() {
        let d = DimSpec::with_max_level(6, 99);
        assert_eq!(d.max_level, 6);
        let d = DimSpec::with_max_level(6, 2);
        assert_eq!(d.max_level, 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_boost_shape_rejected() {
        let _ = BoostShape::new(0, 3);
    }
}
