//! Bit-sliced multi-instance ξ evaluation: the core of the blocked build
//! *and* query kernels.
//!
//! Sketch maintenance evaluates the *same* index against thousands of
//! independent family instances. The scalar path ([`XiFamily::xi_pre`])
//! dispatches per instance and pays a popcount each time. This module
//! transposes the problem: the seeds of up to `L::LANES` instances are
//! packed into *bit planes* (`plane[b]` holds bit `b` of every lane's seed),
//! so one index is evaluated for the whole block with one lane-wise XOR per
//! set bit of the index — `O(k)` word operations for a full block instead of
//! `O(k)` per instance.
//!
//! Everything here is generic over the [`Lane`] word: the sketch kernels run
//! the [`WideLane512`] (`[u64; 8]`, 512 instances) width, multi-word
//! lane-wise operations that LLVM unrolls and autovectorizes; the one-word
//! `u64` width (64 instances, [`BLOCK_LANES`]) is the type parameters'
//! default and the building block these tests check the wider words
//! against, and [`WideLane`] (`[u64; 4]`, 256 instances) is a second
//! multi-word instantiation they check. All widths produce bit-identical
//! per-lane sums — lane width only changes how many instances share one
//! pass.
//!
//! Partly filled blocks (a schema smaller than the lane width, or the tail
//! of a larger one) carry an *occupancy* word count: every backing word at
//! or above `lanes.div_ceil(64)` is all-zero in the seed planes, every sign
//! mask, and every counter plane, so the fold loops run prefix-limited
//! ([`Lane::xor_assign_prefix`] and friends) and skip the dead words — a
//! 128-lane block of 512 lanes pays for 2 words, not 8. Each prefix fold
//! runs a fixed trip count of 1, 2 or 4 words, so it unrolls like the full
//! fold. (Majority-occupied blocks stay on the full fixed-width code:
//! folding the provably-zero dead words is free.)
//!
//! For the BCH family the sign of lane `j` is
//! `b0_j ⊕ <s1_j, i> ⊕ <s3_j, i³>`; XOR-ing the `s1` plane of every set bit
//! of `i` and the `s3` plane of every set bit of `i³` computes all lanes'
//! inner products simultaneously (the classic bit-slicing of GF(2) linear
//! forms). The polynomial family is not linear over GF(2), so its block
//! falls back to per-lane Horner evaluation behind the same interface — the
//! blocked kernel stays construction-agnostic and bit-identical either way.
//!
//! Component sums over dyadic covers use [`LaneCounter`], a carry-save adder
//! network over sign masks: per cover node the block mask is folded into
//! vertical counter planes (two lane-wise ops per occupied plane), and
//! per-lane sums are extracted once at the end. Summing a ±1 mask `m` over
//! `n` nodes is `n - 2·ones(lane)`, exactly the integer sum the scalar
//! oracle computes.

use crate::family::{IndexPre, XiContext, XiKind, XiSeed};
use crate::lane::{Lane, WideLane, WideLane512};
use crate::poly::PolyFamily;

#[cfg(doc)]
use crate::family::XiFamily;

/// Instances per block at the one-word (`u64`) lane width.
pub const BLOCK_LANES: usize = 64;

/// Instances per block at the 256-lane ([`WideLane`]) width.
pub const WIDE_LANES: usize = WideLane::LANES;

/// Instances per block at the 512-lane ([`WideLane512`]) width: the
/// sketch kernels' block size.
pub const WIDE512_LANES: usize = WideLane512::LANES;

/// Upper bound on the number of masks a [`LaneCounter`] can absorb
/// (`2^PLANES - 1`). Dyadic covers have at most `2·bits ≤ 126` nodes, within
/// bounds for every supported domain.
const PLANES: usize = 8;

/// Packed seeds of up to `L::LANES` BCH family instances over one domain,
/// stored as bit planes for one-pass block evaluation.
#[derive(Debug, Clone)]
pub struct BchBlock<L: Lane = u64> {
    lanes: u32,
    /// Occupied backing words, `lanes.div_ceil(64)`: every seed plane is
    /// all-zero at and above this word, so the fold loops skip them.
    words: u32,
    /// Lane `j` holds seed `j`'s sign-flip bit.
    b0: L,
    /// `s1[b]` lane `j` = bit `b` of seed `j`'s first-order mask.
    s1: Box<[L]>,
    /// `s3[b]` lane `j` = bit `b` of seed `j`'s third-order mask.
    s3: Box<[L]>,
}

impl<L: Lane> BchBlock<L> {
    fn pack(seeds: impl Iterator<Item = crate::bch::BchSeed>, k: u32) -> Self {
        let mut b0 = L::zero();
        let mut s1 = vec![L::zero(); k as usize].into_boxed_slice();
        let mut s3 = vec![L::zero(); k as usize].into_boxed_slice();
        let mut lanes = 0u32;
        for (j, seed) in seeds.enumerate() {
            assert!(j < L::LANES, "xi block holds at most {} seeds", L::LANES);
            if seed.b0 {
                b0.set_bit(j);
            }
            for (b, plane) in s1.iter_mut().enumerate() {
                if (seed.s1 >> b) & 1 == 1 {
                    plane.set_bit(j);
                }
            }
            for (b, plane) in s3.iter_mut().enumerate() {
                if (seed.s3 >> b) & 1 == 1 {
                    plane.set_bit(j);
                }
            }
            lanes += 1;
        }
        let words = (lanes as usize).div_ceil(64) as u32;
        Self {
            lanes,
            words,
            b0,
            s1,
            s3,
        }
    }

    /// Sign mask of the block at one index: lane `j`'s bit set ⇔ lane `j`'s
    /// `xi = -1`. Bits at or above the block's lane count are zero (partial
    /// tail blocks fold only their occupied backing words).
    #[inline]
    pub fn eval_mask(&self, pre: IndexPre) -> L {
        let words = self.words as usize;
        let mut acc = self.b0;
        let mut i = pre.index;
        while i != 0 {
            acc.xor_assign_prefix(&self.s1[i.trailing_zeros() as usize], words);
            i &= i - 1;
        }
        let mut c = pre.cube;
        while c != 0 {
            acc.xor_assign_prefix(&self.s3[c.trailing_zeros() as usize], words);
            c &= c - 1;
        }
        acc
    }

    fn lanes(&self) -> usize {
        self.lanes as usize
    }
}

/// Block of polynomial family instances. The construction is not GF(2)-linear
/// so lanes evaluate individually, packed into the same mask interface.
#[derive(Debug, Clone)]
pub struct PolyBlock {
    fams: Vec<PolyFamily>,
}

impl PolyBlock {
    /// Sign mask at one index (see [`BchBlock::eval_mask`]).
    #[inline]
    pub fn eval_mask<L: Lane>(&self, pre: IndexPre) -> L {
        let mut mask = L::zero();
        for (j, fam) in self.fams.iter().enumerate() {
            if fam.xi(pre.index) < 0 {
                mask.set_bit(j);
            }
        }
        mask
    }
}

/// Packed evaluation block for up to `L::LANES` family instances.
///
/// The block analogue of [`XiFamily`]: built once per (schema, dimension,
/// instance block) and reused for every update. Generic over the [`Lane`]
/// width; `XiBlock` without parameters is the portable 64-lane block.
#[derive(Debug, Clone)]
pub enum XiBlock<L: Lane = u64> {
    /// Bit-sliced BCH block.
    Bch(BchBlock<L>),
    /// Per-lane polynomial block.
    Poly(PolyBlock),
}

impl<L: Lane> XiBlock<L> {
    /// Packs a block from per-instance seeds drawn for `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty, holds more than `L::LANES` entries, or
    /// any seed kind does not match the context kind.
    pub fn pack(ctx: &XiContext, seeds: &[XiSeed]) -> Self {
        assert!(
            !seeds.is_empty() && seeds.len() <= L::LANES,
            "xi blocks hold 1..={} seeds, got {}",
            L::LANES,
            seeds.len()
        );
        match ctx.kind() {
            XiKind::Bch => XiBlock::Bch(BchBlock::pack(
                seeds.iter().map(|s| match s {
                    XiSeed::Bch(b) => *b,
                    XiSeed::Poly(_) => panic!("xi seed kind does not match context kind"),
                }),
                ctx.bits(),
            )),
            XiKind::Poly => XiBlock::Poly(PolyBlock {
                fams: seeds
                    .iter()
                    .map(|s| match s {
                        XiSeed::Poly(p) => PolyFamily::new(*p),
                        XiSeed::Bch(_) => panic!("xi seed kind does not match context kind"),
                    })
                    .collect(),
            }),
        }
    }

    /// Number of occupied lanes.
    pub fn lanes(&self) -> usize {
        match self {
            XiBlock::Bch(b) => b.lanes(),
            XiBlock::Poly(p) => p.fams.len(),
        }
    }

    /// Number of occupied backing words (`lanes().div_ceil(64)`) — the
    /// occupancy mask partial tail blocks hand to the prefix-limited folds.
    #[inline]
    pub fn occupied_words(&self) -> usize {
        match self {
            XiBlock::Bch(b) => b.words as usize,
            XiBlock::Poly(p) => p.fams.len().div_ceil(64),
        }
    }

    /// Sign mask of the whole block at one index: lane `j`'s bit set ⇔ lane
    /// `j`'s `xi_i = -1`. Bits at or above [`XiBlock::lanes`] are
    /// unspecified.
    #[inline]
    pub fn eval_mask(&self, pre: IndexPre) -> L {
        match self {
            XiBlock::Bch(b) => b.eval_mask(pre),
            XiBlock::Poly(p) => p.eval_mask(pre),
        }
    }

    /// Per-lane `Σ xi` over a precomputed index list — the block analogue of
    /// [`XiFamily::sum_pre`]. Writes `out[j]` for every occupied lane `j`
    /// (`out` must hold at least [`XiBlock::lanes`] entries); `counter` is
    /// cleared and reused as carry-save scratch. Lists longer than
    /// [`LaneCounter::CAPACITY`] are folded in chunks.
    #[inline]
    pub fn sum_pre_into(&self, pres: &[IndexPre], counter: &mut LaneCounter<L>, out: &mut [i64]) {
        let out = &mut out[..self.lanes()];
        // Partly filled blocks only occupy a prefix of the backing words:
        // every mask (and therefore every counter plane) is zero above it,
        // so the carry-save folds run prefix-limited.
        let words = self.occupied_words();
        let mut chunks = pres.chunks(LaneCounter::<L>::CAPACITY as usize);
        // First chunk writes, later chunks accumulate; covers are far below
        // capacity, so the hot path is exactly one write pass.
        let first = chunks.next().unwrap_or(&[]);
        counter.clear();
        for p in first {
            counter.add_mask_prefix(self.eval_mask(*p), words);
        }
        counter.signed_sums_into(out);
        for chunk in chunks {
            counter.clear();
            for p in chunk {
                counter.add_mask_prefix(self.eval_mask(*p), words);
            }
            counter.signed_sums_accum(out);
        }
    }
}

/// Reusable query-side block-evaluation scratch: one [`LaneCounter`] plus a
/// bank of per-lane sum buffers ("slots").
///
/// Estimation evaluates *several* index lists against the same instance
/// block — one per (dimension, cover-list) pair of the query — and needs all
/// the per-lane sums alive at once to form word products. A `BlockSums`
/// holds them side by side so the whole query side of a block is evaluated
/// with zero allocation after the first use.
#[derive(Debug, Clone)]
pub struct BlockSums<L: Lane = u64> {
    counter: LaneCounter<L>,
    /// Slot `s` occupies `sums[s*L::LANES..(s+1)*L::LANES]`.
    sums: Vec<i64>,
    /// Scratch for [`BlockSums::slot_products`] (one lane word's worth).
    prod: Vec<i64>,
}

impl<L: Lane> Default for BlockSums<L> {
    fn default() -> Self {
        Self {
            counter: LaneCounter::new(),
            sums: Vec::new(),
            prod: Vec::new(),
        }
    }
}

impl<L: Lane> BlockSums<L> {
    /// Fresh scratch with no slots; call [`BlockSums::reserve_slots`] or let
    /// [`BlockSums::eval_into`] grow it on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures at least `slots` per-lane buffers exist (grow-only).
    pub fn reserve_slots(&mut self, slots: usize) {
        if self.sums.len() < slots * L::LANES {
            self.sums.resize(slots * L::LANES, 0);
        }
    }

    /// Number of available slots.
    pub fn slots(&self) -> usize {
        self.sums.len() / L::LANES
    }

    /// Evaluates per-lane `Σ xi` of `block` over `pres` into slot `slot`
    /// (the block analogue of [`XiFamily::sum_pre`], see
    /// [`XiBlock::sum_pre_into`]). Grows the slot bank as needed.
    #[inline]
    pub fn eval_into(&mut self, slot: usize, block: &XiBlock<L>, pres: &[IndexPre]) {
        self.reserve_slots(slot + 1);
        let buf = &mut self.sums[slot * L::LANES..(slot + 1) * L::LANES];
        block.sum_pre_into(pres, &mut self.counter, buf);
    }

    /// The per-lane sums of slot `slot`; entries at or above the evaluated
    /// block's lane count are unspecified.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never evaluated or reserved.
    #[inline]
    pub fn lane_sums(&self, slot: usize) -> &[i64] {
        &self.sums[slot * L::LANES..(slot + 1) * L::LANES]
    }

    /// Per-lane product across slots: entry `j` of the result is
    /// `Π_s lane_sums(slots[s])[j]` over the first `lanes` lanes, multiplied
    /// in slot order — bit-identical to the per-lane scalar fold the query
    /// kernels used to run, but restructured as plain elementwise `i64`
    /// loops over contiguous buffers so the inner loop autovectorizes at
    /// every lane width. Single-slot calls borrow the sums directly.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty or any slot was never evaluated.
    #[inline]
    pub fn slot_products(&mut self, slots: &[usize], lanes: usize) -> &[i64] {
        debug_assert!(lanes <= L::LANES);
        let (&first, rest) = slots
            .split_first()
            .expect("slot_products needs at least one slot");
        let sums = &self.sums;
        let slot = |s: usize| &sums[s * L::LANES..s * L::LANES + lanes];
        if rest.is_empty() {
            return slot(first);
        }
        self.prod.resize(L::LANES, 0);
        let out = &mut self.prod[..lanes];
        out.copy_from_slice(slot(first));
        for &s in rest {
            for (p, v) in out.iter_mut().zip(slot(s)) {
                *p *= *v;
            }
        }
        out
    }
}

/// Vertical (bit-sliced) per-lane counter: accumulates sign masks with a
/// carry-save adder network and extracts per-lane ±1 sums at the end.
#[derive(Debug, Clone)]
pub struct LaneCounter<L: Lane = u64> {
    /// `planes[p]` lane `j` = bit `p` of lane `j`'s count of set masks.
    planes: [L; PLANES],
    added: u32,
}

impl<L: Lane> Default for LaneCounter<L> {
    fn default() -> Self {
        Self {
            planes: [L::zero(); PLANES],
            added: 0,
        }
    }
}

impl<L: Lane> LaneCounter<L> {
    /// Most masks one counter can absorb between clears.
    pub const CAPACITY: u32 = (1 << PLANES) - 1;

    /// Fresh all-zero counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets to the all-zero state.
    #[inline]
    pub fn clear(&mut self) {
        self.planes = [L::zero(); PLANES];
        self.added = 0;
    }

    /// Number of masks absorbed since the last clear.
    pub fn len(&self) -> u32 {
        self.added
    }

    /// Whether no masks have been absorbed.
    pub fn is_empty(&self) -> bool {
        self.added == 0
    }

    /// Folds one sign mask into the per-lane counts (ripple-carry over the
    /// occupied planes; amortized ~2 lane-wise ops per mask).
    ///
    /// # Panics
    ///
    /// Panics past [`LaneCounter::CAPACITY`] masks — a silent wrap would
    /// corrupt every lane's count, so the limit is enforced in release
    /// builds too (the predictable branch costs ~1 cycle per mask).
    #[inline]
    pub fn add_mask(&mut self, mask: L) {
        self.add_mask_prefix(mask, L::WORDS)
    }

    /// [`LaneCounter::add_mask`] restricted to the first `words` backing
    /// words — the occupancy skip for partial tail blocks. Sound only when
    /// `mask` (and every mask since the last clear) is all-zero at and above
    /// word `words`: the counter planes then stay zero there too, and the
    /// prefix-limited carry-save step is bit-identical to the full one.
    #[inline]
    pub fn add_mask_prefix(&mut self, mask: L, words: usize) {
        assert!(
            self.added < Self::CAPACITY,
            "LaneCounter overflow: more than {} masks",
            Self::CAPACITY
        );
        let mut carry = mask;
        for plane in &mut self.planes {
            if carry.is_zero_prefix(words) {
                break;
            }
            let t = plane.and_prefix(&carry, words);
            plane.xor_assign_prefix(&carry, words);
            carry = t;
        }
        self.added += 1;
    }

    /// Count of set mask bits seen by one lane.
    #[inline]
    pub fn count(&self, lane: usize) -> u32 {
        let mut c = 0u32;
        for (p, plane) in self.planes.iter().enumerate() {
            c += (plane.bit(lane) as u32) << p;
        }
        c
    }

    /// Writes, per lane, the signed sum `Σ (1 - 2·bit) = added - 2·count`
    /// (interpreting each absorbed mask bit as a ±1 value, set ⇒ −1).
    #[inline]
    pub fn signed_sums_into(&self, out: &mut [i64]) {
        self.signed_sums(out, false)
    }

    /// Like [`LaneCounter::signed_sums_into`] but adds into `out` instead of
    /// overwriting (used to fold capacity-sized chunks of longer lists).
    #[inline]
    pub fn signed_sums_accum(&self, out: &mut [i64]) {
        self.signed_sums(out, true)
    }

    #[inline]
    fn signed_sums(&self, out: &mut [i64], accumulate: bool) {
        debug_assert!(out.len() <= L::LANES);
        let n = self.added as i64;
        // Walk backing words in the outer loop so the inner extraction runs
        // on plain u64 shifts regardless of the lane width. Within a word,
        // the 8 vertical counter planes transpose to one count *byte* per
        // lane (8×8 bit-matrix transpose, 8 lanes at a time) — a handful of
        // word ops per 8 lanes instead of one plane walk per lane. Counts
        // fit a byte exactly because CAPACITY = 2^PLANES - 1 = 255.
        for (w, word_out) in out.chunks_mut(64).enumerate() {
            let planes: [u64; PLANES] = std::array::from_fn(|p| self.planes[p].word(w));
            for (g, group) in word_out.chunks_mut(8).enumerate() {
                let mut x = 0u64;
                for (p, plane) in planes.iter().enumerate() {
                    x |= ((plane >> (8 * g)) & 0xFF) << (8 * p);
                }
                let t = transpose8(x);
                for (i, slot) in group.iter_mut().enumerate() {
                    let c = (t >> (8 * i)) & 0xFF;
                    let sum = n - 2 * c as i64;
                    *slot = if accumulate { *slot + sum } else { sum };
                }
            }
        }
    }
}

/// Transposes an 8×8 bit matrix held row-major in a `u64` (byte `r` = row
/// `r`, bit `c` of it = element `(r, c)`) — Hacker's Delight §7-3. Used to
/// turn 8 vertical counter-plane bytes into 8 per-lane count bytes.
#[inline(always)]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::XiFamily;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng};

    fn random_block(kind: XiKind, k: u32, lanes: usize, seed: u64) -> (XiContext, Vec<XiSeed>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ctx = XiContext::new(kind, k);
        let seeds: Vec<XiSeed> = (0..lanes).map(|_| ctx.random_seed(&mut rng)).collect();
        (ctx, seeds)
    }

    fn eval_mask_matches_scalar_families_at<L: Lane>() {
        for kind in [XiKind::Bch, XiKind::Poly] {
            for lanes in [1usize, 7, L::LANES] {
                let (ctx, seeds) = random_block(kind, 12, lanes, 31 + lanes as u64);
                let block = XiBlock::<L>::pack(&ctx, &seeds);
                assert_eq!(block.lanes(), lanes);
                let fams: Vec<XiFamily> = seeds.iter().map(|&s| ctx.family(s)).collect();
                for i in [0u64, 1, 2, 77, 4095] {
                    let pre = ctx.precompute(i);
                    let mask = block.eval_mask(pre);
                    for (j, fam) in fams.iter().enumerate() {
                        let expect = fam.xi_pre(pre);
                        let got = 1 - 2 * mask.bit(j) as i64;
                        assert_eq!(got, expect, "{kind:?} lane {j} index {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn eval_mask_matches_scalar_families() {
        eval_mask_matches_scalar_families_at::<u64>();
        eval_mask_matches_scalar_families_at::<WideLane>();
        eval_mask_matches_scalar_families_at::<WideLane512>();
    }

    fn sum_pre_into_matches_scalar_sum_at<L: Lane>() {
        let mut rng = StdRng::seed_from_u64(5);
        for kind in [XiKind::Bch, XiKind::Poly] {
            // 100 stays within one LaneCounter chunk; 1000 forces the
            // multi-chunk accumulation path.
            for n in [100usize, 1000] {
                let (ctx, seeds) = random_block(kind, 10, L::LANES, 77);
                let block = XiBlock::<L>::pack(&ctx, &seeds);
                let pres: Vec<IndexPre> = (0..n)
                    .map(|_| ctx.precompute(rng.gen_range(0..1024u64)))
                    .collect();
                let mut counter = LaneCounter::<L>::new();
                let mut sums = vec![0i64; L::LANES];
                block.sum_pre_into(&pres, &mut counter, &mut sums);
                for (j, &seed) in seeds.iter().enumerate() {
                    let fam = ctx.family(seed);
                    assert_eq!(sums[j], fam.sum_pre(&pres), "{kind:?} n={n} lane {j}");
                }
            }
        }
    }

    #[test]
    fn sum_pre_into_matches_scalar_sum() {
        sum_pre_into_matches_scalar_sum_at::<u64>();
        sum_pre_into_matches_scalar_sum_at::<WideLane>();
        sum_pre_into_matches_scalar_sum_at::<WideLane512>();
    }

    fn wide_and_narrow_blocks_agree_lane_for_lane_at<L: Lane>() {
        // The same L::LANES seeds packed as one wide block and L::WORDS
        // one-word blocks must produce identical per-lane sums: every
        // backing word is a self-contained 64-lane block.
        let mut rng = StdRng::seed_from_u64(91);
        for kind in [XiKind::Bch, XiKind::Poly] {
            let (ctx, seeds) = random_block(kind, 11, L::LANES, 92);
            let wide = XiBlock::<L>::pack(&ctx, &seeds);
            let pres: Vec<IndexPre> = (0..120)
                .map(|_| ctx.precompute(rng.gen_range(0..2048u64)))
                .collect();
            let mut wide_counter = LaneCounter::<L>::new();
            let mut wide_sums = vec![0i64; L::LANES];
            wide.sum_pre_into(&pres, &mut wide_counter, &mut wide_sums);
            let mut counter = LaneCounter::<u64>::new();
            let mut sums = [0i64; BLOCK_LANES];
            for (b, chunk) in seeds.chunks(BLOCK_LANES).enumerate() {
                let narrow = XiBlock::<u64>::pack(&ctx, chunk);
                narrow.sum_pre_into(&pres, &mut counter, &mut sums);
                assert_eq!(
                    &wide_sums[b * BLOCK_LANES..(b + 1) * BLOCK_LANES],
                    &sums[..],
                    "{kind:?} block {b}"
                );
            }
        }
    }

    #[test]
    fn wide_and_narrow_blocks_agree_lane_for_lane() {
        wide_and_narrow_blocks_agree_lane_for_lane_at::<WideLane>();
        wide_and_narrow_blocks_agree_lane_for_lane_at::<WideLane512>();
    }

    fn tail_blocks_skip_dead_words_and_match_scalar_at<L: Lane>(lanes: usize) {
        // A partial tail block occupies lanes.div_ceil(64) backing words;
        // the prefix-limited folds must still match the scalar families
        // exactly (and the occupancy count must match the geometry).
        let mut rng = StdRng::seed_from_u64(4096 + lanes as u64);
        for kind in [XiKind::Bch, XiKind::Poly] {
            let (ctx, seeds) = random_block(kind, 12, lanes, 55 + lanes as u64);
            let block = XiBlock::<L>::pack(&ctx, &seeds);
            assert_eq!(block.lanes(), lanes);
            assert_eq!(block.occupied_words(), lanes.div_ceil(64));
            let pres: Vec<IndexPre> = (0..90)
                .map(|_| ctx.precompute(rng.gen_range(0..4096u64)))
                .collect();
            let mut counter = LaneCounter::<L>::new();
            let mut sums = vec![0i64; lanes];
            block.sum_pre_into(&pres, &mut counter, &mut sums);
            for (j, &seed) in seeds.iter().enumerate() {
                let fam = ctx.family(seed);
                assert_eq!(
                    sums[j],
                    fam.sum_pre(&pres),
                    "{kind:?} lanes={lanes} lane {j}"
                );
            }
        }
    }

    #[test]
    fn tail_blocks_skip_dead_words_and_match_scalar() {
        // 70 lanes → 2 of 4 / 2 of 8 occupied words; on the 512-lane block
        // 40, 70 and 160 lanes take the 1-, 2- and 4-word prefix folds, 300
        // and 449 the full one.
        tail_blocks_skip_dead_words_and_match_scalar_at::<WideLane>(70);
        tail_blocks_skip_dead_words_and_match_scalar_at::<WideLane>(129);
        tail_blocks_skip_dead_words_and_match_scalar_at::<WideLane512>(40);
        tail_blocks_skip_dead_words_and_match_scalar_at::<WideLane512>(70);
        tail_blocks_skip_dead_words_and_match_scalar_at::<WideLane512>(160);
        tail_blocks_skip_dead_words_and_match_scalar_at::<WideLane512>(300);
        tail_blocks_skip_dead_words_and_match_scalar_at::<WideLane512>(449);
    }

    #[test]
    fn sum_pre_into_empty_list_is_zero() {
        let (ctx, seeds) = random_block(XiKind::Bch, 8, 3, 11);
        let block = XiBlock::<u64>::pack(&ctx, &seeds);
        let mut counter = LaneCounter::new();
        let mut sums = [7i64; BLOCK_LANES];
        block.sum_pre_into(&[], &mut counter, &mut sums);
        assert_eq!(&sums[..3], &[0, 0, 0]);
    }

    fn block_sums_holds_independent_slots_at<L: Lane>() {
        let mut rng = StdRng::seed_from_u64(6);
        let (ctx, seeds) = random_block(XiKind::Bch, 10, L::LANES, 78);
        let block = XiBlock::<L>::pack(&ctx, &seeds);
        let list_a: Vec<IndexPre> = (0..40u64)
            .map(|_| ctx.precompute(rng.gen_range(0..1024u64)))
            .collect();
        let list_b: Vec<IndexPre> = (0..7u64)
            .map(|_| ctx.precompute(rng.gen_range(0..1024u64)))
            .collect();
        let mut sums = BlockSums::<L>::new();
        assert_eq!(sums.slots(), 0);
        sums.eval_into(0, &block, &list_a);
        sums.eval_into(1, &block, &list_b);
        assert!(sums.slots() >= 2);
        // Both slots stay valid side by side and match the scalar families.
        for (j, &seed) in seeds.iter().enumerate() {
            let fam = ctx.family(seed);
            assert_eq!(
                sums.lane_sums(0)[j],
                fam.sum_pre(&list_a),
                "slot 0 lane {j}"
            );
            assert_eq!(
                sums.lane_sums(1)[j],
                fam.sum_pre(&list_b),
                "slot 1 lane {j}"
            );
        }
        // Re-evaluating a slot overwrites it without disturbing the other.
        sums.eval_into(0, &block, &list_b);
        for (j, &seed) in seeds.iter().enumerate() {
            let fam = ctx.family(seed);
            assert_eq!(sums.lane_sums(0)[j], fam.sum_pre(&list_b));
            assert_eq!(sums.lane_sums(1)[j], fam.sum_pre(&list_b));
        }
    }

    #[test]
    fn block_sums_holds_independent_slots() {
        block_sums_holds_independent_slots_at::<u64>();
        block_sums_holds_independent_slots_at::<WideLane>();
        block_sums_holds_independent_slots_at::<WideLane512>();
    }

    fn slot_products_match_per_lane_fold_at<L: Lane>() {
        let mut rng = StdRng::seed_from_u64(17);
        let (ctx, seeds) = random_block(XiKind::Bch, 10, L::LANES, 79);
        let block = XiBlock::<L>::pack(&ctx, &seeds);
        let lists: Vec<Vec<IndexPre>> = (0..3)
            .map(|n| {
                (0..20 + 9 * n)
                    .map(|_| ctx.precompute(rng.gen_range(0..1024u64)))
                    .collect()
            })
            .collect();
        let mut sums = BlockSums::<L>::new();
        for (slot, list) in lists.iter().enumerate() {
            sums.eval_into(slot, &block, list);
        }
        for slots in [&[1usize][..], &[0, 2], &[2, 0, 1]] {
            let lanes = L::LANES - 3;
            let expect: Vec<i64> = (0..lanes)
                .map(|j| {
                    let mut p = 1i64;
                    for &s in slots {
                        p *= sums.lane_sums(s)[j];
                    }
                    p
                })
                .collect();
            assert_eq!(sums.slot_products(slots, lanes), &expect[..], "{slots:?}");
        }
    }

    #[test]
    fn slot_products_match_per_lane_fold() {
        slot_products_match_per_lane_fold_at::<u64>();
        slot_products_match_per_lane_fold_at::<WideLane>();
        slot_products_match_per_lane_fold_at::<WideLane512>();
    }

    #[test]
    fn lane_counter_counts_and_sums() {
        let mut c = LaneCounter::<u64>::new();
        // Lane 0 sees 5 set bits, lane 1 sees 2, lane 63 sees 0, of 5 masks.
        let masks = [0b01u64, 0b11, 0b01, 0b11, 0b01];
        for m in masks {
            c.add_mask(m);
        }
        assert_eq!(c.len(), 5);
        assert_eq!(c.count(0), 5);
        assert_eq!(c.count(1), 2);
        assert_eq!(c.count(63), 0);
        let mut sums = [0i64; 64];
        c.signed_sums_into(&mut sums);
        assert_eq!(sums[0], -5); // five -1s
        assert_eq!(sums[1], 1); // two -1s, three +1s
        assert_eq!(sums[63], 5); // five +1s
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.count(0), 0);
    }

    #[test]
    fn wide_lane_counter_counts_across_words() {
        let mut c = LaneCounter::<WideLane>::new();
        // Lanes 0, 70 and 255 live in different backing words.
        let mut m = WideLane::zero();
        m.set_bit(0);
        m.set_bit(70);
        m.set_bit(255);
        for _ in 0..3 {
            c.add_mask(m);
        }
        let mut single = WideLane::zero();
        single.set_bit(70);
        c.add_mask(single);
        assert_eq!(c.count(0), 3);
        assert_eq!(c.count(70), 4);
        assert_eq!(c.count(255), 3);
        assert_eq!(c.count(128), 0);
        let mut sums = vec![0i64; WIDE_LANES];
        c.signed_sums_into(&mut sums);
        assert_eq!(sums[0], 4 - 2 * 3);
        assert_eq!(sums[70], 4 - 2 * 4);
        assert_eq!(sums[255], 4 - 2 * 3);
        assert_eq!(sums[128], 4);
    }

    #[test]
    fn lane_counter_near_capacity() {
        // Covers can reach ~126 nodes; exercise counts well past 64.
        let mut c = LaneCounter::<u64>::new();
        for _ in 0..200 {
            c.add_mask(u64::MAX);
        }
        for lane in [0usize, 31, 63] {
            assert_eq!(c.count(lane), 200);
        }
        let mut sums = [0i64; 1];
        c.signed_sums_into(&mut sums);
        assert_eq!(sums[0], -200);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn pack_rejects_mismatched_seed_kind() {
        let mut rng = StdRng::seed_from_u64(9);
        let poly_ctx = XiContext::new(XiKind::Poly, 8);
        let seed = poly_ctx.random_seed(&mut rng);
        let bch_ctx = XiContext::new(XiKind::Bch, 8);
        let _ = XiBlock::<u64>::pack(&bch_ctx, &[seed]);
    }

    #[test]
    #[should_panic(expected = "1..=64 seeds")]
    fn pack_rejects_oversized_block() {
        let mut rng = StdRng::seed_from_u64(10);
        let ctx = XiContext::new(XiKind::Bch, 8);
        let seeds: Vec<XiSeed> = (0..65).map(|_| ctx.random_seed(&mut rng)).collect();
        let _ = XiBlock::<u64>::pack(&ctx, &seeds);
    }

    #[test]
    #[should_panic(expected = "1..=256 seeds")]
    fn pack_rejects_oversized_wide_block() {
        let mut rng = StdRng::seed_from_u64(10);
        let ctx = XiContext::new(XiKind::Bch, 8);
        let seeds: Vec<XiSeed> = (0..257).map(|_| ctx.random_seed(&mut rng)).collect();
        let _ = XiBlock::<WideLane>::pack(&ctx, &seeds);
    }

    #[test]
    #[should_panic(expected = "1..=512 seeds")]
    fn pack_rejects_oversized_wide512_block() {
        let mut rng = StdRng::seed_from_u64(10);
        let ctx = XiContext::new(XiKind::Bch, 8);
        let seeds: Vec<XiSeed> = (0..513).map(|_| ctx.random_seed(&mut rng)).collect();
        let _ = XiBlock::<WideLane512>::pack(&ctx, &seeds);
    }

    #[test]
    fn prefix_adds_match_full_adds() {
        // Same masks folded with add_mask and add_mask_prefix (under the
        // occupancy contract: masks zero above the prefix) must produce
        // identical planes, counts and sums.
        let mut rng = StdRng::seed_from_u64(23);
        let words = 3usize; // 192 occupied lanes of 512
        let mut full = LaneCounter::<WideLane512>::new();
        let mut prefix = LaneCounter::<WideLane512>::new();
        for _ in 0..200 {
            let mut m = WideLane512::zero();
            for _ in 0..rng.gen_range(0..40) {
                m.set_bit(rng.gen_range(0..words * 64));
            }
            full.add_mask(m);
            prefix.add_mask_prefix(m, words);
        }
        let mut want = vec![0i64; words * 64];
        let mut got = vec![0i64; words * 64];
        full.signed_sums_into(&mut want);
        prefix.signed_sums_into(&mut got);
        assert_eq!(want, got);
        for lane in [0usize, 63, 64, 191] {
            assert_eq!(full.count(lane), prefix.count(lane), "lane {lane}");
        }
    }
}
