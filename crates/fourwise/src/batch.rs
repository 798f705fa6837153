//! Bit-sliced multi-instance ξ evaluation: the core of the blocked build
//! *and* query kernels.
//!
//! Sketch maintenance evaluates the *same* index against thousands of
//! independent family instances. The scalar path ([`BchFamily::xi_pre`])
//! evaluates one instance at a time and pays a popcount each time. This module
//! transposes the problem: the seeds of up to [`LaneWord::LANES`] (512)
//! instances are packed into *bit planes* (`plane[b]` holds bit `b` of every
//! lane's seed), and the planes into per-nibble XOR tables, so one index is
//! evaluated for the whole block with two lane-wise XORs per nibble of the
//! domain — `O(k)` word operations for a full block instead of `O(k)` per
//! instance. Every block, mask and counter plane is one [`LaneWord`]; the
//! per-lane sums are bit-identical to the scalar families'
//! ([`BchFamily::sum_pre`]), which the tests check lane for lane.
//!
//! Partly filled blocks (a schema smaller than the lane width, or the tail
//! of a larger one) carry an *occupancy* word count: every backing word at
//! or above `lanes.div_ceil(64)` is all-zero in the seed tables, every sign
//! mask, and every counter plane, so the fold loops run prefix-limited
//! ([`LaneWord::xor_assign_prefix`] and friends) and skip the dead words — a
//! 128-lane block pays for 2 words, not 8. Each prefix fold runs a fixed
//! trip count of 1, 2 or 4 words, so it unrolls like the full fold.
//! (Majority-occupied blocks stay on the full fixed-width code: folding the
//! provably-zero dead words is free.)
//!
//! The sign of lane `j` is
//! `b0_j ⊕ <s1_j, i> ⊕ <s3_j, i³>`; XOR-ing the `s1` plane of every set bit
//! of `i` and the `s3` plane of every set bit of `i³` computes all lanes'
//! inner products simultaneously (the classic bit-slicing of GF(2) linear
//! forms). The inner product is linear in `i`, so it splits by nibble:
//! `pack` tabulates, per nibble `q` of the domain and per value `v < 16`,
//! the XOR of the planes `4q..4q+3` that `v` selects, and a mask costs
//! `b0` XOR one `s1` entry per nibble of `i` XOR one `s3` entry per nibble
//! of `i³` — `2·⌈k/4⌉` loads with a fixed trip count (10 at the 17-bit node
//! space of a 2^16 domain), where the set-bit walk took one data-dependent
//! XOR per set bit and mispredicted its exit. The tables take
//! `2·⌈k/4⌉·16` lane words per block — 10 KiB at 512 lanes and `k = 17`,
//! against 2.2 KiB for the planes they replace.
//!
//! Component sums over dyadic covers use [`LaneCounter`], a carry-save adder
//! network over sign masks: the block masks of a cover's nodes are folded
//! into vertical counter planes, and per-lane sums are extracted once at the
//! end. Masks fold eight at a time through a tree of seven full adders
//! (`sum = a ⊕ b ⊕ c`, `carry = (a ∧ b) ⊕ ((a ⊕ b) ∧ c)`) into planes 0–2,
//! whose one weight-8 carry then ripples from plane 3 up; a remainder of
//! fewer than eight masks ripples in one at a time. A count has one binary
//! representation, so both routes leave the same planes. The extraction
//! transposes only the planes the count can reach (4 below 16 masks, the
//! short point-cover and edge lists) into one count byte per lane. Summing
//! a ±1 mask `m` over `n` nodes is `n - 2·ones(lane)`, exactly the integer
//! sum the scalar oracle computes.

use crate::bch::BchSeed;
use crate::family::{IndexPre, XiContext};
use crate::lane::LaneWord;

#[cfg(doc)]
use crate::bch::BchFamily;

/// Upper bound on the number of masks a [`LaneCounter`] can absorb
/// (`2^PLANES - 1`). Dyadic covers have at most `2·bits ≤ 126` nodes, within
/// bounds for every supported domain.
const PLANES: usize = 8;

/// Packed seeds of up to [`LaneWord::LANES`] family instances over one
/// domain, stored as per-nibble XOR tables for one-pass block evaluation.
///
/// The block analogue of [`BchFamily`]: built once per (schema, dimension,
/// instance block) and reused for every update.
#[derive(Debug, Clone)]
pub struct BchBlock {
    lanes: u32,
    /// Occupied backing words, `lanes.div_ceil(64)`: every table entry is
    /// all-zero at and above this word, so the fold loops skip them.
    words: u32,
    /// Lane `j` holds seed `j`'s sign-flip bit.
    b0: LaneWord,
    /// One pair of tables per nibble of the `k`-bit domain, low nibble
    /// first (`k.div_ceil(4)` entries).
    nibbles: Box<[NibbleTables]>,
}

/// The lane-wise inner products of every seed with the 16 values of one
/// nibble `q` of an index and of its cube: `s1[v]` lane `j` =
/// `<s1_j, v << 4q>` and `s3[v]` lane `j` = `<s3_j, v << 4q>`. Entry `v` is
/// the XOR of the seed bit planes `4q..4q+3` that `v` selects.
#[derive(Debug, Clone)]
struct NibbleTables {
    s1: [LaneWord; 16],
    s3: [LaneWord; 16],
}

impl BchBlock {
    /// Packs a block from per-instance seeds drawn for `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty or holds more than [`LaneWord::LANES`]
    /// entries.
    pub fn pack(ctx: &XiContext, seeds: &[BchSeed]) -> Self {
        assert!(
            !seeds.is_empty() && seeds.len() <= LaneWord::LANES,
            "xi blocks hold 1..={} seeds, got {}",
            LaneWord::LANES,
            seeds.len()
        );
        let k = ctx.bits() as usize;
        // Bit planes first: `s1[b]` lane `j` = bit `b` of seed `j`'s
        // first-order mask, `s3[b]` the same for the third-order mask.
        let mut b0 = LaneWord::zero();
        let mut s1 = vec![LaneWord::zero(); k];
        let mut s3 = vec![LaneWord::zero(); k];
        for (j, seed) in seeds.iter().enumerate() {
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
        }
        // Then the nibble tables: entry `v` is entry `v & (v - 1)` (`v`
        // without its lowest set bit) XOR the plane of that bit. Planes at
        // or above `k` (a partial top nibble) read as zero; the entries
        // that would fold them are never indexed, since indices and cubes
        // stay below 2^k.
        let table = |planes: &[LaneWord], q: usize| {
            let mut t = [LaneWord::zero(); 16];
            for v in 1..16 {
                t[v] = t[v & (v - 1)];
                if let Some(plane) = planes.get(4 * q + v.trailing_zeros() as usize) {
                    t[v].xor_assign(plane);
                }
            }
            t
        };
        let nibbles = (0..k.div_ceil(4))
            .map(|q| NibbleTables {
                s1: table(&s1, q),
                s3: table(&s3, q),
            })
            .collect();
        Self {
            lanes: seeds.len() as u32,
            words: seeds.len().div_ceil(64) as u32,
            b0,
            nibbles,
        }
    }

    /// Number of occupied lanes.
    pub fn lanes(&self) -> usize {
        self.lanes as usize
    }

    /// Number of occupied backing words (`lanes().div_ceil(64)`) — the
    /// occupancy mask partial tail blocks hand to the prefix-limited folds.
    #[inline]
    pub fn occupied_words(&self) -> usize {
        self.words as usize
    }

    /// Sign mask of the whole block at one index: lane `j`'s bit set ⇔ lane
    /// `j`'s `xi_i = -1`. Bits at or above [`BchBlock::lanes`] are zero
    /// (partial tail blocks fold only their occupied backing words).
    ///
    /// One `s1` and one `s3` table lookup per nibble of the domain: a fixed
    /// trip count, whatever bits the index and its cube have set.
    #[inline]
    pub fn eval_mask(&self, pre: IndexPre) -> LaneWord {
        debug_assert!(
            pre.index
                .checked_shr(4 * self.nibbles.len() as u32)
                .unwrap_or(0)
                == 0,
            "index {} outside the block's domain",
            pre.index
        );
        let words = self.words as usize;
        let mut acc = self.b0;
        let (mut i, mut c) = (pre.index, pre.cube);
        for nib in self.nibbles.iter() {
            acc.xor_assign_prefix(&nib.s1[(i & 15) as usize], words);
            acc.xor_assign_prefix(&nib.s3[(c & 15) as usize], words);
            i >>= 4;
            c >>= 4;
        }
        acc
    }

    /// Per-lane `Σ xi` over a precomputed index list — the block analogue of
    /// [`BchFamily::sum_pre`]. Writes `out[j]` for every occupied lane `j`
    /// (`out` must hold at least [`BchBlock::lanes`] entries); `counter` is
    /// cleared and reused as carry-save scratch. Lists longer than
    /// [`LaneCounter::CAPACITY`] are folded in chunks.
    #[inline]
    pub fn sum_pre_into(&self, pres: &[IndexPre], counter: &mut LaneCounter, out: &mut [i64]) {
        let out = &mut out[..self.lanes()];
        // Partly filled blocks only occupy a prefix of the backing words:
        // every mask (and therefore every counter plane) is zero above it,
        // so the carry-save folds run prefix-limited.
        let words = self.occupied_words();
        let mut chunks = pres.chunks(LaneCounter::CAPACITY as usize);
        // First chunk writes, later chunks accumulate; covers are far below
        // capacity, so the hot path is exactly one write pass.
        self.count_chunk(chunks.next().unwrap_or(&[]), counter, words);
        counter.signed_sums_into(out);
        for chunk in chunks {
            self.count_chunk(chunk, counter, words);
            counter.signed_sums_accum(out);
        }
    }

    /// Clears `counter` and folds the masks of `chunk` (at most
    /// [`LaneCounter::CAPACITY`] indices) into it: eight at a time through
    /// the adder tree, the remainder one at a time.
    #[inline]
    fn count_chunk(&self, chunk: &[IndexPre], counter: &mut LaneCounter, words: usize) {
        counter.clear();
        let mut octets = chunk.chunks_exact(8);
        for octet in &mut octets {
            let masks = std::array::from_fn(|m| self.eval_mask(octet[m]));
            counter.add_octet_prefix(&masks, words);
        }
        for p in octets.remainder() {
            counter.add_mask_prefix(self.eval_mask(*p), words);
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
#[derive(Debug, Clone, Default)]
pub struct BlockSums {
    counter: LaneCounter,
    /// Slot `s` occupies `sums[s*LANES..(s+1)*LANES]`.
    sums: Vec<i64>,
    /// Scratch for [`BlockSums::slot_products`] (one lane word's worth).
    prod: Vec<i64>,
}

impl BlockSums {
    /// Fresh scratch with no slots; call [`BlockSums::reserve_slots`] or let
    /// [`BlockSums::eval_into`] grow it on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures at least `slots` per-lane buffers exist (grow-only).
    pub fn reserve_slots(&mut self, slots: usize) {
        if self.sums.len() < slots * LaneWord::LANES {
            self.sums.resize(slots * LaneWord::LANES, 0);
        }
    }

    /// Number of available slots.
    pub fn slots(&self) -> usize {
        self.sums.len() / LaneWord::LANES
    }

    /// Evaluates per-lane `Σ xi` of `block` over `pres` into slot `slot`
    /// (the block analogue of [`BchFamily::sum_pre`], see
    /// [`BchBlock::sum_pre_into`]). Grows the slot bank as needed.
    #[inline]
    pub fn eval_into(&mut self, slot: usize, block: &BchBlock, pres: &[IndexPre]) {
        self.reserve_slots(slot + 1);
        let buf = &mut self.sums[slot * LaneWord::LANES..(slot + 1) * LaneWord::LANES];
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
        &self.sums[slot * LaneWord::LANES..(slot + 1) * LaneWord::LANES]
    }

    /// Per-lane product across slots: entry `j` of the result is
    /// `Π_s lane_sums(slots[s])[j]` over the first `lanes` lanes, multiplied
    /// in slot order — bit-identical to the per-lane scalar fold the query
    /// kernels used to run, but restructured as plain elementwise `i64`
    /// loops over contiguous buffers so the inner loop autovectorizes.
    /// Single-slot calls borrow the sums directly.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty or any slot was never evaluated.
    #[inline]
    pub fn slot_products(&mut self, slots: &[usize], lanes: usize) -> &[i64] {
        debug_assert!(lanes <= LaneWord::LANES);
        let (&first, rest) = slots
            .split_first()
            .expect("slot_products needs at least one slot");
        let sums = &self.sums;
        let slot = |s: usize| &sums[s * LaneWord::LANES..s * LaneWord::LANES + lanes];
        if rest.is_empty() {
            return slot(first);
        }
        self.prod.resize(LaneWord::LANES, 0);
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
#[derive(Debug, Clone, Default)]
pub struct LaneCounter {
    /// `planes[p]` lane `j` = bit `p` of lane `j`'s count of set masks.
    planes: [LaneWord; PLANES],
    added: u32,
}

impl LaneCounter {
    /// Most masks one counter can absorb between clears.
    pub const CAPACITY: u32 = (1 << PLANES) - 1;

    /// Fresh all-zero counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets to the all-zero state.
    #[inline]
    pub fn clear(&mut self) {
        self.planes = [LaneWord::zero(); PLANES];
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
    /// occupied planes; amortized ~2 lane-wise ops per mask). Long mask runs
    /// fold cheaper eight at a time ([`LaneCounter::add_octet_prefix`]).
    ///
    /// # Panics
    ///
    /// Panics past [`LaneCounter::CAPACITY`] masks — a silent wrap would
    /// corrupt every lane's count, so the limit is enforced in release
    /// builds too (the predictable branch costs ~1 cycle per mask).
    #[inline]
    pub fn add_mask(&mut self, mask: LaneWord) {
        self.add_mask_prefix(mask, LaneWord::WORDS)
    }

    /// [`LaneCounter::add_mask`] restricted to the first `words` backing
    /// words — the occupancy skip for partial tail blocks. Sound only when
    /// `mask` (and every mask since the last clear) is all-zero at and above
    /// word `words`: the counter planes then stay zero there too, and the
    /// prefix-limited carry-save step is bit-identical to the full one.
    #[inline]
    pub fn add_mask_prefix(&mut self, mask: LaneWord, words: usize) {
        self.admit(1);
        self.ripple(0, mask, words);
    }

    /// Folds eight sign masks at once, under the same occupancy contract as
    /// [`LaneCounter::add_mask_prefix`]: seven full adders reduce the masks
    /// and planes 0–2 to new planes 0–2 plus one weight-8 carry, which then
    /// ripples from plane 3 up. A per-lane count has exactly one binary
    /// representation, so the planes end exactly as after eight
    /// [`LaneCounter::add_mask_prefix`] calls — with no data-dependent
    /// branch until that last carry.
    ///
    /// # Panics
    ///
    /// Panics if the eight masks would take the counter past
    /// [`LaneCounter::CAPACITY`].
    #[inline]
    pub fn add_octet_prefix(&mut self, masks: &[LaneWord; 8], words: usize) {
        self.admit(8);
        let fa = |a, b, c| full_add(a, b, c, words);
        let [m0, m1, m2, m3, m4, m5, m6, m7] = *masks;
        let [p0, p1, p2, ..] = self.planes;
        // Weight 1: nine inputs → plane 0 and four weight-2 carries.
        let (s0, c0) = fa(m0, m1, m2);
        let (s1, c1) = fa(m3, m4, m5);
        let (s2, c2) = fa(m6, m7, p0);
        let (p0, c3) = fa(s0, s1, s2);
        // Weight 2: five inputs → plane 1 and two weight-4 carries.
        let (s3, d0) = fa(p1, c0, c1);
        let (p1, d1) = fa(s3, c2, c3);
        // Weight 4: three inputs → plane 2 and one weight-8 carry.
        let (p2, e) = fa(p2, d0, d1);
        self.planes[..3].copy_from_slice(&[p0, p1, p2]);
        self.ripple(3, e, words);
    }

    /// Counts `n` more masks, checking that they fit.
    #[inline]
    fn admit(&mut self, n: u32) {
        assert!(
            self.added + n <= Self::CAPACITY,
            "LaneCounter overflow: more than {} masks",
            Self::CAPACITY
        );
        self.added += n;
    }

    /// Adds `carry` at weight `2^from` (ripple-carry over the occupied
    /// planes, stopping at the first all-zero carry).
    #[inline]
    fn ripple(&mut self, from: usize, mut carry: LaneWord, words: usize) {
        for plane in &mut self.planes[from..] {
            if carry.is_zero_prefix(words) {
                break;
            }
            let t = plane.and_prefix(&carry, words);
            plane.xor_assign_prefix(&carry, words);
            carry = t;
        }
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
        // A count below 16 leaves planes 4.. zero: gather only the planes
        // the count can reach (point covers and edge lists stay below 16).
        if self.added < 16 {
            self.signed_sums_reach::<4>(out, accumulate)
        } else {
            self.signed_sums_reach::<PLANES>(out, accumulate)
        }
    }

    /// [`LaneCounter::signed_sums`] reading only planes `0..R`, which must
    /// hold every set count bit.
    #[inline]
    fn signed_sums_reach<const R: usize>(&self, out: &mut [i64], accumulate: bool) {
        debug_assert!(out.len() <= LaneWord::LANES);
        let n = self.added as i64;
        // Walk backing words in the outer loop so the inner extraction runs
        // on plain u64 shifts. Within a word,
        // the vertical counter planes transpose to one count *byte* per
        // lane (8×8 bit-matrix transpose, 8 lanes at a time) — a handful of
        // word ops per 8 lanes instead of one plane walk per lane. Counts
        // fit a byte exactly because CAPACITY = 2^PLANES - 1 = 255. The
        // bytes land in a buffer first, so the widening to signed sums is
        // one plain loop over it.
        for (w, word_out) in out.chunks_mut(64).enumerate() {
            let planes: [u64; R] = std::array::from_fn(|p| self.planes[p].word(w));
            let mut counts = [0u8; 64];
            let groups = word_out.len().div_ceil(8);
            for (g, group) in counts.chunks_exact_mut(8).take(groups).enumerate() {
                let mut x = 0u64;
                for (p, plane) in planes.iter().enumerate() {
                    x |= ((plane >> (8 * g)) & 0xFF) << (8 * p);
                }
                group.copy_from_slice(&transpose8(x).to_le_bytes());
            }
            for (slot, &c) in word_out.iter_mut().zip(&counts) {
                let sum = n - 2 * i64::from(c);
                *slot = if accumulate { *slot + sum } else { sum };
            }
        }
    }
}

/// One full adder on lane words, prefix-limited: returns `(sum, carry)`
/// with `sum = a ⊕ b ⊕ c` and `carry = (a ∧ b) ⊕ ((a ⊕ b) ∧ c)` — the two
/// carry terms are never both set, so XOR is their OR.
#[inline(always)]
fn full_add(a: LaneWord, b: LaneWord, c: LaneWord, words: usize) -> (LaneWord, LaneWord) {
    let mut ab = a;
    ab.xor_assign_prefix(&b, words);
    let mut carry = a.and_prefix(&b, words);
    carry.xor_assign_prefix(&ab.and_prefix(&c, words), words);
    ab.xor_assign_prefix(&c, words);
    (ab, carry)
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
    use crate::bch::BchFamily;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng};

    fn random_block(k: u32, lanes: usize, seed: u64) -> (XiContext, Vec<BchSeed>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ctx = XiContext::new(k);
        let seeds: Vec<BchSeed> = (0..lanes).map(|_| ctx.random_seed(&mut rng)).collect();
        (ctx, seeds)
    }

    #[test]
    fn eval_mask_matches_scalar_families() {
        // One lane, a partial first word, one and four whole words (a
        // 1- and a 4-word prefix fold) and the full block.
        for lanes in [1usize, 7, 64, 256, LaneWord::LANES] {
            let (ctx, seeds) = random_block(12, lanes, 31 + lanes as u64);
            let block = BchBlock::pack(&ctx, &seeds);
            assert_eq!(block.lanes(), lanes);
            let fams: Vec<BchFamily> = seeds.iter().map(|&s| ctx.family(s)).collect();
            for i in [0u64, 1, 2, 77, 4095] {
                let pre = ctx.precompute(i);
                let mask = block.eval_mask(pre);
                for (j, fam) in fams.iter().enumerate() {
                    let expect = fam.xi_pre(pre);
                    let got = 1 - 2 * mask.bit(j) as i64;
                    assert_eq!(got, expect, "lane {j} index {i}");
                }
            }
        }
    }

    #[test]
    fn sum_pre_into_matches_scalar_sum() {
        let mut rng = StdRng::seed_from_u64(5);
        // 100 stays within one LaneCounter chunk; 1000 forces the
        // multi-chunk accumulation path.
        for n in [100usize, 1000] {
            let (ctx, seeds) = random_block(10, LaneWord::LANES, 77);
            let block = BchBlock::pack(&ctx, &seeds);
            let pres: Vec<IndexPre> = (0..n)
                .map(|_| ctx.precompute(rng.gen_range(0..1024u64)))
                .collect();
            let mut counter = LaneCounter::new();
            let mut sums = vec![0i64; LaneWord::LANES];
            block.sum_pre_into(&pres, &mut counter, &mut sums);
            for (j, &seed) in seeds.iter().enumerate() {
                let fam = ctx.family(seed);
                assert_eq!(sums[j], fam.sum_pre(&pres), "n={n} lane {j}");
            }
        }
    }

    #[test]
    fn full_blocks_agree_lane_for_lane_with_scalar() {
        // A full block's per-lane sums over a 120-node list equal the
        // scalar family sums in every lane of every backing word.
        let mut rng = StdRng::seed_from_u64(91);
        let (ctx, seeds) = random_block(11, LaneWord::LANES, 92);
        let block = BchBlock::pack(&ctx, &seeds);
        let pres: Vec<IndexPre> = (0..120)
            .map(|_| ctx.precompute(rng.gen_range(0..2048u64)))
            .collect();
        let mut counter = LaneCounter::new();
        let mut sums = vec![0i64; LaneWord::LANES];
        block.sum_pre_into(&pres, &mut counter, &mut sums);
        for (j, &seed) in seeds.iter().enumerate() {
            let fam = ctx.family(seed);
            assert_eq!(sums[j], fam.sum_pre(&pres), "word {} lane {j}", j / 64);
        }
    }

    #[test]
    fn tail_blocks_skip_dead_words_and_match_scalar() {
        // A partial tail block occupies lanes.div_ceil(64) backing words;
        // the prefix-limited folds must still match the scalar families
        // exactly (and the occupancy count must match the geometry). 40,
        // 70 and 129/160 lanes take the 1-, 2- and 4-word prefix folds, 300
        // and 449 the full one.
        for lanes in [40usize, 70, 129, 160, 300, 449] {
            let mut rng = StdRng::seed_from_u64(4096 + lanes as u64);
            let (ctx, seeds) = random_block(12, lanes, 55 + lanes as u64);
            let block = BchBlock::pack(&ctx, &seeds);
            assert_eq!(block.lanes(), lanes);
            assert_eq!(block.occupied_words(), lanes.div_ceil(64));
            let pres: Vec<IndexPre> = (0..90)
                .map(|_| ctx.precompute(rng.gen_range(0..4096u64)))
                .collect();
            let mut counter = LaneCounter::new();
            let mut sums = vec![0i64; lanes];
            block.sum_pre_into(&pres, &mut counter, &mut sums);
            for (j, &seed) in seeds.iter().enumerate() {
                let fam = ctx.family(seed);
                assert_eq!(sums[j], fam.sum_pre(&pres), "lanes={lanes} lane {j}");
            }
        }
    }

    #[test]
    fn sum_pre_into_empty_list_is_zero() {
        let (ctx, seeds) = random_block(8, 3, 11);
        let block = BchBlock::pack(&ctx, &seeds);
        let mut counter = LaneCounter::new();
        let mut sums = [7i64; LaneWord::LANES];
        block.sum_pre_into(&[], &mut counter, &mut sums);
        assert_eq!(&sums[..3], &[0, 0, 0]);
    }

    #[test]
    fn block_sums_holds_independent_slots() {
        let mut rng = StdRng::seed_from_u64(6);
        let (ctx, seeds) = random_block(10, LaneWord::LANES, 78);
        let block = BchBlock::pack(&ctx, &seeds);
        let list_a: Vec<IndexPre> = (0..40u64)
            .map(|_| ctx.precompute(rng.gen_range(0..1024u64)))
            .collect();
        let list_b: Vec<IndexPre> = (0..7u64)
            .map(|_| ctx.precompute(rng.gen_range(0..1024u64)))
            .collect();
        let mut sums = BlockSums::new();
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
    fn slot_products_match_per_lane_fold() {
        let mut rng = StdRng::seed_from_u64(17);
        let (ctx, seeds) = random_block(10, LaneWord::LANES, 79);
        let block = BchBlock::pack(&ctx, &seeds);
        let lists: Vec<Vec<IndexPre>> = (0..3)
            .map(|n| {
                (0..20 + 9 * n)
                    .map(|_| ctx.precompute(rng.gen_range(0..1024u64)))
                    .collect()
            })
            .collect();
        let mut sums = BlockSums::new();
        for (slot, list) in lists.iter().enumerate() {
            sums.eval_into(slot, &block, list);
        }
        for slots in [&[1usize][..], &[0, 2], &[2, 0, 1]] {
            let lanes = LaneWord::LANES - 3;
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

    /// A lane word with the given lanes set.
    fn lanes_set(lanes: &[usize]) -> LaneWord {
        let mut m = LaneWord::zero();
        for &lane in lanes {
            m.set_bit(lane);
        }
        m
    }

    #[test]
    fn lane_counter_counts_and_sums() {
        let mut c = LaneCounter::new();
        // Lane 0 sees 5 set bits, lane 1 sees 2, lane 63 sees 0, of 5 masks.
        let masks = [&[0][..], &[0, 1], &[0], &[0, 1], &[0]];
        for m in masks {
            c.add_mask(lanes_set(m));
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
        let mut c = LaneCounter::new();
        // Lanes 0, 70 and 255 live in different backing words.
        let m = lanes_set(&[0, 70, 255]);
        for _ in 0..3 {
            c.add_mask(m);
        }
        c.add_mask(lanes_set(&[70]));
        assert_eq!(c.count(0), 3);
        assert_eq!(c.count(70), 4);
        assert_eq!(c.count(255), 3);
        assert_eq!(c.count(128), 0);
        let mut sums = vec![0i64; LaneWord::LANES];
        c.signed_sums_into(&mut sums);
        assert_eq!(sums[0], 4 - 2 * 3);
        assert_eq!(sums[70], 4 - 2 * 4);
        assert_eq!(sums[255], 4 - 2 * 3);
        assert_eq!(sums[128], 4);
    }

    #[test]
    fn lane_counter_near_capacity() {
        // Covers can reach ~126 nodes; exercise counts well past 64.
        let mut c = LaneCounter::new();
        for _ in 0..200 {
            c.add_mask(LaneWord::splat(true));
        }
        for lane in [0usize, 31, 63] {
            assert_eq!(c.count(lane), 200);
        }
        let mut sums = [0i64; 1];
        c.signed_sums_into(&mut sums);
        assert_eq!(sums[0], -200);
    }

    /// Folds `masks` eight at a time through the adder tree (the remainder
    /// one at a time, as [`BchBlock::sum_pre_into`] does) and one at a time,
    /// and checks that both counters agree plane for plane.
    fn assert_octet_fold_matches_single_adds(masks: &[LaneWord], words: usize, label: &str) {
        let mut octet = LaneCounter::new();
        let mut chunks = masks.chunks_exact(8);
        for chunk in &mut chunks {
            octet.add_octet_prefix(chunk.try_into().unwrap(), words);
        }
        for &m in chunks.remainder() {
            octet.add_mask_prefix(m, words);
        }
        let mut single = LaneCounter::new();
        for &m in masks {
            single.add_mask_prefix(m, words);
        }
        assert_eq!(octet.planes, single.planes, "planes {label}");
        assert_eq!(octet.len(), single.len(), "len {label}");
        for lane in 0..words * 64 {
            assert_eq!(octet.count(lane), single.count(lane), "{label} lane {lane}");
        }
        let mut want = vec![0i64; words * 64];
        let mut got = vec![0i64; words * 64];
        single.signed_sums_into(&mut want);
        octet.signed_sums_into(&mut got);
        assert_eq!(got, want, "sums {label}");
        // The transposed extraction against the plane-by-plane count, on
        // every lane of a ragged output (a partial last group of 8) and
        // accumulated onto it.
        let n = masks.len() as i64;
        for (lane, &sum) in want.iter().enumerate() {
            assert_eq!(
                sum,
                n - 2 * single.count(lane) as i64,
                "{label} lane {lane}"
            );
        }
        let ragged = &mut got[..words * 64 - 13];
        octet.signed_sums_accum(ragged);
        for (lane, &sum) in ragged.iter().enumerate() {
            assert_eq!(sum, 2 * want[lane], "{label} accumulated lane {lane}");
        }
    }

    #[test]
    fn octet_folds_match_single_adds() {
        // Every mask count a counter takes (0..=255: whole octets plus every
        // remainder), at each occupied width a prefix fold branches on. A
        // quarter of the masks are all-ones over the occupied words, so the
        // weight-8 carry ripples to the top plane.
        let mut rng = StdRng::seed_from_u64(29);
        for words in [1usize, 2, 3, 4, 8] {
            for n in 0..=LaneCounter::CAPACITY as usize {
                let masks: Vec<LaneWord> = (0..n)
                    .map(|_| {
                        let dense = rng.gen_range(0..4) == 0;
                        LaneWord(std::array::from_fn(|w| match (w < words, dense) {
                            (false, _) => 0,
                            (true, true) => u64::MAX,
                            (true, false) => rng.gen::<u64>(),
                        }))
                    })
                    .collect();
                assert_octet_fold_matches_single_adds(&masks, words, &format!("{words}w n={n}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "LaneCounter overflow")]
    fn lane_counter_takes_255_masks_and_rejects_a_256th() {
        // 31 all-ones octets and 7 single masks fill every plane.
        let mut c = LaneCounter::new();
        for _ in 0..31 {
            c.add_octet_prefix(&[LaneWord::splat(true); 8], 8);
        }
        for _ in 0..7 {
            c.add_mask(LaneWord::splat(true));
        }
        assert_eq!((c.len(), c.count(0), c.count(511)), (255, 255, 255));
        let mut sums = [0i64; 2];
        c.signed_sums_into(&mut sums);
        assert_eq!(sums, [-255, -255]);
        c.add_mask(LaneWord::zero());
    }

    #[test]
    #[should_panic(expected = "LaneCounter overflow")]
    fn lane_counter_rejects_an_octet_past_capacity() {
        // 248 masks fit; an octet would make 256.
        let mut c = LaneCounter::new();
        for _ in 0..31 {
            c.add_octet_prefix(&[LaneWord::zero(); 8], 8);
        }
        c.add_octet_prefix(&[LaneWord::zero(); 8], 8);
    }

    #[test]
    fn nibble_table_masks_match_scalar_families() {
        // Domains of one partial nibble (1), one whole nibble (4), a whole
        // nibble plus one bit (5), two nibbles (8), the benchmark's 17-bit
        // node space, the last cube-tabulated domain (21) and an on-the-fly
        // cube domain (41); every index where the domain is small. Bits at
        // and above the block's lanes must stay zero (the occupancy
        // contract).
        let mut rng = StdRng::seed_from_u64(37);
        for k in [1u32, 4, 5, 8, 17, 21, 41] {
            let top = (1u64 << k) - 1;
            let indices: Vec<u64> = if k <= 8 {
                (0..=top).collect()
            } else {
                [0, 1, top]
                    .into_iter()
                    .chain((0..300).map(|_| rng.gen_range(0..=top)))
                    .collect()
            };
            for lanes in [1usize, 40, 160, 512] {
                let (ctx, seeds) = random_block(k, lanes, 41 + k as u64);
                let block = BchBlock::pack(&ctx, &seeds);
                let fams: Vec<BchFamily> = seeds.iter().map(|&s| ctx.family(s)).collect();
                for &i in &indices {
                    let pre = ctx.precompute(i);
                    let mask = block.eval_mask(pre);
                    for (j, fam) in fams.iter().enumerate() {
                        let got = 1 - 2 * mask.bit(j) as i64;
                        assert_eq!(
                            got,
                            fam.xi_pre(pre),
                            "k={k} lanes={lanes} lane {j} index {i}"
                        );
                    }
                    assert_eq!(
                        mask.count_ones(),
                        (0..lanes).map(|j| mask.bit(j) as u32).sum(),
                        "k={k} lanes={lanes} index {i}: bits above the lanes"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "1..=512 seeds")]
    fn pack_rejects_oversized_block() {
        let mut rng = StdRng::seed_from_u64(10);
        let ctx = XiContext::new(8);
        let seeds: Vec<BchSeed> = (0..513).map(|_| ctx.random_seed(&mut rng)).collect();
        let _ = BchBlock::pack(&ctx, &seeds);
    }

    #[test]
    fn prefix_adds_match_full_adds() {
        // Same masks folded with add_mask and add_mask_prefix (under the
        // occupancy contract: masks zero above the prefix) must produce
        // identical planes, counts and sums.
        let mut rng = StdRng::seed_from_u64(23);
        let words = 3usize; // 192 occupied lanes of 512
        let mut full = LaneCounter::new();
        let mut prefix = LaneCounter::new();
        for _ in 0..200 {
            let mut m = LaneWord::zero();
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
