//! Lane words: the machine word under the bit-sliced kernels.
//!
//! Every bit-sliced structure in [`crate::batch`] — seed tables, sign masks,
//! carry-save counter planes — is "one bit per family instance" packed into a
//! [`LaneWord`]: 512 instance lanes in eight `u64`s, lane `j` in bit
//! `j % 64` of backing word `j / 64`. All lane-wise operations are
//! straight-line loops over the eight words, the shape LLVM unrolls and
//! autovectorizes at `-O` without nightly `std::simd` or `target_feature`
//! gating. The workspace builds for baseline x86-64, so that means SSE2
//! (`xmm`) code; what the wide word buys is not register width but fewer
//! per-block fixed costs (loop control, counter extraction setup, scratch
//! walks).
//!
//! The surface is exactly what the kernels need: splat/set/test of
//! per-lane bits, lane-wise XOR/AND (the GF(2) table fold and the carry-save
//! adder step), a zero test (early carry exit), and per-lane popcount — plus
//! *prefix* variants of the fold operations that touch only the first `words`
//! backing words, which the batch kernels use to skip the all-zero upper
//! words of partial tail blocks (a 160-lane block only occupies 3 of 8
//! words). Everything heavier — packing seeds into nibble tables, evaluating ξ
//! masks, carry-save accumulation — is built on top in [`crate::batch`].

/// A word of 512 instance lanes (one bit per sketch instance), stored as
/// eight backing `u64`s with lane `j` in bit `j % 64` of word `j / 64`. All
/// operations are lane-wise; none observes or disturbs neighbouring lanes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneWord(pub(crate) [u64; LaneWord::WORDS]);

/// Calls `op` on the backing word indices a prefix fold over `words`
/// occupied words touches. Every branch has a constant trip count, so each
/// unrolls into straight-line (vectorizable) code:
///
/// * from the majority cutover (`2 * words >= WORDS`) on, all 8 words — a
///   mostly full block (say 440 of 512 lanes) runs exactly the full-block
///   code;
/// * below it, the first 1, 2 or 4 words: the smallest of those that
///   covers `words`.
///
/// A branch may touch more words than are occupied (3 occupied words fold
/// 4). Under the occupancy contract those dead words are zero in both
/// operands, so every branch computes the same result as the full fold. A
/// loop whose trip count is `words` itself does not unroll: with it, a
/// 160-lane block built and estimated 34–52% slower than a full 256-lane
/// block; with these branches, 3–9% (EXPERIMENTS.md "One blocked lane
/// width").
#[inline(always)]
fn for_prefix(words: usize, mut op: impl FnMut(usize)) {
    if 2 * words >= LaneWord::WORDS {
        (0..LaneWord::WORDS).for_each(op);
    } else if words <= 1 {
        op(0);
    } else if words <= 2 {
        (0..2).for_each(op);
    } else {
        (0..4).for_each(op);
    }
}

impl LaneWord {
    /// Number of instance lanes (bits) in one lane word.
    pub const LANES: usize = 512;

    /// Number of backing 64-bit words (`LANES / 64`).
    pub const WORDS: usize = Self::LANES / 64;

    /// The all-zero lane word.
    #[inline(always)]
    pub fn zero() -> Self {
        Self([0; Self::WORDS])
    }

    /// A word with every lane's bit set to `bit`.
    #[inline(always)]
    pub fn splat(bit: bool) -> Self {
        Self([if bit { u64::MAX } else { 0 }; Self::WORDS])
    }

    /// Sets lane `lane`'s bit.
    #[inline(always)]
    pub fn set_bit(&mut self, lane: usize) {
        self.0[lane >> 6] |= 1u64 << (lane & 63);
    }

    /// Lane `lane`'s bit as `0` or `1`.
    #[inline(always)]
    pub fn bit(&self, lane: usize) -> u64 {
        (self.0[lane >> 6] >> (lane & 63)) & 1
    }

    /// Backing word `idx` (lanes `[64·idx, 64·(idx+1))`).
    #[inline(always)]
    pub fn word(&self, idx: usize) -> u64 {
        self.0[idx]
    }

    /// Lane-wise XOR-assign (the GF(2) table fold).
    #[inline(always)]
    pub fn xor_assign(&mut self, rhs: &Self) {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a ^= *b;
        }
    }

    /// Lane-wise AND (the carry step of the carry-save adder).
    #[inline(always)]
    pub fn and(&self, rhs: &Self) -> Self {
        let mut out = *self;
        for (a, b) in out.0.iter_mut().zip(rhs.0.iter()) {
            *a &= *b;
        }
        out
    }

    /// Whether every lane bit is clear.
    #[inline(always)]
    pub fn is_zero(&self) -> bool {
        self.0.iter().fold(0u64, |acc, &w| acc | w) == 0
    }

    /// Number of set lane bits (popcount across all lanes).
    #[inline(always)]
    pub fn count_ones(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// [`LaneWord::xor_assign`] restricted to the first `words` backing
    /// words.
    ///
    /// The occupancy-skip contract: callers may only pass `words <
    /// WORDS` when both operands are known all-zero in every skipped word,
    /// so the restricted fold is bit-identical to the full one.
    #[inline(always)]
    pub fn xor_assign_prefix(&mut self, rhs: &Self, words: usize) {
        for_prefix(words, |i| self.0[i] ^= rhs.0[i]);
    }

    /// [`LaneWord::and`] restricted to the first `words` backing words
    /// (skipped words of the result are zero — which equals the full AND
    /// under the occupancy-skip contract above).
    #[inline(always)]
    pub fn and_prefix(&self, rhs: &Self, words: usize) -> Self {
        let mut out = Self::zero();
        for_prefix(words, |i| out.0[i] = self.0[i] & rhs.0[i]);
        out
    }

    /// [`LaneWord::is_zero`] restricted to the first `words` backing words.
    #[inline(always)]
    pub fn is_zero_prefix(&self, words: usize) -> bool {
        let mut acc = 0u64;
        for_prefix(words, |i| acc |= self.0[i]);
        acc == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide512_lane_semantics() {
        assert_eq!(LaneWord::LANES, LaneWord::WORDS * 64);
        let mut a = LaneWord::zero();
        assert!(a.is_zero());
        assert_eq!(a.count_ones(), 0);
        // Bits land in the advertised lane and nowhere else: the first and
        // last lane of the lowest words, mid-word and across word edges.
        for lane in [0, 1, 63, 64, 70, 255, 256, 511] {
            let mut w = LaneWord::zero();
            w.set_bit(lane);
            assert_eq!(w.bit(lane), 1, "lane {lane}");
            assert_eq!(w.count_ones(), 1, "lane {lane}");
            for other in 0..LaneWord::LANES {
                if other != lane {
                    assert_eq!(w.bit(other), 0, "lane {lane} leaked into {other}");
                }
            }
            // word()/bit() agree on the backing layout.
            assert_eq!((w.word(lane / 64) >> (lane % 64)) & 1, 1);
        }
        // XOR/AND behave lane-wise.
        a.set_bit(0);
        a.set_bit(LaneWord::LANES - 1);
        let mut b = LaneWord::zero();
        b.set_bit(0);
        let and = a.and(&b);
        assert_eq!(and.bit(0), 1);
        assert_eq!(and.count_ones(), 1);
        a.xor_assign(&b);
        assert_eq!(a.bit(0), 0);
        assert_eq!(a.bit(LaneWord::LANES - 1), 1);
        // Splat covers every lane or none.
        assert_eq!(LaneWord::splat(true).count_ones(), LaneWord::LANES as u32);
        assert!(LaneWord::splat(false).is_zero());

        // Prefix ops agree with the full-width ops whenever both operands
        // are zero in the skipped words (the occupancy-skip contract), at
        // every prefix length — from no occupied word to all of them, which
        // walks every fold branch. Each occupied word is also populated
        // alone, so a branch that folds too few words fails on that word.
        for words in 0..=LaneWord::WORDS {
            let lanes = words * 64;
            // A dense pattern over the occupied words, then each occupied
            // word's top lane on its own.
            let mut dense = (LaneWord::zero(), LaneWord::zero());
            for lane in (0..lanes).step_by(7) {
                dense.0.set_bit(lane);
            }
            for lane in (0..lanes).step_by(5) {
                dense.1.set_bit(lane);
            }
            let singles = (0..words).map(|w| {
                let mut x = LaneWord::zero();
                x.set_bit(64 * w + 63);
                (x, x)
            });
            for (case, (a, b)) in std::iter::once(dense).chain(singles).enumerate() {
                let label = format!("prefix {words}/{} case {case}", LaneWord::WORDS);
                let mut full = a;
                full.xor_assign(&b);
                let mut prefix = a;
                prefix.xor_assign_prefix(&b, words);
                assert_eq!(prefix, full, "xor {label}");
                assert_eq!(a.and_prefix(&b, words), a.and(&b), "and {label}");
                assert_eq!(a.is_zero_prefix(words), a.is_zero(), "is_zero {label}");
            }
            assert!(LaneWord::zero().is_zero_prefix(words));
        }
    }

    #[test]
    fn minority_prefix_ops_ignore_suffix_words() {
        // Below the majority cutover (`2 * words < WORDS`) the prefix ops
        // fold only the first 1, 2 or 4 words: with garbage in the words
        // past that they must not read them (is_zero) nor let them affect
        // the folded prefix words. (At or above the cutover the ops run the
        // full fixed-width code, which is only equivalent under the
        // occupancy contract — suffix words all-zero.)
        let mut a = LaneWord::zero();
        let mut b = LaneWord::zero();
        a.0[7] = u64::MAX;
        b.0[6] = 0xDEAD_BEEF;
        a.set_bit(3);
        b.set_bit(3);
        assert!(!a.is_zero_prefix(1)); // lane 3 lives in word 0
        let mut x = a;
        x.xor_assign_prefix(&b, 3);
        assert_eq!(x.bit(3), 0);
        assert_eq!(x.0[7], u64::MAX, "suffix words untouched");
        assert_eq!(x.0[6], 0, "suffix words untouched");
        let y = a.and_prefix(&b, 3);
        assert_eq!(y.bit(3), 1);
        assert_eq!(y.0[6], 0);
        assert_eq!(y.0[7], 0, "and prefix zeroes the suffix");
        let mut only_tail = LaneWord::zero();
        only_tail.0[5] = 1;
        assert!(
            only_tail.is_zero_prefix(2),
            "word 5 is past a 2-word prefix"
        );
        assert!(!only_tail.is_zero_prefix(6));
    }
}
