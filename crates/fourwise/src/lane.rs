//! Lane words: the machine-word abstraction under the bit-sliced kernels.
//!
//! Every bit-sliced structure in [`crate::batch`] — seed planes, sign masks,
//! carry-save counter planes — is "one bit per family instance" packed into a
//! machine word. The [`Lane`] trait abstracts that word so the same kernels
//! run at different widths:
//!
//! * [`u64`] — one backing word: 64 instances per block, one scalar
//!   XOR/AND per plane operation. The wider words are arrays of it, and the
//!   `batch` tests check them lane for lane against it.
//! * [`WideLane512`] (`[u64; 8]`) — 512 instances per block: the width the
//!   sketch kernels run. All lane-wise operations are straight-line loops
//!   over eight words, the shape LLVM unrolls and autovectorizes at `-O`
//!   without nightly `std::simd` or `target_feature` gating. The workspace
//!   builds for baseline x86-64, so that means SSE2 (`xmm`) code; what the
//!   wide word buys is not register width but fewer per-block fixed costs
//!   (loop control, counter extraction setup, scratch walks).
//! * [`WideLane`] (`[u64; 4]`) — 256 instances per block: a second
//!   instantiation of the same `[u64; N]` implementation, which the tests
//!   and the `xi_throughput` bench check against the other widths.
//!
//! The trait surface is exactly what the kernels need: splat/set/test of
//! per-lane bits, lane-wise XOR/AND (the GF(2) plane fold and the carry-save
//! adder step), a zero test (early carry exit), and per-lane popcount — plus
//! *prefix* variants of the fold operations that touch only the first `words`
//! backing words, which the batch kernels use to skip the all-zero upper
//! words of partial tail blocks (a 160-lane block only occupies 3 of 8
//! words). Everything heavier — packing seeds into planes, evaluating ξ
//! masks, carry-save accumulation — is built on top in [`crate::batch`] and
//! stays width-generic.

use std::fmt::Debug;

/// A fixed-width word of instance lanes (one bit per sketch instance).
///
/// Implementations must behave as `LANES`-bit bitsets with lane `j` stored
/// in bit `j % 64` of backing word `j / 64`. All operations are lane-wise;
/// none may observe or disturb neighbouring lanes.
pub trait Lane: Copy + Clone + Debug + Default + PartialEq + Eq + Send + Sync + 'static {
    /// Number of instance lanes (bits) in one lane word.
    const LANES: usize;

    /// Number of backing 64-bit words (`LANES / 64`).
    const WORDS: usize;

    /// The all-zero lane word.
    fn zero() -> Self;

    /// A word with every lane's bit set to `bit`.
    fn splat(bit: bool) -> Self;

    /// Sets lane `lane`'s bit.
    fn set_bit(&mut self, lane: usize);

    /// Lane `lane`'s bit as `0` or `1`.
    fn bit(&self, lane: usize) -> u64;

    /// Backing word `idx` (lanes `[64·idx, 64·(idx+1))`).
    fn word(&self, idx: usize) -> u64;

    /// Lane-wise XOR-assign (the GF(2) plane fold).
    fn xor_assign(&mut self, rhs: &Self);

    /// Lane-wise AND (the carry step of the carry-save adder).
    fn and(&self, rhs: &Self) -> Self;

    /// Whether every lane bit is clear.
    fn is_zero(&self) -> bool;

    /// Number of set lane bits (popcount across all lanes).
    fn count_ones(&self) -> u32;

    /// [`Lane::xor_assign`] restricted to the first `words` backing words.
    ///
    /// The occupancy-skip contract: callers may only pass `words <
    /// Self::WORDS` when both operands are known all-zero in every skipped
    /// word, so the restricted fold is bit-identical to the full one.
    #[inline(always)]
    fn xor_assign_prefix(&mut self, rhs: &Self, words: usize) {
        debug_assert!(words >= Self::WORDS);
        let _ = words;
        self.xor_assign(rhs);
    }

    /// [`Lane::and`] restricted to the first `words` backing words (skipped
    /// words of the result are zero — which equals the full AND under the
    /// occupancy-skip contract above).
    #[inline(always)]
    fn and_prefix(&self, rhs: &Self, words: usize) -> Self {
        debug_assert!(words >= Self::WORDS);
        let _ = words;
        self.and(rhs)
    }

    /// [`Lane::is_zero`] restricted to the first `words` backing words.
    #[inline(always)]
    fn is_zero_prefix(&self, words: usize) -> bool {
        debug_assert!(words >= Self::WORDS);
        let _ = words;
        self.is_zero()
    }
}

impl Lane for u64 {
    const LANES: usize = 64;
    const WORDS: usize = 1;

    #[inline(always)]
    fn zero() -> Self {
        0
    }

    #[inline(always)]
    fn splat(bit: bool) -> Self {
        if bit {
            u64::MAX
        } else {
            0
        }
    }

    #[inline(always)]
    fn set_bit(&mut self, lane: usize) {
        *self |= 1u64 << lane;
    }

    #[inline(always)]
    fn bit(&self, lane: usize) -> u64 {
        (*self >> lane) & 1
    }

    #[inline(always)]
    fn word(&self, idx: usize) -> u64 {
        debug_assert_eq!(idx, 0);
        *self
    }

    #[inline(always)]
    fn xor_assign(&mut self, rhs: &Self) {
        *self ^= *rhs;
    }

    #[inline(always)]
    fn and(&self, rhs: &Self) -> Self {
        *self & *rhs
    }

    #[inline(always)]
    fn is_zero(&self) -> bool {
        *self == 0
    }

    #[inline(always)]
    fn count_ones(&self) -> u32 {
        u64::count_ones(*self)
    }
}

/// The 256-lane wide word: four `u64`s evaluated lane-wise in lockstep.
pub type WideLane = [u64; 4];

/// The 512-lane wide word: eight `u64`s evaluated lane-wise in lockstep —
/// the lane word of the sketch kernels' blocks.
pub type WideLane512 = [u64; 8];

/// Calls `op` on the backing word indices a prefix fold over `words`
/// occupied words of a `[u64; N]` touches. Every branch has a constant
/// trip count, so each unrolls into straight-line (vectorizable) code:
///
/// * from the majority cutover (`2 * words >= N`) on, or past 4 words, all
///   `N` words — a mostly full block (say 440 of 512 lanes) runs exactly
///   the full-block code;
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
fn for_prefix<const N: usize>(words: usize, mut op: impl FnMut(usize)) {
    if 2 * words >= N || words > 4 {
        (0..N).for_each(op);
    } else if words <= 1 {
        op(0);
    } else if words <= 2 {
        (0..2.min(N)).for_each(op);
    } else {
        (0..4.min(N)).for_each(op);
    }
}

/// One width-generic implementation covers [`WideLane`] and [`WideLane512`]
/// (and any future `[u64; N]` width): all operations are fixed-trip-count
/// loops over the backing words, the shape LLVM unrolls and autovectorizes.
/// The prefix variants skip words that are provably zero in partial tail
/// blocks, in fixed-trip branches (see `for_prefix`).
impl<const N: usize> Lane for [u64; N]
where
    [u64; N]: Default,
{
    const LANES: usize = 64 * N;
    const WORDS: usize = N;

    #[inline(always)]
    fn zero() -> Self {
        [0; N]
    }

    #[inline(always)]
    fn splat(bit: bool) -> Self {
        [if bit { u64::MAX } else { 0 }; N]
    }

    #[inline(always)]
    fn set_bit(&mut self, lane: usize) {
        self[lane >> 6] |= 1u64 << (lane & 63);
    }

    #[inline(always)]
    fn bit(&self, lane: usize) -> u64 {
        (self[lane >> 6] >> (lane & 63)) & 1
    }

    #[inline(always)]
    fn word(&self, idx: usize) -> u64 {
        self[idx]
    }

    #[inline(always)]
    fn xor_assign(&mut self, rhs: &Self) {
        for (a, b) in self.iter_mut().zip(rhs.iter()) {
            *a ^= *b;
        }
    }

    #[inline(always)]
    fn and(&self, rhs: &Self) -> Self {
        let mut out = *self;
        for (a, b) in out.iter_mut().zip(rhs.iter()) {
            *a &= *b;
        }
        out
    }

    #[inline(always)]
    fn is_zero(&self) -> bool {
        self.iter().fold(0u64, |acc, &w| acc | w) == 0
    }

    #[inline(always)]
    fn count_ones(&self) -> u32 {
        self.iter().map(|w| w.count_ones()).sum()
    }

    #[inline(always)]
    fn xor_assign_prefix(&mut self, rhs: &Self, words: usize) {
        for_prefix::<N>(words, |i| self[i] ^= rhs[i]);
    }

    #[inline(always)]
    fn and_prefix(&self, rhs: &Self, words: usize) -> Self {
        let mut out = [0u64; N];
        for_prefix::<N>(words, |i| out[i] = self[i] & rhs[i]);
        out
    }

    #[inline(always)]
    fn is_zero_prefix(&self, words: usize) -> bool {
        let mut acc = 0u64;
        for_prefix::<N>(words, |i| acc |= self[i]);
        acc == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<L: Lane>() {
        assert_eq!(L::LANES, L::WORDS * 64);
        let mut a = L::zero();
        assert!(a.is_zero());
        assert_eq!(a.count_ones(), 0);
        // Bits land in the advertised lane and nowhere else.
        for lane in [0, 1, 63 % L::LANES, L::LANES / 2, L::LANES - 1] {
            let mut w = L::zero();
            w.set_bit(lane);
            assert_eq!(w.bit(lane), 1, "lane {lane}");
            assert_eq!(w.count_ones(), 1, "lane {lane}");
            for other in 0..L::LANES {
                if other != lane {
                    assert_eq!(w.bit(other), 0, "lane {lane} leaked into {other}");
                }
            }
            // word()/bit() agree on the backing layout.
            assert_eq!((w.word(lane / 64) >> (lane % 64)) & 1, 1);
        }
        // XOR/AND behave lane-wise.
        a.set_bit(0);
        a.set_bit(L::LANES - 1);
        let mut b = L::zero();
        b.set_bit(0);
        let and = a.and(&b);
        assert_eq!(and.bit(0), 1);
        assert_eq!(and.count_ones(), 1);
        a.xor_assign(&b);
        assert_eq!(a.bit(0), 0);
        assert_eq!(a.bit(L::LANES - 1), 1);
        // Splat covers every lane or none.
        assert_eq!(L::splat(true).count_ones(), L::LANES as u32);
        assert!(L::splat(false).is_zero());
    }

    /// Prefix ops agree with the full-width ops whenever both operands are
    /// zero in the skipped words (the occupancy-skip contract), at every
    /// prefix length — from no occupied word (a one-word lane has no
    /// partial prefix, so it starts at 1) to all of them, which walks every
    /// fold branch. Each occupied word is also populated alone, so a branch
    /// that folds too few words fails on that word.
    fn exercise_prefix<L: Lane>() {
        let first = if L::WORDS == 1 { 1 } else { 0 };
        for words in first..=L::WORDS {
            let lanes = words * 64;
            // A dense pattern over the occupied words, then each occupied
            // word's top lane on its own.
            let mut dense = (L::zero(), L::zero());
            for lane in (0..lanes).step_by(7) {
                dense.0.set_bit(lane);
            }
            for lane in (0..lanes).step_by(5) {
                dense.1.set_bit(lane);
            }
            let singles = (0..words).map(|w| {
                let mut x = L::zero();
                x.set_bit(64 * w + 63);
                (x, x)
            });
            for (case, (a, b)) in std::iter::once(dense).chain(singles).enumerate() {
                let label = format!("prefix {words}/{} case {case}", L::WORDS);
                let mut full = a;
                full.xor_assign(&b);
                let mut prefix = a;
                prefix.xor_assign_prefix(&b, words);
                assert_eq!(prefix, full, "xor {label}");
                assert_eq!(a.and_prefix(&b, words), a.and(&b), "and {label}");
                assert_eq!(a.is_zero_prefix(words), a.is_zero(), "is_zero {label}");
            }
            assert!(L::zero().is_zero_prefix(words));
        }
    }

    #[test]
    fn u64_lane_semantics() {
        exercise::<u64>();
        exercise_prefix::<u64>();
    }

    #[test]
    fn wide_lane_semantics() {
        exercise::<WideLane>();
        exercise_prefix::<WideLane>();
    }

    #[test]
    fn wide512_lane_semantics() {
        exercise::<WideLane512>();
        exercise_prefix::<WideLane512>();
    }

    #[test]
    fn minority_prefix_ops_ignore_suffix_words() {
        // Below the majority cutover (`2 * words < N`) the prefix ops fold
        // only the first 1, 2 or 4 words: with garbage in the words past
        // that they must not read them (is_zero) nor let them affect the
        // folded prefix words. (At or above the cutover the ops run the
        // full fixed-width code, which is only equivalent under the
        // occupancy contract — suffix words all-zero.)
        let mut a = WideLane512::zero();
        let mut b = WideLane512::zero();
        a[7] = u64::MAX;
        b[6] = 0xDEAD_BEEF;
        a.set_bit(3);
        b.set_bit(3);
        assert!(!a.is_zero_prefix(1)); // lane 3 lives in word 0
        let mut x = a;
        x.xor_assign_prefix(&b, 3);
        assert_eq!(x.bit(3), 0);
        assert_eq!(x[7], u64::MAX, "suffix words untouched");
        assert_eq!(x[6], 0, "suffix words untouched");
        let y = a.and_prefix(&b, 3);
        assert_eq!(y.bit(3), 1);
        assert_eq!(y[6], 0);
        assert_eq!(y[7], 0, "and prefix zeroes the suffix");
        let mut only_tail = WideLane512::zero();
        only_tail[5] = 1;
        assert!(
            only_tail.is_zero_prefix(2),
            "word 5 is past a 2-word prefix"
        );
        assert!(!only_tail.is_zero_prefix(6));
    }
}
