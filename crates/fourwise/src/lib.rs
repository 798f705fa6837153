//! # fourwise — seeded four-wise independent ±1 families
//!
//! Small-space pseudo-random sign families underpinning AMS ("tug-of-war")
//! sketches and their spatial generalization (Das, Gehrke, Riedewald:
//! *Approximation Techniques for Spatial Data*, SIGMOD 2004).
//!
//! The key object is a family of random variables `xi_i ∈ {-1, +1}`, indexed
//! by a domain `{0, .., 2^k - 1}`, such that any four distinct variables are
//! jointly independent. Such a family can be stored in `O(k)` bits (a seed)
//! and any `xi_i` evaluated in `O(k)`-bit operations — the storage/time
//! tradeoff every sketch in this workspace relies on.
//!
//! The construction is the classical BCH code over GF(2^k) with a seed of
//! exactly `2k + 1` bits (the paper's, Section 2.2): [`bch`] defines the
//! seed and the scalar family, exactly four-wise independent and verified
//! exhaustively in tests.
//!
//! [`family`] holds the per-domain [`XiContext`] shaped for the sketch hot
//! loop (per-index precomputation shared across thousands of instances),
//! [`lane`] defines the 512-lane [`LaneWord`] every bit-sliced structure is
//! packed into, [`batch`] builds the bit-sliced evaluation blocks behind the
//! blocked build *and* query kernels (plus the [`BlockSums`] scratch each
//! query's covers are evaluated into), and
//! [`gf2`] supplies the carry-less GF(2^k) arithmetic the family needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bch;
pub mod family;
pub mod gf2;
pub mod lane;

pub use batch::{BchBlock, BlockSums, LaneCounter};
pub use bch::{BchFamily, BchSeed};
pub use family::{IndexPre, XiContext, CUBE_TABLE_MAX_BITS};
pub use gf2::GfContext;
pub use lane::LaneWord;
