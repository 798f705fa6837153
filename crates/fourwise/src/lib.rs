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
//! Two constructions are provided:
//!
//! * [`bch`] — the classical BCH-code construction over GF(2^k) with a seed
//!   of exactly `2k + 1` bits (the paper's construction). Exactly four-wise
//!   independent; verified exhaustively in tests.
//! * [`poly`] — a random cubic polynomial over Z_{2^61-1} mapped to a sign by
//!   parity; four-wise independent with a negligible (< 2^-61) sign bias.
//!
//! [`family`] wraps both behind one interface shaped for the sketch hot loop
//! (shared per-index precomputation across thousands of instances),
//! [`lane`] defines the [`Lane`] machine-word abstraction (the one-word
//! 64-lane `u64`, the 512-lane [`WideLane512`] the sketch kernels run and a
//! 256-lane [`WideLane`]), [`batch`] builds the lane-width-generic bit-sliced
//! evaluation blocks behind the blocked build *and* query kernels (plus the
//! [`BlockSums`] scratch each query's covers are evaluated into), and
//! [`gf2`] supplies the carry-less GF(2^k) arithmetic the BCH family needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bch;
pub mod family;
pub mod gf2;
pub mod lane;
pub mod poly;

pub use batch::{BlockSums, LaneCounter, XiBlock, BLOCK_LANES, WIDE512_LANES, WIDE_LANES};
pub use bch::{BchFamily, BchSeed};
pub use family::{IndexPre, XiContext, XiFamily, XiKind, XiSeed, CUBE_TABLE_MAX_BITS};
pub use gf2::GfContext;
pub use lane::{Lane, WideLane, WideLane512};
pub use poly::{PolyFamily, PolySeed};
