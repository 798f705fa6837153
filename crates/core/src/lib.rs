//! # sketch — spatial sketches with provable error guarantees
//!
//! A full implementation of the estimation framework of Das, Gehrke,
//! Riedewald: *Approximation Techniques for Spatial Data* (SIGMOD 2004):
//! AMS-style randomized linear projections generalized from frequency
//! vectors to sets of intervals and hyper-rectangles.
//!
//! ## What it does
//!
//! Maintain tiny summaries ("sketches") of spatial relations under inserts
//! **and deletes**, in a single pass, and answer from the summaries alone:
//!
//! * spatial join cardinality `|R ⋈_o S|` of hyper-rectangle sets,
//! * extended joins `|R ⋈+_o S|` (touching counts), containment joins,
//! * ε-join cardinality of point sets under L∞,
//! * range-query selectivity and stabbing counts,
//!
//! each with an unbiased estimator whose error is provably within `ε`
//! relative with probability `1 - φ` given enough instances (the [`plan`]
//! module computes how many from the paper's Theorems).
//!
//! ## Architecture
//!
//! * [`comp`] — atomic-sketch components (`ξ̄[a,b]`, `ξ̄[a] + ξ̄[b]`, …) and
//!   words (`X_II`, `X_IE`, …);
//! * [`schema`] — the shared seeds and boosting-grid shape that make
//!   sketches combinable;
//! * [`atomic`] — the maintained counters ([`atomic::SketchSet`]) with
//!   streaming insert/delete, linear merge, and two bit-identical
//!   maintenance kernels ([`atomic::BuildKernel`]: scalar oracle and the
//!   512-lane blocked kernel over [`fourwise::Lane`] words);
//! * [`estimator`] — generic term-expansion machinery turning per-dimension
//!   counting identities into d-dimensional estimators;
//! * [`estimators`] — ready-made estimators for every query class in the
//!   paper;
//! * [`query`] — the estimation-side evaluation kernels
//!   ([`query::QueryKernel`]: scalar oracle and the 512-lane blocked
//!   kernel) and the shared [`query::QueryContext`]
//!   scratch — including a compiled-plan cache for repeated queries — every
//!   estimator evaluates through;
//! * [`kernel`] — the one blocked lane width and the ingest split floor
//!   both kernel families share;
//! * [`boost`] — mean-then-median boosting (Figure 1);
//! * [`selfjoin`] — exact and sketched self-join sizes (`SJ`), the accuracy
//!   currency of every variance bound;
//! * [`plan`] — Theorem-1/2/3 space planning and the paper's
//!   words-of-memory accounting;
//! * [`par`] — bulk loading with a caller-chosen worker count, parallel
//!   estimation and merging across the instance axis.
//!
//! ## Quick start
//!
//! ```
//! use rand::SeedableRng;
//! use sketch::estimators::{joins::{EndpointStrategy, SpatialJoin}, SketchConfig};
//! use geometry::rect2;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // 2-d rectangle join over a 1024x1024 domain, 128x5 boosting grid.
//! let join = SpatialJoin::<2>::new(
//!     &mut rng,
//!     SketchConfig::new(128, 5),
//!     [10, 10],
//!     EndpointStrategy::Transform,
//! );
//! let mut r = join.new_sketch_r();
//! let mut s = join.new_sketch_s();
//! for i in 0..50u64 {
//!     r.insert(&rect2(10 * i % 900, 10 * i % 900 + 40, 5 * i % 800, 5 * i % 800 + 60)).unwrap();
//!     s.insert(&rect2(7 * i % 880, 7 * i % 880 + 70, 11 * i % 850, 11 * i % 850 + 30)).unwrap();
//! }
//! let estimate = join.estimate(&r, &s).unwrap();
//! assert!(estimate.value >= 0.0 || estimate.value < 0.0); // finite either way
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod boost;
pub mod comp;
pub mod error;
pub mod estimator;
pub mod estimators;
pub mod kernel;
pub mod log;
pub mod par;
pub mod persist;
pub mod plan;
pub mod query;
pub mod schema;
pub mod selfjoin;

pub use atomic::{BuildKernel, EndpointPolicy, SketchSet};
pub use boost::Estimate;
pub use comp::{complement, ie_words, word_name, Comp, Word};
pub use error::{Result, SketchError};
pub use estimator::{DimTerm, PairEstimator, PairTerms, Term};
pub use estimators::containment::{IntervalContainment, RectContainment};
pub use estimators::eps::EpsJoin;
pub use estimators::joins::{EndpointStrategy, OverlapPlusJoin, SpatialJoin};
pub use estimators::range::{BatchQuery, RangeQuery, RangeStrategy};
pub use estimators::SketchConfig;
pub use kernel::{dispatch_report, preferred_lane_width, DispatchReport, INGEST_SPLIT_FLOOR};
pub use log::{LogEntry, LogRetention, UpdateLog};
pub use par::{par_estimate, par_insert_batch, par_merge_batch, par_update_batch};
pub use persist::{
    restore_pair, restore_schema, restore_sketch, restore_sketch_with_schema, snapshot_pair,
    snapshot_schema, snapshot_sketch, SchemaSnapshot, SketchPairSnapshot, SketchSnapshot,
};
pub use plan::Guarantee;
pub use query::{
    PartialEstimate, PlanCacheReport, PlanCacheStats, PlanMemoStats, QueryContext, QueryKernel,
};
pub use schema::{BoostShape, DimSpec, SketchSchema};
