//! Ready-made estimators for the paper's query classes.
//!
//! | estimator | paper section | query |
//! |-----------|---------------|-------|
//! | [`joins::SpatialJoin`] | §4, §6.1, §5.2, App. C | `\|R ⋈_o S\|` for d-dimensional hyper-rectangles |
//! | [`joins::OverlapPlusJoin`] | App. B.1 | `\|R ⋈+_o S\|` (touching counts) |
//! | [`eps::EpsJoin`] | §6.3 | `\|A ⋈_ε B\|` for point sets under L∞ |
//! | [`range::RangeQuery`] | §6.4 | `\|Q(q, R)\|` and stabbing counts |
//! | [`containment::IntervalContainment`] / [`containment::RectContainment`] | App. B.2 | `#{(r, s) : s ⊆ r}` |

pub mod containment;
pub mod eps;
pub mod joins;
pub mod range;

use crate::schema::BoostShape;

/// Construction-time configuration shared by all estimators. Every
/// estimator draws its ξ-families from the BCH four-wise construction
/// (Section 2.2); the configuration picks the boosting grid and the
/// `maxLevel` truncation.
#[derive(Debug, Clone, Copy)]
pub struct SketchConfig {
    /// Boosting grid shape (`k1` averaged, median of `k2`).
    pub shape: BoostShape,
    /// Optional `maxLevel` truncation (Section 6.5). `None` = fully dyadic.
    pub max_level: Option<u32>,
}

impl SketchConfig {
    /// Default configuration: fully dyadic covers.
    pub fn new(k1: usize, k2: usize) -> Self {
        Self {
            shape: BoostShape::new(k1, k2),
            max_level: None,
        }
    }

    /// Sets the `maxLevel` truncation.
    pub fn with_max_level(mut self, max_level: u32) -> Self {
        self.max_level = Some(max_level);
        self
    }
}
