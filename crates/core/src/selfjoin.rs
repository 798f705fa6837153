//! Self-join sizes: the quantity that controls sketch accuracy.
//!
//! Every variance bound in the paper is of the form
//! `Var[Z] ≤ c · SJ(R) · SJ(S)` where `SJ(R) = Σ_w SJ(X_w)` sums the
//! self-join sizes `SJ(X_w) = E[X_w²] = Σ_δ f_w(δ)²` of the maintained
//! atomic sketches (Equations 5-6). This module computes them two ways:
//!
//! * [`exact_self_join`] — exactly, from the data, by materializing the
//!   cover-frequency maps (an analysis tool: `O(Σ |covers|^d)` space);
//! * [`estimate_self_join`] — from the sketch itself, using `E[X_w²] =
//!   SJ(X_w)` (the original AMS tug-of-war estimate). This is what a
//!   deployed system uses to feed the space planner, since the exact
//!   computation needs a pass over the data.

use crate::atomic::{EndpointPolicy, SketchSet};
use crate::boost::Estimate;
use crate::comp::{Comp, Word};
use crate::estimator::Term;
use crate::query::QueryContext;
use crate::schema::DimSpec;
use dyadic::{interval_cover, point_cover, DyadicDomain, NodeId};
use geometry::transform::{shrink_interval, triple, triple_interval};
use geometry::{HyperRect, Interval};
use std::collections::HashMap;

/// Node lists contributed by one object to one component in one dimension.
fn comp_nodes(
    comp: Comp,
    iv: &Interval,
    policy: EndpointPolicy,
    domain: &DyadicDomain,
    max_level: u32,
) -> Vec<NodeId> {
    let (geo, leaf_lo, leaf_hi) = match policy {
        EndpointPolicy::Raw => (Some(*iv), iv.lo(), iv.hi()),
        EndpointPolicy::Tripled => (Some(triple_interval(iv)), triple(iv.lo()), triple(iv.hi())),
        EndpointPolicy::TripledShrunk => (shrink_interval(iv), triple(iv.lo()), triple(iv.hi())),
    };
    match comp {
        Comp::Interval => geo
            .map(|g| interval_cover(domain, &g, max_level))
            .unwrap_or_default(),
        Comp::Endpoints => geo
            .map(|g| {
                let mut v = point_cover(domain, g.lo(), max_level);
                v.extend(point_cover(domain, g.hi(), max_level));
                v
            })
            .unwrap_or_default(),
        Comp::LowerPoint => geo
            .map(|g| point_cover(domain, g.lo(), max_level))
            .unwrap_or_default(),
        Comp::UpperPoint => geo
            .map(|g| point_cover(domain, g.hi(), max_level))
            .unwrap_or_default(),
        Comp::LowerLeaf => vec![domain.leaf(leaf_lo)],
        Comp::UpperLeaf => vec![domain.leaf(leaf_hi)],
    }
}

/// Exact `SJ(X_w)` for one word over a data set.
///
/// Materializes the d-dimensional frequency map `f_w(δ_1, .., δ_d)`; memory
/// is the number of distinct node combinations, up to
/// `O(|data| · (2 log n)^d)` — fine for analysis-scale inputs, not meant for
/// the largest experiment datasets (use [`estimate_self_join`] there).
pub fn exact_word_self_join<const D: usize>(
    data: &[HyperRect<D>],
    dims: &[DimSpec; D],
    policy: EndpointPolicy,
    word: &Word<D>,
) -> u128 {
    let domains: [DyadicDomain; D] =
        std::array::from_fn(|i| DyadicDomain::new(dims[i].sketch_bits));
    let mut freq: HashMap<[NodeId; D], i64> = HashMap::new();
    let mut key = [0u64; D];
    for rect in data {
        let per_dim: [Vec<NodeId>; D] = std::array::from_fn(|i| {
            comp_nodes(
                word[i],
                &rect.range(i),
                policy,
                &domains[i],
                dims[i].max_level,
            )
        });
        if per_dim.iter().any(|v| v.is_empty()) {
            continue;
        }
        // Cartesian accumulation.
        let mut idx = [0usize; D];
        loop {
            for i in 0..D {
                key[i] = per_dim[i][idx[i]];
            }
            *freq.entry(key).or_insert(0) += 1;
            let mut dim = 0;
            loop {
                if dim == D {
                    break;
                }
                idx[dim] += 1;
                if idx[dim] < per_dim[dim].len() {
                    break;
                }
                idx[dim] = 0;
                dim += 1;
            }
            if dim == D {
                break;
            }
        }
    }
    freq.values()
        .map(|&f| (f as i128 * f as i128) as u128)
        .sum()
}

/// Exact `SJ(R) = Σ_w SJ(X_w)` over a word set.
pub fn exact_self_join<const D: usize>(
    data: &[HyperRect<D>],
    dims: &[DimSpec; D],
    policy: EndpointPolicy,
    words: &[Word<D>],
) -> u128 {
    words
        .iter()
        .map(|w| exact_word_self_join(data, dims, policy, w))
        .sum()
}

/// Sketch-based estimate of `SJ(X_w)` for one maintained word: the boosted
/// mean-median of `X_w²` across instances (`E[X_w²] = SJ(X_w)` exactly).
///
/// Convenience form of [`estimate_word_self_join_with`] building a
/// throwaway [`QueryContext`].
pub fn estimate_word_self_join<const D: usize>(sketch: &SketchSet<D>, word_idx: usize) -> Estimate {
    estimate_word_self_join_with(&mut QueryContext::new(), sketch, word_idx)
}

/// [`estimate_word_self_join`] with the caller's [`QueryContext`]: under the
/// blocked kernels the squared counters are extracted as whole per-lane
/// estimate vectors per instance block and boosted straight from the
/// context's grid, with no per-estimate allocation.
pub fn estimate_word_self_join_with<const D: usize>(
    ctx: &mut QueryContext,
    sketch: &SketchSet<D>,
    word_idx: usize,
) -> Estimate {
    let terms = [Term {
        r_word: word_idx,
        s_word: word_idx,
        coeff: 1.0,
    }];
    ctx.pair_estimate(&terms, sketch, sketch)
}

/// Sketch-based estimate of `SJ(R) = Σ_w SJ(X_w)` over all maintained words.
///
/// Convenience form of [`estimate_self_join_with`] building a throwaway
/// [`QueryContext`].
pub fn estimate_self_join<const D: usize>(sketch: &SketchSet<D>) -> Estimate {
    estimate_self_join_with(&mut QueryContext::new(), sketch)
}

/// [`estimate_self_join`] with the caller's [`QueryContext`]; the sketch is
/// paired with itself on the diagonal word terms `Σ_w X_w · X_w`.
pub fn estimate_self_join_with<const D: usize>(
    ctx: &mut QueryContext,
    sketch: &SketchSet<D>,
) -> Estimate {
    let terms: Vec<Term> = (0..sketch.words().len())
        .map(|i| Term {
            r_word: i,
            s_word: i,
            coeff: 1.0,
        })
        .collect();
    ctx.pair_estimate(&terms, sketch, sketch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comp::ie_words;
    use crate::schema::{BoostShape, SketchSchema};
    use geometry::rect2;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng};
    use std::sync::Arc;

    #[test]
    fn exact_matches_dyadic_freq_module_1d() {
        // Cross-check against the independent implementation in the dyadic
        // crate for the 1-d I and E words.
        let data: Vec<HyperRect<1>> = vec![
            Interval::new(0, 12).into(),
            Interval::new(3, 40).into(),
            Interval::new(3, 40).into(),
            Interval::new(60, 61).into(),
        ];
        let ivs: Vec<Interval> = data.iter().map(|r| r.range(0)).collect();
        let dims = [DimSpec::dyadic(6)];
        let domain = DyadicDomain::new(6);
        let sj_i = exact_word_self_join(&data, &dims, EndpointPolicy::Raw, &[Comp::Interval]);
        let sj_e = exact_word_self_join(&data, &dims, EndpointPolicy::Raw, &[Comp::Endpoints]);
        let want_i =
            dyadic::freq::self_join_size(&dyadic::freq::interval_cover_freqs(&domain, &ivs, 6));
        let want_e =
            dyadic::freq::self_join_size(&dyadic::freq::endpoint_cover_freqs(&domain, &ivs, 6));
        assert_eq!(sj_i, want_i);
        assert_eq!(sj_e, want_e);
        assert_eq!(
            exact_self_join(&data, &dims, EndpointPolicy::Raw, &ie_words::<1>()),
            want_i + want_e
        );
    }

    #[test]
    fn exact_2d_brute_force_small() {
        // For a tiny input, verify SJ(X_II) against a direct double loop over
        // cover pairs.
        let data = vec![rect2(0, 3, 1, 2), rect2(2, 5, 0, 3)];
        let dims = [DimSpec::dyadic(3); 2];
        let d3 = DyadicDomain::new(3);
        let mut brute: u128 = 0;
        for a in &data {
            let ax = interval_cover(&d3, &a.range(0), 3);
            let ay = interval_cover(&d3, &a.range(1), 3);
            for b in &data {
                let bx = interval_cover(&d3, &b.range(0), 3);
                let by = interval_cover(&d3, &b.range(1), 3);
                let shared_x = ax.iter().filter(|n| bx.contains(n)).count() as u128;
                let shared_y = ay.iter().filter(|n| by.contains(n)).count() as u128;
                brute += shared_x * shared_y;
            }
        }
        let sj = exact_word_self_join(
            &data,
            &dims,
            EndpointPolicy::Raw,
            &[Comp::Interval, Comp::Interval],
        );
        assert_eq!(sj, brute);
    }

    #[test]
    fn sketched_estimate_tracks_exact() {
        let mut rng = StdRng::seed_from_u64(90);
        let schema =
            SketchSchema::<1>::new(&mut rng, BoostShape::new(600, 5), [DimSpec::dyadic(8)]);
        let words = Arc::new(ie_words::<1>());
        let mut sk = SketchSet::new(schema, words.clone(), EndpointPolicy::Raw);
        let mut grng = StdRng::seed_from_u64(6);
        let data: Vec<HyperRect<1>> = (0..60)
            .map(|_| {
                let lo = grng.gen_range(0..200u64);
                Interval::new(lo, lo + grng.gen_range(1..40u64).min(255 - lo)).into()
            })
            .collect();
        for r in &data {
            sk.insert(r).unwrap();
        }
        let exact =
            exact_self_join(&data, &[DimSpec::dyadic(8)], EndpointPolicy::Raw, &words) as f64;
        let est = estimate_self_join(&sk);
        assert!(
            (est.value - exact).abs() / exact < 0.35,
            "estimated SJ {} vs exact {exact}",
            est.value
        );
    }

    #[test]
    fn leaf_words_and_shrunk_policy() {
        // Leaf components have exactly one node per object; SJ of the
        // lower-leaf word counts coincident lower endpoints quadratically.
        let data: Vec<HyperRect<1>> = vec![
            Interval::new(5, 9).into(),
            Interval::new(5, 30).into(),
            Interval::new(5, 31).into(),
            Interval::new(7, 8).into(),
        ];
        let dims = [DimSpec::dyadic(8)];
        let sj = exact_word_self_join(&data, &dims, EndpointPolicy::Raw, &[Comp::LowerLeaf]);
        // f(leaf 5) = 3, f(leaf 7) = 1 -> 9 + 1.
        assert_eq!(sj, 10);
        // Tripled-shrunk geometric word drops nothing here (all non-degenerate).
        let dims_t = [DimSpec::dyadic(10)];
        let sj_t = exact_word_self_join(
            &data,
            &dims_t,
            EndpointPolicy::TripledShrunk,
            &[Comp::Interval],
        );
        assert!(sj_t > 0);
        // Degenerate object contributes nothing to shrunk geometry.
        let degen: Vec<HyperRect<1>> = vec![Interval::point(4).into()];
        assert_eq!(
            exact_word_self_join(
                &degen,
                &dims_t,
                EndpointPolicy::TripledShrunk,
                &[Comp::Interval]
            ),
            0
        );
    }
}
