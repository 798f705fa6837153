//! Generic product estimators over pairs of sketch sets.
//!
//! Every join-style estimator in the paper has the same shape: an atomic
//! estimate `Z = Σ_t c_t · X_{w_t} · Y_{v_t}` (a signed, weighted sum of
//! products of one atomic sketch from each side), boosted by mean-then-median
//! over the instance grid. The estimators differ only in the *term lists* and
//! the endpoint policies of the two sides:
//!
//! * interval join (Theorem 1): `Z = (X_I Y_E + X_E Y_I) / 2`;
//! * rectangle join (Theorem 2): `Z = (X_II Y_EE + X_IE Y_EI + X_EI Y_IE +
//!   X_EE Y_II) / 4`;
//! * d-dimensional join (Theorem 3): `Z = 2^{-d} Σ_w X_w Y_w̄`;
//! * ε-join (Lemma 8): `Z = X_E Y_I` over point covers and cube covers;
//! * extended join (Appendix B.1), Appendix-C common-endpoint join, and
//!   containment joins — all with their own per-dimension factor lists.
//!
//! [`PairTerms`] builds the word-level term list from a *per-dimension*
//! factor list by cartesian expansion, which is exactly how the paper derives
//! its higher-dimensional estimators from per-dimension counting arguments.
//! Evaluating the expanded terms over the instance grid is delegated to the
//! [`crate::query`] kernels (scalar oracle vs blocked, block-evaluated).

use crate::atomic::{EndpointPolicy, SketchSet};
use crate::boost::Estimate;
use crate::comp::{word_name, Comp, Word};
use crate::error::{Result, SketchError};
use crate::query::QueryContext;
use crate::schema::SketchSchema;
use std::sync::Arc;

/// One per-dimension factor: R-side component × S-side component × weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DimTerm {
    /// Component applied to the `R` relation in this dimension.
    pub r: Comp,
    /// Component applied to the `S` relation in this dimension.
    pub s: Comp,
    /// Signed weight of this factor.
    pub coeff: f64,
}

impl DimTerm {
    /// Convenience constructor.
    pub fn new(r: Comp, s: Comp, coeff: f64) -> Self {
        Self { r, s, coeff }
    }
}

/// A word-level term: indices into the R-side and S-side word lists plus a
/// signed coefficient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Term {
    /// Index into the R-side word list.
    pub r_word: usize,
    /// Index into the S-side word list.
    pub s_word: usize,
    /// Signed coefficient.
    pub coeff: f64,
}

/// The expanded estimator shape: word lists for both sides and the terms.
#[derive(Debug, Clone)]
pub struct PairTerms<const D: usize> {
    r_words: Arc<Vec<Word<D>>>,
    s_words: Arc<Vec<Word<D>>>,
    terms: Vec<Term>,
}

impl<const D: usize> PairTerms<D> {
    /// Expands per-dimension factor lists into word-level terms by cartesian
    /// product: choosing factor `t_i` in each dimension contributes the term
    /// `(Π c_{t_i}) · X_{(r_{t_1},..,r_{t_D})} · Y_{(s_{t_1},..,s_{t_D})}`.
    pub fn from_dim_terms(per_dim: &[Vec<DimTerm>; D]) -> Self {
        for dims in per_dim.iter() {
            assert!(
                !dims.is_empty(),
                "every dimension needs at least one factor"
            );
        }
        let mut r_words: Vec<Word<D>> = Vec::new();
        let mut s_words: Vec<Word<D>> = Vec::new();
        let mut terms = Vec::new();

        let intern = |words: &mut Vec<Word<D>>, w: Word<D>| -> usize {
            match words.iter().position(|x| *x == w) {
                Some(i) => i,
                None => {
                    words.push(w);
                    words.len() - 1
                }
            }
        };

        // Odometer over factor choices.
        let mut choice = [0usize; D];
        loop {
            let mut rw = [Comp::Interval; D];
            let mut sw = [Comp::Interval; D];
            let mut coeff = 1.0;
            for dim in 0..D {
                let t = per_dim[dim][choice[dim]];
                rw[dim] = t.r;
                sw[dim] = t.s;
                coeff *= t.coeff;
            }
            let r_idx = intern(&mut r_words, rw);
            let s_idx = intern(&mut s_words, sw);
            terms.push(Term {
                r_word: r_idx,
                s_word: s_idx,
                coeff,
            });

            // Advance the odometer.
            let mut dim = 0;
            loop {
                if dim == D {
                    return Self {
                        r_words: Arc::new(r_words),
                        s_words: Arc::new(s_words),
                        terms,
                    };
                }
                choice[dim] += 1;
                if choice[dim] < per_dim[dim].len() {
                    break;
                }
                choice[dim] = 0;
                dim += 1;
            }
        }
    }

    /// The R-side word list.
    pub fn r_words(&self) -> &Arc<Vec<Word<D>>> {
        &self.r_words
    }

    /// The S-side word list.
    pub fn s_words(&self) -> &Arc<Vec<Word<D>>> {
        &self.s_words
    }

    /// The word-level terms.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Human-readable rendering, e.g. `0.5·X_I·Y_E + 0.5·X_E·Y_I`.
    pub fn describe(&self) -> String {
        self.terms
            .iter()
            .map(|t| {
                format!(
                    "{:+}·X_{}·Y_{}",
                    t.coeff,
                    word_name(&self.r_words[t.r_word]),
                    word_name(&self.s_words[t.s_word])
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// A ready-to-use two-relation estimator: shared schema, expanded terms and
/// the endpoint policies of both sides.
#[derive(Debug, Clone)]
pub struct PairEstimator<const D: usize> {
    schema: Arc<SketchSchema<D>>,
    terms: PairTerms<D>,
    r_policy: EndpointPolicy,
    s_policy: EndpointPolicy,
}

impl<const D: usize> PairEstimator<D> {
    /// Assembles an estimator from a schema, terms and policies.
    pub fn new(
        schema: Arc<SketchSchema<D>>,
        terms: PairTerms<D>,
        r_policy: EndpointPolicy,
        s_policy: EndpointPolicy,
    ) -> Self {
        Self {
            schema,
            terms,
            r_policy,
            s_policy,
        }
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<SketchSchema<D>> {
        &self.schema
    }

    /// The expanded terms.
    pub fn terms(&self) -> &PairTerms<D> {
        &self.terms
    }

    /// Creates an empty sketch for the `R` side.
    pub fn new_sketch_r(&self) -> SketchSet<D> {
        SketchSet::new(
            Arc::clone(&self.schema),
            Arc::clone(&self.terms.r_words),
            self.r_policy,
        )
    }

    /// Creates an empty sketch for the `S` side.
    pub fn new_sketch_s(&self) -> SketchSet<D> {
        SketchSet::new(
            Arc::clone(&self.schema),
            Arc::clone(&self.terms.s_words),
            self.s_policy,
        )
    }

    /// Checks that both sketches were drawn from this estimator's schema and
    /// carry its word sets.
    pub(crate) fn check_sketches(&self, r: &SketchSet<D>, s: &SketchSet<D>) -> Result<()> {
        if r.schema().id() != self.schema.id() || s.schema().id() != self.schema.id() {
            return Err(SketchError::SchemaMismatch);
        }
        if !Arc::ptr_eq(r.words(), &self.terms.r_words) && **r.words() != *self.terms.r_words {
            return Err(SketchError::WordMismatch);
        }
        if !Arc::ptr_eq(s.words(), &self.terms.s_words) && **s.words() != *self.terms.s_words {
            return Err(SketchError::WordMismatch);
        }
        Ok(())
    }

    /// Combines two sketches into the boosted estimate.
    ///
    /// Errors if the sketches come from a different schema or carry the
    /// wrong word sets (e.g. were built by a different estimator).
    ///
    /// Convenience form of [`PairEstimator::estimate_with`] that builds a
    /// throwaway [`QueryContext`]; serving loops should hold one context and
    /// reuse it across calls.
    pub fn estimate(&self, r: &SketchSet<D>, s: &SketchSet<D>) -> Result<Estimate> {
        self.estimate_with(&mut QueryContext::new(), r, s)
    }

    /// Combines two sketches into the boosted estimate using the caller's
    /// [`QueryContext`] (kernel choice + reused scratch: no allocation
    /// beyond the returned [`Estimate`] once the context has warmed up).
    pub fn estimate_with(
        &self,
        ctx: &mut QueryContext,
        r: &SketchSet<D>,
        s: &SketchSet<D>,
    ) -> Result<Estimate> {
        self.check_sketches(r, s)?;
        Ok(ctx.pair_estimate(&self.terms.terms, r, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comp::ie_words;

    #[test]
    fn expansion_of_plain_join_1d() {
        let per_dim = [vec![
            DimTerm::new(Comp::Interval, Comp::Endpoints, 0.5),
            DimTerm::new(Comp::Endpoints, Comp::Interval, 0.5),
        ]];
        let t = PairTerms::<1>::from_dim_terms(&per_dim);
        assert_eq!(t.r_words().len(), 2);
        assert_eq!(t.s_words().len(), 2);
        assert_eq!(t.terms().len(), 2);
        assert!(t.terms().iter().all(|x| (x.coeff - 0.5).abs() < 1e-12));
        assert_eq!(t.describe(), "+0.5·X_I·Y_E +0.5·X_E·Y_I");
    }

    #[test]
    fn expansion_of_plain_join_2d_matches_lemma6() {
        let dim = vec![
            DimTerm::new(Comp::Interval, Comp::Endpoints, 0.5),
            DimTerm::new(Comp::Endpoints, Comp::Interval, 0.5),
        ];
        let t = PairTerms::<2>::from_dim_terms(&[dim.clone(), dim]);
        // Z = (X_II Y_EE + X_IE Y_EI + X_EI Y_IE + X_EE Y_II) / 4
        assert_eq!(t.terms().len(), 4);
        assert!(t.terms().iter().all(|x| (x.coeff - 0.25).abs() < 1e-12));
        // Every term pairs a word with its complement.
        for term in t.terms() {
            let rw = t.r_words()[term.r_word];
            let sw = t.s_words()[term.s_word];
            assert_eq!(crate::comp::complement(&rw), sw);
        }
        // Words are exactly {I,E}^2 on both sides.
        let mut names: Vec<String> = t.r_words().iter().map(word_name).collect();
        names.sort();
        assert_eq!(names, vec!["EE", "EI", "IE", "II"]);
        let expected: Vec<Word<2>> = ie_words::<2>();
        assert_eq!(t.r_words().len(), expected.len());
    }

    #[test]
    fn expansion_with_signs() {
        // A 1-d Appendix-C-style list with negative factors.
        let per_dim = [vec![
            DimTerm::new(Comp::Interval, Comp::Endpoints, 0.5),
            DimTerm::new(Comp::Endpoints, Comp::Interval, 0.5),
            DimTerm::new(Comp::LowerLeaf, Comp::UpperLeaf, -1.0),
            DimTerm::new(Comp::UpperLeaf, Comp::LowerLeaf, -1.0),
            DimTerm::new(Comp::LowerLeaf, Comp::LowerLeaf, -0.5),
            DimTerm::new(Comp::UpperLeaf, Comp::UpperLeaf, -0.5),
        ]];
        let t = PairTerms::<1>::from_dim_terms(&per_dim);
        assert_eq!(t.terms().len(), 6);
        // R-side words dedup to {I, E, L-leaf, U-leaf}.
        assert_eq!(t.r_words().len(), 4);
        let sum: f64 = t.terms().iter().map(|x| x.coeff).sum();
        assert!((sum - (-2.0)).abs() < 1e-12);
    }

    #[test]
    fn word_interning_dedups() {
        // Two factors sharing the same R comp must share an R word.
        let per_dim = [vec![
            DimTerm::new(Comp::Interval, Comp::Endpoints, 1.0),
            DimTerm::new(Comp::Interval, Comp::LowerPoint, 1.0),
        ]];
        let t = PairTerms::<1>::from_dim_terms(&per_dim);
        assert_eq!(t.r_words().len(), 1);
        assert_eq!(t.s_words().len(), 2);
    }

    #[test]
    fn three_d_expansion_size() {
        let dim = vec![
            DimTerm::new(Comp::Interval, Comp::Endpoints, 0.5),
            DimTerm::new(Comp::Endpoints, Comp::Interval, 0.5),
        ];
        let t = PairTerms::<3>::from_dim_terms(&[dim.clone(), dim.clone(), dim]);
        assert_eq!(t.terms().len(), 8);
        assert_eq!(t.r_words().len(), 8);
        assert!(t.terms().iter().all(|x| (x.coeff - 0.125).abs() < 1e-12));
    }
}
