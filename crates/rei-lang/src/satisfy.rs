//! Satisfaction masks: checking `L ⊨ (P, N)` with two bitwise operations.

use crate::{csops, Cs, CsWidth, InfixClosure, Spec};

/// The pair of bit masks used to decide whether a characteristic sequence
/// satisfies a specification.
///
/// `pos` has a 1 exactly at the closure index of every positive example,
/// `neg` at the index of every negative example. A language represented by
/// the row `cs` satisfies the specification iff `(cs & pos) == pos` and
/// `(cs & neg) == 0`. This check runs once per freshly constructed CS, so
/// it is on the hot path of the search.
///
/// # Example
///
/// ```
/// use rei_lang::{InfixClosure, SatisfyMasks, Spec};
/// use rei_syntax::parse;
///
/// let spec = Spec::from_strs(["10", "100"], ["", "01"]).unwrap();
/// let ic = InfixClosure::of_spec(&spec);
/// let masks = SatisfyMasks::new(&spec, &ic);
/// let cs = ic.cs_of_regex(&parse("10(0+1)*").unwrap());
/// assert!(masks.is_satisfied(cs.blocks()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatisfyMasks {
    width: CsWidth,
    pos: Cs,
    neg: Cs,
}

impl SatisfyMasks {
    /// Builds the masks for `spec` relative to the infix closure `ic`.
    ///
    /// # Panics
    ///
    /// Panics if an example of `spec` is not a member of `ic` (the closure
    /// must have been computed from the same specification).
    pub fn new(spec: &Spec, ic: &InfixClosure) -> Self {
        for word in spec.iter() {
            assert!(
                ic.index_of(word).is_some(),
                "example '{word}' is not in the infix closure"
            );
        }
        SatisfyMasks {
            width: ic.width(),
            pos: ic.cs_of_words(spec.positive().iter()),
            neg: ic.cs_of_words(spec.negative().iter()),
        }
    }

    /// The bitvector geometry of the masks.
    pub fn width(&self) -> CsWidth {
        self.width
    }

    /// The positive-example mask.
    pub fn positive(&self) -> &Cs {
        &self.pos
    }

    /// The negative-example mask.
    pub fn negative(&self) -> &Cs {
        &self.neg
    }

    /// Total number of examples covered by the masks.
    pub fn num_examples(&self) -> usize {
        self.pos.count_ones() + self.neg.count_ones()
    }

    /// Returns `true` if the row accepts every positive and rejects every
    /// negative example.
    #[inline]
    pub fn is_satisfied(&self, row: &[u64]) -> bool {
        csops::satisfies(row, self.pos.blocks(), self.neg.blocks())
    }

    /// Number of examples the row misclassifies (positives missing plus
    /// negatives present). Used by REI with allowed error (paper §5.2).
    #[inline]
    pub fn misclassified(&self, row: &[u64]) -> usize {
        csops::misclassified(row, self.pos.blocks(), self.neg.blocks())
    }

    /// Returns `true` if the row misclassifies at most `allowed` examples.
    #[inline]
    pub fn is_satisfied_with_error(&self, row: &[u64], allowed: usize) -> bool {
        self.misclassified(row) <= allowed
    }

    /// Builds the single-block [`AdmissionPrefilter`] for these masks: the
    /// cheap first phase of the search's two-phase admission check.
    pub fn prefilter(&self) -> AdmissionPrefilter {
        AdmissionPrefilter::new(self)
    }
}

/// The cheap reject phase of two-phase admission: a single-block lower
/// bound on [`SatisfyMasks::misclassified`].
///
/// The full satisfaction check folds over every block of the row. Most
/// candidate rows of a cost level are *not* winners, and almost all of
/// them already miss a positive-example bit (or hit a negative-example
/// bit) inside one well-chosen block. The prefilter stores the example
/// bits of the densest block of `pos | neg` — the block whose must-have
/// and must-not-have bits reject the most rows — and counts the
/// misclassifications visible in that block alone:
///
/// ```text
/// lower_bound = popcount((pos_b & !row_b) | (neg_b & row_b))
/// ```
///
/// Since `misclassified(row) >= lower_bound`, `lower_bound > allowed`
/// proves the row cannot satisfy the specification, and the full
/// per-block fold is skipped. Rows that pass the prefilter still run the
/// exact check; the prefilter never changes which rows are admitted, only
/// how much work rejection costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPrefilter {
    block: usize,
    pos: u64,
    neg: u64,
}

impl AdmissionPrefilter {
    /// Builds the prefilter from the satisfaction masks, picking the block
    /// with the most example bits.
    pub fn new(masks: &SatisfyMasks) -> Self {
        let pos = masks.pos.blocks();
        let neg = masks.neg.blocks();
        let block = (0..pos.len())
            .max_by_key(|&b| (pos[b] | neg[b]).count_ones())
            .unwrap_or(0);
        AdmissionPrefilter {
            block,
            pos: pos.get(block).copied().unwrap_or(0),
            neg: neg.get(block).copied().unwrap_or(0),
        }
    }

    /// The block index the prefilter inspects.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Number of example bits visible to the prefilter (its rejection
    /// power: a row can only be prefilter-rejected on these examples).
    pub fn example_bits(&self) -> u32 {
        (self.pos | self.neg).count_ones()
    }

    /// Returns `true` if the single inspected block already proves the row
    /// misclassifies more than `allowed` examples. A `true` verdict is
    /// final (the full check would fail too); `false` means "run the full
    /// check".
    #[inline]
    pub fn rejects(&self, row: &[u64], allowed: usize) -> bool {
        let b = row[self.block];
        ((self.pos & !b) | (self.neg & b)).count_ones() as usize > allowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rei_syntax::parse;

    fn setup() -> (Spec, InfixClosure, SatisfyMasks) {
        let spec = Spec::from_strs(
            ["10", "101", "100", "1010", "1011", "1000", "1001"],
            ["", "0", "1", "00", "11", "010"],
        )
        .unwrap();
        let ic = InfixClosure::of_spec(&spec);
        let masks = SatisfyMasks::new(&spec, &ic);
        (spec, ic, masks)
    }

    #[test]
    fn target_expression_satisfies() {
        let (_, ic, masks) = setup();
        let cs = ic.cs_of_regex(&parse("10(0+1)*").unwrap());
        assert!(masks.is_satisfied(cs.blocks()));
        assert_eq!(masks.misclassified(cs.blocks()), 0);
    }

    #[test]
    fn overfit_and_everything_expressions() {
        let (spec, ic, masks) = setup();
        let overfit = ic.cs_of_regex(&spec.overfit_regex());
        assert!(masks.is_satisfied(overfit.blocks()));
        let everything = ic.cs_of_regex(&parse("(0+1)*").unwrap());
        assert!(!masks.is_satisfied(everything.blocks()));
        assert_eq!(
            masks.misclassified(everything.blocks()),
            spec.num_negative()
        );
        let nothing = Cs::zero(ic.width());
        assert_eq!(masks.misclassified(nothing.blocks()), spec.num_positive());
    }

    #[test]
    fn error_tolerant_check() {
        let (_, ic, masks) = setup();
        let everything = ic.cs_of_regex(&parse("(0+1)*").unwrap());
        assert!(!masks.is_satisfied_with_error(everything.blocks(), 2));
        assert!(masks.is_satisfied_with_error(everything.blocks(), 6));
    }

    #[test]
    fn num_examples_matches_spec() {
        let (spec, _, masks) = setup();
        assert_eq!(masks.num_examples(), spec.len());
    }

    #[test]
    fn masks_agree_with_oracle_on_sampled_expressions() {
        let (spec, ic, masks) = setup();
        for expr in [
            "10",
            "1(0+1)*",
            "10(0+1)*",
            "(0+1)*0",
            "10?(0+1)*",
            "∅",
            "ε",
        ] {
            let r = parse(expr).unwrap();
            let cs = ic.cs_of_regex(&r);
            assert_eq!(
                masks.is_satisfied(cs.blocks()),
                spec.is_satisfied_by(&r),
                "disagreement on {expr}"
            );
            assert_eq!(
                masks.misclassified(cs.blocks()),
                spec.misclassified_by(&r),
                "error count disagreement on {expr}"
            );
        }
    }

    #[test]
    fn prefilter_rejections_are_sound() {
        // On every sampled expression, a prefilter reject must imply the
        // full check fails, for every allowed-error budget.
        let (_, ic, masks) = setup();
        let prefilter = masks.prefilter();
        assert!(prefilter.example_bits() > 0);
        assert!(prefilter.block() < ic.width().blocks());
        for expr in ["10", "1(0+1)*", "10(0+1)*", "(0+1)*0", "∅", "ε", "0?"] {
            let cs = ic.cs_of_regex(&parse(expr).unwrap());
            let full = masks.misclassified(cs.blocks());
            for allowed in 0..=masks.num_examples() {
                if prefilter.rejects(cs.blocks(), allowed) {
                    assert!(full > allowed, "{expr} with allowed {allowed}");
                }
            }
        }
    }

    #[test]
    fn prefilter_rejects_the_everything_language_cheaply() {
        // `(0+1)*` contains every negative example, so the single
        // inspected block already rules it out at zero allowed error.
        let (_, ic, masks) = setup();
        let prefilter = masks.prefilter();
        let everything = ic.cs_of_regex(&parse("(0+1)*").unwrap());
        assert!(prefilter.rejects(everything.blocks(), 0));
        // And the satisfying row always passes.
        let target = ic.cs_of_regex(&parse("10(0+1)*").unwrap());
        assert!(!prefilter.rejects(target.blocks(), 0));
    }

    proptest! {
        /// On one-block rows the prefilter inspects the whole row, so its
        /// bound is the exact misclassified count: `rejects(row, k)` holds
        /// exactly when `misclassified(row) > k`. The second admission
        /// phase stays anyway (see DESIGN.md, "Two-phase admission
        /// prefilter").
        #[test]
        fn prefilter_bound_is_exact_on_one_block_rows(bits in 0..u64::MAX) {
            let (_, ic, masks) = setup();
            prop_assert_eq!(ic.width().blocks(), 1);
            let prefilter = masks.prefilter();
            let row = [bits & (u64::MAX >> (64 - ic.len()))];
            let n = masks.num_examples();
            let bound = (0..=n).filter(|&k| prefilter.rejects(&row, k)).count();
            prop_assert_eq!(bound, masks.misclassified(&row));
        }
    }

    #[test]
    #[should_panic(expected = "not in the infix closure")]
    fn mismatched_closure_is_rejected() {
        let spec_a = Spec::from_strs(["0"], ["1"]).unwrap();
        let spec_b = Spec::from_strs(["111"], ["0000"]).unwrap();
        let ic_a = InfixClosure::of_spec(&spec_a);
        let _ = SatisfyMasks::new(&spec_b, &ic_a);
    }
}
