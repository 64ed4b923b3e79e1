//! Cost homomorphisms (Definition 3.2 of the paper).

use std::fmt;

/// A cost homomorphism assigning strictly positive integer costs to each
/// regular constructor.
///
/// Following the paper's convention, a cost function is written as the
/// 5-tuple `(cost(a), cost(?), cost(*), cost(·), cost(+))`; for example in
/// `(5, 2, 7, 2, 19)` the Kleene star costs 7. The constants `∅`, `ε` and
/// every literal share the same cost `literal`.
///
/// # Example
///
/// ```
/// use rei_syntax::{parse, CostFn};
///
/// let star_expensive = CostFn::new(1, 1, 10, 1, 1);
/// let r = parse("(0+1)*").unwrap();
/// assert_eq!(r.cost(&star_expensive), 13);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CostFn {
    /// Cost of `∅`, `ε` and each literal character.
    pub literal: u64,
    /// Additional cost of the `?` constructor.
    pub question: u64,
    /// Additional cost of the Kleene star.
    pub star: u64,
    /// Additional cost of concatenation.
    pub concat: u64,
    /// Additional cost of union.
    pub union: u64,
}

impl CostFn {
    /// The uniform cost function `(1, 1, 1, 1, 1)` used as the reference
    /// ordering throughout the paper's evaluation.
    pub const UNIFORM: CostFn = CostFn::new(1, 1, 1, 1, 1);

    /// The cost function used by AlphaRegex's published examples, in which
    /// every constructor weighs the same and literal atoms cost 5; the
    /// paper reports AlphaRegex costs on this scale in Table 2.
    pub const ALPHAREGEX: CostFn = CostFn::new(5, 5, 5, 5, 5);

    /// Creates a cost homomorphism from the paper's 5-tuple order
    /// `(cost(a), cost(?), cost(*), cost(·), cost(+))`.
    ///
    /// # Panics
    ///
    /// Panics if any component is zero: Definition 3.2 requires all costs to
    /// be strictly positive (otherwise bottom-up search by increasing cost
    /// does not terminate).
    pub const fn new(literal: u64, question: u64, star: u64, concat: u64, union: u64) -> Self {
        assert!(
            literal > 0 && question > 0 && star > 0 && concat > 0 && union > 0,
            "cost homomorphism components must be strictly positive"
        );
        CostFn {
            literal,
            question,
            star,
            concat,
            union,
        }
    }

    /// Creates a cost homomorphism from a 5-element array in the paper's
    /// tuple order.
    pub const fn from_tuple(t: [u64; 5]) -> Self {
        CostFn::new(t[0], t[1], t[2], t[3], t[4])
    }

    /// Returns the 5-tuple `(literal, question, star, concat, union)`.
    pub const fn as_tuple(&self) -> [u64; 5] {
        [
            self.literal,
            self.question,
            self.star,
            self.concat,
            self.union,
        ]
    }

    /// The smallest additional cost of any unary or binary constructor.
    ///
    /// The OnTheFly mode of the synthesiser uses this value to know how far
    /// below the target cost the operands of a new language can lie (paper,
    /// Section 3, "OnTheFly mode").
    pub fn min_constructor_cost(&self) -> u64 {
        self.question
            .min(self.star)
            .min(self.concat)
            .min(self.union)
    }

    /// The largest component of the tuple; useful for sizing caches.
    pub fn max_component(&self) -> u64 {
        self.literal
            .max(self.question)
            .max(self.star)
            .max(self.concat)
            .max(self.union)
    }
}

impl Default for CostFn {
    fn default() -> Self {
        CostFn::UNIFORM
    }
}

impl fmt::Display for CostFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, {}, {}, {}, {})",
            self.literal, self.question, self.star, self.concat, self.union
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_tuple_order() {
        let c = CostFn::new(5, 2, 7, 2, 19);
        assert_eq!(c.to_string(), "(5, 2, 7, 2, 19)");
    }

    #[test]
    fn tuple_round_trip() {
        let c = CostFn::from_tuple([3, 1, 4, 1, 5]);
        assert_eq!(c.as_tuple(), [3, 1, 4, 1, 5]);
    }

    #[test]
    fn min_constructor_cost_ignores_literal() {
        let c = CostFn::new(1, 9, 8, 7, 6);
        assert_eq!(c.min_constructor_cost(), 6);
        assert_eq!(c.max_component(), 9);
    }

    #[test]
    fn default_is_uniform() {
        assert_eq!(CostFn::default(), CostFn::UNIFORM);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_cost_is_rejected() {
        let _ = CostFn::new(1, 0, 1, 1, 1);
    }
}
