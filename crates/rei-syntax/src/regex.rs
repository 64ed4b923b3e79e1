//! The regular-expression abstract syntax tree.

use std::sync::Arc;

use crate::matcher;
use crate::CostFn;

/// A regular expression over a `char` alphabet.
///
/// The grammar follows Definition 2.7 of the paper, extended with the
/// derived `?` (question-mark) constructor that Paresy synthesises as a
/// first-class operator with its own cost:
///
/// ```text
/// r ::= ∅ | ε | a | r·r | r + r | r* | r?
/// ```
///
/// Sub-expressions are reference counted ([`Arc`]) so that the bottom-up
/// reconstruction performed by the synthesiser can share sub-terms freely
/// without quadratic copying, and atomically so that finished expressions
/// can cross threads (the synthesis service hands results from worker
/// threads to waiting clients and shares them through its result cache).
///
/// # Example
///
/// ```
/// use rei_syntax::Regex;
///
/// // 10(0+1)*  — all binary strings starting with "10".
/// let r = Regex::concat(
///     Regex::word("10".chars()),
///     Regex::union(Regex::literal('0'), Regex::literal('1')).star(),
/// );
/// assert!(r.accepts("10110".chars()));
/// assert!(!r.accepts("0".chars()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Regex {
    /// The empty language `∅`.
    Empty,
    /// The language `{ε}` containing only the empty string.
    Epsilon,
    /// A single-character literal `a`.
    Literal(char),
    /// Concatenation `r·s`.
    Concat(Arc<Regex>, Arc<Regex>),
    /// Union (alternation) `r + s`.
    Union(Arc<Regex>, Arc<Regex>),
    /// Kleene star `r*`.
    Star(Arc<Regex>),
    /// Optional `r?`, i.e. the language of `ε + r`.
    Question(Arc<Regex>),
}

impl Regex {
    /// Returns the empty-language expression `∅`.
    pub fn empty() -> Self {
        Regex::Empty
    }

    /// Returns the empty-string expression `ε`.
    pub fn epsilon() -> Self {
        Regex::Epsilon
    }

    /// Returns the literal expression for character `a`.
    pub fn literal(a: char) -> Self {
        Regex::Literal(a)
    }

    /// Builds the concatenation `self · rhs` of two expressions.
    pub fn concat(lhs: Regex, rhs: Regex) -> Self {
        Regex::Concat(Arc::new(lhs), Arc::new(rhs))
    }

    /// Builds the union `lhs + rhs` of two expressions.
    pub fn union(lhs: Regex, rhs: Regex) -> Self {
        Regex::Union(Arc::new(lhs), Arc::new(rhs))
    }

    /// Wraps the expression in a Kleene star, producing `self*`.
    pub fn star(self) -> Self {
        Regex::Star(Arc::new(self))
    }

    /// Wraps the expression in a question mark, producing `self?`.
    pub fn question(self) -> Self {
        Regex::Question(Arc::new(self))
    }

    /// Builds the concatenation of the literals of `word`, or `ε` for the
    /// empty word.
    ///
    /// ```
    /// use rei_syntax::Regex;
    /// assert_eq!(Regex::word("ab".chars()).to_string(), "ab");
    /// assert_eq!(Regex::word("".chars()), Regex::Epsilon);
    /// ```
    pub fn word<I: IntoIterator<Item = char>>(word: I) -> Self {
        let mut iter = word.into_iter();
        let first = match iter.next() {
            None => return Regex::Epsilon,
            Some(c) => Regex::literal(c),
        };
        iter.fold(first, |acc, c| Regex::concat(acc, Regex::literal(c)))
    }

    /// Builds the union of all expressions in `items`, or `∅` when `items`
    /// is empty.
    ///
    /// ```
    /// use rei_syntax::Regex;
    /// let r = Regex::union_of(vec![Regex::literal('a'), Regex::literal('b')]);
    /// assert_eq!(r.to_string(), "a+b");
    /// assert_eq!(Regex::union_of(Vec::new()), Regex::Empty);
    /// ```
    pub fn union_of<I: IntoIterator<Item = Regex>>(items: I) -> Self {
        let mut iter = items.into_iter();
        let first = match iter.next() {
            None => return Regex::Empty,
            Some(r) => r,
        };
        iter.fold(first, Regex::union)
    }

    /// Builds `(a1 + a2 + ... + ak)` for the characters of `alphabet`, the
    /// expression the paper abbreviates as `Σ`. Returns `∅` for an empty
    /// alphabet.
    pub fn any_of<I: IntoIterator<Item = char>>(alphabet: I) -> Self {
        Regex::union_of(alphabet.into_iter().map(Regex::literal))
    }

    /// The cost of the expression under the cost homomorphism `costs`
    /// (Definition 3.2 of the paper).
    ///
    /// ```
    /// use rei_syntax::{parse, CostFn};
    /// let r = parse("10(0+1)*").unwrap();
    /// // 4 literals + 2 explicit concatenations are free under (1,1,1,0,0)… use uniform:
    /// assert_eq!(r.cost(&CostFn::UNIFORM), 8);
    /// ```
    pub fn cost(&self, costs: &CostFn) -> u64 {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Literal(_) => costs.literal,
            Regex::Question(r) => costs.question + r.cost(costs),
            Regex::Star(r) => costs.star + r.cost(costs),
            Regex::Concat(l, r) => costs.concat + l.cost(costs) + r.cost(costs),
            Regex::Union(l, r) => costs.union + l.cost(costs) + r.cost(costs),
        }
    }

    /// Returns `true` if the expression accepts `word`, using the
    /// Brzozowski-derivative matcher.
    ///
    /// This is the *contains-check* of the paper (Section 5.1); it is used
    /// by the AlphaRegex baseline and by tests as an oracle, while the
    /// Paresy synthesiser itself never needs it (it works on characteristic
    /// sequences instead).
    pub fn accepts<I: IntoIterator<Item = char>>(&self, word: I) -> bool {
        matcher::accepts(self, word)
    }

    /// Returns `true` if the language of the expression contains the empty
    /// string.
    ///
    /// ```
    /// use rei_syntax::parse;
    /// assert!(parse("(ab)*").unwrap().is_nullable());
    /// assert!(!parse("a(ab)*").unwrap().is_nullable());
    /// ```
    pub fn is_nullable(&self) -> bool {
        match self {
            Regex::Empty | Regex::Literal(_) => false,
            Regex::Epsilon | Regex::Star(_) | Regex::Question(_) => true,
            Regex::Concat(l, r) => l.is_nullable() && r.is_nullable(),
            Regex::Union(l, r) => l.is_nullable() || r.is_nullable(),
        }
    }

    /// Returns `true` if the language of the expression is empty.
    ///
    /// Note that this is a syntactic under-approximation-free check: it is
    /// exact because `∅` can only arise from the `Empty` constructor and
    /// concatenation/star/union of empty languages.
    pub fn is_empty_language(&self) -> bool {
        match self {
            Regex::Empty => true,
            Regex::Epsilon | Regex::Literal(_) | Regex::Star(_) | Regex::Question(_) => false,
            Regex::Concat(l, r) => l.is_empty_language() || r.is_empty_language(),
            Regex::Union(l, r) => l.is_empty_language() && r.is_empty_language(),
        }
    }

    /// Iterates over all distinct literal characters occurring in the
    /// expression, in ascending order.
    ///
    /// ```
    /// use rei_syntax::parse;
    /// let r = parse("b(a+c)*").unwrap();
    /// assert_eq!(r.literals(), vec!['a', 'b', 'c']);
    /// ```
    pub fn literals(&self) -> Vec<char> {
        let mut out = Vec::new();
        self.collect_literals(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_literals(&self, out: &mut Vec<char>) {
        match self {
            Regex::Empty | Regex::Epsilon => {}
            Regex::Literal(a) => out.push(*a),
            Regex::Star(r) | Regex::Question(r) => r.collect_literals(out),
            Regex::Concat(l, r) | Regex::Union(l, r) => {
                l.collect_literals(out);
                r.collect_literals(out);
            }
        }
    }
}

impl Default for Regex {
    /// The default expression is `∅`, the unit of union.
    fn default() -> Self {
        Regex::Empty
    }
}

impl From<char> for Regex {
    fn from(a: char) -> Self {
        Regex::Literal(a)
    }
}

impl From<&str> for Regex {
    /// Converts a plain string into the concatenation of its characters.
    /// This does **not** parse operators; use [`crate::parse`] for that.
    fn from(word: &str) -> Self {
        Regex::word(word.chars())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_of_empty_string_is_epsilon() {
        assert_eq!(Regex::word("".chars()), Regex::Epsilon);
    }

    #[test]
    fn word_builds_left_nested_concat() {
        let r = Regex::word("abc".chars());
        assert_eq!(r.to_string(), "abc");
        assert!(r.accepts("abc".chars()));
        assert!(!r.accepts("ab".chars()));
    }

    #[test]
    fn union_of_empty_iterator_is_empty_language() {
        assert_eq!(Regex::union_of(Vec::new()), Regex::Empty);
    }

    #[test]
    fn any_of_binary_alphabet() {
        let r = Regex::any_of(['0', '1']);
        assert!(r.accepts("0".chars()));
        assert!(r.accepts("1".chars()));
        assert!(!r.accepts("01".chars()));
        assert!(!r.accepts("".chars()));
    }

    #[test]
    fn nullability() {
        assert!(Regex::Epsilon.is_nullable());
        assert!(!Regex::Empty.is_nullable());
        assert!(!Regex::literal('a').is_nullable());
        assert!(Regex::literal('a').star().is_nullable());
        assert!(Regex::literal('a').question().is_nullable());
        assert!(Regex::union(Regex::Epsilon, Regex::literal('a')).is_nullable());
        assert!(!Regex::concat(Regex::literal('a'), Regex::Epsilon.star()).is_nullable());
    }

    #[test]
    fn empty_language_detection() {
        assert!(Regex::Empty.is_empty_language());
        assert!(Regex::concat(Regex::Empty, Regex::literal('a')).is_empty_language());
        assert!(!Regex::union(Regex::Empty, Regex::literal('a')).is_empty_language());
        assert!(!Regex::Empty.star().is_empty_language());
    }

    #[test]
    fn cost_of_nested_expression() {
        let costs = CostFn::new(1, 2, 7, 2, 19);
        // (a+b)* : two literals (1+1), one union (+19), one star (+7) = 28.
        let r = Regex::union(Regex::literal('a'), Regex::literal('b')).star();
        assert_eq!(r.cost(&costs), 28);
    }

    #[test]
    fn from_str_is_literal_word() {
        let r = Regex::from("01");
        assert!(r.accepts("01".chars()));
        assert!(!r.accepts("0+1".chars()));
    }

    #[test]
    fn literals_are_sorted_and_deduplicated() {
        let r = Regex::from("banana");
        assert_eq!(r.literals(), vec!['a', 'b', 'n']);
    }

    #[test]
    fn default_is_empty() {
        assert_eq!(Regex::default(), Regex::Empty);
    }
}
