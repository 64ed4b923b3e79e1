//! Thompson-construction NFAs.
//!
//! The NFA matcher serves two purposes in the reproduction:
//!
//! 1. It is an independent oracle for the derivative matcher — the two are
//!    cross-checked by property tests, which gives us high confidence in the
//!    contains-check used to validate synthesised expressions.
//! 2. It provides language-level utilities used by the test suite, such as
//!    enumerating all accepted words up to a bounded length
//!    ([`Nfa::enumerate_up_to`]), which is how integration tests verify that
//!    a synthesised expression is *precise* with respect to a specification
//!    beyond the literal examples.

use std::collections::BTreeSet;

use crate::Regex;

/// Identifier of an NFA state.
type StateId = usize;

/// A transition on a concrete character or on ε.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transition {
    /// Consume the given character.
    Char(char, StateId),
    /// Move without consuming input.
    Eps(StateId),
}

/// A non-deterministic finite automaton produced by Thompson's construction.
///
/// # Example
///
/// ```
/// use rei_syntax::{nfa::Nfa, parse};
///
/// let nfa = Nfa::compile(&parse("(0+1)*00").unwrap());
/// assert!(nfa.accepts("1100".chars()));
/// assert!(!nfa.accepts("1101".chars()));
/// ```
#[derive(Debug, Clone)]
pub struct Nfa {
    transitions: Vec<Vec<Transition>>,
    start: StateId,
    accept: StateId,
}

impl Nfa {
    /// Compiles a regular expression into an NFA using Thompson's
    /// construction. The automaton has `O(|r|)` states.
    pub fn compile(regex: &Regex) -> Self {
        let mut builder = Builder {
            transitions: Vec::new(),
        };
        let (start, accept) = builder.build(regex);
        Nfa {
            transitions: builder.transitions,
            start,
            accept,
        }
    }

    /// Number of states of the automaton.
    pub fn state_count(&self) -> usize {
        self.transitions.len()
    }

    /// Returns `true` if the automaton accepts `word`.
    pub fn accepts<I: IntoIterator<Item = char>>(&self, word: I) -> bool {
        let mut current = self.start_set();
        for c in word {
            current = self.step(&current, c);
            if current.is_empty() {
                return false;
            }
        }
        current.contains(&self.accept)
    }

    /// Enumerates every word over `alphabet` of length at most `max_len`
    /// that the automaton accepts, in shortlex order.
    ///
    /// This is exponential in `max_len` and intended for test oracles on
    /// small alphabets only.
    pub fn enumerate_up_to(&self, alphabet: &[char], max_len: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut frontier = vec![(String::new(), self.start_set())];
        if frontier[0].1.contains(&self.accept) {
            out.push(String::new());
        }
        for _ in 0..max_len {
            let mut next_frontier = Vec::new();
            for (prefix, states) in &frontier {
                for &c in alphabet {
                    let closure = self.step(states, c);
                    if closure.is_empty() {
                        continue;
                    }
                    let mut word = prefix.clone();
                    word.push(c);
                    if closure.contains(&self.accept) {
                        out.push(word.clone());
                    }
                    next_frontier.push((word, closure));
                }
            }
            frontier = next_frontier;
        }
        out
    }

    /// The ε-closed start state set.
    fn start_set(&self) -> BTreeSet<StateId> {
        self.eps_closure([self.start].into_iter().collect())
    }

    /// One ε-closed transition step of a state set on character `c`.
    fn step(&self, states: &BTreeSet<StateId>, c: char) -> BTreeSet<StateId> {
        let mut next = BTreeSet::new();
        for &state in states {
            for t in &self.transitions[state] {
                if let Transition::Char(tc, dst) = t {
                    if *tc == c {
                        next.insert(*dst);
                    }
                }
            }
        }
        self.eps_closure(next)
    }

    fn eps_closure(&self, mut states: BTreeSet<StateId>) -> BTreeSet<StateId> {
        let mut stack: Vec<StateId> = states.iter().copied().collect();
        while let Some(state) = stack.pop() {
            for t in &self.transitions[state] {
                if let Transition::Eps(dst) = t {
                    if states.insert(*dst) {
                        stack.push(*dst);
                    }
                }
            }
        }
        states
    }
}

struct Builder {
    transitions: Vec<Vec<Transition>>,
}

impl Builder {
    fn fresh(&mut self) -> StateId {
        self.transitions.push(Vec::new());
        self.transitions.len() - 1
    }

    fn add(&mut self, from: StateId, t: Transition) {
        self.transitions[from].push(t);
    }

    /// Returns `(start, accept)` of the fragment for `regex`.
    fn build(&mut self, regex: &Regex) -> (StateId, StateId) {
        match regex {
            Regex::Empty => {
                let start = self.fresh();
                let accept = self.fresh();
                (start, accept)
            }
            Regex::Epsilon => {
                let start = self.fresh();
                let accept = self.fresh();
                self.add(start, Transition::Eps(accept));
                (start, accept)
            }
            Regex::Literal(a) => {
                let start = self.fresh();
                let accept = self.fresh();
                self.add(start, Transition::Char(*a, accept));
                (start, accept)
            }
            Regex::Concat(l, r) => {
                let (ls, la) = self.build(l);
                let (rs, ra) = self.build(r);
                self.add(la, Transition::Eps(rs));
                (ls, ra)
            }
            Regex::Union(l, r) => {
                let start = self.fresh();
                let accept = self.fresh();
                let (ls, la) = self.build(l);
                let (rs, ra) = self.build(r);
                self.add(start, Transition::Eps(ls));
                self.add(start, Transition::Eps(rs));
                self.add(la, Transition::Eps(accept));
                self.add(ra, Transition::Eps(accept));
                (start, accept)
            }
            Regex::Star(inner) => {
                let start = self.fresh();
                let accept = self.fresh();
                let (is, ia) = self.build(inner);
                self.add(start, Transition::Eps(is));
                self.add(start, Transition::Eps(accept));
                self.add(ia, Transition::Eps(is));
                self.add(ia, Transition::Eps(accept));
                (start, accept)
            }
            Regex::Question(inner) => {
                let start = self.fresh();
                let accept = self.fresh();
                let (is, ia) = self.build(inner);
                self.add(start, Transition::Eps(is));
                self.add(start, Transition::Eps(accept));
                self.add(ia, Transition::Eps(accept));
                (start, accept)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn empty_language_accepts_nothing() {
        let nfa = Nfa::compile(&Regex::Empty);
        assert!(!nfa.accepts("".chars()));
        assert!(!nfa.accepts("a".chars()));
    }

    #[test]
    fn epsilon_accepts_only_empty_word() {
        let nfa = Nfa::compile(&Regex::Epsilon);
        assert!(nfa.accepts("".chars()));
        assert!(!nfa.accepts("a".chars()));
    }

    #[test]
    fn concatenation_and_union() {
        let nfa = Nfa::compile(&parse("ab+cd").unwrap());
        assert!(nfa.accepts("ab".chars()));
        assert!(nfa.accepts("cd".chars()));
        assert!(!nfa.accepts("ad".chars()));
    }

    #[test]
    fn star_and_question() {
        let nfa = Nfa::compile(&parse("(a?b)*").unwrap());
        assert!(nfa.accepts("".chars()));
        assert!(nfa.accepts("bab".chars()));
        assert!(nfa.accepts("abab".chars()));
        assert!(!nfa.accepts("aa".chars()));
    }

    #[test]
    fn enumerate_small_language() {
        let nfa = Nfa::compile(&parse("10(0+1)*").unwrap());
        let words = nfa.enumerate_up_to(&['0', '1'], 4);
        assert_eq!(
            words,
            vec!["10", "100", "101", "1000", "1001", "1010", "1011"]
        );
    }

    #[test]
    fn enumerate_includes_empty_word_when_nullable() {
        let nfa = Nfa::compile(&parse("(01)*").unwrap());
        let words = nfa.enumerate_up_to(&['0', '1'], 2);
        assert_eq!(words, vec!["", "01"]);
    }

    #[test]
    fn state_count_is_linear_in_size() {
        let r = parse("(0+1)*0101(0+1)*").unwrap();
        let nfa = Nfa::compile(&r);
        assert!(nfa.state_count() <= 40, "got {}", nfa.state_count());
    }
}
