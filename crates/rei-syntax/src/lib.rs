//! Regular-expression syntax for Paresy-rs.
//!
//! This crate provides the syntactic substrate shared by the Paresy
//! synthesiser ([`rei-core`](https://docs.rs/rei-core)), the AlphaRegex
//! baseline and the benchmark harness:
//!
//! * [`Regex`] — the abstract syntax tree of regular expressions over a
//!   `char` alphabet (`∅`, `ε`, literals, concatenation, union, Kleene star
//!   and the derived `?` operator, which the paper treats as a first-class
//!   constructor with its own cost).
//! * [`CostFn`] — cost homomorphisms in the sense of Definition 3.2 of the
//!   paper: a 5-tuple `(cost(a), cost(?), cost(*), cost(·), cost(+))`.
//! * [`parse`](crate::parse::parse) — a small parser for the concrete syntax
//!   used in examples and tests (`#` is `∅`, `_` is `ε`, `+` is union,
//!   juxtaposition is concatenation, postfix `*` and `?`).
//! * [`matcher`] — a Brzozowski-derivative matcher, and [`nfa`] — a
//!   Thompson-construction NFA matcher used as an independent oracle in
//!   tests.
//!
//! # Example
//!
//! ```
//! use rei_syntax::{parse, CostFn, Regex};
//!
//! let r = parse("10(0+1)*").unwrap();
//! assert!(r.accepts("1001".chars()));
//! assert!(!r.accepts("01".chars()));
//! assert_eq!(r.cost(&CostFn::UNIFORM), 8);
//! assert_eq!(r.to_string(), "10(0+1)*");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod display;
pub mod enumerate;
mod error;
pub mod matcher;
pub mod metrics;
pub mod nfa;
mod parse;
mod regex;

pub use cost::CostFn;
pub use error::ParseError;
pub use parse::parse;
pub use regex::Regex;
