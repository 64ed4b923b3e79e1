//! Benchmark generators and the paper-reproduction harness for Paresy-rs.
//!
//! The crate has three parts:
//!
//! * [`generator`] — the parameterised random benchmark schemes of
//!   Section 4.3 of the paper (Type 1 and Type 2), driven by a seeded RNG
//!   so every experiment is reproducible.
//! * [`suite`] — a reconstruction of the 25 AlphaRegex tasks used in
//!   Table 2, each with its English description, example sets and a
//!   reference solution.
//! * [`harness`] — functions that regenerate every table and figure of the
//!   paper's evaluation (Figure 1, Table 1, Table 2, the outlier
//!   distribution and the allowed-error table of Section 5.2) and return
//!   the rows as plain data that the `reproduce` binary prints, plus the
//!   speed gates `reproduce check` runs.
//!
//! # Example
//!
//! ```
//! use rei_bench::generator::{Type1Params, generate_type1};
//! use rei_lang::Alphabet;
//!
//! let params = Type1Params { alphabet: Alphabet::binary(), max_len: 4, positives: 4, negatives: 4 };
//! let spec = generate_type1(&params, 7).unwrap();
//! assert_eq!(spec.num_positive(), 4);
//! assert_eq!(spec.num_negative(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costs;
pub mod generator;
pub mod harness;
pub mod report;
pub mod suite;
