//! The Paresy algorithm: search-based regular expression inference.
//!
//! This crate implements Section 3 of *"Search-Based Regular Expression
//! Inference on a GPU"* (Valizadeh & Berger, PLDI 2023): a bottom-up,
//! cost-ordered search over regular *languages*, represented as
//! characteristic sequences over the infix closure of the examples, with
//!
//! * a write-once, contiguous **language cache** grouped by cost
//!   ([`cache::LanguageCache`]),
//! * per-cost **builders** for the `?`, `*`, `·` and `+` constructors that
//!   combine cached rows using the staged guide table,
//! * a global **uniqueness check** through a WarpCore-style concurrent set,
//! * **OnTheFly mode** once the memory budget is exhausted,
//! * reconstruction of a **minimal regular expression** from the provenance
//!   stored next to each row, and
//! * the **REI-with-error** extension of Section 5.2.
//!
//! # Architecture
//!
//! Execution strategy is an open abstraction: the [`Backend`] trait
//! decides how the rows of a cost level are computed. Three backends ship
//! with the crate — [`Sequential`] (the reference CPU loop),
//! [`ThreadParallel`] (level batches cut into 64-row spans that worker
//! threads claim in order, running the bit-parallel mask kernels) and
//! [`DeviceParallel`]
//! (data-parallel kernels on an owned [`gpu_sim::Device`], mirroring the
//! paper's GPU implementation). All produce results of identical minimal
//! cost.
//!
//! The primary entry point is the session API: a [`SynthConfig`] (plain,
//! serializable data, validated into [`SynthesisError::InvalidConfig`])
//! creates a [`SynthSession`] that is reused across runs — it owns the
//! backend, the warm device buffers and cumulative counters, and exposes
//! [`run`](SynthSession::run), [`run_batch`](SynthSession::run_batch)
//! and [`run_with`](SynthSession::run_with) (per-cost-level [`Observer`]
//! events). Long runs stop cooperatively through a [`CancelToken`].
//! [`Synthesizer`] remains as a one-shot convenience wrapper.
//!
//! Interactive workloads refine a session instead of re-running it:
//! [`refine`](SynthSession::refine) detects when a new [`Spec`] is a
//! *strengthening* of the previous one and reuses the previous outcome
//! and retained level caches (see [`RunOutcome`], [`ReuseDecision`] and
//! the [`refine`] module); any other spec transparently
//! falls back to a cold run.
//!
//! [`Spec`]: rei_lang::Spec
//!
//! # Example
//!
//! ```
//! use rei_core::{SynthConfig, SynthSession, SynthesisError};
//! use rei_lang::Spec;
//! use rei_syntax::CostFn;
//!
//! let spec = Spec::from_strs(
//!     ["10", "101", "100", "1010", "1011", "1000", "1001"],
//!     ["", "0", "1", "00", "11", "010"],
//! ).unwrap();
//! let mut session = SynthSession::new(SynthConfig::new(CostFn::UNIFORM))?;
//! let result = session.run(&spec)?;
//! assert_eq!(result.regex.to_string(), "10(0+1)*");
//! assert_eq!(result.cost, 8);
//! # Ok::<(), SynthesisError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Failed runs deliberately carry their full `SynthesisStats` payload
// (the benchmark harness and the service layer account failures from
// it). The error path is cold — at most one value per run — so the
// by-value size clippy flags is irrelevant here, and boxing would
// complicate every public pattern match on `SynthesisError`.
#![allow(clippy::result_large_err)]

pub mod backend;
pub mod cache;
mod config;
mod observe;
pub mod refine;
mod result;
mod search;
mod session;
mod synth;

pub use backend::{
    Backend, BackendChoice, BatchOutcome, DeviceParallel, LevelBatch, RowVerdict, Sequential,
    ThreadParallel,
};
pub use cache::{LanguageCache, Provenance};
pub use config::SynthConfig;
pub use observe::{CancelToken, LevelLog, NoopObserver, Observer};
pub use refine::{ColdReason, RefineState, ReuseDecision, RunOutcome};
pub use result::{LevelStats, SynthesisError, SynthesisResult, SynthesisStats};
pub use session::{SessionStats, SynthSession};
pub use synth::Synthesizer;
