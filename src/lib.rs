//! Paresy-rs: a Rust reproduction of *"Search-Based Regular Expression
//! Inference on a GPU"* (Valizadeh & Berger, PLDI 2023).
//!
//! This facade crate re-exports the public API of the workspace crates so
//! that downstream users can depend on a single crate:
//!
//! * [`syntax`] — regular-expression ASTs, cost homomorphisms, parsing and
//!   matching ([`rei_syntax`]).
//! * [`lang`] — the formal-language substrate: specifications, infix
//!   closures, characteristic sequences and guide tables ([`rei_lang`]).
//! * [`core`] — the Paresy synthesiser itself: sessions, backends,
//!   observers and the language cache ([`rei_core`]).
//! * [`gpu`] — the software SIMT device model used as the GPU substrate
//!   ([`gpu_sim`]).
//! * [`baseline`] — the AlphaRegex baseline ([`alpharegex`]).
//! * [`mod@bench`] — benchmark generators and the paper-reproduction
//!   harness ([`rei_bench`]).
//! * [`service`] — the multi-tenant synthesis service: worker pool, job
//!   scheduling, result caching and request coalescing ([`rei_service`]).
//! * [`net`] — the TCP JSONL serving front-end: bounded handler pool,
//!   per-tenant fair-share admission, graceful drain ([`rei_net`]).
//!
//! # Quickstart
//!
//! Synthesis runs inside a [`SynthSession`](crate::core::SynthSession):
//! create it once from a serializable
//! [`SynthConfig`](crate::core::SynthConfig), then reuse it across
//! specifications — the session owns the execution backend (and the warm
//! simulated-GPU device of the parallel backend), so batches of requests
//! pay device setup once.
//!
//! ```
//! use paresy::prelude::*;
//!
//! // The introductory example of the paper: learn 10(0+1)*.
//! let spec = Spec::from_strs(
//!     ["10", "101", "100", "1010", "1011", "1000", "1001"],
//!     ["", "0", "1", "00", "11", "010"],
//! )
//! .unwrap();
//! let config = SynthConfig::new(CostFn::UNIFORM).with_backend(BackendChoice::parallel());
//! let mut session = SynthSession::new(config).unwrap();
//! let result = session.run(&spec).unwrap();
//! // Minimal cost is guaranteed on every backend; the expression may be
//! // any equally-minimal candidate, e.g. `10(0+1)*`.
//! assert_eq!(result.cost, 8);
//! assert!(spec.is_satisfied_by(&result.regex));
//!
//! // The same session keeps serving further specs on the warm device.
//! let more = Spec::from_strs(["0", "00", "000"], ["", "01", "1"]).unwrap();
//! let outcomes = session.run_batch(&[more]);
//! assert!(outcomes[0].is_ok());
//! assert_eq!(session.stats().runs, 2);
//! ```
//!
//! Long runs can be observed per cost level and cancelled cooperatively:
//!
//! ```
//! use paresy::prelude::*;
//!
//! let spec = Spec::from_strs(["0", "00"], ["1", "10"]).unwrap();
//! let mut session = SynthSession::new(SynthConfig::new(CostFn::UNIFORM)).unwrap();
//! let token: CancelToken = session.cancel_token(); // trip from any thread
//! let mut log = LevelLog::default();               // an Observer
//! session.run_with(&spec, &mut log).unwrap();
//! assert!(log.levels.windows(2).all(|w| w[0].cost < w[1].cost));
//! # let _ = token;
//! ```
//!
//! Many tenants share one warm pool through the service layer: requests
//! queue with priorities and deadlines, identical requests are answered
//! from a result cache or coalesced onto one in-flight synthesis.
//! Several pools shard behind a [`ShardRouter`](crate::service::ShardRouter)
//! (routing by tenant key or spec fingerprint), and a pool given a cache
//! directory persists its results across restarts:
//!
//! ```
//! use paresy::prelude::*;
//!
//! let service = SynthService::start(ServiceConfig::new(2)).unwrap();
//! let spec = Spec::from_strs(["0", "00"], ["1", "10"]).unwrap();
//! let handle = service.submit(SynthRequest::new(spec)).unwrap();
//! assert!(handle.wait().outcome.is_ok());
//! let metrics = service.shutdown();
//! assert_eq!(metrics.solved, 1);
//! ```
//!
//! Interactive clients *refine* a session instead of re-running it:
//! [`SynthSession::refine`](crate::core::SynthSession::refine) reuses the
//! previous run's retained level caches when the new spec strengthens the
//! old one, and the service layer keeps per-tenant warm sessions behind
//! `session.open` / `refine` / `session.close` requests. The one-shot
//! [`Synthesizer`](crate::core::Synthesizer) builder remains for quick
//! experiments.

#![forbid(unsafe_code)]

pub use alpharegex as baseline;
pub use gpu_sim as gpu;
pub use rei_bench as bench;
pub use rei_core as core;
pub use rei_lang as lang;
pub use rei_net as net;
pub use rei_service as service;
pub use rei_syntax as syntax;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use alpharegex::AlphaRegex;
    pub use rei_core::{
        Backend, BackendChoice, CancelToken, ColdReason, DeviceParallel, LevelLog, LevelStats,
        Observer, RefineState, ReuseDecision, RunOutcome, Sequential, SessionStats, SynthConfig,
        SynthSession, SynthesisError, SynthesisResult, Synthesizer, ThreadParallel,
    };
    pub use rei_lang::{Alphabet, InfixClosure, Spec, Word};
    pub use rei_net::{install_shutdown_signals, NetConfig, NetServer};
    pub use rei_service::{
        AdmissionConfig, AdmissionCounters, AdmissionError, FairShare, HashRing, JobHandle,
        MetricsSnapshot, RecoveryReport, ResponseSource, RouterConfig, RouterSnapshot,
        ServiceConfig, ServiceError, ShardRouter, SynthRequest, SynthResponse, SynthService,
        TenantPolicy, WalOptions,
    };
    pub use rei_syntax::{parse, CostFn, Regex};
}
