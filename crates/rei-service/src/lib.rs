//! A multi-tenant synthesis service on top of [`rei_core`]'s session API:
//! job scheduling, result caching and request coalescing, built entirely
//! from threads, mutexes and condvars (no async runtime).
//!
//! # Architecture
//!
//! ```text
//!                       submit / try_submit
//!  clients ──────────────────────┬──────────────────────────────────┐
//!                                ▼                                  │
//!                       ┌─────────────────┐   hit                   │
//!                       │  result cache   ├────────► JobHandle (done)│
//!                       │  + coalescing   │   in-flight             │
//!                       └───────┬─────────┘────────► JobHandle (shared)
//!                          miss │ reserve
//!                               ▼
//!                   ┌───────────────────────┐
//!                   │  bounded job queue    │
//!                   │  priority ▸ FIFO      │
//!                   └───┬───────┬───────┬───┘
//!                       ▼       ▼       ▼
//!                   worker 0 worker 1 … worker N
//!                   (one warm SynthSession — and one
//!                    gpu_sim::Device on the device-parallel
//!                    backend — per worker; a job's deadline
//!                    rides on the session's CancelToken)
//! ```
//!
//! **Scheduling.** Jobs queue with a per-request priority (higher first,
//! FIFO within a priority) and an optional deadline. A job whose deadline
//! passes while it is still queued fails fast with
//! [`SynthesisError::Cancelled`](rei_core::SynthesisError::Cancelled)
//! instead of occupying a worker. A job that starts runs with its deadline
//! set on the worker session's own [`CancelToken`](rei_core::CancelToken)
//! ([`cancel_at`](rei_core::CancelToken::cancel_at)): the token reads as
//! tripped once the deadline passes, the search stops at its next poll
//! point exactly as a caller-side cancellation would, and the worker
//! resets the token before its next job. A traced job that misses its
//! deadline records a `deadline` event with the overshoot.
//!
//! **Backpressure.** The queue is bounded. [`SynthService::submit`]
//! blocks while the queue is at capacity — producers slow down to the
//! pool's pace — and [`SynthService::try_submit`] returns
//! [`ServiceError::QueueFull`] for callers that prefer load shedding.
//! Cache hits and coalesced requests consume no queue slot and never
//! block.
//!
//! **Caching & coalescing.** Results are keyed by the canonical request
//! identity — [`Spec::canonicalize`](rei_lang::Spec::canonicalize) plus
//! the pool's [`SynthConfig`](rei_core::SynthConfig) wire string — so
//! requests that differ only in example order or duplication share one
//! entry. A request identical to an *in-flight* job attaches to that
//! job's completion instead of enqueuing duplicate work: N concurrent
//! identical requests trigger exactly one synthesis and N responses.
//! Successful results are cached (FIFO-evicted beyond capacity);
//! failures are not — a timeout belongs to a request's budget, not to
//! the specification.
//!
//! **Persistence.** A pool configured with
//! [`ServiceConfig::with_cache_dir`] spills every completed result into
//! a crash-safe segmented write-ahead log — one record of `(canonical
//! spec encoding, config wire string) → (regex, cost)` per JSONL line,
//! appended to the newest segment, rolled and fsync-sealed at a size
//! threshold, with a tmp+rename `MANIFEST.json` naming the live files.
//! On start, recovery replays the checkpoint plus all segments on
//! multiple threads (last record wins; corrupt or torn records are
//! skipped with a warning, records written under a different
//! configuration are misses) and warms the in-memory cache. A janitor
//! thread folds sealed history into checkpoints *while serving* and
//! enforces an optional least-recently-hit disk byte cap
//! ([`WalOptions`]); graceful shutdown runs one final fold. A kill-9
//! costs at most the records after the last completed append — the
//! spilled identity is the same canonical form the in-memory cache
//! compares, so a *restarted* service answers repeats from disk without
//! re-running a synthesis. See DESIGN.md "Durability".
//!
//! **Sharding.** The [`ShardRouter`] puts N identical pools — each a
//! full `SynthService` with its own workers, queue, cache and cache
//! file — behind one submission front-end and routes each request by its
//! tenant key ([`SynthRequest::with_tenant`]), falling back to the
//! specification's stable fingerprint. The pool count is fixed at
//! [start](ShardRouter::start). The key picks a pool through a
//! consistent-hash [`HashRing`], so a restart over the same cache
//! directory with one pool more moves only ~1/(N+1) of the keys away
//! from their warm store. Per-pool metrics roll up into one cross-pool
//! [`RouterSnapshot`].
//!
//! **Admission.** A [`FairShare`] stage in front of the router enforces
//! per-tenant token-bucket rate limits and in-flight caps
//! ([`TenantPolicy`]), and drains backlogged submissions through
//! weighted deficit-round-robin lanes — one hot tenant cannot starve the
//! rest, and over-limit requests are refused immediately
//! ([`AdmissionError::RateLimited`]) instead of hanging.
//!
//! **Shutdown.** [`SynthService::close`] stops intake;
//! [`SynthService::shutdown`] (and `Drop`) additionally drains — every
//! already-accepted job completes and every waiter is answered — then
//! joins the workers, compacts the persistent cache and returns the
//! final [`MetricsSnapshot`].
//!
//! # Example
//!
//! ```
//! use rei_service::{ServiceConfig, SynthRequest, SynthService};
//! use rei_lang::Spec;
//!
//! let service = SynthService::start(ServiceConfig::new(2)).unwrap();
//! let spec = Spec::from_strs(["10", "101"], ["", "0"]).unwrap();
//! // Three identical tenants: one synthesis, three answers.
//! let handles: Vec<_> = (0..3)
//!     .map(|_| service.submit(SynthRequest::new(spec.clone())).unwrap())
//!     .collect();
//! for handle in &handles {
//!     let response = handle.wait();
//!     assert!(spec.is_satisfied_by(&response.outcome.unwrap().regex));
//! }
//! let metrics = service.shutdown();
//! assert_eq!(metrics.submitted, 3);
//! assert_eq!(metrics.cache_hits + metrics.coalesced, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod cache;
pub mod failpoint;
pub mod json;
mod metrics;
mod queue;
mod request;
mod ring;
mod router;
mod service;
mod session;

pub use admission::{
    AdmissionConfig, AdmissionCounters, AdmissionError, FairShare, InflightGuard, TenantCounters,
    TenantPolicy,
};
pub use cache::{replay, CacheKey, RecoveryReport, WalOptions, WalStore};
pub use metrics::MetricsSnapshot;
pub use request::{JobHandle, ResponseSource, SynthRequest, SynthResponse};
pub use ring::{HashRing, VNODES};
pub use router::{RouterConfig, RouterSnapshot, ShardRouter};
pub use service::{
    ServiceConfig, ServiceError, SynthService, DEFAULT_SESSION_CAPACITY, DEFAULT_SESSION_IDLE,
};
