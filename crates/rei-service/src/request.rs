//! Requests, responses and handles of the synthesis service.

use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rei_core::{ReuseDecision, SynthesisError, SynthesisResult};
use rei_lang::Spec;
use rei_obs::Trace;

/// A synthesis request: the specification plus scheduling hints.
///
/// Priority and deadline are *per request*, unlike the cost function and
/// backend, which are properties of the service's
/// [`SynthConfig`](rei_core::SynthConfig) (every worker of a pool runs the
/// same configuration, so results are interchangeable and cacheable).
#[derive(Debug, Clone)]
pub struct SynthRequest {
    pub(crate) spec: Spec,
    pub(crate) priority: i32,
    pub(crate) deadline: Option<Instant>,
    pub(crate) tenant: Option<String>,
    pub(crate) session: Option<String>,
    pub(crate) trace: Option<Trace>,
}

impl SynthRequest {
    /// A request with default scheduling: priority 0, no deadline, no
    /// tenant key.
    pub fn new(spec: Spec) -> Self {
        SynthRequest {
            spec,
            priority: 0,
            deadline: None,
            tenant: None,
            session: None,
            trace: None,
        }
    }

    /// Sets the scheduling priority. Higher runs earlier; equal priorities
    /// are served in submission order.
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets an absolute deadline. A job still queued when its deadline
    /// passes fails fast with [`SynthesisError::Cancelled`] instead of
    /// occupying a worker; a job already running is cancelled
    /// cooperatively through its worker's
    /// [`CancelToken`](rei_core::CancelToken).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline relative to now (see
    /// [`with_deadline`](SynthRequest::with_deadline)).
    pub fn with_timeout(self, timeout: Duration) -> Self {
        let deadline = Instant::now() + timeout;
        self.with_deadline(deadline)
    }

    /// Sets the tenant key a [`ShardRouter`](crate::ShardRouter) routes
    /// by: every request carrying the same tenant key lands on the same
    /// pool. Requests without one are routed by the specification's
    /// stable [`fingerprint`](Spec::fingerprint) instead. The key plays
    /// no part in result caching — two tenants of one pool asking for the
    /// same specification still share a cache entry.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Makes this a *refinement* of the named open session (see
    /// [`SynthService::open_session`](crate::SynthService::open_session)):
    /// instead of the cache/coalesce/enqueue path, the request runs
    /// through the session's retained [`RefineState`](rei_core::RefineState),
    /// reusing the previous run's level caches when the new specification
    /// strengthens the old one. The response's
    /// [`reuse`](SynthResponse::reuse) reports what was reused. When
    /// submitting through a [`ShardRouter`](crate::ShardRouter), carry the
    /// same tenant key the session was opened under (or none, both times)
    /// so the refine routes to the pool holding the session.
    pub fn with_session(mut self, session: impl Into<String>) -> Self {
        self.session = Some(session.into());
        self
    }

    /// Attaches a per-request trace handle (normally assigned at
    /// admission by the network front-end). Every layer the request
    /// passes through appends its phase event to the handle; the
    /// response's [`JobHandle`] carries it back out so the caller can
    /// correlate wire responses with timelines.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The attached trace handle, if any.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// The specification to synthesise for.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// The tenant routing key, if any.
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// The session this request refines, if any.
    pub fn session(&self) -> Option<&str> {
        self.session.as_deref()
    }

    /// The scheduling priority.
    pub fn priority(&self) -> i32 {
        self.priority
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

/// How a response was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseSource {
    /// A synthesis ran for this request.
    Fresh,
    /// The result was served from the result cache; no synthesis ran.
    Cache,
    /// The request was coalesced onto an identical in-flight job; one
    /// synthesis served all coalesced requests.
    Coalesced,
    /// The request refined an open session; the response's
    /// [`reuse`](SynthResponse::reuse) says how much of the session's
    /// retained state answered it.
    Session,
}

impl ResponseSource {
    /// A stable lowercase label (`fresh` / `cache` / `coalesced` /
    /// `session`).
    pub fn as_str(&self) -> &'static str {
        match self {
            ResponseSource::Fresh => "fresh",
            ResponseSource::Cache => "cache",
            ResponseSource::Coalesced => "coalesced",
            ResponseSource::Session => "session",
        }
    }
}

impl fmt::Display for ResponseSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The service's answer to one request.
#[derive(Debug, Clone)]
pub struct SynthResponse {
    /// The synthesis outcome. Cache hits and coalesced requests receive a
    /// clone of the original result (same regex, same minimal cost); the
    /// per-run counters in `stats` belong to the run that produced it
    /// (zeroed for pure cache hits — no work happened).
    pub outcome: Result<SynthesisResult, SynthesisError>,
    /// Where the answer came from.
    pub source: ResponseSource,
    /// Time between submission and completion of this request.
    pub waited: Duration,
    /// Wall-clock time of the synthesis run itself (zero when no run
    /// happened: cache hits and jobs whose deadline had already expired).
    pub ran: Duration,
    /// For session refinements ([`ResponseSource::Session`]): how much of
    /// the session's retained state answered the request — unchanged-spec
    /// replay, warm reuse, or a cold fallback with its reason. `None` on
    /// every other path.
    pub reuse: Option<ReuseDecision>,
}

/// The shared completion slot of one job. The worker fills it exactly
/// once; every handle coalesced onto the job blocks on it or registers a
/// completion callback with it.
///
/// The state also carries the job's *effective deadline*: the most
/// lenient deadline across every request coalesced onto it. A deadline
/// belongs to a request, not to the specification — so a deadline-free
/// duplicate attaching to a deadlined in-flight job relaxes the job's
/// deadline to "none" rather than inheriting the initiator's budget.
#[derive(Debug)]
pub(crate) struct JobState {
    slot: Mutex<Slot>,
    done: Condvar,
    deadline: Mutex<DeadlineSlot>,
}

/// The completion, once there is one, and the callbacks registered
/// before it (see [`JobHandle::on_complete`]).
#[derive(Default)]
struct Slot {
    completion: Option<Completion>,
    callbacks: Vec<Box<dyn FnOnce() + Send>>,
}

impl fmt::Debug for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Slot")
            .field("completion", &self.completion)
            .field("callbacks", &self.callbacks.len())
            .finish()
    }
}

/// The effective deadline of a job (see [`JobState`]). `unbounded` wins
/// permanently once any coalesced request has no deadline.
#[derive(Debug, Clone, Copy)]
struct DeadlineSlot {
    deadline: Option<Instant>,
    unbounded: bool,
}

/// What the worker stores when the job finishes.
#[derive(Debug, Clone)]
pub(crate) struct Completion {
    pub outcome: Result<SynthesisResult, SynthesisError>,
    pub finished: Instant,
    pub ran: Duration,
    pub reuse: Option<ReuseDecision>,
}

impl JobState {
    /// A fresh state whose effective deadline starts as the initiating
    /// request's deadline.
    pub fn new(deadline: Option<Instant>) -> Arc<Self> {
        Arc::new(JobState {
            slot: Mutex::new(Slot::default()),
            done: Condvar::new(),
            deadline: Mutex::new(DeadlineSlot {
                unbounded: deadline.is_none(),
                deadline,
            }),
        })
    }

    /// A state that is already complete (used for cache hits).
    pub fn completed(outcome: Result<SynthesisResult, SynthesisError>) -> Arc<Self> {
        let state = JobState::new(None);
        state.complete(Completion {
            outcome,
            finished: Instant::now(),
            ran: Duration::ZERO,
            reuse: None,
        });
        state
    }

    /// Relaxes the job's effective deadline with a coalescing request's:
    /// the later of the two wins, and "no deadline" wins outright.
    pub fn relax_deadline(&self, other: Option<Instant>) {
        let mut slot = self.deadline.lock().unwrap_or_else(|e| e.into_inner());
        match other {
            None => {
                slot.unbounded = true;
                slot.deadline = None;
            }
            Some(other) if !slot.unbounded => {
                slot.deadline = Some(slot.deadline.map_or(other, |cur| cur.max(other)));
            }
            Some(_) => {}
        }
    }

    /// The effective deadline at this moment. The worker samples it once,
    /// when the run starts, and sets it on its session's cancel token;
    /// requests coalescing *after* that cannot relax the run's deadline
    /// (they simply share its outcome, and a deadline failure is never
    /// cached, so a retry runs fresh).
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .deadline
    }

    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Stores the completion, wakes every waiter and runs every
    /// registered callback, on the calling thread.
    pub fn complete(&self, completion: Completion) {
        let callbacks = {
            let mut slot = self.lock();
            debug_assert!(slot.completion.is_none(), "a job completes exactly once");
            slot.completion = Some(completion);
            std::mem::take(&mut slot.callbacks)
        };
        self.done.notify_all();
        for callback in callbacks {
            callback();
        }
    }

    fn wait(&self) -> Completion {
        let mut slot = self.lock();
        loop {
            if let Some(completion) = slot.completion.as_ref() {
                return completion.clone();
            }
            slot = self.done.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn try_get(&self) -> Option<Completion> {
        self.lock().completion.clone()
    }

    fn on_complete(&self, callback: Box<dyn FnOnce() + Send>) {
        let mut slot = self.lock();
        if slot.completion.is_none() {
            slot.callbacks.push(callback);
            return;
        }
        drop(slot);
        callback();
    }
}

/// A handle to a submitted request. Obtain the response with
/// [`wait`](JobHandle::wait); dropping the handle does not cancel the job
/// (coalesced requests may share it).
#[derive(Debug, Clone)]
pub struct JobHandle {
    pub(crate) state: Arc<JobState>,
    pub(crate) source: ResponseSource,
    pub(crate) submitted: Instant,
    pub(crate) trace: Option<Trace>,
}

impl JobHandle {
    /// Blocks until the job completes and returns the response.
    pub fn wait(&self) -> SynthResponse {
        self.response(self.state.wait())
    }

    /// The request's trace handle, if one was attached at submission.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Returns the response if the job has already completed.
    pub fn try_wait(&self) -> Option<SynthResponse> {
        self.state.try_get().map(|c| self.response(c))
    }

    /// Runs `callback` once, as soon as the job has completed: at once on
    /// the calling thread when it already has (a cache hit, say),
    /// otherwise on the thread that completes it. Keep it short, such as
    /// a channel send: a worker runs it before taking its next job.
    pub fn on_complete(&self, callback: impl FnOnce() + Send + 'static) {
        self.state.on_complete(Box::new(callback));
    }

    /// Where this handle's answer comes from. Known at submission time:
    /// the first request for a spec is [`Fresh`](ResponseSource::Fresh),
    /// later identical ones are coalesced or cache-served.
    pub fn source(&self) -> ResponseSource {
        self.source
    }

    fn response(&self, completion: Completion) -> SynthResponse {
        SynthResponse {
            outcome: completion.outcome,
            source: self.source,
            waited: completion
                .finished
                .saturating_duration_since(self.submitted),
            ran: completion.ran,
            reuse: completion.reuse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rei_core::SynthesisStats;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn spec() -> Spec {
        Spec::from_strs(["0"], ["1"]).unwrap()
    }

    #[test]
    fn request_builder_records_scheduling_hints() {
        let deadline = Instant::now() + Duration::from_secs(1);
        let request = SynthRequest::new(spec())
            .with_priority(7)
            .with_deadline(deadline);
        assert_eq!(request.priority(), 7);
        assert_eq!(request.deadline(), Some(deadline));
        assert_eq!(request.spec().num_positive(), 1);
        let timed = SynthRequest::new(spec()).with_timeout(Duration::from_millis(10));
        assert!(timed.deadline().is_some());
        assert_eq!(SynthRequest::new(spec()).deadline(), None);
    }

    #[test]
    fn completed_state_serves_waiters_immediately() {
        let err = SynthesisError::Cancelled {
            stats: SynthesisStats::default(),
        };
        let state = JobState::completed(Err(err));
        let handle = JobHandle {
            state,
            source: ResponseSource::Cache,
            submitted: Instant::now(),
            trace: None,
        };
        let response = handle.try_wait().expect("already complete");
        assert!(matches!(
            response.outcome,
            Err(SynthesisError::Cancelled { .. })
        ));
        assert_eq!(response.source, ResponseSource::Cache);
        assert_eq!(response.ran, Duration::ZERO);
        assert_eq!(handle.wait().source, ResponseSource::Cache);
    }

    #[test]
    fn waiters_block_until_completion() {
        let state = JobState::new(None);
        let handle = JobHandle {
            state: Arc::clone(&state),
            source: ResponseSource::Fresh,
            submitted: Instant::now(),
            trace: None,
        };
        assert!(handle.try_wait().is_none());
        let waiter = std::thread::spawn({
            let handle = handle.clone();
            move || handle.wait()
        });
        state.complete(Completion {
            outcome: Err(SynthesisError::Cancelled {
                stats: SynthesisStats::default(),
            }),
            finished: Instant::now(),
            ran: Duration::from_millis(3),
            reuse: None,
        });
        let response = waiter.join().unwrap();
        assert_eq!(response.ran, Duration::from_millis(3));
        assert_eq!(response.source, ResponseSource::Fresh);
    }

    fn handle(state: &Arc<JobState>, source: ResponseSource) -> JobHandle {
        JobHandle {
            state: Arc::clone(state),
            source,
            submitted: Instant::now(),
            trace: None,
        }
    }

    fn cancelled() -> Completion {
        Completion {
            outcome: Err(SynthesisError::Cancelled {
                stats: SynthesisStats::default(),
            }),
            finished: Instant::now(),
            ran: Duration::ZERO,
            reuse: None,
        }
    }

    /// A callback that counts its calls in the returned counter.
    fn counting() -> (Arc<AtomicUsize>, impl FnOnce() + Send + 'static) {
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        (calls, move || {
            counter.fetch_add(1, Ordering::SeqCst);
        })
    }

    #[test]
    fn on_complete_fires_once_when_the_job_finishes_later() {
        let state = JobState::new(None);
        let (calls, callback) = counting();
        handle(&state, ResponseSource::Fresh).on_complete(callback);
        assert_eq!(calls.load(Ordering::SeqCst), 0, "not before completion");
        let worker = std::thread::spawn({
            let state = Arc::clone(&state);
            move || state.complete(cancelled())
        });
        worker.join().unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn on_complete_fires_at_registration_for_a_cache_hit() {
        let state = JobState::completed(Err(SynthesisError::Cancelled {
            stats: SynthesisStats::default(),
        }));
        let (calls, callback) = counting();
        handle(&state, ResponseSource::Cache).on_complete(callback);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn on_complete_fires_once_per_coalesced_handle() {
        let state = JobState::new(None);
        let counters: Vec<_> = [ResponseSource::Fresh, ResponseSource::Coalesced]
            .into_iter()
            .map(|source| {
                let (calls, callback) = counting();
                handle(&state, source).on_complete(callback);
                calls
            })
            .collect();
        state.complete(cancelled());
        // A handle coalescing after completion is answered at once.
        let (late, callback) = counting();
        handle(&state, ResponseSource::Coalesced).on_complete(callback);
        for calls in counters.iter().chain([&late]) {
            assert_eq!(calls.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn deadline_relaxation_takes_the_most_lenient() {
        let early = Instant::now();
        let late = early + Duration::from_secs(1);
        let state = JobState::new(Some(early));
        assert_eq!(state.deadline(), Some(early));
        state.relax_deadline(Some(late));
        assert_eq!(state.deadline(), Some(late));
        state.relax_deadline(Some(early));
        assert_eq!(state.deadline(), Some(late), "earlier deadlines lose");
        state.relax_deadline(None);
        assert_eq!(state.deadline(), None);
        state.relax_deadline(Some(late));
        assert_eq!(state.deadline(), None, "unbounded wins permanently");
        assert_eq!(JobState::new(None).deadline(), None);
    }

    #[test]
    fn source_labels_are_stable() {
        assert_eq!(ResponseSource::Fresh.to_string(), "fresh");
        assert_eq!(ResponseSource::Cache.as_str(), "cache");
        assert_eq!(ResponseSource::Coalesced.as_str(), "coalesced");
        assert_eq!(ResponseSource::Session.as_str(), "session");
    }
}
