//! The synthesis service: worker pool, scheduling and shutdown.
//!
//! See the crate docs for the architecture diagram. This module owns the
//! glue: `submit` runs the cache/coalesce/enqueue decision, and workers
//! drain the queue through warm [`SynthSession`]s, setting each job's
//! deadline on the worker session's own [`CancelToken`].

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rei_core::{
    CancelToken, LevelStats, Observer, ReuseDecision, SynthConfig, SynthSession, SynthesisError,
    SynthesisStats,
};
use rei_obs::Trace;

use crate::cache::{CacheKey, Janitor, Lookup, ResultCache, WalOptions};
use crate::metrics::{Gauges, Metrics, MetricsSnapshot};
use crate::queue::JobQueue;
use crate::request::{Completion, JobHandle, JobState, ResponseSource, SynthRequest};
use crate::session::{SessionEntry, SessionTable};

/// Configuration of a [`SynthService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads; each owns one warm [`SynthSession`] (and therefore
    /// one `gpu_sim::Device` when the backend is device-parallel).
    pub workers: usize,
    /// Bound of the job queue; full-queue `submit`s block (backpressure),
    /// `try_submit`s fail with [`ServiceError::QueueFull`].
    pub queue_capacity: usize,
    /// Completed results kept by the cache (FIFO eviction).
    pub cache_capacity: usize,
    /// The synthesis configuration every worker session runs. One config
    /// per pool keeps results interchangeable and therefore cacheable.
    pub synth: SynthConfig,
    /// Optional directory the result cache persists to as a segmented
    /// write-ahead log (see the persistence notes in [`crate`] docs):
    /// recovery warms the cache on start, completed results are appended
    /// to the tail segment, a janitor folds history into checkpoints
    /// while serving, and graceful shutdown runs one final fold. `None`
    /// keeps the cache in memory only.
    pub cache_path: Option<PathBuf>,
    /// Storage-engine tuning of the persistent cache (segment roll size,
    /// checkpoint cadence, disk byte cap); ignored
    /// without [`cache_path`](ServiceConfig::cache_path).
    pub wal: WalOptions,
    /// Most refinement sessions held open at once; opening one beyond
    /// the bound evicts the least recently used
    /// ([`ServiceError::UnknownSession`] on its next refine).
    pub session_capacity: usize,
    /// Idle time after which an open session expires: a session neither
    /// refined nor re-opened for this long is dropped lazily on the next
    /// session-table access.
    pub session_idle: Duration,
}

/// Default [`ServiceConfig::session_capacity`].
pub const DEFAULT_SESSION_CAPACITY: usize = 64;

/// Default [`ServiceConfig::session_idle`].
pub const DEFAULT_SESSION_IDLE: Duration = Duration::from_secs(600);

impl ServiceConfig {
    /// A config with `workers` workers and defaults otherwise: queue
    /// capacity 64, cache capacity 1024, default [`SynthConfig`].
    pub fn new(workers: usize) -> Self {
        ServiceConfig {
            workers,
            queue_capacity: 64,
            cache_capacity: 1024,
            synth: SynthConfig::default(),
            cache_path: None,
            wal: WalOptions::default(),
            session_capacity: DEFAULT_SESSION_CAPACITY,
            session_idle: DEFAULT_SESSION_IDLE,
        }
    }

    /// Replaces the synthesis configuration.
    pub fn with_synth(mut self, synth: SynthConfig) -> Self {
        self.synth = synth;
        self
    }

    /// Replaces the queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Replaces the result-cache capacity.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Makes the result cache persistent under `dir`: the segmented
    /// store lives in `<dir>/results/` (created at start). The
    /// [`ShardRouter`](crate::ShardRouter) gives each of its pools a
    /// distinct store directory under the shared `dir` instead.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_path = Some(dir.into().join("results"));
        self
    }

    /// Replaces the persistent store's tuning (see [`WalOptions`]).
    pub fn with_wal(mut self, wal: WalOptions) -> Self {
        self.wal = wal;
        self
    }

    /// Replaces the open-session bound (LRU eviction beyond it).
    pub fn with_session_capacity(mut self, capacity: usize) -> Self {
        self.session_capacity = capacity;
        self
    }

    /// Replaces the session idle-expiry duration.
    pub fn with_session_idle(mut self, idle: Duration) -> Self {
        self.session_idle = idle;
        self
    }

    fn validate(&self) -> Result<(), ServiceError> {
        if self.workers == 0 {
            return Err(ServiceError::InvalidConfig(
                "service needs at least one worker".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(ServiceError::InvalidConfig(
                "queue capacity must be positive".into(),
            ));
        }
        if self.cache_capacity == 0 {
            return Err(ServiceError::InvalidConfig(
                "cache capacity must be positive".into(),
            ));
        }
        if self.session_capacity == 0 {
            return Err(ServiceError::InvalidConfig(
                "session capacity must be positive".into(),
            ));
        }
        if self.wal.roll_bytes == 0 {
            return Err(ServiceError::InvalidConfig(
                "segment roll size must be positive".into(),
            ));
        }
        if self.wal.checkpoint_every == 0 {
            return Err(ServiceError::InvalidConfig(
                "checkpoint cadence must be positive".into(),
            ));
        }
        self.synth
            .validate()
            .map_err(|err| ServiceError::InvalidConfig(err.to_string()))
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::new(2)
    }
}

/// The ways the service can refuse a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The service has been closed; no new requests are accepted.
    ShuttingDown,
    /// `try_submit` found the queue at capacity.
    QueueFull,
    /// The [`ServiceConfig`] is invalid.
    InvalidConfig(String),
    /// A refine or `close_session` named a session that is not open on
    /// this pool: never opened, closed, evicted by the LRU bound, or
    /// expired idle.
    UnknownSession(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::QueueFull => write!(f, "job queue is full"),
            ServiceError::InvalidConfig(message) => {
                write!(f, "invalid service configuration: {message}")
            }
            ServiceError::UnknownSession(name) => write!(f, "unknown session '{name}'"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A queued unit of work.
struct Job {
    spec: rei_lang::Spec,
    kind: JobKind,
    state: Arc<JobState>,
    submitted: Instant,
    trace: Option<Trace>,
}

/// What a queued job does when a worker picks it up.
enum JobKind {
    /// The classic path: run the spec, publish under its cache key.
    Fresh { key: CacheKey },
    /// Refine an open session: run through the session's retained
    /// [`RefineState`](rei_core::RefineState), bypassing the result cache
    /// (a refinement's answer belongs to the session's history, not to
    /// the bare specification).
    Refine { session: Arc<SessionEntry> },
}

/// The worker-side [`Observer`] feeding per-level progress into a job's
/// trace timeline. Wall-clock per level is tracked here — the core's
/// [`LevelStats`] carries counters only.
struct TraceObserver<'a> {
    trace: Option<&'a Trace>,
    level_started: Instant,
}

impl<'a> TraceObserver<'a> {
    fn new(trace: Option<&'a Trace>) -> Self {
        TraceObserver {
            trace,
            level_started: Instant::now(),
        }
    }
}

impl Observer for TraceObserver<'_> {
    fn on_start(&mut self, _spec: &rei_lang::Spec) {
        self.level_started = Instant::now();
    }

    fn on_level(&mut self, stats: &LevelStats) {
        let wall = self.level_started.elapsed();
        self.level_started = Instant::now();
        if let Some(trace) = self.trace {
            trace.record(
                "level",
                format!(
                    "cost={} wall_us={} candidates={} unique={}",
                    stats.cost,
                    wall.as_micros(),
                    stats.candidates,
                    stats.unique
                ),
            );
        }
    }
}

struct Shared {
    queue: JobQueue<Job>,
    cache: ResultCache,
    metrics: Metrics,
    synth: SynthConfig,
    sessions: SessionTable,
}

/// A multi-tenant synthesis service (see the crate docs).
///
/// # Example
///
/// ```
/// use rei_service::{ServiceConfig, SynthRequest, SynthService};
/// use rei_lang::Spec;
///
/// let service = SynthService::start(ServiceConfig::new(2)).unwrap();
/// let spec = Spec::from_strs(["0", "00"], ["1", "10"]).unwrap();
/// let first = service.submit(SynthRequest::new(spec.clone())).unwrap();
/// assert!(first.wait().outcome.is_ok());
/// // An identical request is served from the result cache.
/// let second = service.submit(SynthRequest::new(spec)).unwrap();
/// let response = second.wait();
/// assert!(response.outcome.is_ok());
/// assert_eq!(response.source.as_str(), "cache");
/// let metrics = service.shutdown();
/// assert_eq!(metrics.cache_hits, 1);
/// ```
pub struct SynthService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    janitor: Option<Janitor>,
}

impl fmt::Debug for SynthService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SynthService")
            .field("workers", &self.workers.len())
            .field("queue_depth", &self.shared.queue.len())
            .finish_non_exhaustive()
    }
}

impl SynthService {
    /// Starts the worker pool (and, for a persistent cache, its janitor).
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidConfig`] when the configuration does not
    /// validate (zero workers/capacities, invalid [`SynthConfig`]).
    pub fn start(config: ServiceConfig) -> Result<Self, ServiceError> {
        config.validate()?;
        let (cache, recovery) = match &config.cache_path {
            Some(path) => {
                let (cache, report) = ResultCache::persistent(
                    config.cache_capacity,
                    path,
                    &config.synth,
                    config.wal.clone(),
                )
                .map_err(ServiceError::InvalidConfig)?;
                rei_obs::log::info(
                    "service",
                    "cache recovered",
                    &[
                        ("path", path.display().to_string()),
                        ("wall_ms", format!("{:.3}", report.wall.as_secs_f64() * 1e3)),
                        ("segments", report.segments.to_string()),
                        ("records", report.records.to_string()),
                        ("loaded", report.loaded.to_string()),
                        ("threads", report.threads.to_string()),
                        ("skipped_corrupt", report.skipped_corrupt.to_string()),
                    ],
                );
                (cache, report)
            }
            None => (ResultCache::new(config.cache_capacity), Default::default()),
        };
        let metrics = Metrics::new(config.workers);
        metrics
            .disk_loaded
            .store(recovery.loaded, Ordering::Relaxed);
        metrics
            .disk_skipped_corrupt
            .store(recovery.skipped_corrupt, Ordering::Relaxed);
        metrics
            .disk_skipped_config
            .store(recovery.skipped_config, Ordering::Relaxed);
        let nanos = u64::try_from(recovery.wall.as_nanos()).unwrap_or(u64::MAX);
        metrics.recovery_nanos.store(nanos, Ordering::Relaxed);
        metrics
            .recovery_segments
            .store(recovery.segments as u64, Ordering::Relaxed);
        metrics
            .recovery_records
            .store(recovery.records, Ordering::Relaxed);
        metrics
            .recovery_threads
            .store(recovery.threads as u64, Ordering::Relaxed);
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            cache,
            metrics,
            synth: config.synth.clone(),
            sessions: SessionTable::new(config.session_capacity, config.session_idle),
        });
        let workers = (0..config.workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rei-service-worker-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawning a worker thread")
            })
            .collect();
        // The janitor folds sealed segments into checkpoints while the
        // pool serves; only persistent caches need one.
        let janitor = config.cache_path.is_some().then(|| {
            let shared = Arc::clone(&shared);
            Janitor::start(Duration::from_millis(250), move || {
                shared.cache.maintain();
            })
        });
        Ok(SynthService {
            shared,
            workers,
            janitor,
        })
    }

    /// Submits a request, blocking while the queue is at capacity
    /// (backpressure). Requests answered by the cache or coalesced onto an
    /// in-flight job never block — they consume no queue slot.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShuttingDown`] after [`close`](SynthService::close).
    pub fn submit(&self, request: SynthRequest) -> Result<JobHandle, ServiceError> {
        self.submit_inner(request, false)
    }

    /// Like [`submit`](SynthService::submit), but fails with
    /// [`ServiceError::QueueFull`] instead of blocking.
    pub fn try_submit(&self, request: SynthRequest) -> Result<JobHandle, ServiceError> {
        self.submit_inner(request, true)
    }

    /// The one submission path. A refine looks its session up; any other
    /// request is answered from the cache, coalesced onto an in-flight
    /// job, or reserved in the cache as a miss. Refines and misses then
    /// share one enqueue. Refinements bypass the result cache and
    /// coalescing — their answer depends on the session's history, not
    /// just the specification — so every refine consumes a queue slot.
    fn submit_inner(
        &self,
        request: SynthRequest,
        fail_fast: bool,
    ) -> Result<JobHandle, ServiceError> {
        let shared = &self.shared;
        if shared.queue.is_closed() {
            Metrics::bump(&shared.metrics.rejected);
            Metrics::bump(&shared.metrics.rejected_shutdown);
            return Err(ServiceError::ShuttingDown);
        }
        Metrics::bump(&shared.metrics.submitted);
        let submitted = Instant::now();
        let state = JobState::new(request.deadline);
        let kind = match &request.session {
            Some(name) => {
                let (entry, effects) = shared.sessions.get(name);
                shared.metrics.note_session_table(effects);
                // A session belongs to the tenant that opened it: a lookup
                // under any other tenant key reads as "no such session"
                // rather than leaking another tenant's retained state.
                let entry =
                    entry.filter(|entry| entry.tenant.as_deref() == request.tenant.as_deref());
                let Some(entry) = entry else {
                    // The submission never became a job; undo the bump.
                    shared.metrics.submitted.fetch_sub(1, Ordering::Relaxed);
                    return Err(ServiceError::UnknownSession(name.clone()));
                };
                JobKind::Refine { session: entry }
            }
            None => {
                let key = CacheKey::new(&request.spec, &shared.synth);
                match shared.cache.lookup_or_reserve(&key, &state) {
                    Lookup::Hit(result) => {
                        Metrics::bump(&shared.metrics.cache_hits);
                        if let Some(trace) = request.trace.as_ref() {
                            trace.record("cache-hit", String::new());
                        }
                        shared.metrics.note_e2e(submitted.elapsed());
                        return Ok(JobHandle {
                            state: JobState::completed(Ok(result)),
                            source: ResponseSource::Cache,
                            submitted,
                            trace: request.trace,
                        });
                    }
                    Lookup::Coalesce(in_flight) => {
                        Metrics::bump(&shared.metrics.coalesced);
                        if let Some(trace) = request.trace.as_ref() {
                            trace.record("coalesced", String::new());
                        }
                        // The job serves this request too, so its effective
                        // deadline must be at least as lenient as this
                        // request's.
                        in_flight.relax_deadline(request.deadline);
                        return Ok(JobHandle {
                            state: in_flight,
                            source: ResponseSource::Coalesced,
                            submitted,
                            trace: request.trace,
                        });
                    }
                    Lookup::Miss => JobKind::Fresh { key },
                }
            }
        };

        let job = Job {
            spec: request.spec,
            kind,
            state: Arc::clone(&state),
            submitted,
            trace: request.trace.clone(),
        };
        let pushed = if fail_fast {
            shared.queue.try_push(request.priority, job)
        } else {
            shared.queue.push(request.priority, job)
        };
        if let Err(job) = pushed {
            if let JobKind::Fresh { key } = &job.kind {
                // Roll back so the key is not stuck in flight forever.
                shared.cache.forget(key, &state);
            }
            Metrics::bump(&shared.metrics.rejected);
            // `submitted` was optimistic; it never became a job.
            shared.metrics.submitted.fetch_sub(1, Ordering::Relaxed);
            return Err(if shared.queue.is_closed() {
                Metrics::bump(&shared.metrics.rejected_shutdown);
                ServiceError::ShuttingDown
            } else {
                Metrics::bump(&shared.metrics.rejected_queue_full);
                ServiceError::QueueFull
            });
        }
        Metrics::bump(&shared.metrics.enqueued);
        let source = match &request.session {
            Some(name) => {
                Metrics::bump(&shared.metrics.refines);
                if let Some(trace) = request.trace.as_ref() {
                    trace.record("refine-enqueued", format!("session={name}"));
                }
                ResponseSource::Session
            }
            None => {
                if let Some(trace) = request.trace.as_ref() {
                    trace.record("enqueued", String::new());
                }
                ResponseSource::Fresh
            }
        };
        Ok(JobHandle {
            state,
            source,
            submitted,
            trace: request.trace,
        })
    }

    /// Opens a refinement session and returns its name: the client's
    /// chosen `name` when given (re-opening a live name resets it to a
    /// blank session), a generated `s-N` name otherwise. Subsequent
    /// [`SynthRequest::with_session`] submissions refine it; sessions
    /// close explicitly ([`close_session`](SynthService::close_session)),
    /// by LRU eviction past [`ServiceConfig::session_capacity`], or by
    /// idle expiry after [`ServiceConfig::session_idle`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShuttingDown`] after [`close`](SynthService::close).
    pub fn open_session(
        &self,
        name: Option<&str>,
        tenant: Option<&str>,
    ) -> Result<String, ServiceError> {
        if self.shared.queue.is_closed() {
            return Err(ServiceError::ShuttingDown);
        }
        let (entry, effects) = self.shared.sessions.open(name, tenant);
        self.shared.metrics.note_session_table(effects);
        Metrics::bump(&self.shared.metrics.sessions_opened);
        Ok(entry.name.clone())
    }

    /// Closes a refinement session, dropping its retained state.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when no such session is open.
    pub fn close_session(&self, name: &str) -> Result<(), ServiceError> {
        let (closed, effects) = self.shared.sessions.close(name);
        self.shared.metrics.note_session_table(effects);
        if closed {
            Metrics::bump(&self.shared.metrics.sessions_closed);
            Ok(())
        } else {
            Err(ServiceError::UnknownSession(name.to_string()))
        }
    }

    /// Number of currently open refinement sessions.
    pub fn open_sessions(&self) -> usize {
        self.shared.sessions.live()
    }

    /// Closes the service to new submissions. Queued and in-flight jobs
    /// keep running; call [`shutdown`](SynthService::shutdown) (or drop the
    /// service) to drain and join.
    pub fn close(&self) {
        self.shared.queue.close();
    }

    /// Graceful shutdown: closes the queue, lets the workers drain every
    /// queued job, joins them and returns the final metrics. Jobs
    /// submitted before the call are all answered.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.join();
        self.metrics()
    }

    /// A point-in-time snapshot of the service metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot(Gauges {
            queue_depth: self.shared.queue.len(),
            queue_capacity: self.shared.queue.capacity(),
            cache_entries: self.shared.cache.entries(),
            cache_capacity: self.shared.cache.capacity(),
            sessions_live: self.shared.sessions.live(),
            disk: self.shared.cache.disk_stats().unwrap_or_default(),
        })
    }

    /// The synthesis configuration the pool runs.
    pub fn synth_config(&self) -> &SynthConfig {
        &self.shared.synth
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    fn join(&mut self) {
        self.shared.queue.close();
        let drained = !self.workers.is_empty();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Stop background folds before the final one: compaction must
        // not race itself.
        if let Some(mut janitor) = self.janitor.take() {
            janitor.stop();
        }
        if drained {
            // Every completion has landed: fold the persistent store (if
            // any) into one checkpoint holding exactly the live entries.
            self.shared.cache.compact();
        }
    }
}

impl Drop for SynthService {
    fn drop(&mut self) {
        self.join();
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut session =
        SynthSession::new(shared.synth.clone()).expect("service config was validated at start");
    let token = session.cancel_token();
    while let Some(job) = shared.queue.pop() {
        run_job(shared, index, &mut session, &token, job);
    }
}

/// Runs one dequeued job on this worker's warm session: a fresh job as
/// one level sweep published to the result cache, a refine through the
/// session entry's shared [`RefineState`](rei_core::RefineState),
/// bypassing the cache in both directions. The job's deadline rides on
/// the worker session's own cancel token for the length of the run.
fn run_job(
    shared: &Shared,
    index: usize,
    session: &mut SynthSession,
    token: &CancelToken,
    job: Job,
) {
    shared.metrics.note_wait(job.submitted.elapsed());

    let deadline = job.state.deadline();
    let expired_in_queue = deadline.is_some_and(|d| Instant::now() >= d);
    let (outcome, reuse, ran) = if expired_in_queue {
        // Fail fast: an overdue job must not occupy the worker.
        (
            Err(SynthesisError::Cancelled {
                stats: SynthesisStats::default(),
            }),
            None,
            Duration::ZERO,
        )
    } else {
        token.cancel_at(deadline);
        let started = Instant::now();
        let mut observer = TraceObserver::new(job.trace.as_ref());
        let (outcome, reuse) = match &job.kind {
            JobKind::Fresh { .. } => (session.run_with(&job.spec, &mut observer), None),
            JobKind::Refine { session: entry } => {
                let mut state = entry.state.lock().unwrap_or_else(|e| e.into_inner());
                let result = session.refine_with_state(&mut state, &job.spec, &mut observer);
                (result.outcome, Some(result.reuse))
            }
        };
        let ran = started.elapsed();
        token.reset();
        (outcome, reuse, ran)
    };
    shared.metrics.note_run(ran);

    match &job.kind {
        JobKind::Fresh { key } => match &outcome {
            Ok(result) => {
                shared.cache.complete(key, result);
                if let Some(trace) = job.trace.as_ref() {
                    trace.record("cache-append", String::new());
                }
            }
            Err(_) => shared.cache.forget(key, &job.state),
        },
        JobKind::Refine { session: entry } => {
            if let Some(reuse) = reuse {
                let counter = match reuse {
                    ReuseDecision::Unchanged => &shared.metrics.refine_unchanged,
                    ReuseDecision::Warm { .. } => &shared.metrics.refine_warm,
                    ReuseDecision::Cold(_) => &shared.metrics.refine_cold,
                };
                Metrics::bump(counter);
                if let Some(trace) = job.trace.as_ref() {
                    trace.record(
                        "refine",
                        format!("session={} reuse={}", entry.name, reuse.label()),
                    );
                }
            }
        }
    }
    shared.metrics.note_job(&outcome, expired_in_queue);
    shared.metrics.note_e2e(job.submitted.elapsed());
    shared.metrics.set_worker_stats(index, *session.stats());
    let finished = Instant::now();
    if let (Some(deadline), Err(SynthesisError::Cancelled { .. })) = (deadline, &outcome) {
        if let Some(trace) = job.trace.as_ref() {
            let overshoot = finished.saturating_duration_since(deadline);
            trace.record(
                "deadline",
                format!("overshoot_us={}", overshoot.as_micros()),
            );
        }
    }
    job.state.complete(Completion {
        outcome,
        finished,
        ran,
        reuse,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rei_lang::Spec;

    fn tiny_spec() -> Spec {
        Spec::from_strs(["0", "00"], ["1", "10"]).unwrap()
    }

    #[test]
    fn invalid_configs_are_rejected_up_front() {
        for (config, needle) in [
            (ServiceConfig::new(0), "worker"),
            (ServiceConfig::new(1).with_queue_capacity(0), "queue"),
            (ServiceConfig::new(1).with_cache_capacity(0), "cache"),
            (
                ServiceConfig::new(1).with_synth(SynthConfig::default().with_allowed_error(2.0)),
                "allowed error",
            ),
        ] {
            let err = SynthService::start(config).unwrap_err();
            match err {
                ServiceError::InvalidConfig(message) => {
                    assert!(message.contains(needle), "{message}")
                }
                other => panic!("expected InvalidConfig, got {other}"),
            }
        }
    }

    #[test]
    fn fresh_cache_and_coalesced_sources_are_reported() {
        let service = SynthService::start(ServiceConfig::new(1)).unwrap();
        let first = service.submit(SynthRequest::new(tiny_spec())).unwrap();
        assert_eq!(first.source(), ResponseSource::Fresh);
        let first = first.wait();
        assert!(first.outcome.is_ok());
        assert!(first.ran > Duration::ZERO);

        let second = service.submit(SynthRequest::new(tiny_spec())).unwrap();
        assert_eq!(second.source(), ResponseSource::Cache);
        let second = second.wait();
        assert_eq!(
            second.outcome.as_ref().unwrap().cost,
            first.outcome.as_ref().unwrap().cost
        );
        assert_eq!(second.ran, Duration::ZERO);

        let metrics = service.shutdown();
        assert_eq!(metrics.submitted, 2);
        assert_eq!(metrics.cache_hits, 1);
        assert_eq!(metrics.completed, 1);
        assert_eq!(metrics.solved, 1);
        assert_eq!(metrics.workers.iter().map(|w| w.runs).sum::<u64>(), 1);
    }

    #[test]
    fn close_rejects_new_requests_but_drains_old_ones() {
        let service = SynthService::start(ServiceConfig::new(1)).unwrap();
        let accepted = service.submit(SynthRequest::new(tiny_spec())).unwrap();
        service.close();
        let rejected = service.submit(SynthRequest::new(tiny_spec())).unwrap_err();
        assert_eq!(rejected, ServiceError::ShuttingDown);
        assert!(accepted.wait().outcome.is_ok());
        let metrics = service.shutdown();
        assert_eq!(metrics.rejected, 1);
        assert_eq!(metrics.rejected_shutdown, 1);
        assert_eq!(metrics.rejected_queue_full, 0);
        assert_eq!(metrics.completed, 1);
    }

    #[test]
    fn expired_deadline_fails_fast_without_running() {
        let service = SynthService::start(ServiceConfig::new(1)).unwrap();
        let handle = service
            .submit(SynthRequest::new(tiny_spec()).with_timeout(Duration::ZERO))
            .unwrap();
        let response = handle.wait();
        assert!(matches!(
            response.outcome,
            Err(SynthesisError::Cancelled { .. })
        ));
        assert_eq!(response.ran, Duration::ZERO);
        let metrics = service.shutdown();
        assert_eq!(metrics.deadline_expired, 1);
        assert_eq!(metrics.workers.iter().map(|w| w.runs).sum::<u64>(), 0);
    }

    #[test]
    fn sessions_open_refine_and_close() {
        let service = SynthService::start(ServiceConfig::new(1)).unwrap();
        let named = service.open_session(Some("s"), None).unwrap();
        assert_eq!(named, "s");
        let generated = service.open_session(None, None).unwrap();
        assert!(generated.starts_with("s-"), "{generated}");
        assert_eq!(service.open_sessions(), 2);

        // First refine of a blank session: a cold run that seeds it.
        let base = Spec::from_strs(["0", "00"], ["1"]).unwrap();
        let first = service
            .submit(SynthRequest::new(base.clone()).with_session("s"))
            .unwrap();
        assert_eq!(first.source(), ResponseSource::Session);
        let first = first.wait();
        assert!(first.outcome.is_ok());
        assert!(
            matches!(first.reuse, Some(ReuseDecision::Cold(_))),
            "{first:?}"
        );

        // Strengthening the spec reuses the session's retained state.
        let stronger = Spec::from_strs(["0", "00"], ["1", "10"]).unwrap();
        let second = service
            .submit(SynthRequest::new(stronger).with_session("s"))
            .unwrap()
            .wait();
        assert!(second.outcome.is_ok());
        assert!(second.reuse.expect("a refine reports reuse").reused());
        assert_eq!(
            first.outcome.unwrap().cost,
            second.outcome.unwrap().cost,
            "0* answers both specs minimally"
        );

        // Unknown names and other tenants' names are refused alike.
        let unknown = service
            .submit(SynthRequest::new(base.clone()).with_session("nope"))
            .unwrap_err();
        assert!(
            matches!(unknown, ServiceError::UnknownSession(_)),
            "{unknown}"
        );
        let foreign = service
            .submit(
                SynthRequest::new(base)
                    .with_session("s")
                    .with_tenant("acme"),
            )
            .unwrap_err();
        assert!(
            matches!(foreign, ServiceError::UnknownSession(_)),
            "{foreign}"
        );

        service.close_session("s").unwrap();
        assert!(matches!(
            service.close_session("s"),
            Err(ServiceError::UnknownSession(_))
        ));

        let metrics = service.shutdown();
        assert_eq!(metrics.sessions_opened, 2);
        assert_eq!(metrics.sessions_closed, 1);
        assert_eq!(metrics.refines, 2);
        assert_eq!(metrics.refine_cold, 1);
        assert_eq!(metrics.refine_warm, 1);
        assert_eq!(
            metrics.sessions_live, 1,
            "the generated session stayed open"
        );
    }

    #[test]
    fn session_capacity_evicts_least_recently_used() {
        let service = SynthService::start(ServiceConfig::new(1).with_session_capacity(1)).unwrap();
        service.open_session(Some("old"), None).unwrap();
        service.open_session(Some("new"), None).unwrap();
        assert_eq!(service.open_sessions(), 1);
        let err = service
            .submit(SynthRequest::new(tiny_spec()).with_session("old"))
            .unwrap_err();
        assert!(matches!(err, ServiceError::UnknownSession(_)), "{err}");
        let ok = service
            .submit(SynthRequest::new(tiny_spec()).with_session("new"))
            .unwrap();
        assert!(ok.wait().outcome.is_ok());
        let metrics = service.shutdown();
        assert_eq!(metrics.sessions_evicted, 1);
    }

    #[test]
    fn idle_sessions_expire_and_are_counted() {
        let service =
            SynthService::start(ServiceConfig::new(1).with_session_idle(Duration::ZERO)).unwrap();
        service.open_session(Some("brief"), None).unwrap();
        let err = service
            .submit(SynthRequest::new(tiny_spec()).with_session("brief"))
            .unwrap_err();
        assert!(matches!(err, ServiceError::UnknownSession(_)), "{err}");
        let metrics = service.shutdown();
        assert_eq!(metrics.sessions_expired, 1);
        assert_eq!(metrics.sessions_live, 0);
    }
}
