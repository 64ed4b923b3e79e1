//! Fair-share admission in front of the shard router.
//!
//! The router alone is first-come-first-served per pool: one hot tenant
//! can fill a queue and starve everyone hashed to the same shard. The
//! [`FairShare`] stage sits between a front-end (the TCP listener of
//! `rei-net`, a test harness, …) and the [`ShardRouter`] and makes two
//! decisions per request:
//!
//! 1. **Policy** — a per-tenant token bucket ([`TenantPolicy::rate`]
//!    tokens per second up to [`TenantPolicy::burst`]) plus an in-flight
//!    cap ([`TenantPolicy::max_inflight`]). A request that finds no token
//!    or too many of its tenant's requests still unanswered is refused
//!    with [`AdmissionError::RateLimited`] *immediately* — an explicit
//!    reply, never a hang.
//! 2. **Fairness** — an admitted request that meets a full shard queue
//!    does not busy-fight for the slot. It parks in its tenant's *lane*,
//!    and lanes drain by weighted deficit round robin: each visit of the
//!    scheduler grants a lane up to [`TenantPolicy::weight`] submissions
//!    before moving on, so a tenant with weight 3 gets three queue slots
//!    for every one a weight-1 tenant gets while both are backlogged.
//!
//! Unknown tenants (and requests without a tenant key) fall under the
//! configurable default policy, which is unlimited unless narrowed.
//! Admission decisions are counted ([`AdmissionCounters`]) and surface
//! in the router metrics rollup.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rei_obs::{Histogram, HistogramSnapshot, TraceRegistry};

use crate::request::{JobHandle, SynthRequest};
use crate::router::ShardRouter;
use crate::service::ServiceError;

/// The admission policy of one tenant (or the default for unknown ones).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantPolicy {
    /// Deficit-round-robin weight of the tenant's lane: up to `weight`
    /// backlogged submissions are granted per scheduler visit. Must be
    /// at least 1.
    pub weight: u32,
    /// Token-bucket refill rate in requests per second;
    /// `f64::INFINITY` disables rate limiting.
    pub rate: f64,
    /// Token-bucket capacity — the burst a quiet tenant may fire at
    /// once; `f64::INFINITY` disables the cap.
    pub burst: f64,
    /// Maximum requests of the tenant admitted but not yet answered
    /// (the [`InflightGuard`] returned by [`FairShare::submit`] marks
    /// completion when dropped).
    pub max_inflight: usize,
}

impl TenantPolicy {
    /// The policy that never refuses: weight 1, unlimited rate, burst
    /// and in-flight.
    pub const fn unlimited() -> Self {
        TenantPolicy {
            weight: 1,
            rate: f64::INFINITY,
            burst: f64::INFINITY,
            max_inflight: usize::MAX,
        }
    }

    /// A rate-limited policy: `rate` requests per second with a burst of
    /// `burst`, weight 1, unlimited in-flight.
    pub fn limited(rate: f64, burst: f64) -> Self {
        TenantPolicy {
            rate,
            burst,
            ..TenantPolicy::unlimited()
        }
    }

    /// Replaces the lane weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Replaces the in-flight cap.
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight;
        self
    }

    fn validate(&self, tenant: &str) -> Result<(), ServiceError> {
        let fail = |message: String| {
            Err(ServiceError::InvalidConfig(format!(
                "tenant policy '{tenant}': {message}"
            )))
        };
        if self.weight == 0 {
            return fail("weight must be at least 1".into());
        }
        // NaN must fail too, hence the explicit is_nan arms.
        if self.rate.is_nan() || self.rate <= 0.0 {
            return fail(format!("rate must be positive, got {}", self.rate));
        }
        if self.burst.is_nan() || self.burst < 1.0 {
            return fail(format!("burst must be at least 1, got {}", self.burst));
        }
        if self.max_inflight == 0 {
            return fail("max_inflight must be at least 1".into());
        }
        Ok(())
    }
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy::unlimited()
    }
}

/// Configuration of a [`FairShare`] admission stage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdmissionConfig {
    /// Policy of tenants without an explicit entry (and of requests
    /// carrying no tenant key, which share one anonymous bucket).
    pub default_policy: TenantPolicy,
    /// Explicit per-tenant policies.
    pub tenants: Vec<(String, TenantPolicy)>,
}

impl AdmissionConfig {
    /// The all-unlimited configuration.
    pub fn new() -> Self {
        AdmissionConfig::default()
    }

    /// Replaces the default policy.
    pub fn with_default_policy(mut self, policy: TenantPolicy) -> Self {
        self.default_policy = policy;
        self
    }

    /// Adds (or replaces) the policy of `tenant`.
    pub fn with_tenant(mut self, tenant: impl Into<String>, policy: TenantPolicy) -> Self {
        let tenant = tenant.into();
        self.tenants.retain(|(name, _)| *name != tenant);
        self.tenants.push((tenant, policy));
        self
    }

    fn validate(&self) -> Result<(), ServiceError> {
        self.default_policy.validate("<default>")?;
        for (tenant, policy) in &self.tenants {
            policy.validate(tenant)?;
        }
        Ok(())
    }
}

/// Why [`FairShare::submit`] refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The tenant's token bucket is empty or its in-flight cap is
    /// reached. Front-ends reply `rejected: rate_limited`.
    RateLimited,
    /// The router itself refused (shutting down).
    Service(ServiceError),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::RateLimited => write!(f, "tenant is over its admission policy"),
            AdmissionError::Service(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Counts of admission decisions, for the metrics rollup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionCounters {
    /// Requests that passed policy and reached a shard queue.
    pub admitted: u64,
    /// Requests refused by a token bucket or in-flight cap.
    pub rate_limited: u64,
    /// Admitted requests that had to park in a lane because their shard
    /// queue was full when they arrived.
    pub lane_waits: u64,
}

/// Decrements its tenant's in-flight count when dropped and records the
/// tenant's admission-to-release latency. Hold it until the request's
/// response has been delivered.
#[derive(Debug)]
pub struct InflightGuard {
    slot: Arc<AtomicUsize>,
    stats: Arc<TenantStats>,
    admitted: Instant,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.stats.latency.record_duration(self.admitted.elapsed());
        self.slot.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Lock-free per-tenant decision counters plus the latency histogram the
/// [`InflightGuard`] feeds on drop.
#[derive(Debug, Default)]
struct TenantStats {
    submitted: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    latency: Histogram,
}

/// A point-in-time snapshot of one tenant's admission activity, from
/// [`FairShare::tenant_counters`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantCounters {
    /// Requests the tenant offered (admitted + rejected).
    pub submitted: u64,
    /// Requests that passed policy and reached a shard queue.
    pub admitted: u64,
    /// Requests refused by the token bucket or in-flight cap.
    pub rejected: u64,
    /// Admission-to-response-delivered latency (guard lifetime).
    pub latency: HistogramSnapshot,
}

/// Live token-bucket state of one tenant.
struct TenantState {
    policy: TenantPolicy,
    tokens: f64,
    refilled: Instant,
    inflight: Arc<AtomicUsize>,
    stats: Arc<TenantStats>,
}

impl TenantState {
    fn new(policy: TenantPolicy, now: Instant) -> Self {
        TenantState {
            policy,
            tokens: policy.burst,
            refilled: now,
            inflight: Arc::new(AtomicUsize::new(0)),
            stats: Arc::new(TenantStats::default()),
        }
    }

    fn refill(&mut self, now: Instant) {
        let elapsed = now.saturating_duration_since(self.refilled).as_secs_f64();
        self.refilled = now;
        if self.policy.rate.is_infinite() {
            self.tokens = self.policy.burst;
        } else {
            self.tokens = (self.tokens + elapsed * self.policy.rate).min(self.policy.burst);
        }
    }
}

/// One tenant's queue of backlogged (admitted, shard-queue-full) tickets.
struct Lane {
    tenant: String,
    weight: u32,
    deficit: u32,
    tickets: VecDeque<u64>,
}

#[derive(Default)]
struct ShareState {
    tenants: HashMap<String, TenantState>,
    lanes: Vec<Lane>,
    cursor: usize,
    grant: Option<u64>,
    next_ticket: u64,
}

impl ShareState {
    fn lane_mut(&mut self, tenant: &str, weight: u32) -> &mut Lane {
        if let Some(index) = self.lanes.iter().position(|l| l.tenant == tenant) {
            return &mut self.lanes[index];
        }
        self.lanes.push(Lane {
            tenant: tenant.to_string(),
            weight,
            // A new lane arrives with a full quantum, like a lane the
            // round-robin cursor just reached.
            deficit: weight,
            tickets: VecDeque::new(),
        });
        self.lanes.last_mut().expect("just pushed")
    }

    /// Picks the next ticket to grant by weighted deficit round robin:
    /// the cursor lane's head is granted while the lane has deficit, the
    /// cursor moves on (refreshing the next lane's quantum) when it runs
    /// out. No-op while a grant is outstanding.
    fn advance(&mut self) {
        if self.grant.is_some() {
            return;
        }
        self.lanes.retain(|lane| !lane.tickets.is_empty());
        if self.lanes.is_empty() {
            self.cursor = 0;
            return;
        }
        if self.cursor >= self.lanes.len() {
            self.cursor = 0;
        }
        loop {
            let lane = &mut self.lanes[self.cursor];
            if lane.deficit > 0 {
                lane.deficit -= 1;
                self.grant = Some(*lane.tickets.front().expect("lanes are non-empty"));
                return;
            }
            // Quantum spent: move on; the lane the cursor arrives at gets
            // a fresh quantum (>= 1), so this loop serves within two
            // iterations.
            self.cursor = (self.cursor + 1) % self.lanes.len();
            let next = &mut self.lanes[self.cursor];
            next.deficit = next.weight;
        }
    }

    /// Removes `ticket` from its lane (grant consumed, or the waiter is
    /// bailing out) and clears the grant if it was this ticket's.
    fn retire(&mut self, ticket: u64) {
        for lane in &mut self.lanes {
            lane.tickets.retain(|t| *t != ticket);
        }
        if self.grant == Some(ticket) {
            self.grant = None;
        }
    }

    /// The granted ticket's shard queue was still full: yield the turn so
    /// other lanes (whose shards may have room) are not blocked behind
    /// this one.
    fn yield_turn(&mut self, tenant: &str) {
        if let Some(lane) = self.lanes.iter_mut().find(|l| l.tenant == tenant) {
            lane.deficit = 0;
        }
        self.grant = None;
        self.cursor += 1;
    }
}

/// The fair-share admission stage (see the module docs).
///
/// # Example
///
/// ```
/// use rei_service::{
///     AdmissionConfig, AdmissionError, FairShare, RouterConfig, ServiceConfig, ShardRouter,
///     SynthRequest, TenantPolicy,
/// };
/// use rei_lang::Spec;
///
/// let router = ShardRouter::start(RouterConfig::identical(2, ServiceConfig::new(1))).unwrap();
/// let fair = FairShare::new(
///     AdmissionConfig::new().with_tenant("throttled", TenantPolicy::limited(1.0, 1.0)),
/// )
/// .unwrap();
/// let spec = Spec::from_strs(["0", "00"], ["1"]).unwrap();
/// // The first request spends the tenant's one burst token …
/// let (handle, guard) = fair
///     .submit(&router, SynthRequest::new(spec.clone()).with_tenant("throttled"))
///     .unwrap();
/// assert!(handle.wait().outcome.is_ok());
/// drop(guard);
/// // … so an immediate second one is refused, not queued.
/// let refused = fair
///     .submit(&router, SynthRequest::new(spec).with_tenant("throttled"))
///     .unwrap_err();
/// assert_eq!(refused, AdmissionError::RateLimited);
/// assert_eq!(fair.counters().rate_limited, 1);
/// router.shutdown();
/// ```
pub struct FairShare {
    default_policy: TenantPolicy,
    policies: HashMap<String, TenantPolicy>,
    state: Mutex<ShareState>,
    turn: Condvar,
    admitted: AtomicU64,
    rate_limited: AtomicU64,
    lane_waits: AtomicU64,
    traces: Option<Arc<TraceRegistry>>,
}

impl fmt::Debug for FairShare {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FairShare")
            .field("tenants", &self.policies.len())
            .finish_non_exhaustive()
    }
}

/// How long a lane waiter sleeps between submission attempts while its
/// shard queue stays full. Bounds both the retry rate and the latency of
/// noticing a freed slot.
const LANE_RETRY_TICK: Duration = Duration::from_millis(1);

impl FairShare {
    /// Builds the stage from a validated configuration.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidConfig`] when any policy has a zero weight,
    /// non-positive rate, burst below 1, or zero in-flight cap.
    pub fn new(config: AdmissionConfig) -> Result<Self, ServiceError> {
        config.validate()?;
        Ok(FairShare {
            default_policy: config.default_policy,
            policies: config.tenants.into_iter().collect(),
            state: Mutex::new(ShareState::default()),
            turn: Condvar::new(),
            admitted: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            lane_waits: AtomicU64::new(0),
            traces: None,
        })
    }

    /// Attaches a trace registry: every admitted request gets a trace id
    /// and an `admitted` timeline event, and the request's downstream
    /// phases (routing, queueing, level sweeps, completion) land in the
    /// registry's ring.
    pub fn with_traces(mut self, registry: Arc<TraceRegistry>) -> Self {
        self.traces = Some(registry);
        self
    }

    /// The attached trace registry, if any.
    pub fn traces(&self) -> Option<&TraceRegistry> {
        self.traces.as_deref()
    }

    /// The policy `tenant` falls under (`None` = the anonymous bucket).
    pub fn policy(&self, tenant: Option<&str>) -> TenantPolicy {
        tenant
            .and_then(|t| self.policies.get(t).copied())
            .unwrap_or(self.default_policy)
    }

    /// A snapshot of the admission decision counters.
    pub fn counters(&self) -> AdmissionCounters {
        AdmissionCounters {
            admitted: self.admitted.load(Ordering::Relaxed),
            rate_limited: self.rate_limited.load(Ordering::Relaxed),
            lane_waits: self.lane_waits.load(Ordering::Relaxed),
        }
    }

    /// Per-tenant admission counters and latency, sorted by tenant name.
    /// Requests without a tenant key appear under the empty string.
    pub fn tenant_counters(&self) -> Vec<(String, TenantCounters)> {
        let state = self.lock();
        let mut tenants: Vec<(String, TenantCounters)> = state
            .tenants
            .iter()
            .map(|(name, tenant)| {
                (
                    name.clone(),
                    TenantCounters {
                        submitted: tenant.stats.submitted.load(Ordering::Relaxed),
                        admitted: tenant.stats.admitted.load(Ordering::Relaxed),
                        rejected: tenant.stats.rejected.load(Ordering::Relaxed),
                        latency: tenant.stats.latency.snapshot(),
                    },
                )
            })
            .collect();
        tenants.sort_by(|a, b| a.0.cmp(&b.0));
        tenants
    }

    fn lock(&self) -> MutexGuard<'_, ShareState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Submits `request` through admission into `router`.
    ///
    /// Policy check first: no token or in-flight cap reached refuses with
    /// [`AdmissionError::RateLimited`] immediately. An admitted request
    /// goes to its shard with `try_submit`; if that queue is full it
    /// parks in the tenant's lane and the weighted deficit-round-robin
    /// scheduler retries it whenever the lane's turn comes, so a
    /// backlogged heavy tenant cannot monopolise freed slots. Returns the
    /// job handle plus the [`InflightGuard`] releasing the tenant's
    /// in-flight slot — drop the guard once the response is delivered.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::RateLimited`] on policy refusal,
    /// [`AdmissionError::Service`] when the router is shutting down.
    pub fn submit(
        &self,
        router: &ShardRouter,
        request: SynthRequest,
    ) -> Result<(JobHandle, InflightGuard), AdmissionError> {
        let tenant = request.tenant().unwrap_or("").to_string();
        let policy = self.policy(request.tenant());
        let now = Instant::now();
        let (guard, stats) = {
            let mut state = self.lock();
            let entry = state
                .tenants
                .entry(tenant.clone())
                .or_insert_with(|| TenantState::new(policy, now));
            entry.refill(now);
            entry.stats.submitted.fetch_add(1, Ordering::Relaxed);
            if entry.inflight.load(Ordering::Acquire) >= entry.policy.max_inflight
                || entry.tokens < 1.0
            {
                entry.stats.rejected.fetch_add(1, Ordering::Relaxed);
                drop(state);
                self.rate_limited.fetch_add(1, Ordering::Relaxed);
                return Err(AdmissionError::RateLimited);
            }
            entry.tokens -= 1.0;
            entry.inflight.fetch_add(1, Ordering::AcqRel);
            let stats = Arc::clone(&entry.stats);
            (
                InflightGuard {
                    slot: Arc::clone(&entry.inflight),
                    stats: Arc::clone(&entry.stats),
                    admitted: now,
                },
                stats,
            )
        };

        // Policy passed: stamp the request with a trace id before it can
        // reach the router, so every later phase lands in the timeline.
        let request = match &self.traces {
            Some(registry) => {
                let trace = registry.begin();
                trace.record("admitted", format!("tenant={tenant}"));
                request.with_trace(trace)
            }
            None => request,
        };

        // Fast path: the shard queue has room (or the request is a cache
        // hit / coalesce, which consumes no slot at all). The clone keeps
        // a retry copy — `try_submit` consumes its argument.
        let retry = request.clone();
        match router.try_submit(request) {
            Ok(handle) => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                stats.admitted.fetch_add(1, Ordering::Relaxed);
                return Ok((handle, guard));
            }
            Err(ServiceError::QueueFull) => {}
            Err(other) => return Err(AdmissionError::Service(other)),
        }

        // Slow path: park in the tenant's lane until the DRR scheduler
        // grants this ticket a retry that sticks.
        self.lane_waits.fetch_add(1, Ordering::Relaxed);
        let mut state = self.lock();
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state
            .lane_mut(&tenant, policy.weight)
            .tickets
            .push_back(ticket);
        loop {
            state.advance();
            if state.grant != Some(ticket) {
                // Not our turn; the tick also re-polls the queue via the
                // granted waiter, so no freed slot goes unnoticed long.
                state = self
                    .turn
                    .wait_timeout(state, LANE_RETRY_TICK)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
                continue;
            }
            match router.try_submit(retry.clone()) {
                Ok(handle) => {
                    state.retire(ticket);
                    state.advance();
                    drop(state);
                    self.turn.notify_all();
                    self.admitted.fetch_add(1, Ordering::Relaxed);
                    stats.admitted.fetch_add(1, Ordering::Relaxed);
                    return Ok((handle, guard));
                }
                Err(ServiceError::QueueFull) => {
                    // Still full: hand the turn to other lanes (their
                    // shards may have room) and retry next round.
                    state.yield_turn(&tenant);
                    state.advance();
                    drop(state);
                    self.turn.notify_all();
                    std::thread::sleep(LANE_RETRY_TICK);
                    state = self.lock();
                }
                Err(other) => {
                    state.retire(ticket);
                    state.advance();
                    drop(state);
                    self.turn.notify_all();
                    return Err(AdmissionError::Service(other));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterConfig;
    use crate::service::ServiceConfig;
    use rei_lang::Spec;

    fn tiny_spec(positive: &str) -> Spec {
        Spec::from_strs([positive], []).unwrap()
    }

    fn open_router() -> ShardRouter {
        ShardRouter::start(RouterConfig::identical(1, ServiceConfig::new(1))).unwrap()
    }

    #[test]
    fn policies_are_validated() {
        for (policy, needle) in [
            (TenantPolicy::unlimited().with_weight(0), "weight"),
            (TenantPolicy::limited(0.0, 4.0), "rate"),
            (TenantPolicy::limited(-1.0, 4.0), "rate"),
            (TenantPolicy::limited(f64::NAN, 4.0), "rate"),
            (TenantPolicy::limited(1.0, 0.5), "burst"),
            (
                TenantPolicy::unlimited().with_max_inflight(0),
                "max_inflight",
            ),
        ] {
            let config = AdmissionConfig::new().with_tenant("t", policy);
            let err = FairShare::new(config).unwrap_err();
            match err {
                ServiceError::InvalidConfig(message) => {
                    assert!(message.contains(needle), "{policy:?}: {message}")
                }
                other => panic!("expected InvalidConfig, got {other}"),
            }
        }
        // A bad *default* policy is caught too.
        let config = AdmissionConfig::new().with_default_policy(TenantPolicy::limited(1.0, 0.0));
        assert!(FairShare::new(config).is_err());
    }

    #[test]
    fn token_bucket_refuses_beyond_the_burst() {
        let router = open_router();
        // A burst of 2 and (practically) no refill.
        let fair = FairShare::new(
            AdmissionConfig::new().with_tenant("flood", TenantPolicy::limited(1e-9, 2.0)),
        )
        .unwrap();
        let mut admitted = Vec::new();
        let mut refused = 0;
        for i in 0..5 {
            let request = SynthRequest::new(tiny_spec("0")).with_tenant("flood");
            match fair.submit(&router, request) {
                Ok(ok) => admitted.push(ok),
                Err(AdmissionError::RateLimited) => refused += 1,
                Err(other) => panic!("request {i}: unexpected {other}"),
            }
        }
        assert_eq!(admitted.len(), 2);
        assert_eq!(refused, 3);
        let counters = fair.counters();
        assert_eq!(counters.admitted, 2);
        assert_eq!(counters.rate_limited, 3);
        assert_eq!(counters.lane_waits, 0);
        // Another tenant under the (unlimited) default policy is not
        // affected by the flood's empty bucket.
        let request = SynthRequest::new(tiny_spec("1")).with_tenant("good");
        assert!(fair.submit(&router, request).is_ok());
        router.shutdown();
    }

    #[test]
    fn inflight_cap_counts_unanswered_requests() {
        let router = open_router();
        let fair = FairShare::new(
            AdmissionConfig::new()
                .with_tenant("capped", TenantPolicy::unlimited().with_max_inflight(1)),
        )
        .unwrap();
        let request = || SynthRequest::new(tiny_spec("0")).with_tenant("capped");
        let (handle, guard) = fair.submit(&router, request()).unwrap();
        assert!(handle.wait().outcome.is_ok());
        // The response may be delivered, but the slot is released only
        // when the guard drops.
        assert_eq!(
            fair.submit(&router, request()).unwrap_err(),
            AdmissionError::RateLimited
        );
        drop(guard);
        assert!(fair.submit(&router, request()).is_ok());
        router.shutdown();
    }

    #[test]
    fn drr_grants_follow_lane_weights() {
        let mut state = ShareState::default();
        for ticket in [1u64, 2, 3] {
            state.lane_mut("heavy", 2).tickets.push_back(ticket);
        }
        for ticket in [4u64, 5] {
            state.lane_mut("light", 1).tickets.push_back(ticket);
        }
        let mut order = Vec::new();
        while order.len() < 5 {
            state.advance();
            let granted = state.grant.expect("tickets remain");
            order.push(granted);
            state.retire(granted);
        }
        // Two heavy grants per round for one light grant.
        assert_eq!(order, [1, 2, 4, 3, 5]);
        state.advance();
        assert_eq!(state.grant, None, "all lanes drained");
    }

    #[test]
    fn full_queue_parks_in_a_lane_and_drains() {
        // One worker, one queue slot: concurrent submissions beyond the
        // slot must park in lanes (lane_waits > 0) and still all finish.
        let router = ShardRouter::start(RouterConfig::identical(
            1,
            ServiceConfig::new(1).with_queue_capacity(1),
        ))
        .unwrap();
        let fair = Arc::new(FairShare::new(AdmissionConfig::new()).unwrap());
        let router = Arc::new(router);
        let threads: Vec<_> = (0..6)
            .map(|i| {
                let fair = Arc::clone(&fair);
                let router = Arc::clone(&router);
                std::thread::spawn(move || {
                    let request = SynthRequest::new(tiny_spec(&format!("{i:03b}")))
                        .with_tenant(format!("tenant-{}", i % 3));
                    let (handle, guard) = fair.submit(&router, request).unwrap();
                    let solved = handle.wait().outcome.is_ok();
                    drop(guard);
                    solved
                })
            })
            .collect();
        for thread in threads {
            assert!(thread.join().unwrap());
        }
        let counters = fair.counters();
        assert_eq!(counters.admitted, 6);
        assert_eq!(counters.rate_limited, 0);
        let Ok(router) = Arc::try_unwrap(router) else {
            unreachable!("threads joined; no other owners remain");
        };
        router.shutdown();
    }

    #[test]
    fn tenant_counters_and_traces_follow_admission() {
        let router = open_router();
        let registry = TraceRegistry::new(64, None);
        let fair = FairShare::new(
            AdmissionConfig::new().with_tenant("throttled", TenantPolicy::limited(1e-9, 1.0)),
        )
        .unwrap()
        .with_traces(Arc::clone(&registry));

        let (handle, guard) = fair
            .submit(
                &router,
                SynthRequest::new(tiny_spec("0")).with_tenant("throttled"),
            )
            .unwrap();
        let trace_id = handle.trace().expect("admitted requests get a trace").id();
        assert!(handle.wait().outcome.is_ok());
        drop(guard);
        let phases: Vec<String> = registry
            .events(trace_id)
            .into_iter()
            .map(|event| event.phase.to_string())
            .collect();
        assert_eq!(phases.first().map(String::as_str), Some("admitted"));
        assert!(
            phases.iter().any(|p| p == "enqueued"),
            "fresh request reaches a shard queue: {phases:?}"
        );

        // The empty bucket refuses the second request; the per-tenant
        // ledger sees both decisions and exactly one completed latency.
        let refused = fair
            .submit(
                &router,
                SynthRequest::new(tiny_spec("1")).with_tenant("throttled"),
            )
            .unwrap_err();
        assert_eq!(refused, AdmissionError::RateLimited);
        let tenants = fair.tenant_counters();
        let (name, counters) = &tenants[0];
        assert_eq!(name, "throttled");
        assert_eq!(counters.submitted, 2);
        assert_eq!(counters.admitted, 1);
        assert_eq!(counters.rejected, 1);
        assert_eq!(counters.latency.count, 1);
        router.shutdown();
    }

    #[test]
    fn shutdown_surfaces_as_a_service_error() {
        let router = open_router();
        router.close();
        let fair = FairShare::new(AdmissionConfig::new()).unwrap();
        let err = fair
            .submit(&router, SynthRequest::new(tiny_spec("0")))
            .unwrap_err();
        assert_eq!(err, AdmissionError::Service(ServiceError::ShuttingDown));
        router.shutdown();
    }
}
