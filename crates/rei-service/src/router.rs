//! The shard router: N identical service pools behind one submission
//! front-end.
//!
//! A single [`SynthService`] is one queue shared by every tenant: a burst
//! of heavy requests from one tenant delays everyone. The [`ShardRouter`]
//! owns N pools — each a full `SynthService` with its own workers, queue,
//! cache and (optionally) persistent store — and deterministically routes
//! each request to one of them:
//!
//! * a request carrying an explicit tenant key
//!   ([`SynthRequest::with_tenant`]) is routed by the stable FNV-1a hash
//!   of that key — every request of a tenant lands on the same pool, so
//!   one tenant's backlog stays on one queue;
//! * a request without a tenant falls back to the specification's
//!   [`fingerprint`](rei_lang::Spec::fingerprint) bits — identical
//!   specifications still land on the same pool, which keeps the result
//!   cache and in-flight coalescing effective across anonymous traffic.
//!
//! Every pool runs the same [`ServiceConfig`]: routing picks a pool by a
//! hash, so pools configured differently would give a request a
//! synthesis configuration chosen by its hash. The pool count is fixed
//! when the router starts. The key picks a pool through a
//! consistent-hash [`HashRing`] rather than `key % N`, so a router
//! restarted over the same cache directory with one pool more keeps
//! ~N/(N+1) of the keys on the pool whose persistent store already
//! holds their answers.
//!
//! Pools fail independently: a full queue rejects `try_submit`s to *that*
//! pool only, and the other pools keep accepting. Metrics are reported
//! per pool plus as a cross-pool rollup (see [`RouterSnapshot`]).

use std::path::PathBuf;

use rei_obs::{PromText, LATENCY_BOUNDS_SECS};

use crate::admission::{AdmissionCounters, TenantCounters};
use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use crate::request::{JobHandle, SynthRequest};
use crate::ring::HashRing;
use crate::service::{ServiceConfig, ServiceError, SynthService};

/// Configuration of a [`ShardRouter`]: a pool count, the one service
/// configuration every pool runs, and an optional cache directory.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    pools: usize,
    service: ServiceConfig,
    cache_dir: Option<PathBuf>,
}

impl RouterConfig {
    /// `pools` identical shards of one service configuration, named
    /// `pool-0` … `pool-N-1`. Routing is by consistent hash over these
    /// names, so the same pool count yields the same assignment in every
    /// process.
    pub fn identical(pools: usize, service: ServiceConfig) -> Self {
        RouterConfig {
            pools,
            service,
            cache_dir: None,
        }
    }

    /// Gives every pool a store directory of its own under `dir`:
    /// `<dir>/pool-K/`. A service configuration with its own
    /// [`cache_path`](ServiceConfig::cache_path) keeps it. Routing is
    /// deterministic, so a restarted router with the same pool count
    /// finds each shard's entries in its own store.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    fn validate(&self) -> Result<(), ServiceError> {
        if self.pools == 0 {
            return Err(ServiceError::InvalidConfig(
                "router needs at least one pool".into(),
            ));
        }
        // Two pools sharing one store would clobber each other's
        // manifest and records at every seal and fold.
        if self.pools > 1 {
            if let Some(path) = &self.service.cache_path {
                return Err(ServiceError::InvalidConfig(format!(
                    "pools share the cache store '{}' (give each pool its own, \
                     e.g. via RouterConfig::with_cache_dir)",
                    path.display()
                )));
            }
        }
        Ok(())
    }

    /// The configuration pool `name` runs: the shared one, persistent
    /// under `<cache dir>/<name>/` when a cache directory is set.
    fn pool_service(&self, name: &str) -> ServiceConfig {
        let mut service = self.service.clone();
        if service.cache_path.is_none() {
            service.cache_path = self.cache_dir.as_ref().map(|dir| dir.join(name));
        }
        service
    }
}

struct Pool {
    name: String,
    service: SynthService,
}

/// A shard router over N service pools (see the module docs).
///
/// # Example
///
/// ```
/// use rei_service::{RouterConfig, ServiceConfig, ShardRouter, SynthRequest};
/// use rei_lang::Spec;
///
/// let router = ShardRouter::start(RouterConfig::identical(2, ServiceConfig::new(1))).unwrap();
/// let spec = Spec::from_strs(["0", "00"], ["1"]).unwrap();
/// let handle = router.submit(SynthRequest::new(spec).with_tenant("acme")).unwrap();
/// assert!(handle.wait().outcome.is_ok());
/// let snapshot = router.shutdown();
/// assert_eq!(snapshot.rollup().solved, 1);
/// ```
pub struct ShardRouter {
    pools: Vec<Pool>,
    ring: HashRing,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("pools", &self.pools())
            .finish_non_exhaustive()
    }
}

impl ShardRouter {
    /// Starts every pool (workers, persistent cache warm-up).
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidConfig`] when the router has no pools,
    /// several pools would share one explicit cache store, or the service
    /// configuration does not validate; pools already started are shut
    /// down again.
    pub fn start(config: RouterConfig) -> Result<Self, ServiceError> {
        config.validate()?;
        let mut pools = Vec::with_capacity(config.pools);
        let mut ring = HashRing::new();
        for index in 0..config.pools {
            let name = format!("pool-{index}");
            let service = SynthService::start(config.pool_service(&name))?;
            ring.add(&name);
            pools.push(Pool { name, service });
        }
        Ok(ShardRouter { pools, ring })
    }

    /// Index of the pool the ring assigns `key` to. The ring names
    /// exactly the router's pools, so the lookup cannot miss.
    fn route_key(&self, key: u64) -> usize {
        let name = self.ring.route(key).expect("router always has a pool");
        self.pools
            .iter()
            .position(|pool| pool.name == name)
            .expect("ring names a live pool")
    }

    /// The routing key of `request`: the FNV-1a hash of the tenant key
    /// when one is set; otherwise, for a session refinement, the FNV-1a
    /// hash of the session name — so refines land on the pool that
    /// [opened](ShardRouter::open_session) the session under the same key
    /// — and the specification fingerprint for everything else.
    /// Deterministic across processes.
    pub fn routing_key(request: &SynthRequest) -> u64 {
        match (request.tenant(), request.session()) {
            (Some(tenant), _) => rei_lang::fnv1a(tenant.as_bytes()),
            (None, Some(session)) => rei_lang::fnv1a(session.as_bytes()),
            (None, None) => request.spec().fingerprint(),
        }
    }

    /// The routing key of session verbs (`open_session`/`close_session`):
    /// tenant when given, session name otherwise — the same key
    /// [`routing_key`](ShardRouter::routing_key) derives for the
    /// session's refines.
    fn session_key(name: &str, tenant: Option<&str>) -> u64 {
        match tenant {
            Some(tenant) => rei_lang::fnv1a(tenant.as_bytes()),
            None => rei_lang::fnv1a(name.as_bytes()),
        }
    }

    /// Opens the refinement session `name` on the pool its key routes to
    /// (see [`SynthService::open_session`]). Unlike the single-pool API
    /// the name is required: the router must know the key before it can
    /// pick a pool, so callers (e.g. the network front-end) generate a
    /// name first when the client did not choose one. Pass the same
    /// `tenant` on open, refine and close — the tenant key dominates
    /// routing when present.
    pub fn open_session(&self, name: &str, tenant: Option<&str>) -> Result<String, ServiceError> {
        let index = self.route_key(ShardRouter::session_key(name, tenant));
        self.pools[index].service.open_session(Some(name), tenant)
    }

    /// Closes the refinement session `name` on the pool its key routes to
    /// (see [`SynthService::close_session`]).
    pub fn close_session(&self, name: &str, tenant: Option<&str>) -> Result<(), ServiceError> {
        let index = self.route_key(ShardRouter::session_key(name, tenant));
        self.pools[index].service.close_session(name)
    }

    /// The index of the pool `request` routes to — the consistent-hash
    /// ring owner of its [`routing_key`](ShardRouter::routing_key).
    pub fn route(&self, request: &SynthRequest) -> usize {
        self.route_key(ShardRouter::routing_key(request))
    }

    /// The pool `request` routes to, with a `routed` event on its trace.
    fn routed(&self, request: &SynthRequest) -> &SynthService {
        let pool = &self.pools[self.route(request)];
        if let Some(trace) = request.trace() {
            trace.record("routed", format!("pool={}", pool.name));
        }
        &pool.service
    }

    /// Submits to the routed pool, blocking while that pool's queue is at
    /// capacity (other pools are unaffected).
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShuttingDown`] after [`close`](ShardRouter::close).
    pub fn submit(&self, request: SynthRequest) -> Result<JobHandle, ServiceError> {
        self.routed(&request).submit(request)
    }

    /// Like [`submit`](ShardRouter::submit), but fails with
    /// [`ServiceError::QueueFull`] when the routed pool's queue is at
    /// capacity instead of blocking. Only that pool rejects; requests
    /// routed elsewhere are unaffected.
    pub fn try_submit(&self, request: SynthRequest) -> Result<JobHandle, ServiceError> {
        self.routed(&request).try_submit(request)
    }

    /// Number of pools.
    pub fn pools(&self) -> usize {
        self.pools.len()
    }

    /// The name of pool `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= pools()`.
    pub fn pool_name(&self, index: usize) -> &str {
        &self.pools[index].name
    }

    /// A point-in-time snapshot of every pool's metrics.
    pub fn metrics(&self) -> RouterSnapshot {
        RouterSnapshot {
            pools: self
                .pools
                .iter()
                .map(|pool| (pool.name.clone(), pool.service.metrics()))
                .collect(),
            admission: AdmissionCounters::default(),
            tenants: Vec::new(),
        }
    }

    /// Closes every pool to new submissions (queued and in-flight jobs
    /// keep running; see [`SynthService::close`]).
    pub fn close(&self) {
        for pool in &self.pools {
            pool.service.close();
        }
    }

    /// Graceful shutdown of every pool (drain, join, compact persistent
    /// caches); returns the final per-pool snapshots.
    pub fn shutdown(self) -> RouterSnapshot {
        RouterSnapshot {
            pools: self
                .pools
                .into_iter()
                .map(|pool| (pool.name, pool.service.shutdown()))
                .collect(),
            admission: AdmissionCounters::default(),
            tenants: Vec::new(),
        }
    }
}

/// Per-pool metrics snapshots plus their cross-pool rollup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterSnapshot {
    /// `(pool name, snapshot)` in pool order.
    pub pools: Vec<(String, MetricsSnapshot)>,
    /// Admission-stage decisions, when a
    /// [`FairShare`](crate::FairShare) front-end sat in front of the
    /// router (all zero otherwise). Pools never see rate-limited
    /// requests, so these live beside the per-pool snapshots rather than
    /// inside any of them.
    pub admission: AdmissionCounters,
    /// Per-tenant admission breakdowns, when a
    /// [`FairShare`](crate::FairShare) front-end supplied them via
    /// [`tenant_counters`](crate::FairShare::tenant_counters) (empty
    /// otherwise). Sorted by tenant name.
    pub tenants: Vec<(String, TenantCounters)>,
}

impl RouterSnapshot {
    /// The cross-pool rollup: every counter summed over the pools, the
    /// worker rollups concatenated in pool order, and the router-level
    /// admission decisions folded into the admission fields.
    pub fn rollup(&self) -> MetricsSnapshot {
        let mut total = MetricsSnapshot::default();
        for (_, snapshot) in &self.pools {
            total.absorb(snapshot);
        }
        total.admitted += self.admission.admitted;
        total.rate_limited += self.admission.rate_limited;
        total.lane_waits += self.admission.lane_waits;
        total
    }

    /// The snapshot as a JSON document (schema
    /// `rei-service/router-metrics-v1`): a `pools` array of per-pool
    /// metrics documents plus the `rollup` document (which carries the
    /// admission counters in its `requests` section).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema", Json::str("rei-service/router-metrics-v1")),
            ("pools", Json::uint(self.pools.len() as u64)),
            (
                "per_pool",
                Json::array(self.pools.iter().map(|(name, snapshot)| {
                    let mut doc = Json::object([("pool", Json::str(name))]);
                    if let Json::Object(pairs) = snapshot.to_json() {
                        for (key, value) in pairs {
                            if key != "schema" {
                                doc.set(&key, value);
                            }
                        }
                    }
                    doc
                })),
            ),
            (
                "tenants",
                Json::array(self.tenants.iter().map(|(name, counters)| {
                    Json::object([
                        ("tenant", Json::str(name)),
                        ("submitted", Json::uint(counters.submitted)),
                        ("admitted", Json::uint(counters.admitted)),
                        ("rejected", Json::uint(counters.rejected)),
                        (
                            "latency_p50_ms",
                            Json::fixed(counters.latency.quantile(0.50) as f64 / 1e6, 3),
                        ),
                        (
                            "latency_p99_ms",
                            Json::fixed(counters.latency.quantile(0.99) as f64 / 1e6, 3),
                        ),
                    ])
                })),
            ),
            ("rollup", self.rollup().to_json()),
        ])
    }

    /// The snapshot in Prometheus text format (version 0.0.4): per-pool
    /// request counters and latency histograms, router-level admission
    /// counters, queue/cache gauges, and per-tenant admission families
    /// when the snapshot carries tenant breakdowns.
    pub fn to_prometheus(&self) -> String {
        let mut text = PromText::new();

        type CounterRow = (&'static str, &'static str, fn(&MetricsSnapshot) -> u64);
        let counters: [CounterRow; 9] = [
            ("rei_requests_submitted_total", "Requests submitted.", |s| {
                s.submitted
            }),
            (
                "rei_requests_completed_total",
                "Requests completed by a worker.",
                |s| s.completed,
            ),
            ("rei_requests_solved_total", "Requests solved.", |s| {
                s.solved
            }),
            (
                "rei_requests_rejected_total",
                "Requests rejected at the pool queue.",
                |s| s.rejected,
            ),
            ("rei_cache_hits_total", "Result-cache hits.", |s| {
                s.cache_hits
            }),
            (
                "rei_coalesced_total",
                "Requests coalesced onto an in-flight job.",
                |s| s.coalesced,
            ),
            (
                "rei_cache_append_errors_total",
                "Cache records dropped after exhausting append retries.",
                |s| s.disk_append_errors,
            ),
            (
                "rei_cache_evicted_total",
                "Cache records evicted from disk by the byte cap.",
                |s| s.disk_evicted,
            ),
            (
                "rei_cache_checkpoints_total",
                "Checkpoint folds completed by the cache janitor.",
                |s| s.disk_checkpoints,
            ),
        ];
        for (family, help, pick) in counters {
            text.family(family, "counter", help);
            for (name, snapshot) in &self.pools {
                text.sample(family, &[("pool", name)], pick(snapshot) as f64);
            }
        }

        type GaugeRow = (&'static str, &'static str, fn(&MetricsSnapshot) -> usize);
        let gauges: [GaugeRow; 2] = [
            ("rei_queue_depth", "Jobs waiting in the pool queue.", |s| {
                s.queue_depth
            }),
            ("rei_cache_entries", "Live result-cache entries.", |s| {
                s.cache_entries
            }),
        ];
        for (family, help, pick) in gauges {
            text.family(family, "gauge", help);
            for (name, snapshot) in &self.pools {
                text.sample(family, &[("pool", name)], pick(snapshot) as f64);
            }
        }

        type WideGaugeRow = (&'static str, &'static str, fn(&MetricsSnapshot) -> f64);
        let wide_gauges: [WideGaugeRow; 3] = [
            (
                "rei_cache_disk_bytes",
                "Live bytes of the persistent cache store.",
                |s| s.disk_bytes as f64,
            ),
            (
                "rei_cache_disk_segments",
                "Live segment files of the persistent cache store.",
                |s| s.disk_segments as f64,
            ),
            (
                "rei_recovery_seconds",
                "Wall-clock of the cache recovery replay at start.",
                |s| s.recovery_wall.as_secs_f64(),
            ),
        ];
        for (family, help, pick) in wide_gauges {
            text.family(family, "gauge", help);
            for (name, snapshot) in &self.pools {
                text.sample(family, &[("pool", name)], pick(snapshot));
            }
        }

        text.family(
            "rei_queue_wait_seconds",
            "histogram",
            "Queue wait before a worker picked the job up.",
        );
        text.family("rei_run_seconds", "histogram", "Worker run time per job.");
        text.family(
            "rei_request_seconds",
            "histogram",
            "End-to-end latency, submission to completion.",
        );
        for (name, snapshot) in &self.pools {
            let labels = [("pool", name.as_str())];
            text.histogram(
                "rei_queue_wait_seconds",
                &labels,
                LATENCY_BOUNDS_SECS,
                &snapshot.wait,
            );
            text.histogram(
                "rei_run_seconds",
                &labels,
                LATENCY_BOUNDS_SECS,
                &snapshot.run,
            );
            text.histogram(
                "rei_request_seconds",
                &labels,
                LATENCY_BOUNDS_SECS,
                &snapshot.e2e,
            );
        }

        text.family(
            "rei_admission_admitted_total",
            "counter",
            "Requests admitted by the fair-share stage.",
        );
        text.sample(
            "rei_admission_admitted_total",
            &[],
            self.admission.admitted as f64,
        );
        text.family(
            "rei_admission_rate_limited_total",
            "counter",
            "Requests refused by a token bucket or in-flight cap.",
        );
        text.sample(
            "rei_admission_rate_limited_total",
            &[],
            self.admission.rate_limited as f64,
        );
        text.family(
            "rei_admission_lane_waits_total",
            "counter",
            "Admitted requests that parked in a tenant lane.",
        );
        text.sample(
            "rei_admission_lane_waits_total",
            &[],
            self.admission.lane_waits as f64,
        );

        if !self.tenants.is_empty() {
            text.family(
                "rei_tenant_submitted_total",
                "counter",
                "Requests offered per tenant.",
            );
            text.family(
                "rei_tenant_admitted_total",
                "counter",
                "Requests admitted per tenant.",
            );
            text.family(
                "rei_tenant_rejected_total",
                "counter",
                "Requests refused per tenant.",
            );
            text.family(
                "rei_tenant_request_seconds",
                "histogram",
                "Admission-to-response latency per tenant.",
            );
            for (name, counters) in &self.tenants {
                let labels = [("tenant", name.as_str())];
                text.sample(
                    "rei_tenant_submitted_total",
                    &labels,
                    counters.submitted as f64,
                );
                text.sample(
                    "rei_tenant_admitted_total",
                    &labels,
                    counters.admitted as f64,
                );
                text.sample(
                    "rei_tenant_rejected_total",
                    &labels,
                    counters.rejected as f64,
                );
                text.histogram(
                    "rei_tenant_request_seconds",
                    &labels,
                    LATENCY_BOUNDS_SECS,
                    &counters.latency,
                );
            }
        }

        text.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rei_lang::Spec;

    fn tiny_spec(positive: &str) -> Spec {
        Spec::from_strs([positive], []).unwrap()
    }

    #[test]
    fn routing_is_deterministic_and_tenant_keyed() {
        let router = ShardRouter::start(RouterConfig::identical(3, ServiceConfig::new(1))).unwrap();
        // Same tenant, different specs: always the same pool.
        let by_tenant: Vec<usize> = ["0", "1", "00", "01", "11"]
            .iter()
            .map(|p| router.route(&SynthRequest::new(tiny_spec(p)).with_tenant("acme")))
            .collect();
        assert!(by_tenant.windows(2).all(|w| w[0] == w[1]), "{by_tenant:?}");
        // Without a tenant, the spec fingerprint decides — identical
        // specs agree, and the route matches the ring's assignment of
        // the fingerprint key.
        let spec = tiny_spec("010");
        let mut ring = HashRing::new();
        for index in 0..3 {
            ring.add(&format!("pool-{index}"));
        }
        let expected_name = ring.route(spec.fingerprint()).unwrap();
        let routed = router.route(&SynthRequest::new(spec.clone()));
        assert_eq!(router.pool_name(routed), expected_name);
        assert_eq!(router.route(&SynthRequest::new(spec)), routed);
        // A reasonable spread: many tenants do not all map to one pool.
        let pools: std::collections::HashSet<usize> = (0..16)
            .map(|i| {
                router.route(&SynthRequest::new(tiny_spec("0")).with_tenant(format!("tenant-{i}")))
            })
            .collect();
        assert!(pools.len() > 1, "{pools:?}");
        router.shutdown();
    }

    #[test]
    fn empty_and_duplicate_pool_configs_are_rejected() {
        let err =
            ShardRouter::start(RouterConfig::identical(0, ServiceConfig::new(1))).unwrap_err();
        match err {
            ServiceError::InvalidConfig(message) => {
                assert!(message.contains("at least one pool"), "{message}")
            }
            other => panic!("expected InvalidConfig, got {other}"),
        }
        // The pools' own invalid config is refused.
        let err =
            ShardRouter::start(RouterConfig::identical(2, ServiceConfig::new(0))).unwrap_err();
        assert!(matches!(err, ServiceError::InvalidConfig(_)), "{err}");
        // Pools must not share one cache store: they would clobber each
        // other's manifest. (`identical` over a config whose cache path
        // is already set is the way to hit this.)
        let shared = RouterConfig::identical(
            2,
            ServiceConfig::new(1).with_cache_dir(std::env::temp_dir().join("rei-router-shared")),
        );
        let err = ShardRouter::start(shared).unwrap_err();
        match err {
            ServiceError::InvalidConfig(message) => {
                assert!(message.contains("share the cache store"), "{message}")
            }
            other => panic!("expected InvalidConfig, got {other}"),
        }
    }

    #[test]
    fn snapshot_rollup_sums_pools_and_renders_json() {
        let router = ShardRouter::start(RouterConfig::identical(2, ServiceConfig::new(1))).unwrap();
        let handles: Vec<_> = ["0", "1", "00", "11"]
            .iter()
            .map(|p| router.submit(SynthRequest::new(tiny_spec(p))).unwrap())
            .collect();
        for handle in &handles {
            assert!(handle.wait().outcome.is_ok());
        }
        let mut snapshot = router.shutdown();
        snapshot.admission = AdmissionCounters {
            admitted: 4,
            rate_limited: 2,
            lane_waits: 1,
        };
        assert_eq!(snapshot.pools.len(), 2);
        assert_eq!(snapshot.pools[0].0, "pool-0");
        let rollup = snapshot.rollup();
        assert_eq!(rollup.submitted, 4);
        assert_eq!(
            rollup.solved,
            snapshot.pools.iter().map(|(_, s)| s.solved).sum::<u64>()
        );
        assert_eq!(rollup.workers.len(), 2, "one worker per pool");
        assert_eq!(rollup.rate_limited, 2, "admission folds into the rollup");

        let json = snapshot.to_json();
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("rei-service/router-metrics-v1")
        );
        assert_eq!(json.get("pools").and_then(Json::as_u64), Some(2));
        let per_pool = json.get("per_pool").and_then(Json::as_array).unwrap();
        assert_eq!(per_pool.len(), 2);
        assert_eq!(
            per_pool[1].get("pool").and_then(Json::as_str),
            Some("pool-1")
        );
        let submitted_sum: u64 = per_pool
            .iter()
            .map(|p| {
                p.get("requests")
                    .and_then(|r| r.get("submitted"))
                    .and_then(Json::as_u64)
                    .unwrap()
            })
            .sum();
        let rollup_requests = json.get("rollup").and_then(|r| r.get("requests")).unwrap();
        assert_eq!(
            rollup_requests.get("submitted").and_then(Json::as_u64),
            Some(submitted_sum)
        );
        assert_eq!(
            rollup_requests.get("rate_limited").and_then(Json::as_u64),
            Some(2)
        );
        // The document round-trips through the shared parser.
        assert_eq!(Json::parse(&json.to_pretty()).unwrap(), json);
    }

    #[test]
    fn prometheus_rendering_covers_pools_admission_and_tenants() {
        let router = ShardRouter::start(RouterConfig::identical(2, ServiceConfig::new(1))).unwrap();
        let handle = router.submit(SynthRequest::new(tiny_spec("0"))).unwrap();
        assert!(handle.wait().outcome.is_ok());
        let mut snapshot = router.shutdown();
        snapshot.admission = AdmissionCounters {
            admitted: 1,
            rate_limited: 2,
            lane_waits: 0,
        };
        snapshot.tenants = vec![(
            "acme".to_string(),
            TenantCounters {
                submitted: 3,
                admitted: 2,
                rejected: 1,
                latency: rei_obs::HistogramSnapshot::default(),
            },
        )];
        let body = snapshot.to_prometheus();
        assert!(body.contains("# TYPE rei_requests_submitted_total counter"));
        assert!(body.contains("rei_requests_submitted_total{pool=\"pool-0\"}"));
        assert!(body.contains("rei_admission_rate_limited_total 2\n"));
        assert!(body.contains("rei_tenant_rejected_total{tenant=\"acme\"} 1\n"));
        assert!(body.contains("# TYPE rei_request_seconds histogram"));
        assert!(body.contains("rei_request_seconds_bucket{pool=\"pool-0\",le=\"+Inf\"}"));
        // Every histogram family's buckets are monotone non-decreasing.
        let mut counts: Vec<f64> = Vec::new();
        for line in body.lines() {
            if line.starts_with("rei_request_seconds_bucket{pool=\"pool-0\"") {
                counts.push(line.rsplit(' ').next().unwrap().parse().unwrap());
            }
        }
        assert!(!counts.is_empty());
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        // Across the pools, the +Inf buckets see exactly the one request
        // (whichever pool the fingerprint routed it to).
        let inf_total: f64 = body
            .lines()
            .filter(|line| {
                line.starts_with("rei_request_seconds_bucket") && line.contains("le=\"+Inf\"")
            })
            .map(|line| line.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
            .sum();
        assert_eq!(inf_total, 1.0);
    }
}
