//! Integration tests of the shard router: deterministic tenant routing,
//! pool isolation under overload, the cross-pool metrics rollup, and
//! cache-served replays of the Table 1 pool, through the public facade.

use std::time::{Duration, Instant};

use paresy::bench::costs::REFERENCE;
use paresy::bench::harness::{benchmark_pool, HarnessConfig};
use paresy::prelude::*;

/// The §5.2 specification: at zero allowed error its search needs orders
/// of magnitude more candidates than any quick run can finish, so it
/// reliably keeps a worker busy until a budget or a cancellation fires.
fn hard_spec(extra: &str) -> Spec {
    Spec::from_strs(
        [
            "00", "1101", "0001", "0111", "001", "1", "10", "1100", "111", "1010", extra,
        ],
        [
            "", "0", "0000", "0011", "01", "010", "011", "100", "1000", "1001", "11", "1110",
        ],
    )
    .unwrap()
}

fn tiny_spec(positive: &str) -> Spec {
    Spec::from_strs([positive], []).unwrap()
}

/// A tenant name that routes to `pool` on a router of `pools` pools.
fn tenant_for_pool(router: &ShardRouter, pool: usize) -> String {
    for i in 0..1024 {
        let tenant = format!("tenant-{i}");
        let request = SynthRequest::new(tiny_spec("0")).with_tenant(&tenant);
        if router.route(&request) == pool {
            return tenant;
        }
    }
    panic!("no tenant found for pool {pool}");
}

#[test]
fn same_tenant_key_always_lands_on_the_same_pool() {
    let router = ShardRouter::start(RouterConfig::identical(4, ServiceConfig::new(1))).unwrap();
    // Whatever the specification, a tenant's requests share one pool.
    let routes: Vec<usize> = ["0", "1", "00", "010", "111", "0110"]
        .iter()
        .map(|p| router.route(&SynthRequest::new(tiny_spec(p)).with_tenant("acme")))
        .collect();
    assert!(
        routes.windows(2).all(|w| w[0] == w[1]),
        "tenant 'acme' scattered across pools: {routes:?}"
    );
    // Tenant-less requests route by spec fingerprint: identical specs
    // (even reordered ones) agree, and the mapping is the documented
    // consistent-hash ring over the pool names — stable across
    // processes, so a restarted router shards identically.
    let spec = Spec::from_strs(["10", "1"], ["0"]).unwrap();
    let reordered = Spec::from_strs(["1", "10", "10"], ["0"]).unwrap();
    assert_eq!(
        router.route(&SynthRequest::new(spec.clone())),
        router.route(&SynthRequest::new(reordered))
    );
    let mut ring = HashRing::new();
    for index in 0..4 {
        ring.add(&format!("pool-{index}"));
    }
    assert_eq!(
        format!("pool-{}", router.route(&SynthRequest::new(spec.clone()))),
        ring.route(spec.fingerprint()).unwrap()
    );
    router.shutdown();
}

#[test]
fn queue_full_on_one_pool_does_not_poison_the_others() {
    // Two single-worker pools with one-slot queues; pool A is driven to
    // QueueFull while pool B keeps serving.
    let synth = SynthConfig::default().with_time_budget(Duration::from_millis(500));
    let router = ShardRouter::start(RouterConfig::identical(
        2,
        ServiceConfig::new(1)
            .with_queue_capacity(1)
            .with_synth(synth),
    ))
    .unwrap();
    let tenant_a = tenant_for_pool(&router, 0);
    let tenant_b = tenant_for_pool(&router, 1);

    // Occupy pool A's worker, then its queue slot (distinct hard specs,
    // so nothing coalesces). The worker needs a moment to pop the first
    // job; spin until the second submission owns the queue slot.
    let _running = router
        .submit(SynthRequest::new(hard_spec("01111")).with_tenant(&tenant_a))
        .unwrap();
    let queued = loop {
        match router.try_submit(SynthRequest::new(hard_spec("011110")).with_tenant(&tenant_a)) {
            Ok(handle) => break handle,
            Err(ServiceError::QueueFull) => std::thread::yield_now(),
            Err(other) => panic!("unexpected {other}"),
        }
    };
    let rejected = router
        .try_submit(SynthRequest::new(hard_spec("0111100")).with_tenant(&tenant_a))
        .unwrap_err();
    assert_eq!(rejected, ServiceError::QueueFull);

    // Pool B is unaffected: it accepts and answers immediately.
    let unaffected = router
        .try_submit(
            SynthRequest::new(Spec::from_strs(["0", "00"], ["1"]).unwrap()).with_tenant(&tenant_b),
        )
        .unwrap();
    assert!(unaffected.wait().outcome.is_ok());

    let snapshot = router.shutdown();
    let rollup = snapshot.rollup();
    // At least the final rejection (the spin loop above may have counted
    // more while the worker was still dequeuing), all of them pool A's.
    assert!(rollup.rejected >= 1);
    assert_eq!(snapshot.pools[0].1.rejected, rollup.rejected);
    assert_eq!(snapshot.pools[1].1.rejected, 0);
    assert_eq!(snapshot.pools[1].1.solved, 1);
    drop(queued);
}

#[test]
fn rollup_equals_the_sum_of_per_pool_counters() {
    let router = ShardRouter::start(RouterConfig::identical(3, ServiceConfig::new(1))).unwrap();
    // A mix of tenant-routed and fingerprint-routed traffic, with
    // duplicates to exercise cache hits.
    let specs = ["0", "1", "00", "11", "01", "0"];
    let handles: Vec<JobHandle> = specs
        .iter()
        .enumerate()
        .flat_map(|(i, p)| {
            let spec = tiny_spec(p);
            let tenanted = SynthRequest::new(spec.clone()).with_tenant(format!("t{}", i % 2));
            [
                router.submit(tenanted).unwrap(),
                router.submit(SynthRequest::new(spec)).unwrap(),
            ]
        })
        .collect();
    for handle in &handles {
        assert!(handle.wait().outcome.is_ok());
    }
    let snapshot = router.shutdown();
    assert_eq!(snapshot.pools.len(), 3);
    let rollup = snapshot.rollup();
    let sum = |field: fn(&MetricsSnapshot) -> u64| -> u64 {
        snapshot.pools.iter().map(|(_, s)| field(s)).sum()
    };
    assert_eq!(rollup.submitted, sum(|s| s.submitted));
    assert_eq!(rollup.submitted, 2 * specs.len() as u64);
    assert_eq!(rollup.cache_hits, sum(|s| s.cache_hits));
    assert_eq!(rollup.coalesced, sum(|s| s.coalesced));
    assert_eq!(rollup.enqueued, sum(|s| s.enqueued));
    assert_eq!(rollup.completed, sum(|s| s.completed));
    assert_eq!(rollup.solved, sum(|s| s.solved));
    assert_eq!(rollup.failed, sum(|s| s.failed));
    assert_eq!(
        rollup.workers.len(),
        snapshot.pools.iter().map(|(_, s)| s.workers.len()).sum()
    );
    // Every request was answered, and the duplicated spec "0" reused at
    // least one earlier result somewhere.
    assert_eq!(rollup.solved + rollup.cache_hits + rollup.coalesced, 12);
    assert!(rollup.cache_hits + rollup.coalesced >= 1);
}

/// What one pass of requests through a router saw, client-side.
struct Pass {
    wall: Duration,
    solved: usize,
    /// Submission-to-completion latency of every request, sorted.
    latencies: Vec<Duration>,
}

impl Pass {
    /// Exact nearest-rank quantile of the pass's latencies.
    fn quantile(&self, q: f64) -> Duration {
        let len = self.latencies.len();
        self.latencies[((q * len as f64).ceil() as usize).clamp(1, len) - 1]
    }
}

fn run_pass(router: &ShardRouter, specs: impl Iterator<Item = Spec>) -> Pass {
    let started = Instant::now();
    let handles: Vec<JobHandle> = specs
        .map(|spec| router.submit(SynthRequest::new(spec)).unwrap())
        .collect();
    let mut solved = 0;
    let mut latencies = Vec::with_capacity(handles.len());
    for handle in &handles {
        let response = handle.wait();
        latencies.push(response.waited);
        solved += usize::from(response.outcome.is_ok());
    }
    latencies.sort();
    Pass {
        wall: started.elapsed(),
        solved,
        latencies,
    }
}

/// Replays the quick Table 1 pool through a router of 2 pools x 4
/// workers over a cache directory: a cold pass submitting every spec
/// twice, a cache-warm replay, and a disk-warm replay through a fresh
/// router over the same directory; then bursts the pool at a
/// single-worker service, whose backlog must drain as fused sweeps.
#[test]
fn warm_and_restart_replays_are_cache_served_and_faster() {
    let config = HarnessConfig::quick();
    let pool = benchmark_pool(&config);
    let specs = || pool.iter().map(|bench| bench.spec.clone());
    let size = pool.len() as u64;
    let dir = std::env::temp_dir().join(format!("paresy-router-replay-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let synth = config.synth_config(REFERENCE.costs);
    assert_eq!(synth.backend().name(), "cpu-sequential");
    let service = ServiceConfig::new(4)
        .with_queue_capacity(2 * pool.len())
        .with_synth(synth);
    let router_config = RouterConfig::identical(2, service).with_cache_dir(&dir);

    let router = ShardRouter::start(router_config.clone()).unwrap();
    let cold = run_pass(&router, specs().flat_map(|spec| [spec.clone(), spec]));
    let after_cold = router.metrics().rollup();
    let warm = run_pass(&router, specs());
    let snapshot = router.shutdown();
    let after_warm = snapshot.rollup();

    // The duplicated cold submissions never trigger a second run.
    assert_eq!(after_cold.submitted, 2 * size);
    assert_eq!(cold.solved, 2 * pool.len());
    assert_eq!(after_cold.cache_hits + after_cold.coalesced, size);
    // The warm replay is cache-served and beats the cold pass, in wall
    // clock and in its latency tail.
    assert_eq!(after_warm.submitted - after_cold.submitted, size);
    assert_eq!(warm.solved, pool.len());
    let warm_hits = after_warm.cache_hits - after_cold.cache_hits;
    assert!(
        warm_hits as f64 >= 0.9 * size as f64,
        "warm hits {warm_hits} of {size}"
    );
    assert!(
        warm.wall < cold.wall,
        "warm {:?} vs cold {:?}",
        warm.wall,
        cold.wall
    );
    for pass in [&cold, &warm] {
        assert!(pass.quantile(0.50) <= pass.quantile(0.95));
        assert!(pass.quantile(0.95) <= pass.quantile(0.99));
    }
    assert_eq!(cold.latencies.len() as u64, after_cold.submitted);
    assert_eq!(warm.latencies.len(), pool.len());
    assert!(
        warm.quantile(0.99) < cold.quantile(0.99),
        "warm p99 {:?} vs cold p99 {:?}",
        warm.quantile(0.99),
        cold.quantile(0.99)
    );
    // Both pools of 4 workers saw traffic, and their counters add up to
    // the two passes.
    assert_eq!(snapshot.pools.len(), 2);
    for (_, pool_snapshot) in &snapshot.pools {
        assert_eq!(pool_snapshot.workers.len(), 4);
    }
    let routed: u64 = snapshot.pools.iter().map(|(_, s)| s.submitted).sum();
    assert_eq!(routed, 3 * size);

    // A fresh router over the same directory never saw the first one's
    // memory: its hits come from the checkpoints on disk.
    let restarted = ShardRouter::start(router_config).unwrap();
    let restart = run_pass(&restarted, specs());
    let after_restart = restarted.shutdown().rollup();
    assert_eq!(after_restart.submitted, size);
    assert_eq!(restart.solved, pool.len());
    assert!(
        after_restart.cache_hits as f64 >= 0.9 * size as f64,
        "restart hits {} of {size}",
        after_restart.cache_hits
    );
    assert!(after_restart.disk_loaded > 0);
    assert!(after_restart.disk_loaded >= after_restart.cache_hits);
    std::fs::remove_dir_all(&dir).ok();

    // One worker makes the backlog deterministic: submission takes
    // microseconds, the first synthesis milliseconds.
    const { assert!(paresy::service::DEFAULT_FUSE_LIMIT >= 2) };
    let single = ServiceConfig::new(1)
        .with_queue_capacity(pool.len())
        .with_fuse_limit(paresy::service::DEFAULT_FUSE_LIMIT)
        .with_synth(config.synth_config(REFERENCE.costs));
    let service = SynthService::start(single).unwrap();
    let handles: Vec<JobHandle> = specs()
        .map(|spec| service.submit(SynthRequest::new(spec)).unwrap())
        .collect();
    for handle in &handles {
        handle.wait();
    }
    let fused = service.shutdown();
    assert_eq!(fused.submitted, size);
    assert_eq!(fused.solved + fused.failed, size);
    assert!(fused.fused_batches > 0, "no fused sweeps ran");
    assert!(
        fused.fused_requests > fused.fused_batches,
        "fusion never shared a sweep: {} requests in {} batches",
        fused.fused_requests,
        fused.fused_batches
    );
}
