#!/usr/bin/env python3
"""Validate BENCH_core.json against the repository's baseline contract.

This is the committed, versioned form of the perf-baseline checks CI
runs (and the one to run locally after regenerating the file):

    cargo run --release -p rei-bench --bin reproduce -- perf --out BENCH_core.json
    cargo run --release -p rei-bench --bin reproduce -- serve --listen --workers 4 --out BENCH_core.json
    python3 ci/check_bench.py BENCH_core.json

It asserts the `rei-bench/perf-v5` schema: kernel speedup tripwires, the
per-backend level-execution counters, the `service` section's
(`rei-bench/service-v6`) cold / cache-warm / disk-warm-restart / fused
passes with their sharded per-pool breakdown, client-side end-to-end
latency percentiles (`service.latency`), the crash-recovery timings
of `service.recovery` (serial vs parallel replay of a multi-segment
write-ahead log), the interactive-refinement pass of `service.refine`
(per-added-example refines through warm sessions strictly beating cold
re-solves of the same strengthened specs), and the TCP front-end passes
of `service.net`
(`rei-bench/service-net-v1`): concurrent connections, a cache-warm
replay over the wire, and the rate-limited flood tenant.
"""

import json
import sys

BACKENDS = ("cpu-sequential", "cpu-thread-parallel", "gpu-sim-parallel")
LEVEL_COUNTERS = (
    "chunks_claimed",
    "chunks_stolen",
    "prefilter_rejects",
    "prefilter_reject_rate",
    "dedup_overflowed",
)


def check_backends(report):
    backends = {b["backend"]: b for b in report["backends"]}
    for name in BACKENDS:
        row = backends[name]
        assert row["solved"] == row["total"], f"{name} failed runs: {row}"
        # The level-execution counters must be present and sane on every
        # backend (perf-v3 contract, unchanged in v4).
        for key in LEVEL_COUNTERS:
            assert key in row, f"{name} missing {key}: {row}"
        assert row["chunks_claimed"] > 0, f"{name}: no chunks claimed: {row}"
        assert 0.0 <= row["prefilter_reject_rate"] <= 1.0, row
        assert row["prefilter_rejects"] <= row["candidates"], row
    # Only the work-stealing backend can steal.
    assert backends["cpu-sequential"]["chunks_stolen"] == 0
    assert backends["gpu-sim-parallel"]["chunks_stolen"] == 0
    seq = backends["cpu-sequential"]["wall_seconds"]
    mt = backends["cpu-thread-parallel"]["wall_seconds"]
    print(
        f"sequential {seq:.4f}s vs thread-parallel {mt:.4f}s "
        f"on {report['available_cores']} cores "
        f"({backends['cpu-thread-parallel']['chunks_stolen']} chunks stolen, "
        f"prefilter reject rate "
        f"{backends['cpu-thread-parallel']['prefilter_reject_rate']:.2f})"
    )


def check_kernels(report):
    # Regression tripwire for the mask/squaring kernels (the committed
    # baseline shows ~2.7x; 1.5x allows runner noise).
    kernels = report["kernels"]
    assert kernels["geomean_concat_speedup"] >= 1.5, kernels
    assert kernels["geomean_star_speedup"] >= 1.5, kernels


def check_recovery(service):
    # Crash-recovery timings (service-v5): a fabricated multi-segment
    # write-ahead log replayed with one thread versus one per core. Every
    # record must survive the replay (the keys are unique), the workload
    # must genuinely span segments, and on a multi-core runner the
    # parallel replay must beat the serial one — that is the point of
    # sharding recovery across threads.
    recovery = service["recovery"]
    assert recovery["records"] > 0, recovery
    assert recovery["loaded"] == recovery["records"], recovery
    assert recovery["segments"] >= 4, recovery
    assert recovery["serial_seconds"] > 0.0, recovery
    assert recovery["parallel_seconds"] > 0.0, recovery
    assert recovery["rounds"] >= 3, recovery
    assert 1 <= recovery["threads"] <= recovery["available_cores"], recovery
    if recovery["available_cores"] >= 2:
        assert recovery["threads"] >= 2, recovery
        assert recovery["parallel_seconds"] < recovery["serial_seconds"], (
            "parallel recovery lost to serial: "
            f"{recovery['parallel_seconds']:.6f}s vs "
            f"{recovery['serial_seconds']:.6f}s over "
            f"{recovery['segments']} segments"
        )
    print(
        f"service.recovery: {recovery['records']} records / "
        f"{recovery['segments']} segments; serial "
        f"{recovery['serial_seconds'] * 1e3:.2f}ms vs parallel "
        f"{recovery['parallel_seconds'] * 1e3:.2f}ms on "
        f"{recovery['threads']} threads ({recovery['speedup']:.2f}x)"
    )


def check_refine(service):
    # Interactive refinement (service-v6): strengthening chains replayed
    # one added example at a time through a warm session versus a cold
    # re-solve of each strengthened spec. The pass must have found real
    # chains, the session must have answered at least one step from warm
    # state (the whole point of `refine`), every chain must account for
    # its steps, and the warm path must beat the cold one outright.
    refine = service["refine"]
    assert refine["chains"] > 0, refine
    assert refine["steps"] > 0, refine
    assert 1 <= refine["warm"] <= refine["steps"], refine
    chains = refine["per_chain"]
    assert len(chains) == refine["chains"], refine
    assert sum(chain["steps"] for chain in chains) == refine["steps"], refine
    for chain in chains:
        assert chain["base_examples"] > 0, chain
        assert chain["steps"] > 0, chain
        assert chain["refine_seconds"] > 0.0, chain
        assert chain["cold_seconds"] > 0.0, chain
    assert refine["refine_seconds_total"] < refine["cold_seconds_total"], (
        "refinement lost to cold re-solves: "
        f"{refine['refine_seconds_total']:.6f}s vs "
        f"{refine['cold_seconds_total']:.6f}s over {refine['steps']} steps"
    )
    assert refine["speedup"] > 1.0, refine
    print(
        f"service.refine: {refine['chains']} chains / {refine['steps']} "
        f"steps ({refine['warm']} warm); per-example refine "
        f"{refine['refine_seconds_total'] * 1e3:.2f}ms vs cold re-solve "
        f"{refine['cold_seconds_total'] * 1e3:.2f}ms "
        f"({refine['speedup']:.2f}x)"
    )


def check_service(report):
    service = report["service"]
    assert service["schema"] == "rei-bench/service-v6", service["schema"]
    # CI (and the documented regeneration recipe) runs `reproduce serve
    # --workers 4`; fewer workers here means the flag plumbing broke.
    assert service["workers"] >= 4, service
    # Cold pass: every duplicated submission reused the original's work.
    cold = service["cold"]
    assert cold["cache_hits"] + cold["coalesced"] == service["pool"], cold
    # Cache-warm replay: >=90% cache-served and strictly faster than cold.
    warm = service["warm"]
    assert warm["cache_hit_rate"] >= 0.9, warm
    assert warm["wall_seconds"] < cold["wall_seconds"], service
    # Disk-warm restart: a fresh router (fresh process, as far as the
    # caches can tell) answers the replay from the compacted files.
    restart = service["restart"]
    assert restart["cache_hit_rate"] >= 0.9, restart
    assert service["restart_disk_loaded"] >= restart["cache_hits"], service
    assert service["restart_disk_loaded"] > 0, service
    # Fused pass: the single-worker burst drains genuinely fused batches
    # — strictly more requests than sweeps proves cross-request fusion
    # shared at least one level sweep.
    fused = service["fused"]
    assert fused["fused_batches"] > 0, fused
    assert fused["fused_requests"] > fused["fused_batches"], fused
    assert fused["fuse_limit"] >= 2, fused
    assert fused["solved"] + fused["failed"] == fused["submitted"], fused
    # Latency percentiles (service-v4): exact client-side end-to-end
    # p50/p95/p99 per pass, ordered within a pass, with the cache-served
    # warm tail strictly beating the cold tail.
    latency = service["latency"]
    for pass_name in ("cold", "warm"):
        quantiles = latency[pass_name]
        assert quantiles["count"] == service[pass_name]["submitted"], latency
        assert 0.0 <= quantiles["p50_ms"] <= quantiles["p95_ms"] <= quantiles["p99_ms"], quantiles
    assert latency["warm"]["p99_ms"] < latency["cold"]["p99_ms"], latency
    # Sharded pools: a breakdown exists and accounts for all the cold and
    # warm traffic.
    pools = service["pools"]
    assert len(pools) >= 1, service
    submitted = sum(p["submitted"] for p in pools)
    assert submitted == cold["submitted"] + warm["submitted"], pools
    for pool in pools:
        for key in ("pool", "submitted", "cache_hits", "coalesced", "completed", "workers"):
            assert key in pool, pool
    check_recovery(service)
    check_refine(service)
    print(
        f"service: cold {cold['wall_seconds']:.4f}s vs "
        f"warm {warm['wall_seconds']:.4f}s "
        f"(hit rate {warm['cache_hit_rate']:.2f}); "
        f"restart hit rate {restart['cache_hit_rate']:.2f} from "
        f"{service['restart_disk_loaded']} disk records across "
        f"{len(pools)} pools; fused {fused['fused_requests']} requests "
        f"in {fused['fused_batches']} sweeps; latency cold p99 "
        f"{latency['cold']['p99_ms']:.2f}ms vs warm p99 "
        f"{latency['warm']['p99_ms']:.2f}ms"
    )


def check_net(report):
    net = report["service"]["net"]
    assert net["schema"] == "rei-bench/service-net-v1", net["schema"]
    # The harness drives several genuinely concurrent TCP connections.
    assert net["connections"] >= 2, net
    for pass_name in ("cold", "warm"):
        tcp_pass = net[pass_name]
        assert len(tcp_pass["connections"]) == net["connections"], tcp_pass
        assert tcp_pass["submitted"] == net["pool"], tcp_pass
        # Well-behaved tenants are never rate-limited; every request is
        # answered over the wire.
        for connection in tcp_pass["connections"]:
            assert connection["rejected_rate_limited"] == 0, connection
            assert connection["answered"] == connection["submitted"], connection
    # The warm replay is served from the result cache end to end.
    assert net["warm"]["cache_hit_rate"] >= 0.9, net["warm"]
    # The flood tenant exhausts its burst and is rejected explicitly.
    flood = net["flood"]
    assert flood["rejected_rate_limited"] > 0, flood
    assert flood["answered"] + flood["rejected_rate_limited"] == flood["submitted"], flood
    assert net["rate_limited"] == flood["rejected_rate_limited"], net
    assert net["admitted"] >= 2 * net["pool"] + flood["answered"], net
    print(
        f"service.net: {net['connections']} connections over "
        f"{net['net_threads']} handler threads; warm TCP hit rate "
        f"{net['warm']['cache_hit_rate']:.2f}; flood {flood['answered']} "
        f"answered / {flood['rejected_rate_limited']} rate-limited"
    )


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_core.json"
    with open(path) as handle:
        report = json.load(handle)
    assert report["schema"] == "rei-bench/perf-v5", report["schema"]
    check_backends(report)
    check_kernels(report)
    check_service(report)
    check_net(report)
    print(f"{path}: baseline contract ok")


if __name__ == "__main__":
    main()
