//! The service metrics registry and its JSON snapshot.
//!
//! Counters are lock-free atomics bumped on the submit and worker paths;
//! the per-worker [`SessionStats`] rollup sits behind a mutex the workers
//! touch once per job. [`MetricsSnapshot`] is a consistent-enough point
//! read (counters are sampled independently) rendered as hand-rolled JSON
//! via [`crate::json`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use rei_core::{SessionStats, SynthesisError};
use rei_obs::{Histogram, HistogramSnapshot};

use crate::cache::DiskStats;
use crate::json::Json;

/// The live counters of a running service.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    pub submitted: AtomicU64,
    pub cache_hits: AtomicU64,
    pub coalesced: AtomicU64,
    pub rejected: AtomicU64,
    pub rejected_queue_full: AtomicU64,
    pub rejected_shutdown: AtomicU64,
    pub enqueued: AtomicU64,
    pub completed: AtomicU64,
    pub solved: AtomicU64,
    pub failed: AtomicU64,
    pub deadline_expired: AtomicU64,
    pub cancelled: AtomicU64,
    pub fused_batches: AtomicU64,
    pub fused_requests: AtomicU64,
    pub sessions_opened: AtomicU64,
    pub sessions_closed: AtomicU64,
    pub sessions_evicted: AtomicU64,
    pub sessions_expired: AtomicU64,
    pub refines: AtomicU64,
    pub refine_unchanged: AtomicU64,
    pub refine_warm: AtomicU64,
    pub refine_cold: AtomicU64,
    pub wait_hist: Histogram,
    pub run_hist: Histogram,
    pub e2e_hist: Histogram,
    pub disk_loaded: AtomicU64,
    pub disk_skipped_corrupt: AtomicU64,
    pub disk_skipped_config: AtomicU64,
    /// Recovery facts, set once at start (nanoseconds / counts of the
    /// replay that warmed the cache).
    pub recovery_nanos: AtomicU64,
    pub recovery_segments: AtomicU64,
    pub recovery_records: AtomicU64,
    pub recovery_threads: AtomicU64,
    pub worker_stats: Mutex<Vec<SessionStats>>,
}

impl Metrics {
    pub fn new(workers: usize) -> Self {
        Metrics {
            worker_stats: Mutex::new(vec![SessionStats::default(); workers]),
            ..Metrics::default()
        }
    }

    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one job's queue wait.
    pub fn note_wait(&self, waited: Duration) {
        self.wait_hist.record_duration(waited);
    }

    /// Accounts one run's synthesis wall-clock.
    pub fn note_run(&self, ran: Duration) {
        self.run_hist.record_duration(ran);
    }

    /// Accounts one request's end-to-end latency (submit → completion).
    pub fn note_e2e(&self, elapsed: Duration) {
        self.e2e_hist.record_duration(elapsed);
    }

    /// Accounts one finished fresh job.
    pub fn note_job(&self, outcome: &Result<impl Sized, SynthesisError>, expired_in_queue: bool) {
        Metrics::bump(&self.completed);
        match outcome {
            Ok(_) => Metrics::bump(&self.solved),
            Err(err) => {
                Metrics::bump(&self.failed);
                if matches!(err, SynthesisError::Cancelled { .. }) {
                    Metrics::bump(&self.cancelled);
                    if expired_in_queue {
                        Metrics::bump(&self.deadline_expired);
                    }
                }
            }
        }
    }

    /// Accounts what a session-table access did (evictions, expiries).
    pub fn note_session_table(&self, effects: crate::session::TableEffects) {
        self.sessions_evicted
            .fetch_add(effects.evicted, Ordering::Relaxed);
        self.sessions_expired
            .fetch_add(effects.expired, Ordering::Relaxed);
    }

    /// Publishes the cumulative session stats of worker `index`.
    pub fn set_worker_stats(&self, index: usize, stats: SessionStats) {
        let mut rollup = self.worker_stats.lock().unwrap_or_else(|e| e.into_inner());
        rollup[index] = stats;
    }

    /// Builds a point-in-time snapshot; the queue/cache gauges are passed
    /// in by the service, which owns those structures.
    pub fn snapshot(&self, gauges: Gauges) -> MetricsSnapshot {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        MetricsSnapshot {
            submitted: load(&self.submitted),
            cache_hits: load(&self.cache_hits),
            coalesced: load(&self.coalesced),
            rejected: load(&self.rejected),
            rejected_queue_full: load(&self.rejected_queue_full),
            rejected_shutdown: load(&self.rejected_shutdown),
            admitted: 0,
            rate_limited: 0,
            lane_waits: 0,
            enqueued: load(&self.enqueued),
            completed: load(&self.completed),
            solved: load(&self.solved),
            failed: load(&self.failed),
            deadline_expired: load(&self.deadline_expired),
            cancelled: load(&self.cancelled),
            fused_batches: load(&self.fused_batches),
            fused_requests: load(&self.fused_requests),
            sessions_opened: load(&self.sessions_opened),
            sessions_closed: load(&self.sessions_closed),
            sessions_evicted: load(&self.sessions_evicted),
            sessions_expired: load(&self.sessions_expired),
            sessions_live: gauges.sessions_live,
            refines: load(&self.refines),
            refine_unchanged: load(&self.refine_unchanged),
            refine_warm: load(&self.refine_warm),
            refine_cold: load(&self.refine_cold),
            wait: self.wait_hist.snapshot(),
            run: self.run_hist.snapshot(),
            e2e: self.e2e_hist.snapshot(),
            disk_loaded: load(&self.disk_loaded),
            disk_skipped_corrupt: load(&self.disk_skipped_corrupt),
            disk_skipped_config: load(&self.disk_skipped_config),
            disk_bytes: gauges.disk.bytes,
            disk_segments: gauges.disk.segments,
            disk_append_errors: gauges.disk.append_errors,
            disk_evicted: gauges.disk.evicted,
            disk_checkpoints: gauges.disk.checkpoints,
            recovery_wall: Duration::from_nanos(load(&self.recovery_nanos)),
            recovery_segments: load(&self.recovery_segments),
            recovery_records: load(&self.recovery_records),
            recovery_threads: load(&self.recovery_threads),
            workers: self
                .worker_stats
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
            queue_depth: gauges.queue_depth,
            queue_capacity: gauges.queue_capacity,
            cache_entries: gauges.cache_entries,
            cache_capacity: gauges.cache_capacity,
        }
    }
}

/// Point-in-time gauges owned by other service structures.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Gauges {
    pub queue_depth: usize,
    pub queue_capacity: usize,
    pub cache_entries: usize,
    pub cache_capacity: usize,
    pub sessions_live: usize,
    /// Disk gauges of the persistent store (all zero in-memory).
    pub disk: DiskStats,
}

/// A consistent-enough point read of every service counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests accepted by `submit`/`try_submit` (including cache hits).
    pub submitted: u64,
    /// Requests answered from the result cache without a new run.
    pub cache_hits: u64,
    /// Requests attached to an identical in-flight job.
    pub coalesced: u64,
    /// Requests rejected, for any reason (the sum of the two splits
    /// below). Kept as a total so dashboards reading older snapshots
    /// keep working.
    pub rejected: u64,
    /// Rejections caused by a full queue on `try_submit` — backpressure.
    pub rejected_queue_full: u64,
    /// Rejections because the pool was shutting down.
    pub rejected_shutdown: u64,
    /// Admission-stage decisions (zero for a bare pool — only a
    /// [`FairShare`](crate::FairShare) front-end counts these; the shard
    /// router's rollup carries them via
    /// [`RouterSnapshot::admission`](crate::RouterSnapshot)).
    pub admitted: u64,
    /// Requests refused by admission policy (token bucket or in-flight
    /// cap) — these never reach a pool, so they are *not* part of
    /// [`rejected`](MetricsSnapshot::rejected).
    pub rate_limited: u64,
    /// Admitted requests that parked in a fair-share lane because their
    /// shard queue was full on arrival.
    pub lane_waits: u64,
    /// Fresh jobs placed on the queue.
    pub enqueued: u64,
    /// Fresh jobs finished by a worker.
    pub completed: u64,
    /// Fresh jobs that produced an expression.
    pub solved: u64,
    /// Fresh jobs that failed (timeout, cancelled, not found, OOM).
    pub failed: u64,
    /// Failed jobs whose deadline expired while still queued.
    pub deadline_expired: u64,
    /// Failed jobs that ended with `Cancelled` (deadline or token).
    pub cancelled: u64,
    /// Fused level sweeps a worker ran after draining several queued
    /// jobs of its (single) pool configuration into one batch.
    pub fused_batches: u64,
    /// Jobs answered by those fused sweeps. Under load this exceeds
    /// [`fused_batches`](MetricsSnapshot::fused_batches): N jobs complete
    /// in fewer than N level sweeps.
    pub fused_requests: u64,
    /// Refinement sessions opened (`session.open`, including re-opens).
    pub sessions_opened: u64,
    /// Sessions closed explicitly (`session.close`).
    pub sessions_closed: u64,
    /// Sessions evicted by the LRU bound
    /// ([`ServiceConfig::session_capacity`](crate::ServiceConfig)).
    pub sessions_evicted: u64,
    /// Sessions dropped by idle expiry
    /// ([`ServiceConfig::session_idle`](crate::ServiceConfig)).
    pub sessions_expired: u64,
    /// Sessions open right now (a gauge, not a counter).
    pub sessions_live: usize,
    /// Refine requests accepted onto the queue.
    pub refines: u64,
    /// Refines whose spec was unchanged: answered by replaying the
    /// session's previous outcome, no admission re-run.
    pub refine_unchanged: u64,
    /// Refines that reused the session's retained search state (fast-path
    /// winner re-check or a resumed enumeration).
    pub refine_warm: u64,
    /// Refines that fell back to a cold run (spec not a strengthening,
    /// alphabet/budget change, closure growth, no retained state).
    pub refine_cold: u64,
    /// Queue-wait latency distribution (nanosecond samples, one per
    /// fresh job) — the percentile source for `latency_ms.wait_p*`.
    pub wait: HistogramSnapshot,
    /// Synthesis wall-clock distribution, one sample per fresh run.
    pub run: HistogramSnapshot,
    /// End-to-end (submit → completion) latency distribution. Cache
    /// hits record here too, so this is the request-level view;
    /// coalesced riders share their leader's sample.
    pub e2e: HistogramSnapshot,
    /// Persisted results that warmed the cache at start (0 without a
    /// cache directory).
    pub disk_loaded: u64,
    /// Corrupt or truncated persisted records skipped at start.
    pub disk_skipped_corrupt: u64,
    /// Persisted records skipped because they were written under a
    /// different pool configuration.
    pub disk_skipped_config: u64,
    /// Live bytes in the persistent store (checkpoint + segments).
    pub disk_bytes: u64,
    /// Live segment files of the persistent store.
    pub disk_segments: u64,
    /// Records dropped after exhausting the bounded append retries.
    pub disk_append_errors: u64,
    /// Records evicted from disk by the byte cap (least recently hit
    /// first, at checkpoint folds).
    pub disk_evicted: u64,
    /// Checkpoint folds completed since start.
    pub disk_checkpoints: u64,
    /// Wall-clock of the recovery replay that warmed the cache at start.
    pub recovery_wall: Duration,
    /// Segment files that replay covered.
    pub recovery_segments: u64,
    /// Records parsed by the replay (before last-wins merging).
    pub recovery_records: u64,
    /// Threads the replay ran on.
    pub recovery_threads: u64,
    /// Cumulative `SessionStats` per worker, in worker order.
    pub workers: Vec<SessionStats>,
    /// Jobs currently queued.
    pub queue_depth: usize,
    /// Queue capacity.
    pub queue_capacity: usize,
    /// Completed results currently cached.
    pub cache_entries: usize,
    /// Result-cache capacity.
    pub cache_capacity: usize,
}

impl MetricsSnapshot {
    /// Fraction of answered requests that were served without a new
    /// synthesis (cache hits plus coalesced), in `[0, 1]`.
    pub fn reuse_rate(&self) -> f64 {
        let reused = self.cache_hits + self.coalesced;
        if self.submitted == 0 {
            0.0
        } else {
            reused as f64 / self.submitted as f64
        }
    }

    /// Fraction of submissions answered straight from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.submitted as f64
        }
    }

    /// Adds another snapshot's counters into this one: counters and
    /// durations sum, the worker rollups concatenate (in pool order), and
    /// the queue/cache gauges sum. This is the cross-pool rollup of the
    /// shard router — the rollup of N pool snapshots reads exactly like
    /// the snapshot of one big pool.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        self.submitted += other.submitted;
        self.cache_hits += other.cache_hits;
        self.coalesced += other.coalesced;
        self.rejected += other.rejected;
        self.rejected_queue_full += other.rejected_queue_full;
        self.rejected_shutdown += other.rejected_shutdown;
        self.admitted += other.admitted;
        self.rate_limited += other.rate_limited;
        self.lane_waits += other.lane_waits;
        self.enqueued += other.enqueued;
        self.completed += other.completed;
        self.solved += other.solved;
        self.failed += other.failed;
        self.deadline_expired += other.deadline_expired;
        self.cancelled += other.cancelled;
        self.fused_batches += other.fused_batches;
        self.fused_requests += other.fused_requests;
        self.sessions_opened += other.sessions_opened;
        self.sessions_closed += other.sessions_closed;
        self.sessions_evicted += other.sessions_evicted;
        self.sessions_expired += other.sessions_expired;
        self.sessions_live += other.sessions_live;
        self.refines += other.refines;
        self.refine_unchanged += other.refine_unchanged;
        self.refine_warm += other.refine_warm;
        self.refine_cold += other.refine_cold;
        self.wait.merge(&other.wait);
        self.run.merge(&other.run);
        self.e2e.merge(&other.e2e);
        self.disk_loaded += other.disk_loaded;
        self.disk_skipped_corrupt += other.disk_skipped_corrupt;
        self.disk_skipped_config += other.disk_skipped_config;
        self.disk_bytes += other.disk_bytes;
        self.disk_segments += other.disk_segments;
        self.disk_append_errors += other.disk_append_errors;
        self.disk_evicted += other.disk_evicted;
        self.disk_checkpoints += other.disk_checkpoints;
        // Pools recover concurrently at start, so the rollup's recovery
        // wall is the slowest pool, not the sum.
        self.recovery_wall = self.recovery_wall.max(other.recovery_wall);
        self.recovery_segments += other.recovery_segments;
        self.recovery_records += other.recovery_records;
        self.recovery_threads = self.recovery_threads.max(other.recovery_threads);
        self.workers.extend(other.workers.iter().copied());
        self.queue_depth += other.queue_depth;
        self.queue_capacity += other.queue_capacity;
        self.cache_entries += other.cache_entries;
        self.cache_capacity += other.cache_capacity;
    }

    /// The snapshot as a JSON document (schema
    /// `rei-service/metrics-v1`).
    pub fn to_json(&self) -> Json {
        let ms = |d: Duration| Json::fixed(d.as_secs_f64() * 1e3, 3);
        Json::object([
            ("schema", Json::str("rei-service/metrics-v1")),
            (
                "requests",
                Json::object([
                    ("submitted", Json::uint(self.submitted)),
                    ("cache_hits", Json::uint(self.cache_hits)),
                    ("coalesced", Json::uint(self.coalesced)),
                    ("rejected", Json::uint(self.rejected)),
                    ("rejected_queue_full", Json::uint(self.rejected_queue_full)),
                    ("rejected_shutdown", Json::uint(self.rejected_shutdown)),
                    ("admitted", Json::uint(self.admitted)),
                    ("rate_limited", Json::uint(self.rate_limited)),
                    ("lane_waits", Json::uint(self.lane_waits)),
                    ("reuse_rate", Json::fixed(self.reuse_rate(), 4)),
                ]),
            ),
            (
                "jobs",
                Json::object([
                    ("enqueued", Json::uint(self.enqueued)),
                    ("completed", Json::uint(self.completed)),
                    ("solved", Json::uint(self.solved)),
                    ("failed", Json::uint(self.failed)),
                    ("cancelled", Json::uint(self.cancelled)),
                    ("deadline_expired", Json::uint(self.deadline_expired)),
                    ("fused_batches", Json::uint(self.fused_batches)),
                    ("fused_requests", Json::uint(self.fused_requests)),
                ]),
            ),
            (
                "latency_ms",
                Json::object([
                    ("wait_count", Json::uint(self.wait.count)),
                    ("wait_p50", quantile_ms(&self.wait, 0.50)),
                    ("wait_p95", quantile_ms(&self.wait, 0.95)),
                    ("wait_p99", quantile_ms(&self.wait, 0.99)),
                    ("run_count", Json::uint(self.run.count)),
                    ("run_p50", quantile_ms(&self.run, 0.50)),
                    ("run_p95", quantile_ms(&self.run, 0.95)),
                    ("run_p99", quantile_ms(&self.run, 0.99)),
                    ("e2e_count", Json::uint(self.e2e.count)),
                    ("e2e_p50", quantile_ms(&self.e2e, 0.50)),
                    ("e2e_p95", quantile_ms(&self.e2e, 0.95)),
                    ("e2e_p99", quantile_ms(&self.e2e, 0.99)),
                ]),
            ),
            (
                "sessions",
                Json::object([
                    ("opened", Json::uint(self.sessions_opened)),
                    ("closed", Json::uint(self.sessions_closed)),
                    ("evicted", Json::uint(self.sessions_evicted)),
                    ("expired", Json::uint(self.sessions_expired)),
                    ("live", Json::uint(self.sessions_live as u64)),
                    ("refines", Json::uint(self.refines)),
                    ("refine_unchanged", Json::uint(self.refine_unchanged)),
                    ("refine_warm", Json::uint(self.refine_warm)),
                    ("refine_cold", Json::uint(self.refine_cold)),
                ]),
            ),
            (
                "queue",
                Json::object([
                    ("depth", Json::uint(self.queue_depth as u64)),
                    ("capacity", Json::uint(self.queue_capacity as u64)),
                ]),
            ),
            (
                "cache",
                Json::object([
                    ("entries", Json::uint(self.cache_entries as u64)),
                    ("capacity", Json::uint(self.cache_capacity as u64)),
                    ("disk_loaded", Json::uint(self.disk_loaded)),
                    (
                        "disk_skipped_corrupt",
                        Json::uint(self.disk_skipped_corrupt),
                    ),
                    ("disk_skipped_config", Json::uint(self.disk_skipped_config)),
                    ("disk_bytes", Json::uint(self.disk_bytes)),
                    ("disk_segments", Json::uint(self.disk_segments)),
                    ("disk_append_errors", Json::uint(self.disk_append_errors)),
                    ("disk_evicted", Json::uint(self.disk_evicted)),
                    ("disk_checkpoints", Json::uint(self.disk_checkpoints)),
                ]),
            ),
            (
                "recovery",
                Json::object([
                    ("wall_ms", ms(self.recovery_wall)),
                    ("segments", Json::uint(self.recovery_segments)),
                    ("records", Json::uint(self.recovery_records)),
                    ("threads", Json::uint(self.recovery_threads)),
                ]),
            ),
            (
                "workers",
                Json::array(self.workers.iter().enumerate().map(|(i, w)| {
                    Json::object([
                        ("worker", Json::uint(i as u64)),
                        ("runs", Json::uint(w.runs)),
                        ("solved", Json::uint(w.solved)),
                        ("failed", Json::uint(w.failed)),
                        ("candidates", Json::uint(w.candidates_generated)),
                        ("unique_languages", Json::uint(w.unique_languages)),
                        ("elapsed_ms", ms(w.elapsed)),
                    ])
                })),
            ),
        ])
    }
}

/// A histogram quantile (nanoseconds) rendered as milliseconds.
fn quantile_ms(hist: &HistogramSnapshot, q: f64) -> Json {
    Json::fixed(hist.quantile(q) as f64 / 1e6, 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rei_core::SynthesisStats;

    #[test]
    fn job_accounting_distinguishes_outcomes() {
        let metrics = Metrics::new(1);
        metrics.note_job(&Ok::<_, SynthesisError>(()), false);
        metrics.note_job(
            &Err::<(), _>(SynthesisError::Cancelled {
                stats: SynthesisStats::default(),
            }),
            true,
        );
        metrics.note_job(
            &Err::<(), _>(SynthesisError::Timeout {
                budget: Duration::from_secs(1),
                stats: SynthesisStats::default(),
            }),
            false,
        );
        let snapshot = metrics.snapshot(Gauges::default());
        assert_eq!(snapshot.completed, 3);
        assert_eq!(snapshot.solved, 1);
        assert_eq!(snapshot.failed, 2);
        assert_eq!(snapshot.cancelled, 1);
        assert_eq!(snapshot.deadline_expired, 1);
    }

    #[test]
    fn rates_and_means_handle_zero_denominators() {
        let snapshot = Metrics::new(0).snapshot(Gauges::default());
        assert_eq!(snapshot.reuse_rate(), 0.0);
        assert_eq!(snapshot.cache_hit_rate(), 0.0);
    }

    #[test]
    fn latency_histograms_absorb_and_report_percentiles() {
        let metrics = Metrics::new(1);
        for ms in [1u64, 2, 10, 100] {
            metrics.note_wait(Duration::from_millis(ms));
            metrics.note_run(Duration::from_millis(2 * ms));
            metrics.note_e2e(Duration::from_millis(3 * ms));
        }
        let snapshot = metrics.snapshot(Gauges::default());
        assert_eq!(snapshot.wait.count, 4);
        assert_eq!(snapshot.run.count, 4);
        assert_eq!(snapshot.e2e.count, 4);
        // p99 lands in the 100ms bucket (≤ 6.25% above).
        let p99_ms = snapshot.wait.quantile(0.99) as f64 / 1e6;
        assert!((100.0..=107.0).contains(&p99_ms), "{p99_ms}");
        let latency = snapshot.to_json();
        let latency = latency.get("latency_ms").unwrap();
        assert_eq!(latency.get("wait_count").and_then(Json::as_u64), Some(4));
        let p50 = latency.get("wait_p50").and_then(Json::as_f64).unwrap();
        assert!((2.0..=2.2).contains(&p50), "{p50}");
        assert!(latency.get("e2e_p95").is_some());
        // Absorbing another pool's snapshot merges the samples; equal
        // distributions keep their quantiles.
        let mut rollup = snapshot.clone();
        rollup.absorb(&snapshot);
        assert_eq!(rollup.wait.count, 8);
        assert_eq!(rollup.wait.quantile(0.5), snapshot.wait.quantile(0.5));
    }

    #[test]
    fn snapshot_json_has_the_expected_sections() {
        let metrics = Metrics::new(2);
        Metrics::bump(&metrics.submitted);
        Metrics::bump(&metrics.submitted);
        Metrics::bump(&metrics.cache_hits);
        Metrics::bump(&metrics.fused_batches);
        metrics.fused_requests.fetch_add(3, Ordering::Relaxed);
        metrics.set_worker_stats(
            1,
            SessionStats {
                runs: 3,
                solved: 3,
                ..SessionStats::default()
            },
        );
        let snapshot = metrics.snapshot(Gauges {
            queue_depth: 1,
            queue_capacity: 64,
            cache_entries: 1,
            cache_capacity: 256,
            sessions_live: 0,
            disk: DiskStats::default(),
        });
        assert!((snapshot.reuse_rate() - 0.5).abs() < 1e-9);
        let json = snapshot.to_json();
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("rei-service/metrics-v1")
        );
        assert_eq!(
            json.get("requests")
                .and_then(|r| r.get("submitted"))
                .and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            json.get("queue")
                .and_then(|q| q.get("capacity"))
                .and_then(Json::as_u64),
            Some(64)
        );
        assert_eq!(
            json.get("jobs")
                .and_then(|j| j.get("fused_batches"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            json.get("jobs")
                .and_then(|j| j.get("fused_requests"))
                .and_then(Json::as_u64),
            Some(3)
        );
        let mut rollup = snapshot.clone();
        rollup.absorb(&snapshot);
        assert_eq!(rollup.fused_batches, 2);
        assert_eq!(rollup.fused_requests, 6);
        let workers = json.get("workers").and_then(Json::as_array).unwrap();
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[1].get("runs").and_then(Json::as_u64), Some(3));
        // The snapshot renders as parseable JSON.
        let text = json.to_pretty();
        assert_eq!(Json::parse(&text).unwrap(), json);
    }
}
