//! Per-request trace timelines.
//!
//! A [`TraceRegistry`] hands out monotonically increasing trace ids at
//! admission and keeps the phase events of recent requests in one
//! bounded ring buffer (oldest events drop first, so a hot service can
//! trace forever in constant memory). A [`Trace`] is the cheap
//! cloneable handle a request carries through the layers; each layer
//! appends a phase event — the vocabulary is
//!
//! ```text
//! admitted → routed(pool) → enqueued →
//!     level(cost, wall, candidates)* → cache-append → answered
//! ```
//!
//! A job cancelled by its request deadline records
//! `deadline(overshoot_us)` — how long after the deadline it completed —
//! in place of `cache-append`.
//!
//! When the registry was given an SLO threshold, [`Trace::finish`]
//! dumps the full timeline of any request whose end-to-end latency
//! reached the threshold to the structured log ([`crate::log`], level
//! `warn`, component `slo`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One phase event of one request's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The trace id the event belongs to.
    pub trace: u64,
    /// Offset from the trace's admission (when [`TraceRegistry::begin`]
    /// handed out the id).
    pub offset: Duration,
    /// Phase name (fixed vocabulary; see the module docs).
    pub phase: &'static str,
    /// Free-form detail: pool name, batch size, level counters, …
    pub detail: String,
}

/// The shared ring of recent trace events plus the id allocator.
#[derive(Debug)]
pub struct TraceRegistry {
    next: AtomicU64,
    ring: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
    slo: Option<Duration>,
}

impl TraceRegistry {
    /// A registry keeping at most `capacity` events; requests at or
    /// above `slo` end-to-end are dumped to the slow-request log.
    pub fn new(capacity: usize, slo: Option<Duration>) -> Arc<TraceRegistry> {
        Arc::new(TraceRegistry {
            next: AtomicU64::new(1),
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity: capacity.max(1),
            slo,
        })
    }

    /// Allocates the next trace id and returns the request's handle.
    pub fn begin(self: &Arc<TraceRegistry>) -> Trace {
        Trace {
            registry: Arc::clone(self),
            id: self.next.fetch_add(1, Ordering::Relaxed),
            started: Instant::now(),
        }
    }

    /// The configured SLO threshold, if any.
    pub fn slo(&self) -> Option<Duration> {
        self.slo
    }

    /// All retained events of one trace, in recording order.
    pub fn events(&self, trace: u64) -> Vec<TraceEvent> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        ring.iter().filter(|e| e.trace == trace).cloned().collect()
    }

    fn push(&self, event: TraceEvent) {
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
    }
}

/// The per-request handle: clones share the same id and registry.
#[derive(Debug, Clone)]
pub struct Trace {
    registry: Arc<TraceRegistry>,
    id: u64,
    started: Instant,
}

impl Trace {
    /// The request's trace id (echoed in the wire response).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Appends a phase event to the registry's ring.
    pub fn record(&self, phase: &'static str, detail: impl Into<String>) {
        self.registry.push(TraceEvent {
            trace: self.id,
            offset: self.started.elapsed(),
            phase,
            detail: detail.into(),
        });
    }

    /// Records the terminal `answered` event and, when the measured
    /// end-to-end `elapsed` reached the registry's SLO threshold,
    /// dumps the full timeline to the slow-request log. Returns
    /// whether the dump fired.
    pub fn finish(&self, elapsed: Duration) -> bool {
        self.record(
            "answered",
            format!("elapsed_ms={:.3}", elapsed.as_secs_f64() * 1e3),
        );
        let Some(slo) = self.registry.slo else {
            return false;
        };
        if elapsed < slo {
            return false;
        }
        let timeline: Vec<String> = self
            .registry
            .events(self.id)
            .iter()
            .map(|event| {
                let at_ms = event.offset.as_secs_f64() * 1e3;
                if event.detail.is_empty() {
                    format!("{}@{at_ms:.3}ms", event.phase)
                } else {
                    format!("{}({})@{at_ms:.3}ms", event.phase, event.detail)
                }
            })
            .collect();
        crate::log::warn(
            "slo",
            "slow request",
            &[
                ("trace", self.id.to_string()),
                ("elapsed_ms", format!("{:.3}", elapsed.as_secs_f64() * 1e3)),
                ("slo_ms", format!("{:.3}", slo.as_secs_f64() * 1e3)),
                ("timeline", timeline.join(" ")),
            ],
        );
        true
    }

    /// Time elapsed since the trace was begun (admission).
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_events_are_queryable() {
        let registry = TraceRegistry::new(64, None);
        let a = registry.begin();
        let b = registry.begin();
        assert_ne!(a.id(), b.id());
        a.record("admitted", "tenant=t");
        b.record("admitted", "tenant=u");
        a.record("enqueued", "");
        let events = registry.events(a.id());
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].phase, "admitted");
        assert_eq!(events[0].detail, "tenant=t");
        assert_eq!(events[1].phase, "enqueued");
        assert!(events[1].offset >= events[0].offset);
        assert_eq!(registry.events(b.id()).len(), 1);
    }

    #[test]
    fn ring_overflow_drops_the_oldest_events() {
        let registry = TraceRegistry::new(4, None);
        let trace = registry.begin();
        for i in 0..6 {
            trace.record("level", format!("cost={i}"));
        }
        let events = registry.events(trace.id());
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].detail, "cost=2"); // 0 and 1 were dropped
        assert_eq!(events[3].detail, "cost=5");
    }

    #[test]
    fn slow_dump_fires_exactly_at_the_threshold() {
        let slo = Duration::from_millis(250);
        let registry = TraceRegistry::new(16, Some(slo));
        let trace = registry.begin();
        trace.record("admitted", "");
        assert!(!trace.finish(slo - Duration::from_nanos(1)));
        assert!(trace.finish(slo)); // boundary inclusive
        assert!(trace.finish(slo + Duration::from_millis(1)));
    }

    #[test]
    fn without_an_slo_finish_never_dumps_but_still_records() {
        let registry = TraceRegistry::new(16, None);
        let trace = registry.begin();
        assert!(!trace.finish(Duration::from_secs(60)));
        let events = registry.events(trace.id());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].phase, "answered");
    }
}
