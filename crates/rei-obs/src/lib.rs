//! Observability primitives for the Paresy service tier.
//!
//! Three building blocks, deliberately free of external dependencies so
//! they can sit below every other crate in the workspace:
//!
//! * [`Histogram`] — a mergeable log-linear latency histogram over
//!   atomic counters. Recording is a single relaxed `fetch_add`;
//!   [`HistogramSnapshot::quantile`] answers p50/p95/p99 with a relative
//!   error bounded by 1/16 (one sub-bucket).
//! * [`TraceRegistry`] / [`Trace`] — per-request trace timelines: a
//!   trace id handed out at admission plus a bounded ring buffer of
//!   phase events (`admitted → routed → enqueued → level →
//!   cache-append → answered`). Requests that blow through a configured
//!   SLO are dumped to the structured log on completion.
//! * [`PromText`] — a tiny Prometheus-text-format builder (counters,
//!   gauges, histograms with `le` labels) used by the scrape endpoint.
//!
//! Plus [`mod@log`], a leveled JSONL-to-stderr logger (`REI_LOG` env,
//! programmatic override) that replaces ad-hoc `eprintln!` diagnostics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
pub mod log;
mod prom;
mod trace;

pub use hist::{Histogram, HistogramSnapshot, BUCKETS, LATENCY_BOUNDS_SECS};
pub use log::Level;
pub use prom::PromText;
pub use trace::{Trace, TraceEvent, TraceRegistry};
