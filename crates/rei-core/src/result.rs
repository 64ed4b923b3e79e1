//! Results, statistics and errors of a synthesis run.

use std::error::Error;
use std::fmt;
use std::time::Duration;

use rei_syntax::Regex;

/// The outcome of a successful synthesis run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthesisResult {
    /// The inferred regular expression. It accepts every positive example,
    /// rejects every negative example (up to the configured allowed error)
    /// and is minimal with respect to the configured cost homomorphism.
    pub regex: Regex,
    /// The cost of `regex` under the configured cost homomorphism.
    pub cost: u64,
    /// Counters describing the work the search performed.
    pub stats: SynthesisStats,
}

/// Counters collected during a synthesis run.
///
/// `candidates_generated` corresponds to the "# REs" columns of Tables 1
/// and 2 of the paper: the number of candidate languages constructed and
/// checked against the specification.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SynthesisStats {
    /// Number of candidate characteristic sequences constructed.
    pub candidates_generated: u64,
    /// Number of candidates that survived the uniqueness check.
    pub unique_languages: u64,
    /// Work chunks claimed by the level execution engine: streamed level
    /// chunks on the sequential and device strategies, fixed 64-row spans
    /// of each batch on the thread-parallel strategy.
    pub chunks_claimed: u64,
    /// Always 0: no strategy steals work. Kept only because the
    /// benchmark's per-layer report still reads it.
    pub chunks_stolen: u64,
    /// Candidate rows whose full satisfaction check was skipped by the
    /// single-block admission prefilter.
    pub prefilter_rejects: u64,
    /// Admission checks executed: candidate rows that ran the prefilter
    /// and/or the full satisfaction fold. A refinement answered from the
    /// session without re-running admission reports 0 here.
    pub admission_folds: u64,
    /// Insertions the uniqueness filter could not record exactly (its
    /// fixed-capacity table was full) and reported as unique instead.
    pub dedup_overflowed: u64,
    /// Number of rows stored in the language cache when the run ended.
    pub cache_rows: u64,
    /// Approximate memory used by the language cache, in bytes.
    pub cache_bytes: u64,
    /// Size of the infix closure `#ic(P ∪ N)`.
    pub infix_closure_size: u64,
    /// Highest cost level whose construction was started.
    pub max_cost_reached: u64,
    /// Whether the search had to switch to OnTheFly mode.
    pub used_on_the_fly: bool,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-cost-level breakdown of the work, in increasing cost order
    /// (the structure of the paper's language-cache figure).
    pub levels: Vec<LevelStats>,
}

/// Work performed while constructing one cost level of the language cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelStats {
    /// The cost of the level.
    pub cost: u64,
    /// Candidate rows constructed at this level.
    pub candidates: u64,
    /// Candidates that survived the uniqueness check.
    pub unique: u64,
    /// Rows actually stored in the cache (0 once OnTheFly mode is active).
    pub cached: u64,
}

/// The ways a synthesis run can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// No expression of cost at most `max_cost` satisfies the
    /// specification (the paper's `"not_found"` outcome).
    NotFound {
        /// The cost bound that was exhausted.
        max_cost: u64,
        /// Work counters of the failed run.
        stats: SynthesisStats,
    },
    /// The language cache exceeded its memory budget and OnTheFly mode ran
    /// out of cached operands before a solution was found (the paper's
    /// out-of-memory outcome).
    OutOfMemory {
        /// The last cost level that was fully constructed and cached.
        last_complete_cost: u64,
        /// Work counters of the failed run.
        stats: SynthesisStats,
    },
    /// The configured wall-clock budget expired before a solution was
    /// found. This outcome exists for the benchmark harness, which follows
    /// the paper's protocol of discarding runs that exceed a timeout.
    Timeout {
        /// The configured budget.
        budget: Duration,
        /// Work counters of the failed run.
        stats: SynthesisStats,
    },
    /// A [`CancelToken`](crate::CancelToken) was tripped and the search
    /// stopped cooperatively at the next level boundary.
    Cancelled {
        /// Work counters of the cancelled run.
        stats: SynthesisStats,
    },
    /// The [`SynthConfig`](crate::SynthConfig) is invalid (for example an
    /// allowed error outside `[0, 1]`); no search was attempted.
    InvalidConfig {
        /// A human-readable description of the offending field.
        message: String,
    },
}

impl SynthesisError {
    /// The statistics gathered before the run failed. `None` for
    /// [`SynthesisError::InvalidConfig`], which fails before any search
    /// work happens.
    pub fn stats(&self) -> Option<&SynthesisStats> {
        match self {
            SynthesisError::NotFound { stats, .. }
            | SynthesisError::OutOfMemory { stats, .. }
            | SynthesisError::Timeout { stats, .. }
            | SynthesisError::Cancelled { stats } => Some(stats),
            SynthesisError::InvalidConfig { .. } => None,
        }
    }

    /// Mutable access to the failure statistics, if any.
    pub(crate) fn stats_mut(&mut self) -> Option<&mut SynthesisStats> {
        match self {
            SynthesisError::NotFound { stats, .. }
            | SynthesisError::OutOfMemory { stats, .. }
            | SynthesisError::Timeout { stats, .. }
            | SynthesisError::Cancelled { stats } => Some(stats),
            SynthesisError::InvalidConfig { .. } => None,
        }
    }

    /// Constructs an [`SynthesisError::InvalidConfig`] from a message.
    pub fn invalid_config(message: impl Into<String>) -> Self {
        SynthesisError::InvalidConfig {
            message: message.into(),
        }
    }
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::NotFound { max_cost, .. } => {
                write!(
                    f,
                    "no satisfying regular expression of cost at most {max_cost}"
                )
            }
            SynthesisError::OutOfMemory {
                last_complete_cost, ..
            } => write!(
                f,
                "language cache memory budget exhausted after cost level {last_complete_cost}"
            ),
            SynthesisError::Timeout { budget, .. } => {
                write!(f, "time budget of {budget:?} exhausted")
            }
            SynthesisError::Cancelled { .. } => write!(f, "run cancelled"),
            SynthesisError::InvalidConfig { message } => {
                write!(f, "invalid configuration: {message}")
            }
        }
    }
}

impl Error for SynthesisError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_stats_access() {
        let stats = SynthesisStats {
            candidates_generated: 42,
            ..Default::default()
        };
        let not_found = SynthesisError::NotFound {
            max_cost: 9,
            stats: stats.clone(),
        };
        assert!(not_found.to_string().contains("cost at most 9"));
        assert_eq!(not_found.stats().unwrap().candidates_generated, 42);

        let oom = SynthesisError::OutOfMemory {
            last_complete_cost: 7,
            stats: stats.clone(),
        };
        assert!(oom.to_string().contains("cost level 7"));
        assert_eq!(oom.stats().unwrap().candidates_generated, 42);

        let timeout = SynthesisError::Timeout {
            budget: Duration::from_secs(5),
            stats: stats.clone(),
        };
        assert!(timeout.to_string().contains("time budget"));
        assert_eq!(timeout.stats().unwrap().candidates_generated, 42);

        let cancelled = SynthesisError::Cancelled { stats };
        assert!(cancelled.to_string().contains("cancelled"));
        assert!(cancelled.stats().is_some());

        let invalid = SynthesisError::invalid_config("allowed error must be in [0, 1]");
        assert!(invalid.to_string().contains("invalid configuration"));
        assert!(invalid.stats().is_none());
    }

    #[test]
    fn stats_default_is_zeroed() {
        let stats = SynthesisStats::default();
        assert_eq!(stats.candidates_generated, 0);
        assert_eq!(stats.elapsed, Duration::ZERO);
        assert!(!stats.used_on_the_fly);
    }
}
