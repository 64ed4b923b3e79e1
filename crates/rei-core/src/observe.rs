//! Progress observation and cooperative cancellation.
//!
//! A [`SynthSession`](crate::SynthSession) run reports its progress to an
//! [`Observer`]: one [`LevelStats`] event per completed cost level, in
//! strictly increasing cost order, plus start/finish notifications. The
//! search also polls a [`CancelToken`] between batches and between levels,
//! so a long run can be stopped cooperatively — from another thread, or by
//! a deadline set on the token — without tearing down warm session state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use rei_lang::Spec;

use crate::result::{LevelStats, SynthesisError, SynthesisResult};

/// Receives progress events of a synthesis run.
///
/// All methods have empty default bodies, so implementors override only the
/// events they care about. Events of one run arrive from the thread that
/// called `run*`; levels are reported in strictly increasing cost order.
pub trait Observer {
    /// A run over `spec` is about to start.
    fn on_start(&mut self, spec: &Spec) {
        let _ = spec;
    }

    /// One cost level was fully constructed.
    fn on_level(&mut self, level: &LevelStats) {
        let _ = level;
    }

    /// The run ended (with a result or an error).
    fn on_finish(&mut self, outcome: Result<&SynthesisResult, &SynthesisError>) {
        let _ = outcome;
    }
}

/// The do-nothing observer used by the plain `run` entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// An observer that records every level event; convenient in tests and for
/// post-hoc progress inspection.
#[derive(Debug, Clone, Default)]
pub struct LevelLog {
    /// The recorded events, in arrival (= increasing cost) order.
    pub levels: Vec<LevelStats>,
}

impl Observer for LevelLog {
    fn on_level(&mut self, level: &LevelStats) {
        self.levels.push(*level);
    }
}

/// A cooperative cancellation flag shared between a running synthesis and
/// other threads, optionally armed with a deadline.
///
/// Cloning a token yields a handle to the *same* state (it is an [`Arc`]).
/// The search polls the token between kernel batches and between cost
/// levels; once tripped — by [`cancel`] or by reaching the instant set
/// with [`cancel_at`] — the run fails with [`SynthesisError::Cancelled`],
/// and the token stays tripped until [`reset`] (so a batch of runs sharing
/// the token all stop).
///
/// [`SynthesisError::Cancelled`]: crate::SynthesisError::Cancelled
/// [`cancel`]: CancelToken::cancel
/// [`cancel_at`]: CancelToken::cancel_at
/// [`reset`]: CancelToken::reset
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// Read once per poll, i.e. per level chunk, never per row, so an
    /// uncontended lock is cheap enough.
    deadline: Arc<Mutex<Option<Instant>>>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the token; in-flight runs observing it stop at the next poll.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Makes the token read as tripped once `deadline` has passed; `None`
    /// removes a deadline set earlier.
    pub fn cancel_at(&self, deadline: Option<Instant>) {
        *self.deadline() = deadline;
    }

    /// Whether the token has been tripped or its deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire) || self.deadline().is_some_and(|at| Instant::now() >= at)
    }

    /// Clears the flag and the deadline so the owning session can run
    /// again.
    pub fn reset(&self) {
        *self.deadline() = None;
        self.flag.store(false, Ordering::Release);
    }

    fn deadline(&self) -> MutexGuard<'_, Option<Instant>> {
        self.deadline.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn token_trips_across_clones_and_resets() {
        let token = CancelToken::new();
        let other = token.clone();
        assert!(!token.is_cancelled());
        other.cancel();
        assert!(token.is_cancelled());
        token.reset();
        assert!(!other.is_cancelled());

        // A future deadline does not trip the token; a past one trips
        // every clone.
        other.cancel_at(Some(Instant::now() + Duration::from_secs(60)));
        assert!(!token.is_cancelled());
        assert!(!other.is_cancelled());
        token.cancel_at(Some(Instant::now() - Duration::from_millis(1)));
        assert!(token.is_cancelled());
        assert!(other.is_cancelled());

        // `reset` clears the flag and the deadline together.
        token.cancel();
        other.reset();
        assert!(!token.is_cancelled());
        assert!(!other.is_cancelled());
    }

    #[test]
    fn level_log_records_events() {
        let mut log = LevelLog::default();
        log.on_level(&LevelStats {
            cost: 1,
            candidates: 2,
            unique: 2,
            cached: 2,
        });
        log.on_level(&LevelStats {
            cost: 2,
            candidates: 5,
            unique: 3,
            cached: 3,
        });
        assert_eq!(log.levels.len(), 2);
        assert!(log.levels[0].cost < log.levels[1].cost);
    }
}
