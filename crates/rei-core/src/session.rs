//! The session-based synthesis API.
//!
//! A [`SynthSession`] is created once from a [`SynthConfig`] and reused
//! across many specifications. It owns the execution [`Backend`] (and
//! therefore the warm [`gpu_sim::Device`] of the data-parallel backend),
//! the reusable device batch buffers, and cumulative run counters — so a
//! batch of inference requests pays device setup once instead of once per
//! spec, the batching structure the benchmark harness and a future service
//! front-end both need.

use std::time::{Duration, Instant};

use gpu_sim::Device;
use rei_lang::{Alphabet, Spec};
use rei_syntax::Regex;

use crate::backend::Backend;
use crate::config::SynthConfig;
use crate::observe::{CancelToken, NoopObserver, Observer};
use crate::refine::{ColdReason, PrevOutcome, RefineState, ReuseDecision, RunOutcome};
use crate::result::{SynthesisError, SynthesisResult, SynthesisStats};
use crate::search::{self, ResumeState, SearchParams, SessionScratch, StopCheck};

/// Cumulative counters over every run of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Total runs attempted (solved + failed).
    pub runs: u64,
    /// Runs that produced an expression.
    pub solved: u64,
    /// Runs that failed (not found, out of memory, timeout, cancelled).
    pub failed: u64,
    /// Candidate languages constructed across all runs.
    pub candidates_generated: u64,
    /// Unique languages across all runs.
    pub unique_languages: u64,
    /// Work chunks claimed by the level execution engine across all runs
    /// (streamed level chunks, or work-stealing claims on the
    /// thread-parallel backend).
    pub chunks_claimed: u64,
    /// Scheduler chunks stolen between thread-parallel workers across all
    /// runs.
    pub chunks_stolen: u64,
    /// Candidate rows rejected by the admission prefilter (their full
    /// satisfaction check was skipped) across all runs.
    pub prefilter_rejects: u64,
    /// Admission checks executed (prefilter and/or full satisfaction
    /// fold) across all runs. A [`refine`](SynthSession::refine) answered
    /// from the session adds 0 here — the pin the unchanged-spec
    /// refinement contract rests on.
    pub admission_folds: u64,
    /// Uniqueness-filter insertions that overflowed the filter's table
    /// and were reported as unique without being recorded, across all
    /// runs (see `gpu_sim::hashset::LockFreeU64Set::overflowed`).
    pub dedup_overflowed: u64,
    /// Wall-clock time spent inside `run*` calls.
    pub elapsed: Duration,
}

/// A reusable synthesis session: one configuration, one backend, many
/// specifications.
///
/// # Example
///
/// ```
/// use rei_core::{BackendChoice, SynthConfig, SynthSession};
/// use rei_lang::Spec;
/// use rei_syntax::CostFn;
///
/// let spec = Spec::from_strs(
///     ["10", "101", "100", "1010", "1011", "1000", "1001"],
///     ["", "0", "1", "00", "11", "010"],
/// ).unwrap();
/// let config = SynthConfig::new(CostFn::UNIFORM).with_backend(BackendChoice::parallel());
/// let mut session = SynthSession::new(config).unwrap();
/// let result = session.run(&spec).unwrap();
/// // Backends guarantee the minimal cost; the expression itself may be
/// // any equally-minimal candidate (here cost 8, e.g. `10(0+1)*`).
/// assert_eq!(result.cost, 8);
/// assert!(spec.is_satisfied_by(&result.regex));
/// assert_eq!(session.stats().runs, 1);
/// ```
#[derive(Debug)]
pub struct SynthSession {
    config: SynthConfig,
    backend: Box<dyn Backend>,
    cancel: CancelToken,
    scratch: SessionScratch,
    stats: SessionStats,
    /// Refinement state of the session's own [`refine`](SynthSession::refine)
    /// chain; external chains pass their own state through
    /// [`refine_with_state`](SynthSession::refine_with_state).
    refine_state: RefineState,
}

impl SynthSession {
    /// Creates a session, building the backend named by the config.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::InvalidConfig`] when the configuration fails
    /// [`SynthConfig::validate`].
    pub fn new(config: SynthConfig) -> Result<Self, SynthesisError> {
        let backend = config.backend().build();
        SynthSession::with_backend(config, backend)
    }

    /// Creates a session around a caller-supplied backend (a custom
    /// [`Backend`] implementation, or a [`DeviceParallel`] sharing a
    /// specific [`Device`]). The config's own
    /// [`backend`](SynthConfig::backend) choice is ignored.
    ///
    /// [`DeviceParallel`]: crate::DeviceParallel
    pub fn with_backend(
        config: SynthConfig,
        backend: Box<dyn Backend>,
    ) -> Result<Self, SynthesisError> {
        config.validate()?;
        Ok(SynthSession {
            config,
            backend,
            cancel: CancelToken::new(),
            scratch: SessionScratch::default(),
            stats: SessionStats::default(),
            refine_state: RefineState::new(),
        })
    }

    /// The configuration this session was created from.
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// The backend executing this session's runs.
    pub fn backend(&self) -> &dyn Backend {
        &*self.backend
    }

    /// The backend's name (see [`Backend::name`]); the string reported by
    /// the CLI, the benchmark harness and session logs.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The device shared by this session's runs, if the backend owns one.
    pub fn device(&self) -> Option<&Device> {
        self.backend.device()
    }

    /// A handle to this session's cancellation flag. Cloning is cheap;
    /// trip it from any thread with [`CancelToken::cancel`], or arm it
    /// with [`CancelToken::cancel_at`], and the in-flight run stops at the
    /// next poll point with [`SynthesisError::Cancelled`]. The token stays
    /// tripped (subsequent runs fail fast) until [`CancelToken::reset`].
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Cumulative counters over every run of this session.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Runs regular expression inference on `spec`.
    ///
    /// On success the returned expression is *precise* (accepts all of
    /// `P`, rejects all of `N`, up to the configured allowed error) and
    /// *minimal* with respect to the cost homomorphism.
    ///
    /// # Errors
    ///
    /// * [`SynthesisError::NotFound`] if no expression within the cost
    ///   bound satisfies the specification.
    /// * [`SynthesisError::OutOfMemory`] if the language cache exceeded
    ///   its memory budget and OnTheFly mode could not finish the search.
    /// * [`SynthesisError::Timeout`] / [`SynthesisError::Cancelled`] when
    ///   the time budget or the session's [`CancelToken`] fired.
    pub fn run(&mut self, spec: &Spec) -> Result<SynthesisResult, SynthesisError> {
        self.run_with(spec, &mut NoopObserver)
    }

    /// Like [`run`](SynthSession::run), delivering per-cost-level progress
    /// events to `observer` (see [`Observer`]).
    pub fn run_with(
        &mut self,
        spec: &Spec,
        observer: &mut dyn Observer,
    ) -> Result<SynthesisResult, SynthesisError> {
        observer.on_start(spec);
        let outcome = self.run_inner(spec, observer);
        self.note_outcome(&outcome);
        observer.on_finish(outcome.as_ref());
        outcome
    }

    /// Runs every specification through this session in order, reusing the
    /// backend's device and warm buffers across all of them. Each spec
    /// gets its own result slot; a failure on one spec does not stop the
    /// others (a tripped [`CancelToken`] does — the remaining specs report
    /// [`SynthesisError::Cancelled`] immediately).
    pub fn run_batch(&mut self, specs: &[Spec]) -> Vec<Result<SynthesisResult, SynthesisError>> {
        specs.iter().map(|spec| self.run(spec)).collect()
    }

    /// Refines the session's own specification chain: like
    /// [`run`](SynthSession::run), but when `spec` *strengthens* the
    /// previous refined spec (example supersets over the same alphabet
    /// with the same absolute allowed-error budget), previous-run state is
    /// reused — the cached outcome for an unchanged spec, a re-check of
    /// the previous winner or a resumed enumeration over the retained
    /// level caches otherwise. Any other spec falls back to a transparent
    /// cold run. The synthesis outcome is always identical to what a cold
    /// [`run`](SynthSession::run) of the same spec would return; only the
    /// work differs, as reported by [`RunOutcome::reuse`].
    pub fn refine(&mut self, spec: &Spec) -> RunOutcome {
        let mut state = std::mem::take(&mut self.refine_state);
        let outcome = self.refine_with_state(&mut state, spec, &mut NoopObserver);
        self.refine_state = state;
        outcome
    }

    /// Like [`refine`](SynthSession::refine) over a caller-owned
    /// [`RefineState`] — the service-tier entry point, where the
    /// refinement chain belongs to a *user* session while the
    /// `SynthSession` belongs to whichever pool worker picked the request
    /// up.
    pub fn refine_with_state(
        &mut self,
        state: &mut RefineState,
        spec: &Spec,
        observer: &mut dyn Observer,
    ) -> RunOutcome {
        observer.on_start(spec);
        let started = Instant::now();
        let allowed = self.config.allowed_example_errors(spec);
        let alphabet = self
            .config
            .alphabet()
            .cloned()
            .unwrap_or_else(|| Alphabet::of_spec(spec));

        // Tier 0 — unchanged spec: answer from the session. No admission
        // runs (`admission_folds` stays 0), no backend work at all.
        if let Some(prev) = &state.prev {
            if prev.outcome.is_some() && prev.spec == *spec {
                let outcome = prev
                    .replay(started.elapsed())
                    .expect("unchanged tier requires a deterministic previous outcome");
                self.note_outcome(&outcome);
                observer.on_finish(outcome.as_ref());
                return RunOutcome {
                    outcome,
                    reuse: ReuseDecision::Unchanged,
                };
            }
        }

        // Gate of the warm tier: a strengthening over the same alphabet
        // with the same absolute budget, refining a deterministic outcome.
        // Everything else goes cold (with the reason on record).
        let gate = match &state.prev {
            None => Err(ColdReason::NoPrevious),
            Some(prev) if prev.outcome.is_none() => Err(ColdReason::PreviousFailed),
            Some(prev)
                if !(prev.spec.positive().is_subset(spec.positive())
                    && prev.spec.negative().is_subset(spec.negative())) =>
            {
                Err(ColdReason::NotStrengthening)
            }
            Some(prev) if prev.alphabet != alphabet => Err(ColdReason::AlphabetChanged),
            Some(prev) if prev.allowed != allowed => Err(ColdReason::BudgetChanged),
            Some(_) => Ok(()),
        };
        if let Err(reason) = gate {
            return self.refine_cold(state, spec, allowed, alphabet, started, observer, reason);
        }

        // Warm fast path: if the previous winner still satisfies the
        // strengthened spec it is still minimal — rejection is monotone
        // under example supersets with an unchanged absolute budget, so no
        // candidate the previous run rejected (explicitly or as a dedup
        // duplicate of a rejected representative) can newly satisfy, and
        // every satisfier of the new spec also satisfied the old one, so
        // nothing cheaper exists over the same alphabet.
        {
            let prev = state.prev.as_mut().expect("warm tier has a previous run");
            if let Some(PrevOutcome::Solved { regex, cost }) = &prev.outcome {
                if spec.misclassified_by(regex) <= allowed {
                    let outcome = Ok(SynthesisResult {
                        regex: regex.clone(),
                        cost: *cost,
                        stats: SynthesisStats {
                            candidates_generated: 1,
                            elapsed: started.elapsed(),
                            ..SynthesisStats::default()
                        },
                    });
                    let reuse = ReuseDecision::Warm {
                        retained_rows: prev.retained.as_ref().map_or(0, ResumeState::retained_rows),
                        resumed_cost: *cost,
                    };
                    // The retained state is still the complete enumeration
                    // of its levels; only the spec on record advances.
                    prev.spec = spec.clone();
                    self.note_outcome(&outcome);
                    observer.on_finish(outcome.as_ref());
                    return RunOutcome { outcome, reuse };
                }
            }
        }

        // Warm resume: re-enumerate from the retained level caches. This
        // additionally requires every new example to be indexed by the
        // retained infix closure — a grown closure would split dedup
        // classes whose discarded duplicates are unrecoverable, so it
        // cannot be revalidated and must go cold.
        let resume = {
            let prev = state.prev.as_mut().expect("warm tier has a previous run");
            match &prev.retained {
                None => Err(ColdReason::NoRetainedSearch),
                Some(retained) if !retained.covers(spec) => Err(ColdReason::ClosureGrew),
                Some(_) => Ok(prev.retained.take().expect("checked above")),
            }
        };
        let retained = match resume {
            Ok(retained) => retained,
            Err(reason) => {
                return self.refine_cold(state, spec, allowed, alphabet, started, observer, reason)
            }
        };

        let reuse = ReuseDecision::Warm {
            retained_rows: retained.retained_rows(),
            resumed_cost: retained.last_full_cost + 1,
        };
        let (outcome, new_retained) =
            self.run_search_retaining(spec, started, observer, Some(retained));
        state.record(spec, allowed, alphabet, &outcome, new_retained);
        self.note_outcome(&outcome);
        observer.on_finish(outcome.as_ref());
        RunOutcome { outcome, reuse }
    }

    /// The cold fallback of [`refine_with_state`]: a full run (trivial
    /// checks included), still recording its state so the *next* refine
    /// can go warm.
    ///
    /// [`refine_with_state`]: SynthSession::refine_with_state
    #[allow(clippy::too_many_arguments)]
    fn refine_cold(
        &mut self,
        state: &mut RefineState,
        spec: &Spec,
        allowed: usize,
        alphabet: Alphabet,
        started: Instant,
        observer: &mut dyn Observer,
        reason: ColdReason,
    ) -> RunOutcome {
        let (outcome, retained) = self.run_inner_retaining(spec, started, observer);
        state.record(spec, allowed, alphabet, &outcome, retained);
        self.note_outcome(&outcome);
        observer.on_finish(outcome.as_ref());
        RunOutcome {
            outcome,
            reuse: ReuseDecision::Cold(reason),
        }
    }

    fn run_inner(
        &mut self,
        spec: &Spec,
        observer: &mut dyn Observer,
    ) -> Result<SynthesisResult, SynthesisError> {
        let started = Instant::now();
        self.run_inner_retaining(spec, started, observer).0
    }

    /// The single-spec run body: cancellation fast-fail, the trivial
    /// candidates of minimal cost (lines 4-5 of Algorithm 1, generalised
    /// to allowed error), then the level search — handing back whatever
    /// resumable state the search retained for the refinement tier.
    fn run_inner_retaining(
        &mut self,
        spec: &Spec,
        started: Instant,
        observer: &mut dyn Observer,
    ) -> (Result<SynthesisResult, SynthesisError>, Option<ResumeState>) {
        // The config was validated at session construction and is
        // immutable afterwards, so no per-run re-validation is needed.
        if self.cancel.is_cancelled() {
            return (
                Err(SynthesisError::Cancelled {
                    stats: SynthesisStats::default(),
                }),
                None,
            );
        }
        self.backend.begin_run();
        let costs = *self.config.costs();
        let allowed_errors = self.config.allowed_example_errors(spec);

        let mut candidates_checked = 0u64;
        for trivial in [Regex::Empty, Regex::Epsilon] {
            candidates_checked += 1;
            if spec.misclassified_by(&trivial) <= allowed_errors {
                return (
                    Ok(SynthesisResult {
                        cost: trivial.cost(&costs),
                        regex: trivial,
                        stats: SynthesisStats {
                            candidates_generated: candidates_checked,
                            unique_languages: candidates_checked,
                            elapsed: started.elapsed(),
                            ..SynthesisStats::default()
                        },
                    }),
                    None,
                );
            }
        }

        let (mut outcome, retained) = self.run_search_retaining(spec, started, observer, None);
        match &mut outcome {
            Ok(result) => result.stats.candidates_generated += candidates_checked,
            Err(err) => {
                if let Some(stats) = err.stats_mut() {
                    stats.candidates_generated += candidates_checked;
                }
            }
        }
        (outcome, retained)
    }

    /// Stages [`SearchParams`] from the config and runs the level search,
    /// fresh or resumed. The trivial candidates are *not* checked here: a
    /// resumed run already rejected them under the weaker previous spec
    /// and rejection is monotone under strengthening.
    fn run_search_retaining(
        &mut self,
        spec: &Spec,
        started: Instant,
        observer: &mut dyn Observer,
        resume: Option<ResumeState>,
    ) -> (Result<SynthesisResult, SynthesisError>, Option<ResumeState>) {
        if resume.is_some() {
            self.backend.begin_run();
        }
        let costs = *self.config.costs();
        let alphabet = self
            .config
            .alphabet()
            .cloned()
            .unwrap_or_else(|| Alphabet::of_spec(spec));
        let max_cost = self
            .config
            .max_cost()
            .unwrap_or_else(|| spec.overfit_regex().cost(&costs));

        let params = SearchParams {
            spec,
            alphabet,
            costs,
            memory_budget: self.config.memory_budget(),
            allowed_errors: self.config.allowed_example_errors(spec),
            max_cost,
            started,
            sched_chunk: self.config.sched_chunk(),
            level_chunk_rows: self.config.level_chunk_rows(),
        };
        let stop = StopCheck {
            deadline: self.config.time_budget().map(|budget| started + budget),
            budget: self.config.time_budget().unwrap_or_default(),
            cancel: Some(self.cancel.clone()),
        };
        search::run_retaining(
            params,
            &*self.backend,
            observer,
            stop,
            &mut self.scratch,
            resume,
        )
    }

    /// Folds one run's outcome into the session totals.
    fn note_outcome(&mut self, outcome: &Result<SynthesisResult, SynthesisError>) {
        self.stats.runs += 1;
        let run_stats = match outcome {
            Ok(result) => {
                self.stats.solved += 1;
                Some(&result.stats)
            }
            Err(err) => {
                self.stats.failed += 1;
                err.stats()
            }
        };
        if let Some(stats) = run_stats {
            self.stats.candidates_generated += stats.candidates_generated;
            self.stats.unique_languages += stats.unique_languages;
            self.stats.chunks_claimed += stats.chunks_claimed;
            self.stats.chunks_stolen += stats.chunks_stolen;
            self.stats.prefilter_rejects += stats.prefilter_rejects;
            self.stats.admission_folds += stats.admission_folds;
            self.stats.dedup_overflowed += stats.dedup_overflowed;
            self.stats.elapsed += stats.elapsed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendChoice, DeviceParallel};
    use crate::observe::LevelLog;
    use rei_syntax::CostFn;

    fn intro_spec() -> Spec {
        Spec::from_strs(
            ["10", "101", "100", "1010", "1011", "1000", "1001"],
            ["", "0", "1", "00", "11", "010"],
        )
        .unwrap()
    }

    #[test]
    fn invalid_config_fails_at_session_creation() {
        let err = SynthSession::new(SynthConfig::default().with_allowed_error(1.5)).unwrap_err();
        assert!(
            matches!(err, SynthesisError::InvalidConfig { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn session_counts_runs_and_reuses_one_device() {
        let specs = vec![
            Spec::from_strs(["0", "00"], ["1", "10"]).unwrap(),
            Spec::from_strs(["1", "11", "111"], ["", "0", "10"]).unwrap(),
            intro_spec(),
        ];
        let config = SynthConfig::new(CostFn::UNIFORM)
            .with_backend(BackendChoice::DeviceParallel { threads: Some(2) });
        let mut session = SynthSession::new(config).unwrap();
        let device = session
            .device()
            .expect("parallel backend owns a device")
            .clone();

        let results = session.run_batch(&specs);
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(session.stats().runs, 3);
        assert_eq!(session.stats().solved, 3);
        // All three runs hit the same device: its counters kept growing
        // and the session still reports the very same instance.
        assert!(device.stats().kernel_launches > 0);
        assert_eq!(session.device().unwrap().stats(), device.stats());
    }

    #[test]
    fn run_with_reports_levels_and_finish() {
        let mut session = SynthSession::new(SynthConfig::default()).unwrap();
        let mut log = LevelLog::default();
        let result = session.run_with(&intro_spec(), &mut log).unwrap();
        assert_eq!(result.regex.to_string(), "10(0+1)*");
        assert!(!log.levels.is_empty());
        assert!(log.levels.windows(2).all(|w| w[0].cost < w[1].cost));
    }

    #[test]
    fn cancelled_session_fails_fast_until_reset() {
        let mut session = SynthSession::new(SynthConfig::default()).unwrap();
        let token = session.cancel_token();
        token.cancel();
        let err = session.run(&intro_spec()).unwrap_err();
        assert!(matches!(err, SynthesisError::Cancelled { .. }), "{err:?}");
        // A batch after the trip: every spec reports `Cancelled` and still
        // counts as a run.
        let zeros = Spec::from_strs(["0", "00"], ["", "1"]).unwrap();
        let batch = session.run_batch(&[intro_spec(), zeros, intro_spec()]);
        assert_eq!(batch.len(), 3);
        for slot in &batch {
            assert!(
                matches!(slot, Err(SynthesisError::Cancelled { .. })),
                "{slot:?}"
            );
        }
        assert_eq!(session.stats().runs, 4);
        token.reset();
        assert!(session.run(&intro_spec()).is_ok());
        assert_eq!(session.stats().runs, 5);
        assert_eq!(session.stats().failed, 4);
    }

    #[test]
    fn past_token_deadline_fails_fast_until_reset() {
        let mut session = SynthSession::new(SynthConfig::default()).unwrap();
        let token = session.cancel_token();
        token.cancel_at(Some(Instant::now() - Duration::from_millis(1)));
        // Fast: the run fails before it constructs a single candidate.
        let err = session.run(&intro_spec()).unwrap_err();
        assert!(
            matches!(&err, SynthesisError::Cancelled { stats } if stats.candidates_generated == 0),
            "{err:?}"
        );
        token.reset();
        assert_eq!(session.run(&intro_spec()).unwrap().cost, 8);
    }

    #[test]
    fn thread_parallel_sessions_solve_and_account() {
        let config = SynthConfig::new(CostFn::UNIFORM)
            .with_backend(BackendChoice::ThreadParallel { threads: Some(3) });
        let mut session = SynthSession::new(config).unwrap();
        let result = session.run(&intro_spec()).unwrap();
        assert_eq!(result.cost, 8);
        assert_eq!(session.backend_name(), "cpu-thread-parallel");
        // The stats device accounted the self-scheduled launches.
        let stats = session.device().unwrap().stats();
        assert!(stats.kernel_launches > 0);
        assert!(stats.items_executed >= stats.kernel_launches);
        assert!(stats.hash_insertions > 0);
    }

    #[test]
    fn custom_backend_device_is_shared() {
        let device = Device::with_threads(2);
        let backend = Box::new(DeviceParallel::with_device(device.clone()));
        let mut session = SynthSession::with_backend(SynthConfig::default(), backend).unwrap();
        session.run(&intro_spec()).unwrap();
        assert!(device.stats().kernel_launches > 0);
        assert_eq!(session.backend_name(), DeviceParallel::NAME);
    }
}
