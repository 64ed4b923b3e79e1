//! The solve phase: the workload's pool solved in process by one warm
//! `SynthSession` per backend — the paper's CPU/GPU comparison — and the
//! instruments the traced run wraps around it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_sim::Device;
use rei_core::{
    Backend, BackendChoice, BatchOutcome, LevelBatch, LevelStats, Observer, SynthSession,
    SynthesisError, SynthesisResult, SynthesisStats,
};
use rei_lang::Spec;
use rei_syntax::Regex;

use crate::inputs::{synth_config, Inputs, Reference};
use crate::report::{percentile, Report};

/// The three backends of the comparison, each with one worker per core.
pub const BACKENDS: [BackendChoice; 3] = [
    BackendChoice::Sequential,
    BackendChoice::ThreadParallel { threads: None },
    BackendChoice::DeviceParallel { threads: None },
];

/// A session around `backend` that has solved one small spec, so its
/// first measured run starts warm.
pub fn warm_session(backend: Box<dyn Backend>) -> SynthSession {
    let mut session =
        SynthSession::with_backend(synth_config(), backend).expect("the benchmark config is valid");
    let spec = Spec::from_strs(
        ["10", "101", "100", "1010", "1011", "1000", "1001"],
        ["", "0", "1", "00", "11", "010"],
    )
    .expect("the warm-up spec is consistent");
    session.run(&spec).expect("the warm-up spec solves");
    session
}

/// One warm session per backend of [`BACKENDS`].
pub fn warm_sessions() -> Vec<SynthSession> {
    BACKENDS
        .iter()
        .map(|choice| warm_session(choice.build()))
        .collect()
}

/// Checks one answer: its cost must equal the reference cost, and its
/// regex must accept every positive and reject every negative example.
pub fn verify(spec: &Spec, regex: &Regex, cost: u64, expected: u64) -> Result<(), String> {
    if cost != expected {
        return Err(format!("{regex} costs {cost}, the reference {expected}"));
    }
    let accepts = |word: &rei_lang::Word| regex.accepts(word.chars().iter().copied());
    if let Some(word) = spec.positive().iter().find(|word| !accepts(word)) {
        return Err(format!("{regex} rejects the positive {word}"));
    }
    if let Some(word) = spec.negative().iter().find(|word| accepts(word)) {
        return Err(format!("{regex} accepts the negative {word}"));
    }
    Ok(())
}

/// Solves the whole pool on `session` and returns the wall time and each
/// run's counters; every answer is checked after the clock stops.
pub fn solve_pool(
    session: &mut SynthSession,
    pool: &[Spec],
    observer: &mut dyn Observer,
    reference: &Reference,
    report: &mut Report,
) -> (f64, Vec<SynthesisStats>) {
    let started = Instant::now();
    let outcomes: Vec<_> = pool
        .iter()
        .map(|spec| session.run_with(spec, observer))
        .collect();
    let wall = started.elapsed().as_secs_f64();
    let mut stats = Vec::with_capacity(pool.len());
    for (spec, outcome) in pool.iter().zip(outcomes) {
        report.check(match outcome {
            Ok(result) => {
                let checked = match reference.known(spec) {
                    Some(expected) => verify(spec, &result.regex, result.cost, expected),
                    None => Err("a pool spec has no reference".into()),
                };
                stats.push(result.stats);
                checked
            }
            Err(err) => Err(format!("{} failed: {err}", session.backend_name())),
        });
    }
    (wall, stats)
}

/// The end-to-end solve phase, one pass at a time. In a pass every backend
/// solves each spec in turn, in a rotating order so that no backend always
/// runs first. `solve_s.<backend>` is the pool time: the sum over the specs
/// of each spec's lower-quartile time on that backend. Other tenants of the
/// machine only ever slow a solve down, by up to a third for seconds at a
/// time, so the lower quartile tracks the program where the median tracks
/// the neighbours.
pub struct Passes {
    /// Seconds per backend, per spec, per pass.
    times: Vec<Vec<Vec<f64>>>,
    done: usize,
}

impl Passes {
    pub fn new(inputs: &Inputs) -> Passes {
        Passes {
            times: vec![vec![Vec::new(); inputs.pool.len()]; BACKENDS.len()],
            done: 0,
        }
    }

    /// Passes run so far.
    pub fn done(&self) -> usize {
        self.done
    }

    /// Solves the pool once on every session, checking each answer, and
    /// returns the pass's wall time.
    pub fn run(
        &mut self,
        sessions: &mut [SynthSession],
        inputs: &Inputs,
        reference: &Reference,
        report: &mut Report,
    ) -> Duration {
        let started = Instant::now();
        for (k, spec) in inputs.pool.iter().enumerate() {
            let expected = reference
                .known(spec)
                .expect("every pool spec has a reference");
            for offset in 0..sessions.len() {
                let index = (self.done + k + offset) % sessions.len();
                let session = &mut sessions[index];
                let solved = Instant::now();
                let outcome = session.run(spec);
                self.times[index][k].push(solved.elapsed().as_secs_f64());
                report.check(match outcome {
                    Ok(result) => verify(spec, &result.regex, result.cost, expected),
                    Err(err) => Err(format!("{} failed: {err}", session.backend_name())),
                });
            }
        }
        self.done += 1;
        started.elapsed()
    }

    /// Reports `solve_s.<backend>` for each of `sessions`.
    pub fn finish(&self, sessions: &[SynthSession], report: &mut Report) {
        for (session, times) in sessions.iter().zip(&self.times) {
            let pool_s = times.iter().map(|spec| percentile(spec, 25.0)).sum();
            report.metric(format!("solve_s.{}", session.backend_name()), pool_s, "s");
        }
    }
}

/// The batches a [`TimedBackend`] forwarded: how many, their rows, and the
/// time spent inside the wrapped backend.
#[derive(Debug, Default)]
pub struct Dispatch {
    batches: AtomicU64,
    rows: AtomicU64,
    busy_ns: AtomicU64,
}

impl Dispatch {
    /// Batches, rows and busy seconds since the last call.
    pub fn take(&self) -> (u64, u64, f64) {
        (
            self.batches.swap(0, Ordering::Relaxed),
            self.rows.swap(0, Ordering::Relaxed),
            self.busy_ns.swap(0, Ordering::Relaxed) as f64 / 1e9,
        )
    }
}

/// A `Backend` that forwards every batch to another one and times it.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Box<dyn Backend>,
    dispatch: Arc<Dispatch>,
}

impl TimedBackend {
    pub fn new(inner: Box<dyn Backend>, dispatch: Arc<Dispatch>) -> TimedBackend {
        TimedBackend { inner, dispatch }
    }
}

impl Backend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn device(&self) -> Option<&Device> {
        self.inner.device()
    }

    fn begin_run(&self) {
        self.inner.begin_run();
    }

    fn process(&self, batch: &mut LevelBatch<'_, '_>) -> BatchOutcome {
        let rows = batch.len() as u64;
        let started = Instant::now();
        let outcome = self.inner.process(batch);
        let busy = started.elapsed().as_nanos() as u64;
        self.dispatch.busy_ns.fetch_add(busy, Ordering::Relaxed);
        self.dispatch.batches.fetch_add(1, Ordering::Relaxed);
        self.dispatch.rows.fetch_add(rows, Ordering::Relaxed);
        outcome
    }
}

/// An `Observer` that timestamps each run's start, first level and finish.
#[derive(Debug, Default)]
pub struct SearchTimer {
    started: Option<Instant>,
    first_level: Option<Instant>,
    /// Start to first level: staging plus the alphabet seed.
    pub first_level_s: f64,
    /// First level to finish: the composite levels.
    pub level_s: f64,
    /// Start to finish.
    pub solve_s: f64,
    /// Completed levels.
    pub levels: u64,
}

impl Observer for SearchTimer {
    fn on_start(&mut self, _spec: &Spec) {
        self.started = Some(Instant::now());
        self.first_level = None;
    }

    fn on_level(&mut self, _level: &LevelStats) {
        self.levels += 1;
        self.first_level.get_or_insert_with(Instant::now);
    }

    fn on_finish(&mut self, _outcome: Result<&SynthesisResult, &SynthesisError>) {
        let now = Instant::now();
        let Some(started) = self.started.take() else {
            return;
        };
        let first_level = self.first_level.take().unwrap_or(now);
        self.first_level_s += (first_level - started).as_secs_f64();
        self.level_s += (now - first_level).as_secs_f64();
        self.solve_s += (now - started).as_secs_f64();
    }
}
