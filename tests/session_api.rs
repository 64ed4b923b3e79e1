//! End-to-end tests of the session-based synthesis API: observers,
//! cooperative cancellation, batching over one warm device, config
//! serialization, and the streamed level execution engine (chunk-boundary
//! cancellation, scheduler counters, early-winner correctness).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use paresy::core::{BatchOutcome, LevelBatch};
use paresy::prelude::*;

fn intro_spec() -> Spec {
    Spec::from_strs(
        ["10", "101", "100", "1010", "1011", "1000", "1001"],
        ["", "0", "1", "00", "11", "010"],
    )
    .unwrap()
}

/// An observer that trips a cancel token after a fixed number of level
/// events — the cooperative-cancellation pattern a service front-end uses.
struct CancelAfter {
    token: CancelToken,
    levels_seen: u64,
    cancel_after: u64,
}

impl Observer for CancelAfter {
    fn on_level(&mut self, _level: &LevelStats) {
        self.levels_seen += 1;
        if self.levels_seen >= self.cancel_after {
            self.token.cancel();
        }
    }
}

#[test]
fn tripped_cancel_token_stops_between_levels() {
    let mut session = SynthSession::new(SynthConfig::new(CostFn::UNIFORM)).unwrap();
    let mut observer = CancelAfter {
        token: session.cancel_token(),
        levels_seen: 0,
        cancel_after: 1,
    };
    let err = session.run_with(&intro_spec(), &mut observer).unwrap_err();
    let SynthesisError::Cancelled { stats } = err else {
        panic!("expected Cancelled, got {err:?}");
    };
    // The token tripped after the first completed level, so the search
    // stopped at the following level boundary: no further level was
    // recorded, far below the cost-8 solution.
    assert_eq!(observer.levels_seen, 1);
    assert_eq!(stats.levels.len(), 1);
    assert!(
        stats.max_cost_reached <= 2,
        "search ran past the cancellation boundary: {stats:?}"
    );

    // The flag is sticky across the batch...
    assert!(matches!(
        session.run(&intro_spec()),
        Err(SynthesisError::Cancelled { .. })
    ));
    // ...until reset, after which the session solves normally.
    session.cancel_token().reset();
    let result = session.run(&intro_spec()).unwrap();
    assert_eq!(result.regex.to_string(), "10(0+1)*");
}

#[test]
fn observers_see_strictly_increasing_cost_levels_on_both_backends() {
    for backend in [
        BackendChoice::Sequential,
        BackendChoice::DeviceParallel { threads: Some(3) },
    ] {
        let config = SynthConfig::new(CostFn::UNIFORM).with_backend(backend);
        let mut session = SynthSession::new(config).unwrap();
        let mut log = LevelLog::default();
        let result = session.run_with(&intro_spec(), &mut log).unwrap();
        assert_eq!(result.cost, 8, "{backend:?}");
        assert!(!log.levels.is_empty(), "{backend:?}: no level events");
        assert!(
            log.levels.windows(2).all(|w| w[0].cost < w[1].cost),
            "{backend:?}: levels not monotone: {:?}",
            log.levels
        );
        // The observer saw exactly what the run's stats recorded.
        assert_eq!(log.levels, result.stats.levels, "{backend:?}");
    }
}

#[test]
fn run_batch_reuses_one_device_across_the_table1_style_suite() {
    // A miniature Table 1 suite: several specs through one parallel
    // session, all sharing the backend's single device.
    let specs = vec![
        intro_spec(),
        Spec::from_strs(["1", "011", "1011", "11011"], ["", "10", "101", "0011"]).unwrap(),
        Spec::from_strs(["0", "00", "000"], ["", "01", "1"]).unwrap(),
        Spec::from_strs(["01", "0101"], ["", "0", "1", "10"]).unwrap(),
    ];
    let config = SynthConfig::new(CostFn::UNIFORM)
        .with_backend(BackendChoice::DeviceParallel { threads: Some(2) });
    let mut session = SynthSession::new(config).unwrap();
    let device = session
        .device()
        .expect("parallel backend owns a device")
        .clone();

    let results = session.run_batch(&specs);
    assert_eq!(results.len(), specs.len());
    for (spec, result) in specs.iter().zip(&results) {
        let result = result.as_ref().unwrap();
        assert!(
            spec.is_satisfied_by(&result.regex),
            "{spec}: {}",
            result.regex
        );
    }
    assert_eq!(session.stats().runs, specs.len() as u64);
    assert_eq!(session.stats().solved, specs.len() as u64);
    // Device setup was paid once: the same instance accumulated kernel
    // launches from every spec of the batch.
    assert!(device.stats().kernel_launches > 0);
    assert_eq!(session.device().unwrap().stats(), device.stats());

    // Per-run deltas on the reused device via reset_stats.
    device.reset_stats();
    assert_eq!(device.stats().kernel_launches, 0);
    session.run(&specs[0]).unwrap();
    assert!(device.stats().kernel_launches > 0);
}

#[test]
fn config_round_trips_and_drives_a_session() {
    let config = SynthConfig::new(CostFn::new(1, 1, 10, 1, 1))
        .with_backend(BackendChoice::DeviceParallel { threads: Some(2) })
        .with_allowed_error(0.0)
        .with_memory_budget(64 * 1024 * 1024);
    let wire = config.to_string();
    let parsed: SynthConfig = wire.parse().unwrap();
    assert_eq!(parsed, config);

    let mut session = SynthSession::new(parsed).unwrap();
    assert_eq!(session.backend_name(), "gpu-sim-parallel");
    let result = session.run(&intro_spec()).unwrap();
    assert!(intro_spec().is_satisfied_by(&result.regex));
}

#[test]
fn invalid_config_is_a_recoverable_error_everywhere() {
    let bad = SynthConfig::new(CostFn::UNIFORM).with_allowed_error(2.0);
    let err = SynthSession::new(bad).unwrap_err();
    assert!(
        matches!(err, SynthesisError::InvalidConfig { .. }),
        "{err:?}"
    );

    // The one-shot builder reports it from run() instead of panicking.
    let err = Synthesizer::new(CostFn::UNIFORM)
        .with_allowed_error(-1.0)
        .run(&intro_spec())
        .unwrap_err();
    assert!(
        matches!(err, SynthesisError::InvalidConfig { .. }),
        "{err:?}"
    );
}

/// A custom backend that trips the session's cancel token while a level
/// is streaming: chunk `cancel_at` is still processed, after which the
/// level driver must stop at the very next chunk boundary. The token is
/// filled in after session construction (sessions mint their own token).
#[derive(Debug)]
struct CancelMidLevel {
    token: Arc<std::sync::OnceLock<CancelToken>>,
    calls: Arc<AtomicU64>,
    cancel_at: u64,
}

impl Backend for CancelMidLevel {
    fn name(&self) -> &'static str {
        "test-cancel-mid-level"
    }

    fn process(&self, batch: &mut LevelBatch<'_, '_>) -> BatchOutcome {
        let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if call == self.cancel_at {
            self.token
                .get()
                .expect("token wired after creation")
                .cancel();
        }
        batch.run_sequential()
    }
}

#[test]
fn cancellation_between_streamed_chunks_lands_promptly() {
    // One candidate row per chunk: the intro spec needs far more than
    // `cancel_at` candidate rows, so if cancellation only landed at level
    // boundaries the backend would see many more process calls.
    let calls = Arc::new(AtomicU64::new(0));
    let token_slot = Arc::new(std::sync::OnceLock::new());
    let mut session = SynthSession::with_backend(
        SynthConfig::new(CostFn::UNIFORM).with_level_chunk_rows(1),
        Box::new(CancelMidLevel {
            token: Arc::clone(&token_slot),
            calls: Arc::clone(&calls),
            cancel_at: 3,
        }),
    )
    .unwrap();
    token_slot
        .set(session.cancel_token())
        .expect("token slot set once");

    let err = session.run(&intro_spec()).unwrap_err();
    assert!(matches!(err, SynthesisError::Cancelled { .. }), "{err:?}");
    assert_eq!(
        calls.load(Ordering::Relaxed),
        3,
        "the driver processed chunks past the cancellation"
    );
}

#[test]
fn threaded_scheduler_counters_and_early_winner_are_consistent() {
    // Batches of up to 1000 rows are several 64-row spans each, shared
    // by four workers, so the winning batch skips the spans above its
    // winner; the outcome must still be the minimal cost-8 expression,
    // and the session must expose the spans claimed.
    let spec = intro_spec();
    let config = SynthConfig::new(CostFn::UNIFORM)
        .with_backend(BackendChoice::ThreadParallel { threads: Some(4) })
        .with_level_chunk_rows(1000);
    let mut session = SynthSession::new(config).unwrap();
    let result = session.run(&spec).unwrap();
    assert_eq!(result.cost, 8);
    assert!(spec.is_satisfied_by(&result.regex));

    let stats = session.stats();
    assert!(stats.chunks_claimed > 0, "{stats:?}");
    assert!(stats.prefilter_rejects > 0, "{stats:?}");
    assert_eq!(stats.dedup_overflowed, 0, "{stats:?}");
    // Per-run stats flow into the cumulative session counters.
    assert_eq!(stats.chunks_claimed, result.stats.chunks_claimed);
    assert_eq!(result.stats.chunks_stolen, 0);
    // One launch per batch, one claim per span: some batch had several.
    let device = session.device().unwrap().stats();
    assert!(stats.chunks_claimed > device.kernel_launches, "{stats:?}");
    // Hash-insert accounting reflects the rows that actually reached the
    // dedup set — never more than the candidates constructed (the old
    // whole-batch accounting could overstate under skipping).
    assert!(
        device.hash_insertions <= stats.candidates_generated,
        "inserts {} overstate candidates {}",
        device.hash_insertions,
        stats.candidates_generated
    );
}

#[test]
fn sequential_and_device_count_streamed_chunks() {
    for backend in [
        BackendChoice::Sequential,
        BackendChoice::DeviceParallel { threads: Some(2) },
    ] {
        let config = SynthConfig::new(CostFn::UNIFORM)
            .with_backend(backend)
            .with_level_chunk_rows(4);
        let mut session = SynthSession::new(config).unwrap();
        let result = session.run(&intro_spec()).unwrap();
        assert_eq!(result.cost, 8, "{backend:?}");
        let stats = session.stats();
        // Chunked streaming: strictly more chunks than levels.
        assert!(
            stats.chunks_claimed > result.stats.levels.len() as u64,
            "{backend:?}: {stats:?}"
        );
        assert!(stats.prefilter_rejects > 0, "{backend:?}");
    }
}

/// The session API is the only entry point: the one-shot `Synthesizer`
/// wrapper and a session agree on results, and choice/backend naming is
/// unified.
#[test]
fn synthesizer_wrapper_matches_session() {
    let spec = intro_spec();
    let one_shot = Synthesizer::new(CostFn::UNIFORM)
        .with_backend(BackendChoice::DeviceParallel { threads: Some(2) })
        .run(&spec)
        .unwrap();
    let via_session = SynthSession::new(
        SynthConfig::new(CostFn::UNIFORM)
            .with_backend(BackendChoice::DeviceParallel { threads: Some(2) }),
    )
    .unwrap()
    .run(&spec)
    .unwrap();
    assert_eq!(one_shot.cost, via_session.cost);
    assert_eq!(
        BackendChoice::parallel().name(),
        DeviceParallel::NAME,
        "CLI choice and backend agree on the name"
    );
}
