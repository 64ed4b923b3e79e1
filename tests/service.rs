//! Integration tests of the synthesis service: caching, coalescing,
//! deadlines and graceful shutdown, through the public facade.

use std::time::{Duration, Instant};

use paresy::prelude::*;
use rei_obs::TraceRegistry;

/// Spins until the service's queue is empty — i.e. a worker has picked up
/// everything submitted so far. Tests that stage a long-running blocker
/// call this before queueing the jobs whose scheduling they assert on, so
/// the blocker is already running when they arrive: they wait out its
/// whole run, and none of them can overtake it by priority.
fn wait_for_empty_queue(service: &SynthService) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.metrics().queue_depth > 0 {
        assert!(Instant::now() < deadline, "queue never drained");
        std::thread::yield_now();
    }
}

/// The paper's introductory specification (minimal cost 8).
fn intro_spec() -> Spec {
    Spec::from_strs(
        ["10", "101", "100", "1010", "1011", "1000", "1001"],
        ["", "0", "1", "00", "11", "010"],
    )
    .unwrap()
}

/// The same specification with reordered, duplicated examples — a
/// different tenant writing the same request differently.
fn intro_spec_reordered() -> Spec {
    Spec::from_strs(
        ["1001", "10", "10", "1000", "1011", "1010", "100", "101"],
        ["010", "11", "00", "1", "0", "", ""],
    )
    .unwrap()
}

/// The §5.2 specification: at zero allowed error its search needs orders
/// of magnitude more candidates than any quick run can finish, so it
/// reliably keeps a worker busy until a budget or a cancellation fires.
fn hard_spec() -> Spec {
    Spec::from_strs(
        [
            "00", "1101", "0001", "0111", "001", "1", "10", "1100", "111", "1010",
        ],
        [
            "", "0", "0000", "0011", "01", "010", "011", "100", "1000", "1001", "11", "1110",
        ],
    )
    .unwrap()
}

#[test]
fn cache_hit_returns_an_equivalent_result_without_a_new_run() {
    let service = SynthService::start(ServiceConfig::new(1)).unwrap();

    let fresh = service.submit(SynthRequest::new(intro_spec())).unwrap();
    assert_eq!(fresh.source(), ResponseSource::Fresh);
    let fresh = fresh.wait();
    let fresh_result = fresh.outcome.expect("intro spec solves");
    assert_eq!(fresh_result.cost, 8);

    // The reordered duplicate is recognised through spec canonicalization
    // and answered from the cache.
    let hit = service
        .submit(SynthRequest::new(intro_spec_reordered()))
        .unwrap();
    assert_eq!(hit.source(), ResponseSource::Cache);
    let hit = hit.wait();
    let hit_result = hit.outcome.expect("cache serves the stored result");
    assert_eq!(hit_result.cost, fresh_result.cost);
    assert!(intro_spec().is_satisfied_by(&hit_result.regex));
    assert_eq!(hit.ran, Duration::ZERO, "a cache hit runs no synthesis");

    let metrics = service.shutdown();
    assert_eq!(metrics.cache_hits, 1);
    assert_eq!(
        metrics.workers.iter().map(|w| w.runs).sum::<u64>(),
        1,
        "exactly one synthesis ran"
    );
}

#[test]
fn coalesced_concurrent_duplicates_perform_exactly_one_synthesis() {
    // One worker with a bounded per-run budget: the hard blocker occupies
    // it while the identical requests pile up behind.
    let synth = SynthConfig::default().with_time_budget(Duration::from_millis(300));
    let service = SynthService::start(ServiceConfig::new(1).with_synth(synth)).unwrap();

    let blocker = service.submit(SynthRequest::new(hard_spec())).unwrap();
    wait_for_empty_queue(&service);
    let duplicates: Vec<JobHandle> = (0..4)
        .map(|_| service.submit(SynthRequest::new(intro_spec())).unwrap())
        .collect();

    let costs: Vec<u64> = duplicates
        .iter()
        .map(|handle| handle.wait().outcome.expect("intro spec solves").cost)
        .collect();
    assert_eq!(costs, vec![8; 4]);
    let fresh = duplicates
        .iter()
        .filter(|h| h.source() == ResponseSource::Fresh)
        .count();
    assert_eq!(fresh, 1, "exactly one duplicate triggered the synthesis");

    assert!(
        blocker.wait().outcome.is_err(),
        "the blocker hit its budget"
    );
    let metrics = service.shutdown();
    assert_eq!(metrics.cache_hits + metrics.coalesced, 3);
    assert_eq!(
        metrics.workers.iter().map(|w| w.runs).sum::<u64>(),
        2,
        "blocker + one shared synthesis, nothing else"
    );
}

#[test]
fn expired_deadline_fails_fast_with_cancelled_on_every_backend() {
    for backend in [
        BackendChoice::Sequential,
        BackendChoice::ThreadParallel { threads: Some(2) },
        BackendChoice::DeviceParallel { threads: Some(2) },
    ] {
        let synth = SynthConfig::default().with_backend(backend);
        let service = SynthService::start(ServiceConfig::new(1).with_synth(synth)).unwrap();
        let handle = service
            .submit(SynthRequest::new(intro_spec()).with_timeout(Duration::ZERO))
            .unwrap();
        let response = handle.wait();
        assert!(
            matches!(response.outcome, Err(SynthesisError::Cancelled { .. })),
            "{backend}: expected Cancelled, got {:?}",
            response.outcome
        );
        assert_eq!(
            response.ran,
            Duration::ZERO,
            "{backend}: an expired job must not occupy the worker"
        );
        let metrics = service.shutdown();
        assert_eq!(metrics.deadline_expired, 1, "{backend}");
        assert_eq!(
            metrics.workers.iter().map(|w| w.runs).sum::<u64>(),
            0,
            "{backend}: no synthesis ran"
        );
    }
}

#[test]
fn coalesced_request_relaxes_the_initiators_deadline() {
    // A deadline belongs to a request, not to the specification: a
    // deadline-free duplicate attached to a job whose initiator's
    // deadline expired in the queue must still be synthesized.
    let synth = SynthConfig::default().with_time_budget(Duration::from_millis(300));
    let service = SynthService::start(ServiceConfig::new(1).with_synth(synth)).unwrap();
    let _blocker = service.submit(SynthRequest::new(hard_spec())).unwrap();
    wait_for_empty_queue(&service);
    let doomed = service
        .submit(SynthRequest::new(intro_spec()).with_timeout(Duration::ZERO))
        .unwrap();
    let rescued = service.submit(SynthRequest::new(intro_spec())).unwrap();
    assert_eq!(rescued.source(), ResponseSource::Coalesced);
    assert_eq!(
        rescued.wait().outcome.expect("relaxed job runs").cost,
        8,
        "the duplicate's lack of a deadline rescues the shared job"
    );
    // The initiator shares the successful run instead of a Cancelled.
    assert!(doomed.wait().outcome.is_ok());
    service.shutdown();
}

#[test]
fn deadline_reached_mid_run_cancels_cooperatively() {
    // Generous backstop budget so the test cannot hang; the 50 ms
    // deadline must fire long before it and cancel — not time out — the
    // run through the worker's CancelToken.
    let synth = SynthConfig::default().with_time_budget(Duration::from_secs(30));
    let service = SynthService::start(ServiceConfig::new(1).with_synth(synth)).unwrap();
    let traces = TraceRegistry::new(1024, None);
    let trace = traces.begin();
    let handle = service
        .submit(
            SynthRequest::new(hard_spec())
                .with_timeout(Duration::from_millis(50))
                .with_trace(trace.clone()),
        )
        .unwrap();
    let response = handle.wait();
    assert!(
        matches!(response.outcome, Err(SynthesisError::Cancelled { .. })),
        "expected cooperative cancellation, got {:?}",
        response.outcome
    );
    assert!(response.ran > Duration::ZERO, "the run had started");

    // The miss is explainable from the trace alone: one `deadline` event
    // carrying the overshoot past the deadline.
    let misses: Vec<_> = traces
        .events(trace.id())
        .into_iter()
        .filter(|event| event.phase == "deadline")
        .collect();
    assert_eq!(misses.len(), 1, "{misses:?}");
    let overshoot = misses[0].detail.strip_prefix("overshoot_us=");
    assert!(
        overshoot.is_some_and(|us| us.parse::<u64>().is_ok()),
        "{misses:?}"
    );

    // The worker's token was reset after the cancellation: the session
    // keeps serving later jobs normally.
    let after = service.submit(SynthRequest::new(intro_spec())).unwrap();
    assert_eq!(after.wait().outcome.expect("worker recovered").cost, 8);

    // A refine runs through the same path: its deadline cancels the run
    // too, and the failed run leaves the session nothing to reuse.
    let session = service.open_session(None, None).unwrap();
    let refine = service
        .submit(
            SynthRequest::new(hard_spec())
                .with_session(&session)
                .with_timeout(Duration::from_millis(50)),
        )
        .unwrap()
        .wait();
    assert!(
        matches!(refine.outcome, Err(SynthesisError::Cancelled { .. })),
        "expected cooperative cancellation, got {:?}",
        refine.outcome
    );
    assert!(refine.ran > Duration::ZERO, "the refine had started");
    assert_eq!(
        refine.reuse,
        Some(ReuseDecision::Cold(ColdReason::NoPrevious))
    );
    let easy = service
        .submit(SynthRequest::new(intro_spec()).with_session(&session))
        .unwrap()
        .wait();
    assert_eq!(easy.outcome.expect("session recovered").cost, 8);
    assert_eq!(
        easy.reuse,
        Some(ReuseDecision::Cold(ColdReason::PreviousFailed))
    );
    service.shutdown();
}

#[test]
fn graceful_shutdown_drains_the_queue() {
    let service = SynthService::start(ServiceConfig::new(1)).unwrap();
    let specs = ["0", "1", "00", "11", "01", "010"];
    let handles: Vec<JobHandle> = specs
        .iter()
        .map(|positive| {
            service
                .submit(SynthRequest::new(Spec::from_strs([*positive], []).unwrap()))
                .unwrap()
        })
        .collect();
    // Shut down immediately: every already-accepted job must still be
    // answered before the workers exit.
    let metrics = service.shutdown();
    assert_eq!(metrics.completed, specs.len() as u64);
    for handle in &handles {
        let response = handle
            .try_wait()
            .expect("drained jobs are complete after shutdown");
        assert!(response.outcome.is_ok());
    }
}

/// A second reliably long-running specification — the §5.2 spec with one
/// extra negative — distinct from [`hard_spec`] so the two neither hit
/// the cache nor coalesce onto each other.
fn hard_spec_variant() -> Spec {
    Spec::from_strs(
        [
            "00", "1101", "0001", "0111", "001", "1", "10", "1100", "111", "1010",
        ],
        [
            "", "0", "0000", "0011", "01", "010", "011", "100", "1000", "1001", "11", "1110",
            "110011",
        ],
    )
    .unwrap()
}

#[test]
fn queued_answers_do_not_wait_on_their_queue_mates() {
    // One worker on a budgeted blocker; three easy requests and one hard
    // request queue behind it. Each runs on its own once the blocker ends:
    // the easy answers come back at once, and only the hard request waits
    // for its own 1.4 s deadline.
    let synth = SynthConfig::default().with_time_budget(Duration::from_millis(1000));
    let service = SynthService::start(ServiceConfig::new(1).with_synth(synth)).unwrap();

    let blocker = service.submit(SynthRequest::new(hard_spec())).unwrap();
    wait_for_empty_queue(&service);

    // Distinct specs: no caching, no coalescing.
    let easy_specs = [
        Spec::from_strs(["0", "00"], ["1", "10"]).unwrap(),
        Spec::from_strs(["1", "11"], ["0", "01"]).unwrap(),
        Spec::from_strs(["01", "0101"], ["", "10"]).unwrap(),
    ];
    let easies: Vec<JobHandle> = easy_specs
        .iter()
        .map(|spec| service.submit(SynthRequest::new(spec.clone())).unwrap())
        .collect();
    let doomed = service
        .submit(SynthRequest::new(hard_spec_variant()).with_timeout(Duration::from_millis(1400)))
        .unwrap();

    let easy_responses: Vec<SynthResponse> = easies.iter().map(JobHandle::wait).collect();
    let doomed = doomed.wait();
    assert!(
        matches!(doomed.outcome, Err(SynthesisError::Cancelled { .. })),
        "the hard request is cancelled at its deadline: {:?}",
        doomed.outcome
    );
    for (response, spec) in easy_responses.iter().zip(&easy_specs) {
        let result = response.outcome.as_ref().expect("easy request solves");
        assert!(spec.is_satisfied_by(&result.regex), "{}", result.regex);
        // The easy answers must not be held back until the hard request
        // submitted after them gives up.
        assert!(
            response.waited + Duration::from_millis(200) <= doomed.waited,
            "easy answer waited {:?}, the hard request {:?}",
            response.waited,
            doomed.waited
        );
    }
    assert!(
        blocker.wait().outcome.is_err(),
        "the blocker hit its budget"
    );

    let metrics = service.shutdown();
    assert_eq!(metrics.completed, 5);
    assert_eq!(
        metrics.workers.iter().map(|w| w.runs).sum::<u64>(),
        5,
        "every job is its own session run"
    );
}

#[test]
fn priorities_jump_the_queue() {
    // One worker busy on a budgeted blocker; a low- and a high-priority
    // job queued behind it must run high first.
    let synth = SynthConfig::default().with_time_budget(Duration::from_millis(200));
    let service = SynthService::start(ServiceConfig::new(1).with_synth(synth)).unwrap();
    let _blocker = service.submit(SynthRequest::new(hard_spec())).unwrap();
    wait_for_empty_queue(&service);
    let low = service
        .submit(SynthRequest::new(Spec::from_strs(["0", "00"], ["1"]).unwrap()).with_priority(-1))
        .unwrap();
    let high = service
        .submit(SynthRequest::new(Spec::from_strs(["1", "11"], ["0"]).unwrap()).with_priority(9))
        .unwrap();
    let high_response = high.wait();
    let low_response = low.wait();
    assert!(high_response.outcome.is_ok());
    assert!(low_response.outcome.is_ok());
    assert!(
        high_response.waited <= low_response.waited,
        "high priority waited {:?}, low waited {:?}",
        high_response.waited,
        low_response.waited
    );
    service.shutdown();
}
