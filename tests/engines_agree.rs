//! Property tests: the sequential, thread-parallel and data-parallel
//! backends implement the same algorithm, so on any specification they
//! must agree on the minimal cost (the expressions themselves may differ
//! between equally-minimal candidates). The agreement is checked through
//! the session API, including batched runs over one warm device and runs
//! under cancellation.

use proptest::prelude::*;

use paresy::bench::costs::REFERENCE;
use paresy::bench::generator::{generate_type2, Type2Params};
use paresy::bench::harness::{benchmark_pool, HarnessConfig};
use paresy::lang::Alphabet;
use paresy::prelude::*;

fn small_spec(seed: u64, max_len: usize, examples: usize) -> Option<Spec> {
    let params = Type2Params {
        alphabet: Alphabet::binary(),
        max_len,
        positives: examples,
        negatives: examples,
    };
    generate_type2(&params, seed)
}

fn session(backend: BackendChoice) -> SynthSession {
    SynthSession::new(SynthConfig::new(CostFn::UNIFORM).with_backend(backend)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All three backends find expressions of the same (minimal) cost and
    /// every result classifies every example correctly.
    #[test]
    fn backends_agree_on_minimal_cost(seed in 0u64..10_000, max_len in 2usize..4, examples in 2usize..4) {
        let Some(spec) = small_spec(seed, max_len, examples) else { return Ok(()) };
        let sequential = session(BackendChoice::Sequential).run(&spec).unwrap();
        let threaded = session(BackendChoice::ThreadParallel { threads: Some(3) })
            .run(&spec)
            .unwrap();
        let parallel = session(BackendChoice::DeviceParallel { threads: Some(3) })
            .run(&spec)
            .unwrap();
        prop_assert_eq!(sequential.cost, threaded.cost, "spec {}", spec);
        prop_assert_eq!(sequential.cost, parallel.cost, "spec {}", spec);
        prop_assert!(spec.is_satisfied_by(&sequential.regex));
        prop_assert!(spec.is_satisfied_by(&threaded.regex));
        prop_assert!(spec.is_satisfied_by(&parallel.regex));
        prop_assert_eq!(sequential.regex.cost(&CostFn::UNIFORM), sequential.cost);
        prop_assert_eq!(threaded.regex.cost(&CostFn::UNIFORM), threaded.cost);
        prop_assert_eq!(parallel.regex.cost(&CostFn::UNIFORM), parallel.cost);
    }

    /// A batch through a warm thread-parallel session agrees with the
    /// sequential baseline spec by spec, and a cancellation mid-batch
    /// makes the remaining specs fail fast with `Cancelled` on every
    /// backend alike.
    #[test]
    fn threaded_batches_agree_and_cancel(base in 0u64..10_000) {
        let specs: Vec<Spec> =
            (0..4).filter_map(|k| small_spec(base + k, 3, 3)).collect();
        if specs.is_empty() { return Ok(()) }

        let mut sequential = session(BackendChoice::Sequential);
        let mut threaded = session(BackendChoice::ThreadParallel { threads: Some(2) });
        let cpu_results = sequential.run_batch(&specs);
        let mt_results = threaded.run_batch(&specs);
        prop_assert_eq!(threaded.stats().runs, specs.len() as u64);
        for ((spec, cpu), mt) in specs.iter().zip(&cpu_results).zip(&mt_results) {
            let cpu = cpu.as_ref().unwrap();
            let mt = mt.as_ref().unwrap();
            prop_assert_eq!(cpu.cost, mt.cost, "spec {}", spec);
            prop_assert!(spec.is_satisfied_by(&mt.regex));
        }
        // The self-scheduled launches were accounted on the stats device.
        prop_assert!(threaded.device().unwrap().stats().kernel_launches > 0);

        // Cancellation: tripping the token fails the whole batch fast,
        // identically across backends.
        for choice in [
            BackendChoice::Sequential,
            BackendChoice::ThreadParallel { threads: Some(2) },
            BackendChoice::DeviceParallel { threads: Some(2) },
        ] {
            let mut cancelled = session(choice);
            cancelled.cancel_token().cancel();
            for result in cancelled.run_batch(&specs) {
                prop_assert!(
                    matches!(result, Err(SynthesisError::Cancelled { .. })),
                    "backend {} did not cancel", choice.name()
                );
            }
            prop_assert_eq!(cancelled.stats().failed, specs.len() as u64);
        }
    }

    /// `run_batch` through one warm session of each backend produces the
    /// same per-spec minimal costs as the other backend, with every spec
    /// sharing the parallel session's single device.
    #[test]
    fn batched_sessions_agree_spec_by_spec(base in 0u64..10_000) {
        let specs: Vec<Spec> =
            (0..4).filter_map(|k| small_spec(base + k, 3, 3)).collect();
        if specs.is_empty() { return Ok(()) }

        let mut sequential = session(BackendChoice::Sequential);
        let mut parallel = session(BackendChoice::DeviceParallel { threads: Some(2) });
        let device_stats_before = parallel.device().unwrap().stats();

        let cpu_results = sequential.run_batch(&specs);
        let gpu_results = parallel.run_batch(&specs);

        prop_assert_eq!(sequential.stats().runs, specs.len() as u64);
        prop_assert_eq!(parallel.stats().runs, specs.len() as u64);
        for ((spec, cpu), gpu) in specs.iter().zip(&cpu_results).zip(&gpu_results) {
            let cpu = cpu.as_ref().unwrap();
            let gpu = gpu.as_ref().unwrap();
            prop_assert_eq!(cpu.cost, gpu.cost, "spec {}", spec);
            prop_assert!(spec.is_satisfied_by(&cpu.regex));
            prop_assert!(spec.is_satisfied_by(&gpu.regex));
        }
        // Every run of the batch went through the one reusable device.
        let device_stats = parallel.device().unwrap().stats();
        prop_assert!(device_stats.kernel_launches > device_stats_before.kernel_launches);
    }

    /// Streamed-chunk level execution is invisible in the outcome: for
    /// every backend and every chunk bound — including the degenerate
    /// one-row-at-a-time stream and `usize::MAX`, which restores the
    /// seed's whole-level batches — the minimal cost matches the
    /// whole-level sequential baseline, and the result still classifies
    /// every example correctly.
    #[test]
    fn streamed_chunks_agree_with_whole_level_batches(seed in 0u64..10_000, examples in 2usize..4) {
        let Some(spec) = small_spec(seed, 3, examples) else { return Ok(()) };
        let whole = {
            let config = SynthConfig::new(CostFn::UNIFORM)
                .with_level_chunk_rows(usize::MAX);
            SynthSession::new(config).unwrap().run(&spec).unwrap()
        };
        prop_assert!(spec.is_satisfied_by(&whole.regex));
        for chunk_rows in [1usize, 7, 64, usize::MAX] {
            for choice in [
                BackendChoice::Sequential,
                BackendChoice::ThreadParallel { threads: Some(3) },
                BackendChoice::DeviceParallel { threads: Some(3) },
            ] {
                let config = SynthConfig::new(CostFn::UNIFORM)
                    .with_backend(choice)
                    .with_level_chunk_rows(chunk_rows)
                    .with_sched_chunk(2);
                let streamed = SynthSession::new(config).unwrap().run(&spec).unwrap();
                prop_assert_eq!(
                    streamed.cost, whole.cost,
                    "backend {} chunk {} on {}", choice.name(), chunk_rows, spec
                );
                prop_assert!(spec.is_satisfied_by(&streamed.regex));
            }
        }
    }

    /// The reported cost never exceeds the cost of the overfitted union of
    /// positives, which is the search's own upper bound.
    #[test]
    fn results_never_exceed_the_overfit_bound(seed in 0u64..10_000) {
        let Some(spec) = small_spec(seed, 3, 3) else { return Ok(()) };
        let result = session(BackendChoice::Sequential).run(&spec).unwrap();
        prop_assert!(result.cost <= spec.overfit_regex().cost(&CostFn::UNIFORM));
    }

    /// Minimality is monotone in the cost function: making the star more
    /// expensive can only increase (or keep) the total cost of the result.
    #[test]
    fn star_surcharge_is_monotone(seed in 0u64..10_000) {
        let Some(spec) = small_spec(seed, 3, 3) else { return Ok(()) };
        let cheap = session(BackendChoice::Sequential).run(&spec).unwrap();
        let mut pricey_session =
            SynthSession::new(SynthConfig::new(CostFn::new(1, 1, 5, 1, 1))).unwrap();
        let pricey = pricey_session.run(&spec).unwrap();
        // Evaluate both results under the uniform function: the result of
        // the uniform search is by definition minimal there.
        prop_assert!(cheap.cost <= pricey.regex.cost(&CostFn::UNIFORM));
    }
}

/// A closure of exactly 64 words fills one row block, so `(0+1)*` is the
/// all-ones row: the one row that equals the narrow dedup table's
/// empty-slot key. Every backend must still find the same minimal cost.
#[test]
fn backends_agree_on_a_64_word_closure() {
    let words: Vec<String> = (0..32u32).map(|bits| format!("{bits:05b}")).collect();
    for ending in ["1", "01"] {
        let (pos, mut neg): (Vec<&str>, Vec<&str>) = words
            .iter()
            .map(String::as_str)
            .partition(|w| w.ends_with(ending));
        neg.push("000000");
        let spec = Spec::from_strs(pos, neg).unwrap();
        assert_eq!(paresy::lang::InfixClosure::of_spec(&spec).len(), 64);
        let sequential = session(BackendChoice::Sequential).run(&spec).unwrap();
        assert!(spec.is_satisfied_by(&sequential.regex));
        for choice in [
            BackendChoice::ThreadParallel { threads: Some(2) },
            BackendChoice::DeviceParallel { threads: Some(2) },
        ] {
            let result = session(choice).run(&spec).unwrap();
            assert_eq!(
                result.cost,
                sequential.cost,
                "backend {} on {spec}",
                choice.name()
            );
            assert!(spec.is_satisfied_by(&result.regex));
        }
    }
}

/// The quick Table 1 pool solves on every backend through one session
/// each, and the level-execution counters stay consistent: every backend
/// claims chunks, the admission prefilter rejects at most every
/// candidate, dedup keeps at most every candidate, and only the
/// work-stealing backend steals.
#[test]
fn the_quick_pool_solves_on_every_backend_with_sane_level_counters() {
    let config = HarnessConfig::quick();
    let pool = benchmark_pool(&config);
    assert!(!pool.is_empty());
    let threads = Some(config.device_threads);
    for (choice, name) in [
        (BackendChoice::Sequential, "cpu-sequential"),
        (
            BackendChoice::ThreadParallel { threads },
            "cpu-thread-parallel",
        ),
        (
            BackendChoice::DeviceParallel { threads },
            "gpu-sim-parallel",
        ),
    ] {
        let synth = config.synth_config(REFERENCE.costs).with_backend(choice);
        let mut session = SynthSession::new(synth).unwrap();
        assert_eq!(session.backend_name(), name);
        for bench in &pool {
            let outcome = session.run(&bench.spec);
            assert!(outcome.is_ok(), "{name} on {}: {outcome:?}", bench.name);
        }
        let stats = *session.stats();
        assert_eq!(stats.solved, pool.len() as u64, "{name}: {stats:?}");
        assert!(stats.elapsed > std::time::Duration::ZERO, "{name}");
        assert!(stats.chunks_claimed > 0, "{name}: no chunks claimed");
        assert!(
            stats.unique_languages <= stats.candidates_generated,
            "{name}: more rows than candidates: {stats:?}"
        );
        assert!(
            stats.prefilter_rejects <= stats.candidates_generated,
            "{name}: more rejects than candidates: {stats:?}"
        );
        if name != "cpu-thread-parallel" {
            assert_eq!(stats.chunks_stolen, 0, "{name} cannot steal");
        }
    }
}

/// The thread-parallel and device backends count the same work: one
/// kernel launch per batch and one item per candidate row. The device
/// runs a warp of up to 64 rows per item, but its counter stays in rows
/// (never warps, never the padding of a batch's last warp), which is what
/// benchmark reports of `items_executed` compare across backends.
#[test]
fn thread_and_device_backends_count_the_same_launches_and_rows() {
    let spec = Spec::from_strs(
        ["10", "101", "100", "1010", "1011", "1000", "1001"],
        ["", "0", "1", "00", "11", "010"],
    )
    .unwrap();
    // Batches of at most 1000 rows: most end in a partial warp.
    let config = SynthConfig::new(CostFn::UNIFORM).with_level_chunk_rows(1000);
    let mut counted = Vec::new();
    for choice in [
        BackendChoice::ThreadParallel { threads: Some(2) },
        BackendChoice::DeviceParallel { threads: Some(2) },
    ] {
        let mut session = SynthSession::new(config.clone().with_backend(choice)).unwrap();
        let result = session.run(&spec).unwrap();
        assert_eq!(result.cost, 8);
        let stats = session.device().unwrap().stats();
        assert!(stats.kernel_launches > 1, "{}: {stats:?}", choice.name());
        assert!(
            stats.items_executed <= result.stats.candidates_generated,
            "{}: more items than candidates: {stats:?}",
            choice.name()
        );
        counted.push((stats.kernel_launches, stats.items_executed));
    }
    assert_eq!(counted[0], counted[1]);
}
