//! The traced run: the per-layer ledger. Each layer is timed from the
//! benchmark's own files around public calls; README.md states which
//! end-to-end metric each layer metric should move, and on which workload.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rei_core::{NoopObserver, Sequential, ThreadParallel};
use rei_lang::{csops, GuideMasks, InfixClosure, MaskEntry, SatisfyMasks, Spec};

use crate::inputs::{Inputs, Reference, Rng};
use crate::report::{percentile, ratio, Report};
use crate::serve::{self, Scratch};
use crate::solve::{
    solve_pool, warm_session, warm_sessions, Dispatch, SearchTimer, TimedBackend, BACKENDS,
};

/// The share of the traced solve time that staging and dispatch may leave
/// unexplained before the ledger is reported open.
const LEDGER_SHARE: f64 = 0.15;

/// The share of `--seconds` the in-process replay and the TCP loop each
/// get.
const SERVE_SHARE: f64 = 0.2;

/// `ping` round trips timed after the TCP loop.
const PINGS: usize = 200;

/// The least time each kernel is timed for.
const KERNEL_TIME: Duration = Duration::from_millis(200);

/// Runs every layer of `inputs` and reports the ledger.
pub fn traced(inputs: &Inputs, reference: &Reference, budget: Duration, report: &mut Report) {
    search_and_dispatch(inputs, reference, report);
    staging(&inputs.pool, report);
    kernels(inputs, report);
    service_and_net(inputs, reference, budget.mul_f64(SERVE_SHARE), report);
}

/// The pool traced on every backend, between two untraced passes: the
/// tracing overhead, the search layer (on `cpu-sequential`), backend
/// dispatch, and the solve ledger.
fn search_and_dispatch(inputs: &Inputs, reference: &Reference, report: &mut Report) {
    let untraced_before = untraced_wall(inputs, reference, report);
    let (mut traced, mut solve, mut staging, mut busy) = (0.0, 0.0, 0.0, 0.0);
    for choice in BACKENDS {
        let dispatch = Arc::new(Dispatch::default());
        let backend = TimedBackend::new(choice.build(), Arc::clone(&dispatch));
        let mut session = warm_session(Box::new(backend));
        dispatch.take(); // forget the warm-up
        let device_before = session.device().map(|device| device.stats());
        let mut timer = SearchTimer::default();
        let (wall, stats) = solve_pool(&mut session, &inputs.pool, &mut timer, reference, report);
        let (batches, rows, busy_s) = dispatch.take();
        traced += wall;
        solve += timer.solve_s;
        staging += timer.first_level_s;
        busy += busy_s;

        let name = session.backend_name();
        let total =
            |field: fn(&rei_core::SynthesisStats) -> u64| stats.iter().map(field).sum::<u64>();
        report.metric(format!("dispatch.batches.{name}"), batches as f64, "count");
        report.metric(format!("dispatch.busy_s.{name}"), busy_s, "s");
        report.metric(
            format!("dispatch.rows_per_batch.{name}"),
            ratio(rows, batches),
            "count",
        );
        report.metric(
            format!("search.chunks_claimed.{name}"),
            total(|s| s.chunks_claimed) as f64,
            "count",
        );
        if name == ThreadParallel::NAME {
            report.metric(
                format!("search.chunks_stolen.{name}"),
                total(|s| s.chunks_stolen) as f64,
                "count",
            );
        }
        if let (Some(before), Some(device)) = (device_before, session.device()) {
            let after = device.stats();
            let launches = after.kernel_launches - before.kernel_launches;
            report.metric(
                format!("device.kernel_launches.{name}"),
                launches as f64,
                "count",
            );
            let items = after.items_executed - before.items_executed;
            report.metric(format!("device.items.{name}"), items as f64, "count");
        }
        if name == Sequential::NAME {
            let candidates = total(|s| s.candidates_generated);
            report.metric("search.first_level_s", timer.first_level_s, "s");
            report.metric("search.levels", timer.levels as f64, "count");
            report.metric("search.level_s", timer.level_s, "s");
            report.metric("search.candidates", candidates as f64, "count");
            report.metric(
                "search.unique_rate",
                ratio(total(|s| s.unique_languages), candidates),
                "ratio",
            );
            report.metric(
                "search.prefilter_reject_rate",
                ratio(total(|s| s.prefilter_rejects), total(|s| s.admission_folds)),
                "ratio",
            );
            report.metric("search.cache_rows", total(|s| s.cache_rows) as f64, "count");
        }
    }
    // One untraced pass on each side of the traced one, so that a drift of
    // the machine during the run does not read as tracing overhead.
    let untraced = (untraced_before + untraced_wall(inputs, reference, report)) / 2.0;
    report.metric("trace.overhead_s", traced - untraced, "s");

    let unattributed = solve - staging - busy;
    report.metric("ledger.solve_s", solve, "s");
    report.metric("ledger.staging_s", staging, "s");
    report.metric("ledger.dispatch_s", busy, "s");
    report.metric("ledger.unattributed_s", unattributed, "s");
    report.metric("ledger.staging_share", staging / solve, "ratio");
    report.metric("ledger.unattributed_share", unattributed / solve, "ratio");
    if (unattributed / solve).abs() > LEDGER_SHARE {
        eprintln!(
            "perfbench: the solve ledger is open: {unattributed:.4} s of {solve:.4} s unattributed"
        );
    }
}

/// The pool solved once on every backend without instruments: the wall
/// time, summed over the backends.
fn untraced_wall(inputs: &Inputs, reference: &Reference, report: &mut Report) -> f64 {
    let solve =
        |session: &mut _| solve_pool(session, &inputs.pool, &mut NoopObserver, reference, report).0;
    warm_sessions().iter_mut().map(solve).sum()
}

/// Staging of every pool spec, rebuilt layer by layer: the infix closure,
/// the guide masks and the satisfaction masks.
fn staging(pool: &[Spec], report: &mut Report) {
    let (mut closure_s, mut guide_s, mut satisfy_s) = (0.0, 0.0, 0.0);
    let (mut words, mut blocks, mut entries) = (0, 0, 0);
    for spec in pool {
        let started = Instant::now();
        let ic = InfixClosure::of_spec(spec);
        closure_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        let masks = GuideMasks::build(&ic);
        guide_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        black_box(SatisfyMasks::new(spec, &ic));
        satisfy_s += started.elapsed().as_secs_f64();
        words += ic.len();
        blocks += ic.width().blocks();
        entries += masks.total_entries();
    }
    let specs = pool.len() as u64;
    report.metric("stage.closure_s", closure_s, "s");
    report.metric("stage.guide_s", guide_s, "s");
    report.metric("stage.satisfy_s", satisfy_s, "s");
    report.metric("stage.closure_words", ratio(words as u64, specs), "count");
    report.metric("stage.row_blocks", ratio(blocks as u64, specs), "count");
    report.metric("stage.guide_entries", ratio(entries as u64, specs), "count");
}

/// The row kernels on random rows as wide as the pool's widest closure.
/// Operation counts and bytes are computed from the operands, not
/// measured.
fn kernels(inputs: &Inputs, report: &mut Report) {
    let spec = inputs
        .pool
        .iter()
        .max_by_key(|spec| {
            spec.iter()
                .map(|word| word.len() * word.len())
                .sum::<usize>()
        })
        .expect("the pool is not empty");
    let ic = InfixClosure::of_spec(spec);
    let masks = GuideMasks::build(&ic);
    let satisfy = SatisfyMasks::new(spec, &ic);
    let eps = ic.eps_index().expect("every closure holds the empty word");
    let blocks = ic.width().blocks();
    let mut rng = Rng::new(inputs.seed);
    let a = random_row(&mut rng, ic.len(), blocks);
    let b = random_row(&mut rng, ic.len(), blocks);
    let (mut dst, mut scratch) = (vec![0u64; blocks], vec![0u64; blocks]);

    let (concat_ns, concat_ops) =
        ns_per_op(|| csops::concat_into(&mut dst, black_box(&a), black_box(&b), &masks));
    let (star_ns, star_ops) =
        ns_per_op(|| csops::star_into(&mut dst, black_box(&a), &masks, eps, &mut scratch));
    let (pos, neg) = (satisfy.positive().blocks(), satisfy.negative().blocks());
    let (satisfy_ns, satisfy_ops) = ns_per_op(|| {
        black_box(csops::misclassified(black_box(&a), pos, neg));
    });
    let entries: usize = (0..ic.len())
        .filter(|&bit| a[bit / 64] >> (bit % 64) & 1 == 1)
        .map(|left| masks.row(left).len())
        .sum();
    let row_bytes = blocks * 8;
    report.metric("kernel.concat_ns", concat_ns, "ns");
    report.metric("kernel.star_ns", star_ns, "ns");
    report.metric("kernel.satisfy_ns", satisfy_ns, "ns");
    report.metric(
        "kernel.ops",
        (concat_ops + star_ops + satisfy_ops) as f64,
        "count",
    );
    report.metric("kernel.concat_entries_computed", entries as f64, "count");
    report.metric(
        "kernel.concat_bytes_computed",
        (entries * std::mem::size_of::<MaskEntry>() + 3 * row_bytes) as f64,
        "B",
    );
    report.metric("kernel.satisfy_bytes_computed", (3 * row_bytes) as f64, "B");
}

/// A row with about half of its `len` meaningful bits set.
fn random_row(rng: &mut Rng, len: usize, blocks: usize) -> Vec<u64> {
    (0..blocks)
        .map(|block| {
            let bits = len.saturating_sub(block * 64).min(64);
            let mask = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            rng.next_u64() & mask
        })
        .collect()
}

/// Mean nanoseconds per call of `op`, timed for at least [`KERNEL_TIME`],
/// and the number of calls.
fn ns_per_op(mut op: impl FnMut()) -> (f64, u64) {
    const BATCH: u64 = 64;
    let started = Instant::now();
    let mut ops = 0;
    while started.elapsed() < KERNEL_TIME {
        for _ in 0..BATCH {
            op();
        }
        ops += BATCH;
    }
    (started.elapsed().as_nanos() as f64 / ops as f64, ops)
}

/// The serve mix in process (`ShardRouter::submit`, `JobHandle::wait`,
/// then the router's `metrics()`), and again over TCP through
/// `NetServer`: the network's share of each TCP request is its latency
/// minus the `wait_ms` the service reports in the answer.
fn service_and_net(inputs: &Inputs, reference: &Reference, window: Duration, report: &mut Report) {
    let scratch = Scratch::create();
    let router = serve::start_router(&scratch.dir("in-process"));
    let hot = serve::prime(&router, inputs, reference, report);
    let local = serve::in_process(&router, inputs, reference, &hot, window, report);
    let rollup = router.metrics().rollup();
    router.shutdown();
    let p50 = |values: &[f64]| percentile(values, 50.0);
    report.metric("service.hit_us", local.hits.p50() * 1e3, "us");
    report.metric("service.miss_ms", local.misses.p50(), "ms");
    report.metric("service.queue_wait_ms", p50(&local.queue_wait), "ms");
    report.metric("service.run_ms", p50(&local.run), "ms");
    report.metric("service.cache_hit_rate", rollup.cache_hit_rate(), "ratio");
    report.metric("service.coalesced", rollup.coalesced as f64, "count");
    report.metric("service.wal_bytes", rollup.disk_bytes as f64, "B");

    let router = serve::start_router(&scratch.dir("tcp"));
    let hot = serve::prime(&router, inputs, reference, report);
    let running = serve::Running::start(serve::bind(router));
    let mut clients = running.clients(inputs, &hot, report);
    clients.run(inputs, window);
    let remote = clients.finish(reference, report);
    let pings = running.stop(PINGS, report);
    let hit_overhead = remote.hit_net.p50();
    report.metric("net.hit_overhead_ms", hit_overhead, "ms");
    report.metric("net.miss_overhead_ms", remote.miss_net.p50(), "ms");
    report.metric("net.ping_ms", p50(&pings), "ms");
    report.metric(
        "net.serve_rps",
        remote.answered as f64 / remote.elapsed,
        "1/s",
    );
    report.metric(
        "ledger.net_unattributed_ms",
        hit_overhead - p50(&pings),
        "ms",
    );
}
