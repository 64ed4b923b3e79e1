//! The simulated SIMT device: a thread count, warps of rows and launch
//! counters, over the span executor [`for_each_span`]. There is no thread
//! pool: every multi-block kernel launch spawns its scoped workers afresh.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::DeviceStats;

/// Rows per warp, the unit one kernel item covers. A kernel may bit-slice
/// a warp into the bit lanes of one `u64`, so a warp is one machine word
/// wide.
pub const WARP_LANES: usize = 64;

/// Runs `f(span_index, span)` once for each `span_len`-element span of
/// `out`; the last span may be shorter.
///
/// With `workers <= 1` the spans run on the calling thread, in order.
/// Otherwise `workers` scoped threads are spawned for this call, and each
/// claims the next unclaimed span (in ascending order) until none is
/// left. The claim moves the span's `&mut` to exactly one thread, so `f`
/// needs no synchronisation on its span. The caller picks `workers`: it
/// is not capped by the number of spans.
///
/// # Example
///
/// ```
/// let mut out = vec![0usize; 10];
/// gpu_sim::for_each_span(3, &mut out, 4, |index, span| span.fill(index));
/// assert_eq!(out, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
/// ```
///
/// # Panics
///
/// Panics if `span_len` is zero, or if `f` panics on any thread.
pub fn for_each_span<T, F>(workers: usize, out: &mut [T], span_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let spans = out.chunks_mut(span_len).enumerate();
    if workers <= 1 {
        spans.for_each(|(index, span)| f(index, span));
        return;
    }
    let spans = Mutex::new(spans);
    let (spans, f) = (&spans, &f);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(move || loop {
                // The guard drops at the end of this statement, so `f`
                // runs without the lock (and cannot poison it).
                let next = spans.lock().expect("span cursor poisoned").next();
                let Some((index, span)) = next else { break };
                f(index, span);
            });
        }
    });
}

/// Configuration of a simulated device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Number of OS threads that play the role of streaming
    /// multiprocessors. Defaults to the available parallelism of the host.
    pub threads: usize,
    /// Number of rows each worker claims at a time (the "thread block"
    /// size), rounded up to whole warps of [`WARP_LANES`] rows. Larger
    /// blocks amortise scheduling overhead; smaller blocks balance
    /// irregular work better.
    pub block_size: usize,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        DeviceConfig {
            threads,
            block_size: 256,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    kernel_launches: AtomicU64,
    items_executed: AtomicU64,
    hash_insertions: AtomicU64,
}

/// A simulated data-parallel device.
///
/// A `Device` is cheap to clone (it is an [`Arc`] around its counters) and
/// is `Send + Sync`, so engines and benchmark harnesses can share one
/// device across components.
///
/// # Example
///
/// ```
/// use gpu_sim::{Device, DeviceConfig, WARP_LANES};
///
/// let device = Device::new(DeviceConfig { threads: 2, block_size: 64 });
/// // 100 one-element rows, padded to two warps.
/// let mut out = vec![0u32; 2 * WARP_LANES];
/// device.launch_chunks("fill", &mut out, 1, 100, |base, warp| {
///     for (lane, row) in warp.iter_mut().enumerate() {
///         *row = (base + lane) as u32;
///     }
/// });
/// assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32));
/// assert_eq!(device.stats().items_executed, 100);
/// ```
#[derive(Debug, Clone)]
pub struct Device {
    config: DeviceConfig,
    counters: Arc<Counters>,
}

impl Default for Device {
    fn default() -> Self {
        Device::new(DeviceConfig::default())
    }
}

impl Device {
    /// Creates a device with the given configuration.
    pub fn new(config: DeviceConfig) -> Self {
        let config = DeviceConfig {
            threads: config.threads.max(1),
            block_size: config.block_size.max(1),
        };
        Device {
            config,
            counters: Arc::new(Counters::default()),
        }
    }

    /// Creates a device with `threads` worker threads and the default block
    /// size.
    pub fn with_threads(threads: usize) -> Self {
        Device::new(DeviceConfig {
            threads,
            ..DeviceConfig::default()
        })
    }

    /// A "device" with a single worker thread: the sequential baseline with
    /// identical code paths, useful for ablations.
    pub fn sequential() -> Self {
        Device::with_threads(1)
    }

    /// The configuration the device was created with.
    pub fn config(&self) -> DeviceConfig {
        self.config
    }

    /// Resets the per-run execution counters so a device reused across
    /// many synthesis runs (one session, a whole benchmark suite) can
    /// report per-run deltas.
    ///
    /// Kernel-launch, item and hash-insertion counters are zeroed.
    pub fn reset_stats(&self) {
        self.counters.kernel_launches.store(0, Ordering::Relaxed);
        self.counters.items_executed.store(0, Ordering::Relaxed);
        self.counters.hash_insertions.store(0, Ordering::Relaxed);
    }

    /// A snapshot of the execution statistics.
    pub fn stats(&self) -> DeviceStats {
        DeviceStats {
            kernel_launches: self.counters.kernel_launches.load(Ordering::Relaxed),
            items_executed: self.counters.items_executed.load(Ordering::Relaxed),
            hash_insertions: self.counters.hash_insertions.load(Ordering::Relaxed),
        }
    }

    /// Launches a kernel over `rows` rows of `row_len` elements of `out`,
    /// one item per warp of [`WARP_LANES`] consecutive rows.
    ///
    /// This is the shape of every builder kernel in the synthesiser: the
    /// temporary output matrix is carved into per-candidate rows, and the
    /// item of warp `w` is called with the warp's first row index
    /// (`w * WARP_LANES`) and its `WARP_LANES * row_len` elements. The rows
    /// of a warp run in lock-step inside that one item, and no two items
    /// share an element, so no synchronisation is needed on the output
    /// (mirroring the write-once discipline of the paper's language cache).
    ///
    /// `out` holds whole warps: `rows` rounded up to a multiple of
    /// [`WARP_LANES`], times `row_len` elements. The padding rows of the
    /// last warp belong to its item; the caller ignores them.
    ///
    /// Scheduling and counters are in rows, not warps: a thread block is
    /// [`DeviceConfig::block_size`] rows (rounded up to whole warps), a
    /// launch of a single block runs inline on the calling thread, and the
    /// launch adds `rows` to [`DeviceStats::items_executed`].
    ///
    /// [`DeviceStats::items_executed`]: crate::DeviceStats::items_executed
    ///
    /// # Panics
    ///
    /// Panics if `row_len` is zero or `out.len()` is not the length of
    /// `rows` rows padded to whole warps.
    pub fn launch_chunks<T, F>(
        &self,
        _name: &str,
        out: &mut [T],
        row_len: usize,
        rows: usize,
        kernel: F,
    ) where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(row_len > 0, "row_len must be positive");
        let warps = rows.div_ceil(WARP_LANES);
        let warp_len = WARP_LANES * row_len;
        assert_eq!(
            out.len(),
            warps * warp_len,
            "output length must be `rows` padded to whole warps"
        );
        self.note_launch(rows);
        // One span per thread block and at most one worker per block,
        // capped by the device's hardware threads; a launch of one block
        // runs on the calling thread, which keeps the (very real) launch
        // overhead proportional to the work. Block-level claims amortise
        // the claiming cost over many warps.
        let block_warps = self.config.block_size.div_ceil(WARP_LANES);
        let blocks = warps.div_ceil(block_warps);
        let workers = self.config.threads.min(blocks);
        let block_rows = block_warps * WARP_LANES;
        for_each_span(workers, out, block_warps * warp_len, |block, span| {
            let base = block * block_rows;
            for (w, warp) in span.chunks_mut(warp_len).enumerate() {
                kernel(base + w * WARP_LANES, warp);
            }
        });
    }

    fn note_launch(&self, items: usize) {
        self.counters
            .kernel_launches
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .items_executed
            .fetch_add(items as u64, Ordering::Relaxed);
    }

    /// Records a kernel launch of `items` rows that was *run by the
    /// caller* rather than through [`Device::launch_chunks`].
    ///
    /// Backends that run their batches through [`for_each_span`]
    /// themselves (the thread-parallel CPU backend) use this so that
    /// launch and item counters stay comparable across backends in
    /// benchmark reports.
    pub fn record_launch(&self, items: usize) {
        self.note_launch(items);
    }

    /// Records `count` hash-set insertions in the device statistics.
    ///
    /// The concurrent sets themselves do not touch this counter so that
    /// kernel hot paths stay free of shared-counter contention; engines
    /// call this once per batch instead.
    pub fn record_hash_insertions(&self, count: u64) {
        self.counters
            .hash_insertions
            .fetch_add(count, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A buffer of `rows` one-element rows padded to whole warps.
    fn rows(rows: usize) -> Vec<u32> {
        vec![0; rows.div_ceil(WARP_LANES) * WARP_LANES]
    }

    #[test]
    fn every_span_is_visited_exactly_once() {
        const SPAN: usize = 5;
        for workers in [1, 2, 3, 8] {
            for spans in [0, 1, 7, 100] {
                // The last span is partial (3 of 5 elements) when any exist.
                let len = (spans * SPAN).saturating_sub(2);
                let mut out = vec![0u32; len];
                let visits: Vec<AtomicU64> = (0..spans).map(|_| AtomicU64::new(0)).collect();
                for_each_span(workers, &mut out, SPAN, |index, span| {
                    visits[index].fetch_add(1, Ordering::Relaxed);
                    let expected = SPAN.min(len - index * SPAN);
                    assert_eq!(span.len(), expected, "span {index}");
                    for x in span {
                        *x += 1;
                    }
                });
                let counts: Vec<u64> = visits.iter().map(|v| v.load(Ordering::Relaxed)).collect();
                assert!(
                    counts.iter().all(|&c| c == 1),
                    "{workers} x {spans}: {counts:?}"
                );
                assert!(out.iter().all(|&x| x == 1), "{workers} x {spans}");
            }
        }
    }

    #[test]
    fn one_worker_runs_spans_inline_in_order() {
        let caller = std::thread::current().id();
        for workers in [0, 1] {
            let order = Mutex::new(Vec::new());
            for_each_span(workers, &mut [0u8; 20], 3, |index, _| {
                assert_eq!(std::thread::current().id(), caller);
                order.lock().unwrap().push(index);
            });
            assert_eq!(order.into_inner().unwrap(), (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn each_worker_claims_spans_in_ascending_order() {
        let claims = Mutex::new(Vec::new());
        for_each_span(3, &mut [0u8; 200], 2, |index, _| {
            claims
                .lock()
                .unwrap()
                .push((std::thread::current().id(), index));
        });
        let claims = claims.into_inner().unwrap();
        assert_eq!(claims.len(), 100);
        for (thread, _) in &claims {
            let mine: Vec<usize> = claims
                .iter()
                .filter(|(t, _)| t == thread)
                .map(|&(_, index)| index)
                .collect();
            assert!(mine.windows(2).all(|w| w[0] < w[1]), "{mine:?}");
        }
    }

    #[test]
    fn launch_visits_every_item_exactly_once() {
        for (threads, block_size) in [(4, 64), (3, 100), (2, 8), (1, 256)] {
            let device = Device::new(DeviceConfig {
                threads,
                block_size,
            });
            let mut visits = rows(1000);
            device.launch_chunks("count", &mut visits, 1, 1000, |_, warp| {
                for v in warp {
                    *v += 1;
                }
            });
            assert!(visits.iter().all(|&v| v == 1), "{threads} x {block_size}");
        }
    }

    #[test]
    fn launch_chunks_gives_each_item_its_own_chunk() {
        let device = Device::new(DeviceConfig {
            threads: 3,
            block_size: 64,
        });
        // 130 rows of 4 elements: three warps, the last with 2 live rows.
        let mut out = vec![0u64; 3 * WARP_LANES * 4];
        device.launch_chunks("ids", &mut out, 4, 130, |base, warp| {
            assert_eq!(base % WARP_LANES, 0);
            assert_eq!(warp.len(), WARP_LANES * 4);
            for (j, slot) in warp.iter_mut().enumerate() {
                *slot = (base * 4 + j) as u64;
            }
        });
        let expected: Vec<u64> = (0..out.len() as u64).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn sequential_device_uses_one_worker() {
        let device = Device::sequential();
        let caller = std::thread::current().id();
        let mut out = rows(1000);
        device.launch_chunks("fill", &mut out, 1, 1000, |_, warp| {
            assert_eq!(std::thread::current().id(), caller);
            warp.fill(1);
        });
        assert!(out.iter().all(|&v| v == 1));
    }

    #[test]
    fn one_block_of_rows_runs_inline_and_two_spawn() {
        let device = Device::new(DeviceConfig {
            threads: 2,
            block_size: 256,
        });
        let caller = std::thread::current().id();
        let mut out = rows(256);
        device.launch_chunks("inline", &mut out, 1, 256, |_, _| {
            assert_eq!(std::thread::current().id(), caller);
        });
        let mut out = rows(257);
        let spawned = AtomicU64::new(0);
        device.launch_chunks("spawn", &mut out, 1, 257, |_, _| {
            let other = std::thread::current().id() != caller;
            spawned.fetch_add(u64::from(other), Ordering::Relaxed);
        });
        assert_eq!(spawned.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn empty_launch_is_a_noop() {
        let device = Device::with_threads(2);
        let mut out: Vec<u64> = Vec::new();
        device.launch_chunks("noop", &mut out, 8, 0, |_, _| unreachable!());
        assert_eq!(device.stats().items_executed, 0);
        assert_eq!(device.stats().kernel_launches, 1);
    }

    #[test]
    fn stats_count_launches_and_items() {
        let device = Device::with_threads(2);
        device.launch_chunks("a", &mut rows(10), 1, 10, |_, _| {});
        device.launch_chunks("b", &mut vec![0u8; 2 * WARP_LANES * 2], 2, 65, |_, _| {});
        let stats = device.stats();
        assert_eq!(stats.kernel_launches, 2);
        assert_eq!(stats.items_executed, 75);
    }

    #[test]
    fn reset_stats_gives_per_run_deltas_on_a_reused_device() {
        let device = Device::with_threads(2);
        device.launch_chunks("warm-up-run", &mut rows(10), 1, 10, |_, _| {});
        device.record_hash_insertions(3);
        assert_eq!(device.stats().kernel_launches, 1);

        device.reset_stats();
        let cleared = device.stats();
        assert_eq!(cleared.kernel_launches, 0);
        assert_eq!(cleared.items_executed, 0);
        assert_eq!(cleared.hash_insertions, 0);

        device.launch_chunks("second-run", &mut rows(7), 1, 7, |_, _| {});
        assert_eq!(device.stats().kernel_launches, 1);
        assert_eq!(device.stats().items_executed, 7);
    }

    #[test]
    #[should_panic(expected = "padded to whole warps")]
    fn mismatched_chunking_panics() {
        let device = Device::sequential();
        let mut out = vec![0u64; 10];
        device.launch_chunks("bad", &mut out, 1, 10, |_, _| {});
    }

    #[test]
    fn zero_thread_config_is_clamped() {
        let device = Device::new(DeviceConfig {
            threads: 0,
            block_size: 0,
        });
        assert_eq!(device.config().threads, 1);
        assert_eq!(device.config().block_size, 1);
        let mut out = rows(7);
        device.launch_chunks("fill", &mut out, 1, 7, |_, warp| warp.fill(1));
        assert_eq!(out, [1; WARP_LANES]);
    }
}
