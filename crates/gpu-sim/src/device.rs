//! The simulated SIMT device: a thread count and launch counters. There
//! is no thread pool: every multi-block kernel launch spawns its scoped
//! workers afresh.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::DeviceStats;

/// Configuration of a simulated device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Number of OS threads that play the role of streaming
    /// multiprocessors. Defaults to the available parallelism of the host.
    pub threads: usize,
    /// Number of items each worker claims at a time (the "thread block"
    /// size). Larger blocks amortise scheduling overhead; smaller blocks
    /// balance irregular work better.
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
/// use gpu_sim::{Device, DeviceConfig};
///
/// let device = Device::new(DeviceConfig { threads: 2, block_size: 8 });
/// let mut out = vec![0u32; 100];
/// device.launch_chunks("fill", &mut out, 1, |i, chunk| chunk[0] = i as u32);
/// assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32));
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

    /// Launches a kernel in which item `i` owns the `i`-th chunk of
    /// `chunk_len` elements of `out`.
    ///
    /// This is the shape of every builder kernel in the synthesiser: the
    /// temporary output matrix is carved into per-candidate rows and each
    /// simulated thread fills exactly one row, so no synchronisation is
    /// needed on the output (mirroring the write-once discipline of the
    /// paper's language cache).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero or `out.len()` is not a multiple of
    /// `chunk_len`.
    pub fn launch_chunks<T, F>(&self, _name: &str, out: &mut [T], chunk_len: usize, kernel: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be positive");
        assert_eq!(
            out.len() % chunk_len,
            0,
            "output length must be a multiple of chunk_len"
        );
        let items = out.len() / chunk_len;
        self.note_launch(items);
        if items == 0 {
            return;
        }
        // One worker per "thread block" of items, capped by the device's
        // hardware threads; small launches run on a single worker, which
        // keeps the (very real) launch overhead proportional to the work.
        let blocks = items.div_ceil(self.config.block_size);
        let workers = self.config.threads.min(blocks).max(1);
        if workers == 1 {
            for (i, chunk) in out.chunks_mut(chunk_len).enumerate() {
                kernel(i, chunk);
            }
            return;
        }
        // Distribute whole thread blocks (groups of `block_size` chunks)
        // over workers through a channel; ownership of each disjoint
        // `&mut` group moves to exactly one worker, which then iterates the
        // per-item chunks inside it. Block-level granularity keeps the
        // scheduling overhead amortised over many items.
        let group_len = chunk_len * self.config.block_size;
        let block_size = self.config.block_size;
        let (tx, rx) = crossbeam::channel::unbounded();
        for pair in out.chunks_mut(group_len).enumerate() {
            tx.send(pair).expect("channel send");
        }
        drop(tx);
        let kernel = &kernel;
        crossbeam::scope(|scope| {
            for _ in 0..workers {
                let rx = rx.clone();
                scope.spawn(move |_| {
                    while let Ok((group_idx, group)) = rx.recv() {
                        let base = group_idx * block_size;
                        for (offset, chunk) in group.chunks_mut(chunk_len).enumerate() {
                            kernel(base + offset, chunk);
                        }
                    }
                });
            }
        })
        .expect("kernel worker panicked");
    }

    fn note_launch(&self, items: usize) {
        self.counters
            .kernel_launches
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .items_executed
            .fetch_add(items as u64, Ordering::Relaxed);
    }

    /// Records a kernel launch of `items` items that was *scheduled by the
    /// caller* rather than through [`Device::launch_chunks`].
    ///
    /// Backends that partition work over their own scoped threads (the
    /// thread-parallel CPU backend) use this so that launch and item
    /// counters stay comparable across backends in benchmark reports.
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

    #[test]
    fn launch_visits_every_item_exactly_once() {
        let device = Device::new(DeviceConfig {
            threads: 4,
            block_size: 8,
        });
        let mut visits = vec![0u32; 1000];
        device.launch_chunks("count", &mut visits, 1, |_, chunk| chunk[0] += 1);
        assert!(visits.iter().all(|&v| v == 1));
    }

    #[test]
    fn launch_chunks_gives_each_item_its_own_chunk() {
        let device = Device::new(DeviceConfig {
            threads: 3,
            block_size: 4,
        });
        let mut out = vec![0u64; 12 * 4];
        device.launch_chunks("ids", &mut out, 4, |i, chunk| {
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = (i * 4 + j) as u64;
            }
        });
        let expected: Vec<u64> = (0..48).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn sequential_device_uses_one_worker() {
        let device = Device::sequential();
        let mut out = vec![0u8; 10];
        device.launch_chunks("fill", &mut out, 1, |i, chunk| chunk[0] = i as u8);
        assert_eq!(out, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn empty_launch_is_a_noop() {
        let device = Device::with_threads(2);
        let mut out: Vec<u64> = Vec::new();
        device.launch_chunks("noop", &mut out, 8, |_, _| unreachable!());
        assert_eq!(device.stats().items_executed, 0);
        assert_eq!(device.stats().kernel_launches, 1);
    }

    #[test]
    fn stats_count_launches_and_items() {
        let device = Device::with_threads(2);
        device.launch_chunks("a", &mut [0u8; 10], 1, |_, _| {});
        device.launch_chunks("b", &mut [0u8; 10], 2, |_, _| {});
        let stats = device.stats();
        assert_eq!(stats.kernel_launches, 2);
        assert_eq!(stats.items_executed, 15);
    }

    #[test]
    fn reset_stats_gives_per_run_deltas_on_a_reused_device() {
        let device = Device::with_threads(2);
        device.launch_chunks("warm-up-run", &mut [0u8; 10], 1, |_, _| {});
        device.record_hash_insertions(3);
        assert_eq!(device.stats().kernel_launches, 1);

        device.reset_stats();
        let cleared = device.stats();
        assert_eq!(cleared.kernel_launches, 0);
        assert_eq!(cleared.items_executed, 0);
        assert_eq!(cleared.hash_insertions, 0);

        device.launch_chunks("second-run", &mut [0u8; 7], 1, |_, _| {});
        assert_eq!(device.stats().kernel_launches, 1);
        assert_eq!(device.stats().items_executed, 7);
    }

    #[test]
    #[should_panic(expected = "multiple of chunk_len")]
    fn mismatched_chunking_panics() {
        let device = Device::sequential();
        let mut out = vec![0u64; 10];
        device.launch_chunks("bad", &mut out, 3, |_, _| {});
    }

    #[test]
    fn zero_thread_config_is_clamped() {
        let device = Device::new(DeviceConfig {
            threads: 0,
            block_size: 0,
        });
        assert_eq!(device.config().threads, 1);
        assert_eq!(device.config().block_size, 1);
        let mut out = vec![0u8; 7];
        device.launch_chunks("fill", &mut out, 1, |_, chunk| chunk[0] = 1);
        assert_eq!(out, [1; 7]);
    }
}
