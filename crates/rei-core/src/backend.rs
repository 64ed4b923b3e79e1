//! Execution backends: the open abstraction over *how* a cost level's
//! candidate rows are computed.
//!
//! Execution strategy is the open [`Backend`] trait, so new strategies
//! (chunked/rayon-style CPU,
//! a real GPU runtime, remote executors) can plug into the search without
//! touching the search core. Two implementations ship with this crate,
//! mirroring the paper's CPU/GPU split:
//!
//! * [`Sequential`] — one candidate at a time on the calling thread, with
//!   early exits; the reference implementation.
//! * [`ThreadParallel`] — each batch of a level is statically partitioned
//!   across worker threads, each running the fast sequential kernels
//!   (mask-based concatenation, star by squaring) with per-thread scratch
//!   rows and the shared concurrent uniqueness set; the multi-core CPU
//!   strategy.
//! * [`DeviceParallel`] — each batch of a level is materialised as
//!   data-parallel kernel items on an owned, reusable
//!   [`gpu_sim::Device`], one item per warp of 64 candidates whose
//!   concatenations run as one bit-sliced Algorithm-2 gather, mirroring
//!   the temporary-buffer → cache copy structure of the paper's GPU
//!   implementation.
//!
//! A backend receives each batch as a [`LevelBatch`] and either drives one
//! of the prebuilt strategies ([`LevelBatch::run_sequential`],
//! [`LevelBatch::run_on_device`]) or composes its own loop from the
//! per-candidate primitives ([`LevelBatch::compute_row`],
//! [`LevelBatch::admit`]).

use std::fmt;

use gpu_sim::{Device, DeviceConfig};

pub use crate::search::{BatchOutcome, LevelBatch, RowVerdict};

/// An execution strategy for the cost-ordered search.
///
/// Implementations must be deterministic in *outcome*: any two backends
/// must find expressions of the same minimal cost on the same
/// specification (the expressions themselves may differ between
/// equally-minimal candidates, as in the paper's CPU/GPU comparison).
pub trait Backend: fmt::Debug + Send + Sync {
    /// A short, stable, human-readable name.
    ///
    /// This is the single source of truth used by the CLI's `--backend`
    /// flag, the benchmark reports and the session statistics.
    fn name(&self) -> &'static str;

    /// The device owned by this backend, if any. The search uses it for
    /// statistics accounting; sessions expose it for reuse across runs.
    fn device(&self) -> Option<&Device> {
        None
    }

    /// Called once at the start of every run, before any level is built.
    /// Backends with warm per-run state reset it here.
    fn begin_run(&self) {}

    /// Processes one batch of same-cost candidate constructions.
    fn process(&self, batch: &mut LevelBatch<'_, '_>) -> BatchOutcome;
}

/// The reference CPU strategy: one candidate at a time with early exits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sequential;

impl Sequential {
    /// The canonical name of this backend.
    pub const NAME: &'static str = "cpu-sequential";
}

impl Backend for Sequential {
    fn name(&self) -> &'static str {
        Sequential::NAME
    }

    fn process(&self, batch: &mut LevelBatch<'_, '_>) -> BatchOutcome {
        batch.run_sequential()
    }
}

/// The multi-core CPU strategy: level batches are partitioned across
/// worker threads, each running the bit-parallel sequential kernels.
///
/// The backend owns a [`Device`] purely for statistics accounting
/// (launches, items, hash insertions accumulate there exactly as for
/// [`DeviceParallel`], so benchmark reports can compare backends); work
/// is scheduled over scoped threads by
/// [`LevelBatch::run_threaded`], not through the device's kernel
/// launcher.
#[derive(Debug, Clone)]
pub struct ThreadParallel {
    device: Device,
}

impl ThreadParallel {
    /// The canonical name of this backend.
    pub const NAME: &'static str = "cpu-thread-parallel";

    /// A backend with one worker per available core.
    pub fn new() -> Self {
        ThreadParallel {
            device: Device::new(DeviceConfig::default()),
        }
    }

    /// A backend with an explicit number of worker threads.
    pub fn with_threads(threads: usize) -> Self {
        ThreadParallel {
            device: Device::with_threads(threads),
        }
    }

    /// Number of worker threads the backend partitions batches over.
    pub fn threads(&self) -> usize {
        self.device.config().threads
    }
}

impl Default for ThreadParallel {
    fn default() -> Self {
        ThreadParallel::new()
    }
}

impl Backend for ThreadParallel {
    fn name(&self) -> &'static str {
        ThreadParallel::NAME
    }

    fn device(&self) -> Option<&Device> {
        Some(&self.device)
    }

    fn process(&self, batch: &mut LevelBatch<'_, '_>) -> BatchOutcome {
        batch.run_threaded(self.threads())
    }
}

/// The data-parallel strategy: level batches run as kernels on an owned,
/// reusable simulated SIMT [`Device`].
///
/// One kernel item is a warp of up to 64 consecutive candidates of a
/// batch ([`LevelBatch::run_on_device`]). The warp's concatenations run
/// the paper's branch-free per-word gather over the guide table
/// (Algorithm 2) bit sliced, so one `u64` operation covers all 64 lanes;
/// its other candidates run the CPU kernels. Thread blocks and the
/// device's `items_executed` counter are in candidate rows, so the
/// counters compare one to one with [`ThreadParallel`]'s.
///
/// The device is created once (per backend) and shared across every run of
/// the owning session. It carries a thread count and counters, not a
/// thread pool: each batch spawns its workers afresh. Its statistics
/// accumulate per session rather than per specification; use
/// [`Device::reset_stats`] for per-run deltas.
#[derive(Debug, Clone)]
pub struct DeviceParallel {
    device: Device,
}

impl DeviceParallel {
    /// The canonical name of this backend.
    pub const NAME: &'static str = "gpu-sim-parallel";

    /// A backend on a device with the default configuration (one worker
    /// per available core).
    pub fn new() -> Self {
        DeviceParallel {
            device: Device::new(DeviceConfig::default()),
        }
    }

    /// A backend on a device with an explicit number of worker threads.
    pub fn with_threads(threads: usize) -> Self {
        DeviceParallel {
            device: Device::with_threads(threads),
        }
    }

    /// A backend on an existing device (shared statistics).
    pub fn with_device(device: Device) -> Self {
        DeviceParallel { device }
    }
}

impl Default for DeviceParallel {
    fn default() -> Self {
        DeviceParallel::new()
    }
}

impl Backend for DeviceParallel {
    fn name(&self) -> &'static str {
        DeviceParallel::NAME
    }

    fn device(&self) -> Option<&Device> {
        Some(&self.device)
    }

    fn process(&self, batch: &mut LevelBatch<'_, '_>) -> BatchOutcome {
        batch.run_on_device(&self.device)
    }
}

/// A serializable selector for the built-in backends, used by
/// [`SynthConfig`](crate::SynthConfig), the CLI's `--backend` flag and the
/// benchmark harness.
///
/// Unlike a [`Backend`] instance (which may own live device state), a
/// choice is plain data: `Copy`, comparable, and round-trippable through
/// [`fmt::Display`] / [`std::str::FromStr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// The reference CPU strategy ([`Sequential`]).
    #[default]
    Sequential,
    /// The multi-core CPU strategy ([`ThreadParallel`]).
    ThreadParallel {
        /// Worker threads; `None` uses one per core.
        threads: Option<usize>,
    },
    /// The data-parallel strategy ([`DeviceParallel`]).
    DeviceParallel {
        /// Worker threads of the device; `None` uses one per core.
        threads: Option<usize>,
    },
}

impl BackendChoice {
    /// The data-parallel choice with the default thread count.
    pub fn parallel() -> Self {
        BackendChoice::DeviceParallel { threads: None }
    }

    /// The multi-core CPU choice with the default thread count.
    pub fn threaded() -> Self {
        BackendChoice::ThreadParallel { threads: None }
    }

    /// The canonical backend name this choice resolves to (the same string
    /// the built [`Backend::name`] reports).
    pub fn name(&self) -> &'static str {
        match self {
            BackendChoice::Sequential => Sequential::NAME,
            BackendChoice::ThreadParallel { .. } => ThreadParallel::NAME,
            BackendChoice::DeviceParallel { .. } => DeviceParallel::NAME,
        }
    }

    /// Constructs the chosen backend.
    pub fn build(&self) -> Box<dyn Backend> {
        match self {
            BackendChoice::Sequential => Box::new(Sequential),
            BackendChoice::ThreadParallel { threads: None } => Box::new(ThreadParallel::new()),
            BackendChoice::ThreadParallel { threads: Some(n) } => {
                Box::new(ThreadParallel::with_threads(*n))
            }
            BackendChoice::DeviceParallel { threads: None } => Box::new(DeviceParallel::new()),
            BackendChoice::DeviceParallel { threads: Some(n) } => {
                Box::new(DeviceParallel::with_threads(*n))
            }
        }
    }

    /// Parses a backend name: a canonical [`name`](BackendChoice::name) or
    /// one of the aliases `sequential`/`cpu`, `threads`/`thread-parallel`
    /// and `parallel`/`gpu`. The multi-threaded forms accept a
    /// `:<threads>` suffix, e.g. `parallel:8` or `threads:4`.
    pub fn parse(raw: &str) -> Option<Self> {
        let (base, threads) = match raw.split_once(':') {
            Some((base, t)) => (base, Some(t.parse::<usize>().ok()?)),
            None => (raw, None),
        };
        match base {
            _ if base == Sequential::NAME => threads.is_none().then_some(BackendChoice::Sequential),
            "sequential" | "cpu" => threads.is_none().then_some(BackendChoice::Sequential),
            _ if base == ThreadParallel::NAME => Some(BackendChoice::ThreadParallel { threads }),
            "threads" | "thread-parallel" => Some(BackendChoice::ThreadParallel { threads }),
            _ if base == DeviceParallel::NAME => Some(BackendChoice::DeviceParallel { threads }),
            "parallel" | "gpu" => Some(BackendChoice::DeviceParallel { threads }),
            _ => None,
        }
    }
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendChoice::ThreadParallel { threads: Some(n) }
            | BackendChoice::DeviceParallel { threads: Some(n) } => {
                write!(f, "{}:{n}", self.name())
            }
            _ => f.write_str(self.name()),
        }
    }
}

impl std::str::FromStr for BackendChoice {
    type Err = String;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        BackendChoice::parse(raw).ok_or_else(|| {
            format!(
                "unknown backend '{raw}' (expected '{}', '{}', '{}', or aliases \
                 'sequential'/'cpu'/'threads'/'thread-parallel'/'parallel'/'gpu', \
                 optionally with a thread count as in 'parallel:<threads>')",
                Sequential::NAME,
                ThreadParallel::NAME,
                DeviceParallel::NAME
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_the_single_source_of_truth() {
        assert_eq!(Sequential.name(), Sequential::NAME);
        assert_eq!(ThreadParallel::new().name(), ThreadParallel::NAME);
        assert_eq!(DeviceParallel::new().name(), DeviceParallel::NAME);
        assert_eq!(BackendChoice::Sequential.name(), Sequential::NAME);
        assert_eq!(BackendChoice::threaded().name(), ThreadParallel::NAME);
        assert_eq!(BackendChoice::parallel().name(), DeviceParallel::NAME);
        assert_eq!(BackendChoice::Sequential.build().name(), Sequential::NAME);
        assert_eq!(
            BackendChoice::threaded().build().name(),
            ThreadParallel::NAME
        );
        assert_eq!(
            BackendChoice::parallel().build().name(),
            DeviceParallel::NAME
        );
    }

    #[test]
    fn thread_parallel_owns_a_stats_device() {
        let backend = ThreadParallel::with_threads(3);
        assert_eq!(backend.threads(), 3);
        assert_eq!(backend.device().unwrap().config().threads, 3);
        backend.device().unwrap().record_hash_insertions(5);
        assert_eq!(backend.device().unwrap().stats().hash_insertions, 5);
    }

    #[test]
    fn devices_are_owned_and_reusable() {
        assert!(Sequential.device().is_none());
        let backend = DeviceParallel::with_threads(3);
        assert_eq!(backend.device().unwrap().config().threads, 3);
        let shared = Device::with_threads(2);
        let reused = DeviceParallel::with_device(shared.clone());
        reused.device().unwrap().record_hash_insertions(7);
        assert_eq!(shared.stats().hash_insertions, 7);
    }

    /// Drives a batch through the per-candidate primitives, one
    /// `compute_row` and one `admit` per row, as a custom backend would.
    #[derive(Debug)]
    struct PerRow(Device);

    impl Backend for PerRow {
        fn name(&self) -> &'static str {
            "test-per-row"
        }

        fn device(&self) -> Option<&Device> {
            Some(&self.0)
        }

        fn process(&self, batch: &mut LevelBatch<'_, '_>) -> BatchOutcome {
            let blocks = batch.row_blocks();
            let (mut row, mut scratch) = (vec![0u64; blocks], vec![0u64; blocks]);
            for k in 0..batch.len() {
                batch.compute_row(k, &mut row, &mut scratch);
                if let RowVerdict::Found(prov) = batch.admit(k, &row) {
                    return BatchOutcome::Found(prov);
                }
            }
            BatchOutcome::Continue
        }
    }

    /// `cpu-sequential` with a device of its own, so its hash insertions
    /// (recorded once per batch) can be read back.
    #[derive(Debug)]
    struct CountedSequential(Device);

    impl Backend for CountedSequential {
        fn name(&self) -> &'static str {
            Sequential::NAME
        }

        fn device(&self) -> Option<&Device> {
            Some(&self.0)
        }

        fn process(&self, batch: &mut LevelBatch<'_, '_>) -> BatchOutcome {
            batch.run_sequential()
        }
    }

    #[test]
    fn per_row_admission_accounts_like_run_sequential() {
        use crate::{SynthConfig, SynthSession, SynthesisError};
        use rei_syntax::CostFn;
        let spec = rei_lang::Spec::from_strs(
            ["10", "101", "100", "1010", "1011", "1000", "1001"],
            ["", "0", "1", "00", "11", "010"],
        )
        .unwrap();
        // The default budget; one on which OnTheFly mode runs out of
        // operands; and one on which the cache fills mid-level, so later
        // rows of the same batch skip the dedup set, and the search still
        // finds the answer.
        let mut went_on_the_fly = false;
        for budget in [None, Some(8000), Some(10000)] {
            let mut config = SynthConfig::new(CostFn::UNIFORM).with_level_chunk_rows(64);
            if let Some(bytes) = budget {
                config = config.with_memory_budget(bytes);
            }
            let run = |backend: Box<dyn Backend>| {
                let mut session = SynthSession::with_backend(config.clone(), backend).unwrap();
                let (cost, stats) = match session.run(&spec) {
                    Ok(result) => (Some(result.cost), result.stats),
                    Err(SynthesisError::OutOfMemory { stats, .. }) => (None, stats),
                    Err(err) => panic!("budget {budget:?}: {err:?}"),
                };
                let inserted = session.device().map(|d| d.stats().hash_insertions);
                (cost, stats, inserted)
            };
            let (cost, stats, _) = run(Box::new(Sequential));
            went_on_the_fly |= stats.used_on_the_fly;
            let (_, _, batched) = run(Box::new(CountedSequential(Device::sequential())));
            let (per_row_cost, per_row, inserted) = run(Box::new(PerRow(Device::sequential())));
            assert!(batched.unwrap() > 0);
            assert_eq!(inserted, batched, "budget {budget:?}");
            assert_eq!(per_row_cost, cost, "budget {budget:?}");
            assert_eq!(per_row.unique_languages, stats.unique_languages);
            assert_eq!(per_row.admission_folds, stats.admission_folds);
            assert_eq!(per_row.used_on_the_fly, stats.used_on_the_fly);
        }
        assert!(went_on_the_fly, "no budget reached OnTheFly mode");
    }

    #[test]
    fn choice_parsing_round_trips() {
        for raw in ["cpu-sequential", "sequential", "cpu"] {
            assert_eq!(BackendChoice::parse(raw), Some(BackendChoice::Sequential));
        }
        for raw in ["cpu-thread-parallel", "threads", "thread-parallel"] {
            assert_eq!(
                BackendChoice::parse(raw),
                Some(BackendChoice::ThreadParallel { threads: None })
            );
        }
        for raw in ["gpu-sim-parallel", "parallel", "gpu"] {
            assert_eq!(
                BackendChoice::parse(raw),
                Some(BackendChoice::DeviceParallel { threads: None })
            );
        }
        assert_eq!(
            BackendChoice::parse("parallel:8"),
            Some(BackendChoice::DeviceParallel { threads: Some(8) })
        );
        assert_eq!(
            BackendChoice::parse("threads:4"),
            Some(BackendChoice::ThreadParallel { threads: Some(4) })
        );
        assert_eq!(BackendChoice::parse("sequential:8"), None);
        assert_eq!(BackendChoice::parse("quantum"), None);

        for choice in [
            BackendChoice::Sequential,
            BackendChoice::threaded(),
            BackendChoice::ThreadParallel { threads: Some(2) },
            BackendChoice::parallel(),
            BackendChoice::DeviceParallel { threads: Some(4) },
        ] {
            let rendered = choice.to_string();
            assert_eq!(rendered.parse::<BackendChoice>().unwrap(), choice);
        }
        assert!("quantum".parse::<BackendChoice>().is_err());
    }
}
