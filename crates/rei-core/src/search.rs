//! The bottom-up, cost-ordered search over characteristic sequences.
//!
//! This module implements Algorithms 1 and 2 of the paper. The search is
//! parameterised by a [`Backend`]: each batch of a cost level's candidate
//! constructions is handed to the backend as a [`LevelBatch`], which runs
//! the reference sequential loop ([`LevelBatch::run_sequential`]),
//! partitions the batch across worker threads running the bit-parallel
//! mask kernels ([`LevelBatch::run_threaded`]), or computes the batch as
//! data-parallel kernel items, one warp of 64 candidates each, on a
//! [`gpu_sim::Device`] ([`LevelBatch::run_on_device`]), mirroring the
//! temporary-buffer → cache copy of the paper's GPU implementation.
//!
//! Between batches and between levels the search polls a [`StopCheck`]
//! (deadline + cooperative [`CancelToken`]) and reports each completed
//! level to the run's [`Observer`].

use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use gpu_sim::hashset::CsSet;
use gpu_sim::{Device, WARP_LANES};
use parking_lot::Mutex;
use rei_lang::{
    csops, AdmissionPrefilter, Alphabet, CsWidth, GuideMasks, GuideTable, InfixClosure,
    SatisfyMasks, Spec,
};
use rei_syntax::CostFn;

use crate::backend::Backend;
use crate::cache::{LanguageCache, Provenance};
use crate::observe::{CancelToken, Observer};
use crate::result::{LevelStats, SynthesisError, SynthesisResult, SynthesisStats};
use crate::sched::StealScheduler;

/// Hard cap on candidate rows materialised per streamed level chunk (and
/// therefore per kernel launch) when the configuration does not pin
/// `level_chunk_rows` itself. Matches the seed's whole-level batch bound.
const MAX_LEVEL_CHUNK_ROWS: usize = 1 << 16;

/// Floor of the derived chunk size: below this the per-chunk dispatch
/// overhead dominates the kernels.
const MIN_LEVEL_CHUNK_ROWS: usize = 256;

/// Default rows per work-stealing claim of the thread-parallel strategy.
const DEFAULT_SCHED_CHUNK: usize = 64;

/// Steal fraction above which a level counts as contended: the next level
/// halves the work-stealing chunk so the tail spreads better.
const STEAL_RATE_SHRINK: f64 = 0.25;

/// Steal fraction below which a level counts as calm: the chunk grows
/// back towards the configured size.
const STEAL_RATE_GROW: f64 = 0.10;

/// Floor of the adapted chunk size; below this the per-claim scheduler
/// overhead dominates the kernels.
const MIN_SCHED_CHUNK: usize = 8;

/// The steal-rate feedback rule for the work-stealing chunk size (see
/// [`Search::adapt_sched_chunk`]): `current` is this level's chunk, `cap`
/// the configured (or default) size the chunk may grow back to, and
/// `claimed`/`stolen` the scheduler counters observed over one level.
fn adapted_sched_chunk(current: usize, cap: usize, claimed: u64, stolen: u64) -> usize {
    if claimed == 0 {
        return current;
    }
    let rate = stolen as f64 / claimed as f64;
    if rate > STEAL_RATE_SHRINK {
        (current / 2).max(MIN_SCHED_CHUNK.min(cap))
    } else if rate < STEAL_RATE_GROW && current < cap {
        (current * 2).min(cap)
    } else {
        current
    }
}

/// Derives the streamed-chunk bound from the cache's memory budget: the
/// in-flight batch buffer (`rows * stride` words) may use about 1/16 of
/// the budget, clamped to `[MIN, MAX]_LEVEL_CHUNK_ROWS`.
fn default_level_chunk_rows(memory_budget: usize, stride: usize) -> usize {
    ((memory_budget / 16) / (stride * std::mem::size_of::<u64>()))
        .clamp(MIN_LEVEL_CHUNK_ROWS, MAX_LEVEL_CHUNK_ROWS)
}

/// Everything the search needs about the problem, assembled by
/// [`crate::SynthSession`].
pub(crate) struct SearchParams<'a> {
    pub spec: &'a Spec,
    pub alphabet: Alphabet,
    pub costs: CostFn,
    pub memory_budget: usize,
    pub allowed_errors: usize,
    pub max_cost: u64,
    pub started: Instant,
    /// Rows per work-stealing claim; `None` picks
    /// [`DEFAULT_SCHED_CHUNK`].
    pub sched_chunk: Option<usize>,
    /// Rows per streamed level chunk; `None` derives the bound from the
    /// memory budget ([`default_level_chunk_rows`]).
    pub level_chunk_rows: Option<usize>,
}

/// The unified stop condition, polled between batches and between levels:
/// an optional wall-clock deadline (the old ad-hoc time-budget check) and
/// an optional cooperative cancellation token.
#[derive(Debug, Clone, Default)]
pub(crate) struct StopCheck {
    pub deadline: Option<Instant>,
    /// The configured budget, reported in [`SynthesisError::Timeout`].
    pub budget: Duration,
    pub cancel: Option<CancelToken>,
}

impl StopCheck {
    fn poll(&self) -> Option<Stop> {
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                return Some(Stop::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Some(Stop::TimedOut);
            }
        }
        None
    }
}

#[derive(Debug, Clone, Copy)]
enum Stop {
    TimedOut,
    Cancelled,
}

/// Warm per-session buffers reused across runs, owned by
/// [`crate::SynthSession`]. Reusing the device batch buffer across the
/// specs of a `run_batch` avoids re-allocating a multi-megabyte temporary
/// per spec — part of the amortisation the session API exists for.
#[derive(Debug, Default)]
pub(crate) struct SessionScratch {
    batch_rows: Vec<u64>,
    /// The in-flight job chunk of the streamed level driver. Bounded by
    /// the resolved `level_chunk_rows`, warm across chunks, levels and
    /// runs.
    jobs: Vec<Job>,
}

/// A candidate construction at the current cost level: the outermost
/// constructor plus cache indices of its operands.
#[derive(Debug, Clone, Copy)]
enum Job {
    Question(u32),
    Star(u32),
    Concat(u32, u32),
    Union(u32, u32),
}

impl Job {
    fn provenance(self) -> Provenance {
        match self {
            Job::Question(i) => Provenance::Question(i),
            Job::Star(i) => Provenance::Star(i),
            Job::Concat(l, r) => Provenance::Concat(l, r),
            Job::Union(l, r) => Provenance::Union(l, r),
        }
    }
}

/// One contiguous run of same-shape candidate constructions of a cost
/// level, described by cache index ranges instead of materialised jobs.
#[derive(Debug, Clone)]
enum JobSegment {
    /// `r?` over a range of operand indices.
    Question(Range<u32>),
    /// `r*` over a range of operand indices.
    Star(Range<u32>),
    /// A binary constructor over the cross product `left × right`. When
    /// `triangular` is set (a commutative constructor whose operand costs
    /// coincide, so `left == right`), only the ordered pairs `r >= l` are
    /// generated — exactly the seed's duplicate-skipping rule.
    Binary {
        union: bool,
        left: Range<u32>,
        right: Range<u32>,
        triangular: bool,
    },
}

impl JobSegment {
    fn len(&self) -> u64 {
        match self {
            JobSegment::Question(range) | JobSegment::Star(range) => range.len() as u64,
            JobSegment::Binary {
                left,
                right,
                triangular,
                ..
            } => {
                if *triangular {
                    let n = left.len() as u64;
                    n * (n + 1) / 2
                } else {
                    left.len() as u64 * right.len() as u64
                }
            }
        }
    }
}

/// The resumable enumeration of one cost level's candidate constructions
/// (the loop bodies of Algorithm 1), yielding bounded chunks instead of
/// one whole-level `Vec`.
///
/// The stream is described up front by a handful of [`JobSegment`] index
/// ranges copied out of the cache's *startPoints* map — it borrows
/// nothing, so the level driver can hand the search (and the cache) to a
/// backend while the stream is suspended. Enumeration order is identical
/// to the seed's whole-level materialisation: `?`, `*`, `·` (left cost
/// ascending), `+`.
#[derive(Debug)]
struct JobStream {
    segments: Vec<JobSegment>,
    /// Current segment.
    seg: usize,
    /// Cursor within the current segment: the operand index for unary
    /// segments, the left operand index for binary ones.
    pos: u32,
    /// Right operand cursor of a binary segment.
    rpos: u32,
    /// Total candidates over all segments.
    total: u64,
}

impl JobStream {
    /// Stages the enumeration of every construction of exactly `cost`
    /// from the cached lower-cost rows.
    fn for_level(cost: u64, costs: &CostFn, cache: &LanguageCache) -> Self {
        let range_of = |c: u64| {
            let r = cache.indices_of_cost(c);
            r.start as u32..r.end as u32
        };
        let mut segments = Vec::new();
        // r? with cost(r) = cost - cost(?).
        if let Some(operand) = cost.checked_sub(costs.question) {
            let range = range_of(operand);
            if !range.is_empty() {
                segments.push(JobSegment::Question(range));
            }
        }
        // r* with cost(r) = cost - cost(*).
        if let Some(operand) = cost.checked_sub(costs.star) {
            let range = range_of(operand);
            if !range.is_empty() {
                segments.push(JobSegment::Star(range));
            }
        }
        // r·s with cost(r) + cost(s) = cost - cost(·), then r+s likewise.
        // Union is commutative, so only ordered pairs (left cost <= right
        // cost, and r >= l on the diagonal) are generated.
        for (ctor_cost, union) in [(costs.concat, false), (costs.union, true)] {
            let Some(remaining) = cost.checked_sub(ctor_cost) else {
                continue;
            };
            if remaining < 2 * costs.literal {
                continue;
            }
            for left_cost in costs.literal..=(remaining - costs.literal) {
                let right_cost = remaining - left_cost;
                if union && left_cost > right_cost {
                    break;
                }
                let left = range_of(left_cost);
                let right = range_of(right_cost);
                if left.is_empty() || right.is_empty() {
                    continue;
                }
                segments.push(JobSegment::Binary {
                    union,
                    left,
                    right,
                    triangular: union && left_cost == right_cost,
                });
            }
        }
        let total = segments.iter().map(JobSegment::len).sum();
        let mut stream = JobStream {
            segments,
            seg: 0,
            pos: 0,
            rpos: 0,
            total,
        };
        stream.rewind_cursor();
        stream
    }

    /// Total number of candidates the stream yields.
    fn total(&self) -> u64 {
        self.total
    }

    /// Positions the cursors at the start of the current segment.
    fn rewind_cursor(&mut self) {
        match self.segments.get(self.seg) {
            Some(JobSegment::Question(range)) | Some(JobSegment::Star(range)) => {
                self.pos = range.start;
            }
            Some(JobSegment::Binary { left, right, .. }) => {
                self.pos = left.start;
                // On the diagonal of a triangular segment `left == right`,
                // so starting at `right.start` is starting at `l`.
                self.rpos = right.start;
            }
            None => {}
        }
    }

    /// Appends up to `cap - out.len()` further jobs to `out`, suspending
    /// mid-segment when the cap is hit. Returns `false` once the stream
    /// is exhausted and `out` received nothing.
    fn fill(&mut self, out: &mut Vec<Job>, cap: usize) -> bool {
        let before = out.len();
        while out.len() < cap {
            let Some(segment) = self.segments.get(self.seg) else {
                break;
            };
            match segment {
                JobSegment::Question(range) | JobSegment::Star(range) => {
                    let star = matches!(segment, JobSegment::Star(_));
                    while out.len() < cap && self.pos < range.end {
                        out.push(if star {
                            Job::Star(self.pos)
                        } else {
                            Job::Question(self.pos)
                        });
                        self.pos += 1;
                    }
                    if self.pos < range.end {
                        break;
                    }
                }
                JobSegment::Binary {
                    union,
                    left,
                    right,
                    triangular,
                } => {
                    'rows: while self.pos < left.end {
                        while self.rpos < right.end {
                            if out.len() >= cap {
                                break 'rows;
                            }
                            out.push(if *union {
                                Job::Union(self.pos, self.rpos)
                            } else {
                                Job::Concat(self.pos, self.rpos)
                            });
                            self.rpos += 1;
                        }
                        self.pos += 1;
                        self.rpos = if *triangular { self.pos } else { right.start };
                    }
                    if self.pos < left.end {
                        break;
                    }
                }
            }
            self.seg += 1;
            self.rewind_cursor();
        }
        out.len() > before
    }
}

/// Computes the characteristic sequence of one candidate with the fast
/// CPU kernels (mask-based concatenation, star by squaring).
///
/// This is the kernel body shared by the sequential path
/// ([`Search::compute_row`]) and the thread-parallel workers
/// ([`LevelBatch::run_threaded`]). The data-parallel device runs it for
/// every lane except concatenations, which it computes a warp at a time
/// with the branch-free GPU-style `csops::concat_warp`
/// ([`LevelBatch::run_on_device`]).
fn compute_job_row(
    job: Job,
    row: &mut [u64],
    scratch: &mut [u64],
    cache: &LanguageCache,
    guide_masks: &GuideMasks,
    eps_index: usize,
) {
    match job {
        Job::Question(i) => csops::question_into(row, cache.row(i), eps_index),
        Job::Star(i) => csops::star_into(row, cache.row(i), guide_masks, eps_index, scratch),
        Job::Concat(l, r) => csops::concat_into(row, cache.row(l), cache.row(r), guide_masks),
        Job::Union(l, r) => csops::or_into(row, cache.row(l), cache.row(r)),
    }
}

thread_local! {
    /// Scratch of the device kernel: the warp's lane columns
    /// (`csops::concat_warp`) followed by one star scratch row. The device
    /// schedules warps rather than workers, so per-worker reusable state
    /// lives in a thread local instead of a per-warp heap allocation.
    static WARP_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

// The warp kernel bit-slices a warp's rows into the lanes of one `u64`.
const _: () = assert!(WARP_LANES == u64::BITS as usize);

/// Flag-word bit: the row was new to the uniqueness set.
const FLAG_UNIQUE: u64 = 1;
/// Flag-word bit: the row satisfies the specification.
const FLAG_SATISFIES: u64 = 2;
/// Flag-word bit: the single-block prefilter rejected the row, so the
/// full satisfaction check never ran.
const FLAG_PREFILTERED: u64 = 4;
/// Flag-word bit: admission ran for the row (prefilter and/or full fold).
/// Counted on the serial host pass into `admission_folds`, the counter
/// the refinement tier uses to prove an unchanged spec re-ran nothing.
const FLAG_CHECKED: u64 = 8;

/// The kernel-side admission protocol shared by the parallel strategies:
/// resets the per-item flag word, records uniqueness ([`FLAG_UNIQUE`])
/// through the shared concurrent set (wide rows are hashed once, while
/// still hot, inside the sharded set's insert — see
/// `ShardedSet::insert_hashed`), then runs the two-phase satisfaction
/// check:
/// the cheap single-block prefilter first ([`FLAG_PREFILTERED`] when it
/// proves the row cannot satisfy), the full mask fold only for survivors
/// ([`FLAG_SATISFIES`], lowering `found` to the earliest satisfying batch
/// index). Rows at indices above the current winner skip both phases —
/// they can neither improve the winner nor need their verdict.
#[allow(clippy::too_many_arguments)]
fn flag_computed_row(
    k: usize,
    row: &[u64],
    flags: &mut [u64],
    seen: &CsSet,
    masks: &SatisfyMasks,
    prefilter: &AdmissionPrefilter,
    on_the_fly: bool,
    allowed: usize,
    found: &AtomicU64,
) {
    flags[0] = 0;
    let unique = if on_the_fly {
        false
    } else {
        // `CsSet::insert` keys narrow rows directly off their single
        // block (no hashing at all) and hashes wide rows exactly once
        // into the pass-through shard maps — forcing a hash here would
        // only pessimize the narrow path.
        let fresh = seen.insert(row);
        if fresh {
            flags[0] |= FLAG_UNIQUE;
        }
        fresh
    };
    if !(on_the_fly || unique) {
        return;
    }
    if (found.load(Ordering::Relaxed) as usize) < k {
        // A satisfying row with a lower batch index is already known; this
        // row's verdict cannot matter.
        return;
    }
    flags[0] |= FLAG_CHECKED;
    if prefilter.rejects(row, allowed) {
        flags[0] |= FLAG_PREFILTERED;
        return;
    }
    if masks.is_satisfied_with_error(row, allowed) {
        flags[0] |= FLAG_SATISFIES;
        found.fetch_min(k as u64, Ordering::Relaxed);
    }
}

/// Result of building one cost level.
enum LevelOutcome {
    /// A satisfying row was constructed; its provenance is returned.
    Found(Provenance),
    /// The level was built (possibly partially cached); continue.
    Continue,
    /// OnTheFly mode can no longer reach the operands it needs.
    Exhausted,
    /// The stop condition fired while building the level.
    Stopped(Stop),
}

/// The outcome a [`Backend`] reports for one processed [`LevelBatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOutcome {
    /// A satisfying candidate was found; the search reconstructs the
    /// expression from this provenance.
    Found(Provenance),
    /// Every candidate of the batch was processed without a hit.
    Continue,
}

/// The outcome of admitting one computed row via [`LevelBatch::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowVerdict {
    /// The row satisfies the specification.
    Found(Provenance),
    /// The row is a new unique language and was cached.
    Admitted,
    /// The row duplicates an earlier language (or OnTheFly mode is active
    /// and the row does not satisfy the specification).
    Duplicate,
    /// The cache rejected the row; the search switched to OnTheFly mode.
    Overflowed,
}

struct Search<'a> {
    params: SearchParams<'a>,
    observer: &'a mut dyn Observer,
    stop: StopCheck,
    scratch: &'a mut SessionScratch,
    ic: InfixClosure,
    /// The pair-based guide table, staged lazily: only the device
    /// strategy's GPU-style concatenation reads it, so sequential and
    /// thread-parallel runs never pay for building it.
    pair_table: OnceLock<GuideTable>,
    /// The transposed block-mask form of the guide relation, driving the
    /// bit-parallel CPU kernels (`csops::concat_into`, squared
    /// `csops::star_into`). Always staged — every strategy uses it.
    guide_masks: GuideMasks,
    masks: SatisfyMasks,
    /// The cheap first phase of admission: a single-block lower bound on
    /// the satisfaction check, staged from `masks`.
    prefilter: AdmissionPrefilter,
    width: CsWidth,
    eps_index: usize,
    /// Rows-per-claim of the work-stealing scheduler, adapted between
    /// levels from the observed steal rate.
    sched_chunk: usize,
    /// The configured (or default) chunk size: the upper bound the
    /// adaptive rule may grow `sched_chunk` back to.
    sched_chunk_cap: usize,
    /// Resolved bound on rows per streamed level chunk.
    level_chunk_rows: usize,
    cache: LanguageCache,
    seen: CsSet,
    /// Device used for statistics accounting; the backend's device when it
    /// has one, a single-threaded stand-in otherwise.
    stats_device: Device,
    stats: SynthesisStats,
    /// `true` once the cache rejected a row: new rows are no longer cached
    /// or uniqueness-checked (the paper's OnTheFly mode).
    on_the_fly: bool,
    /// The highest cost whose level was stored completely.
    last_full_cost: u64,
}

/// One batch of same-cost candidate constructions, handed to a
/// [`Backend`].
///
/// Built-in strategies are available as [`run_sequential`] and
/// [`run_on_device`]; custom backends can instead drive the
/// per-candidate primitives [`compute_row`] and [`admit`] in any order
/// or partition, as long as every candidate is eventually admitted.
///
/// [`run_sequential`]: LevelBatch::run_sequential
/// [`run_on_device`]: LevelBatch::run_on_device
/// [`compute_row`]: LevelBatch::compute_row
/// [`admit`]: LevelBatch::admit
pub struct LevelBatch<'b, 'a> {
    search: &'b mut Search<'a>,
    jobs: &'b [Job],
    cost: u64,
}

impl LevelBatch<'_, '_> {
    /// Number of candidate constructions in this batch.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The cost of the level this batch belongs to.
    pub fn cost(&self) -> u64 {
        self.cost
    }

    /// Width of a characteristic-sequence row, in `u64` words.
    pub fn row_blocks(&self) -> usize {
        self.search.width.blocks()
    }

    /// Computes the characteristic sequence of candidate `k` into `row`.
    /// `scratch` must be another `row_blocks()`-sized buffer (used by the
    /// star fixpoint).
    pub fn compute_row(&self, k: usize, row: &mut [u64], scratch: &mut [u64]) {
        self.search.compute_row(self.jobs[k], row, scratch);
    }

    /// Runs candidate `k`'s computed row through the uniqueness check, the
    /// satisfaction check and the cache (the admission pipeline of
    /// Algorithm 1).
    pub fn admit(&mut self, k: usize, row: &[u64]) -> RowVerdict {
        if !self.search.on_the_fly {
            self.search.stats_device.record_hash_insertions(1);
        }
        self.search.admit(row, self.jobs[k], self.cost)
    }

    /// The reference strategy: one candidate at a time with early exits.
    /// The hash insertions are recorded once for the whole batch.
    pub fn run_sequential(&mut self) -> BatchOutcome {
        let blocks = self.row_blocks();
        // One streamed level chunk is one unit of claimed work here.
        self.search.stats.chunks_claimed += 1;
        let mut row = vec![0u64; blocks];
        let mut scratch = vec![0u64; blocks];
        let mut inserted = 0u64;
        let mut outcome = BatchOutcome::Continue;
        for &job in self.jobs {
            self.search.compute_row(job, &mut row, &mut scratch);
            inserted += u64::from(!self.search.on_the_fly);
            if let RowVerdict::Found(prov) = self.search.admit(&row, job, self.cost) {
                outcome = BatchOutcome::Found(prov);
                break;
            }
        }
        self.search.stats_device.record_hash_insertions(inserted);
        outcome
    }

    /// The data-parallel strategy: a single kernel computes each candidate
    /// row *and* performs the uniqueness insertion (into the WarpCore-style
    /// concurrent set) and the satisfaction check; the host then only
    /// copies the surviving rows into the language cache.
    ///
    /// One launch item is a warp of up to [`WARP_LANES`] consecutive
    /// candidates. Its concatenation lanes run together as one bit-sliced
    /// Algorithm-2 gather (`csops::concat_warp`); question, star and union
    /// lanes run their own kernels; then every lane admits its row. Row
    /// `k` of the batch buffer is `row_blocks()` row words followed by one
    /// flag word: `FLAG_UNIQUE` (bit 0, new to the uniqueness set),
    /// `FLAG_SATISFIES` (bit 1), `FLAG_PREFILTERED` (bit 2, the admission
    /// prefilter rejected the row) and `FLAG_CHECKED` (bit 3, admission
    /// ran). The buffer is padded to whole warps; the host pass reads
    /// only the batch's rows.
    pub fn run_on_device(&mut self, device: &Device) -> BatchOutcome {
        let blocks = self.row_blocks();
        let stride = blocks + 1;
        let batch = self.jobs;
        let padded = batch.len().div_ceil(WARP_LANES) * WARP_LANES * stride;
        // The batch buffer is session state: warm across batches, levels
        // and runs, never larger than one streamed level chunk.
        let mut batch_rows = std::mem::take(&mut self.search.scratch.batch_rows);
        if batch_rows.len() < padded {
            batch_rows.resize(padded, 0);
        }

        if !self.search.on_the_fly {
            // The level driver reserved the uniqueness table before the
            // level started; this is the cheap safety net that keeps the
            // invariant local. Every row of the launch attempts an
            // insertion (the device kernel has no chunk skipping), so the
            // bulk-recorded count is exact.
            self.search.seen.reserve(batch.len());
            device.record_hash_insertions(batch.len() as u64);
        }
        // One streamed level chunk is one kernel launch (and one unit of
        // claimed work) on this strategy.
        self.search.stats.chunks_claimed += 1;
        let buf = &mut batch_rows[..padded];
        let found = AtomicU64::new(u64::MAX);
        {
            let cache = &self.search.cache;
            let guide = self.search.pair_table();
            let guide_masks = &self.search.guide_masks;
            let masks = &self.search.masks;
            let prefilter = &self.search.prefilter;
            let seen = &self.search.seen;
            let eps = self.search.eps_index;
            let allowed = self.search.params.allowed_errors;
            let on_the_fly = self.search.on_the_fly;
            let columns_len = csops::warp_columns_len(guide.num_words());
            let found = &found;
            let kernel = move |base: usize, warp: &mut [u64]| {
                let jobs = &batch[base..batch.len().min(base + WARP_LANES)];
                let mut operands = [None; WARP_LANES];
                for (ops, &job) in operands.iter_mut().zip(jobs) {
                    if let Job::Concat(l, r) = job {
                        *ops = Some((cache.row(l), cache.row(r)));
                    }
                }
                WARP_SCRATCH.with(|cell| {
                    let mut scratch = cell.borrow_mut();
                    scratch.resize(columns_len + blocks, 0);
                    let (columns, star) = scratch.split_at_mut(columns_len);
                    csops::concat_warp(warp, stride, &operands[..jobs.len()], guide, columns);
                    for (lane, (&job, chunk)) in
                        jobs.iter().zip(warp.chunks_mut(stride)).enumerate()
                    {
                        let (row, flags) = chunk.split_at_mut(blocks);
                        if !matches!(job, Job::Concat(..)) {
                            compute_job_row(job, row, star, cache, guide_masks, eps);
                        }
                        flag_computed_row(
                            base + lane,
                            row,
                            flags,
                            seen,
                            masks,
                            prefilter,
                            on_the_fly,
                            allowed,
                            found,
                        );
                    }
                });
            };
            device.launch_chunks("build-level", buf, stride, batch.len(), kernel);
        }

        let rows = &buf[..batch.len() * stride];
        let outcome = self.flush_unique_rows(rows, stride, found.load(Ordering::Relaxed));
        self.search.scratch.batch_rows = batch_rows;
        outcome
    }

    /// The thread-parallel CPU strategy: the batch is cut into fixed-size
    /// chunks of candidate rows which worker threads claim through the
    /// work-stealing [`StealScheduler`] — each worker drains its own
    /// range of chunks through an atomic cursor, then steals chunks from
    /// its peers, so a skewed batch (a few expensive star rows in one
    /// region) cannot leave cores idle the way the old static
    /// one-span-per-worker split could. Each worker computes its claimed
    /// candidates with the fast sequential kernels (mask-based
    /// concatenation, star by squaring) into the chunk's span of the
    /// batch buffer, using a private star scratch row and the shared
    /// concurrent [`CsSet`] for the global uniqueness check; chunks whose
    /// base index lies above the shared `found` winner are skipped
    /// without running any kernel. The host then performs the same
    /// admission pass as the device strategy.
    ///
    /// Compared to [`run_on_device`](LevelBatch::run_on_device) this is
    /// the pragmatic multi-core backend: chunk claiming is one atomic
    /// `fetch_add` (no per-block channel traffic), scratch rows are
    /// per-thread, and concatenation runs the mask kernel per row instead
    /// of the branch-free warp gather.
    pub fn run_threaded(&mut self, threads: usize) -> BatchOutcome {
        let blocks = self.row_blocks();
        let stride = blocks + 1;
        let batch = self.jobs;
        if batch.is_empty() {
            return BatchOutcome::Continue;
        }
        let threads = threads.clamp(1, batch.len());
        let chunk_rows = self.search.sched_chunk.min(batch.len());
        let mut batch_rows = std::mem::take(&mut self.search.scratch.batch_rows);
        if batch_rows.len() < batch.len() * stride {
            batch_rows.resize(batch.len() * stride, 0);
        }

        if !self.search.on_the_fly {
            // The level driver reserved the uniqueness table before the
            // level started; this safety net keeps the invariant local.
            self.search.seen.reserve(batch.len());
        }
        self.search.stats_device.record_launch(batch.len());
        let buf = &mut batch_rows[..batch.len() * stride];
        let found = AtomicU64::new(u64::MAX);
        // Scheduler telemetry, aggregated once per worker (never on the
        // kernel hot path): chunks claimed, chunks stolen, and rows
        // skipped by the early-winner cutoff — the latter also corrects
        // the hash-insertion accounting below.
        let claimed = AtomicU64::new(0);
        let stolen = AtomicU64::new(0);
        let skipped_rows = AtomicU64::new(0);
        {
            let cache = &self.search.cache;
            let guide_masks = &self.search.guide_masks;
            let masks = &self.search.masks;
            let prefilter = &self.search.prefilter;
            let seen = &self.search.seen;
            let eps = self.search.eps_index;
            let allowed = self.search.params.allowed_errors;
            let on_the_fly = self.search.on_the_fly;
            let found = &found;
            let kernel = |k: usize, chunk: &mut [u64], scratch: &mut [u64]| {
                let (row, flags) = chunk.split_at_mut(blocks);
                compute_job_row(batch[k], row, scratch, cache, guide_masks, eps);
                flag_computed_row(
                    k, row, flags, seen, masks, prefilter, on_the_fly, allowed, found,
                );
            };
            if threads == 1 {
                // Single worker: run inline, no thread spawn, no
                // scheduler (keeps the backend graceful on single-core
                // hosts). The whole batch is one claimed chunk.
                claimed.fetch_add(1, Ordering::Relaxed);
                let mut scratch = vec![0u64; blocks];
                for (k, chunk) in buf.chunks_mut(stride).enumerate() {
                    kernel(k, chunk, &mut scratch);
                }
            } else {
                // Hand each chunk's span of the batch buffer over through
                // a once-per-chunk mutex slot: the scheduler arbitrates
                // indices, the slot transfers the `&mut` ownership.
                let spans: Vec<Mutex<Option<&mut [u64]>>> = buf
                    .chunks_mut(chunk_rows * stride)
                    .map(|span| Mutex::new(Some(span)))
                    .collect();
                let num_chunks = spans.len();
                let sched = StealScheduler::new(num_chunks, threads);
                let (spans, sched, kernel) = (&spans, &sched, &kernel);
                let (claimed, stolen, skipped_rows) = (&claimed, &stolen, &skipped_rows);
                crossbeam::scope(|scope| {
                    for worker in 0..threads {
                        scope.spawn(move |_| {
                            let mut scratch = vec![0u64; blocks];
                            let (mut my_claimed, mut my_stolen, mut my_skipped) =
                                (0u64, 0u64, 0u64);
                            while let Some(claim) = sched.claim(worker) {
                                my_claimed += 1;
                                my_stolen += u64::from(claim.stolen);
                                let base = claim.chunk * chunk_rows;
                                let span = spans[claim.chunk]
                                    .lock()
                                    .take()
                                    .expect("chunk claimed twice");
                                if (found.load(Ordering::Relaxed) as usize) < base {
                                    // A satisfying row below every index of
                                    // this chunk is already known: clear the
                                    // (reused) flag words and skip the
                                    // kernels entirely.
                                    for chunk in span.chunks_mut(stride) {
                                        chunk[blocks] = 0;
                                        my_skipped += 1;
                                    }
                                    continue;
                                }
                                for (offset, chunk) in span.chunks_mut(stride).enumerate() {
                                    kernel(base + offset, chunk, &mut scratch);
                                }
                            }
                            claimed.fetch_add(my_claimed, Ordering::Relaxed);
                            stolen.fetch_add(my_stolen, Ordering::Relaxed);
                            skipped_rows.fetch_add(my_skipped, Ordering::Relaxed);
                        });
                    }
                })
                .expect("level worker panicked");
            }
        }

        // Account hash insertions from the rows that actually reached the
        // set: everything except the chunks the early-winner cutoff
        // skipped (in OnTheFly mode nothing is inserted at all).
        if !self.search.on_the_fly {
            let processed = batch.len() as u64 - skipped_rows.load(Ordering::Relaxed);
            self.search.stats_device.record_hash_insertions(processed);
        }
        self.search.stats.chunks_claimed += claimed.load(Ordering::Relaxed);
        self.search.stats.chunks_stolen += stolen.load(Ordering::Relaxed);

        let outcome = self.flush_unique_rows(buf, stride, found.load(Ordering::Relaxed));
        self.search.scratch.batch_rows = batch_rows;
        outcome
    }

    /// Host-side admission pass shared by the parallel strategies:
    /// accounts for unique rows and copies them into the write-once cache
    /// (the paper's temporary-buffer → cache copy). `winner` is the
    /// smallest batch index whose row satisfied the specification, or
    /// `u64::MAX`.
    fn flush_unique_rows(&mut self, buf: &[u64], stride: usize, winner: u64) -> BatchOutcome {
        let blocks = self.row_blocks();
        let mut prefiltered = 0u64;
        let mut checked = 0u64;
        for (k, chunk) in buf.chunks(stride).enumerate() {
            let (row, flags) = chunk.split_at(blocks);
            // The kernels record prefilter rejections in the flag word so
            // that counting happens here, on the serial host pass, instead
            // of on a contended counter inside the kernels.
            prefiltered += u64::from(flags[0] & FLAG_PREFILTERED != 0);
            checked += u64::from(flags[0] & FLAG_CHECKED != 0);
            if flags[0] & FLAG_UNIQUE == 0 {
                continue;
            }
            self.search.stats.unique_languages += 1;
            if winner != u64::MAX {
                // A satisfying row exists in this batch: nothing after it
                // needs caching, exactly as in the sequential early return.
                continue;
            }
            if !self.search.on_the_fly
                && self
                    .search
                    .cache
                    .push(row, self.jobs[k].provenance(), self.cost)
                    .is_none()
            {
                self.search.enter_on_the_fly();
            }
        }
        self.search.stats.prefilter_rejects += prefiltered;
        self.search.stats.admission_folds += checked;
        if winner != u64::MAX {
            return BatchOutcome::Found(self.jobs[winner as usize].provenance());
        }
        BatchOutcome::Continue
    }
}

/// Search state a refinement session retains between runs: the infix
/// closure, its guide masks, the complete cached levels of the previous
/// enumeration and the highest fully stored cost. A resumed run rebuilds
/// everything spec-dependent (satisfaction masks, admission prefilter,
/// uniqueness set) against the *new* specification and continues
/// enumeration at `last_full_cost + 1`.
///
/// Soundness of resuming rests on two facts (see DESIGN.md "Interactive
/// refinement"): candidate *construction* is spec-independent, so the
/// retained levels are exactly what a cold run over the same closure
/// would rebuild; and characteristic-sequence operations over an
/// infix-closed word set are compositional, so a retained closure that is
/// a superset of the new spec's own closure distinguishes at least as
/// much and can only keep more representatives, never lose a witness.
#[derive(Debug)]
pub(crate) struct ResumeState {
    pub ic: InfixClosure,
    pub guide_masks: GuideMasks,
    pub cache: LanguageCache,
    pub last_full_cost: u64,
}

impl ResumeState {
    /// Whether every word of `spec` is indexed by the retained closure —
    /// the closure-preservation gate of the warm refinement tier.
    pub fn covers(&self, spec: &Spec) -> bool {
        spec.positive()
            .iter()
            .chain(spec.negative())
            .all(|w| self.ic.index_of(w).is_some())
    }

    /// Rows retained from the previous run.
    pub fn retained_rows(&self) -> u64 {
        self.cache.len() as u64
    }
}

/// Runs the full search. Trivial specifications (`P = ∅`, `P = {ε}` and
/// the corresponding relaxed checks) are handled by the caller. The run
/// optionally resumes from a previous run's [`ResumeState`] and hands
/// back the state a refinement session may retain for the next run; the
/// returned state is `None` when the cached levels are not the complete
/// enumeration (OnTheFly mode) or the run was stopped mid-level
/// (timeout/cancellation), in which case the next refinement must go
/// cold.
pub(crate) fn run_retaining(
    params: SearchParams<'_>,
    backend: &dyn Backend,
    observer: &mut dyn Observer,
    stop: StopCheck,
    scratch: &mut SessionScratch,
    resume: Option<ResumeState>,
) -> (Result<SynthesisResult, SynthesisError>, Option<ResumeState>) {
    let max_cost = params.max_cost;
    let start_cost = match &resume {
        Some(state) => state.last_full_cost + 1,
        None => params.costs.literal + 1,
    };
    let fresh = resume.is_none();
    let mut search = Search::new(params, backend, observer, stop, scratch, resume);

    if fresh {
        // Seed the cache with the characteristic sequences of the alphabet
        // characters (line 6 of Algorithm 1), checking each for
        // satisfaction. A resumed run keeps the retained levels instead:
        // every literal (and every retained composite row) was admitted
        // and rejected under the weaker previous spec, and admission is
        // monotone under example supersets, so re-checking them cannot
        // produce a winner.
        if let Some(found) = search.seed_alphabet() {
            let result = search.finish(found);
            return (Ok(result), search.into_retained());
        }
    }

    for cost in start_cost..=max_cost {
        match search.step_level(cost, backend) {
            LevelOutcome::Found(prov) => {
                let result = search.finish(prov);
                return (Ok(result), search.into_retained());
            }
            LevelOutcome::Continue => {}
            LevelOutcome::Exhausted => {
                return (
                    Err(SynthesisError::OutOfMemory {
                        last_complete_cost: search.last_full_cost,
                        stats: search.final_stats(),
                    }),
                    None,
                );
            }
            LevelOutcome::Stopped(stop) => return (Err(search.stopped(stop)), None),
        }
    }

    let stats = search.final_stats();
    let retained = search.into_retained();
    (Err(SynthesisError::NotFound { max_cost, stats }), retained)
}

impl<'a> Search<'a> {
    /// Stages everything one sweep needs for one specification: infix
    /// closure, guide masks, satisfaction masks, admission prefilter,
    /// language cache and uniqueness set for [`run_retaining`].
    fn new(
        params: SearchParams<'a>,
        backend: &dyn Backend,
        observer: &'a mut dyn Observer,
        stop: StopCheck,
        scratch: &'a mut SessionScratch,
        resume: Option<ResumeState>,
    ) -> Search<'a> {
        let (ic, guide_masks, cache, last_full_cost) = match resume {
            Some(state) => (
                state.ic,
                state.guide_masks,
                state.cache,
                state.last_full_cost,
            ),
            None => {
                let ic = InfixClosure::of_spec(params.spec);
                let guide_masks = GuideMasks::build(&ic);
                let cache = LanguageCache::new(ic.width(), params.memory_budget);
                (ic, guide_masks, cache, 0)
            }
        };
        let masks = SatisfyMasks::new(params.spec, &ic);
        let prefilter = masks.prefilter();
        let width = ic.width();
        let eps_index = ic
            .eps_index()
            .expect("non-trivial spec has a non-empty closure");
        let sched_chunk = params.sched_chunk.unwrap_or(DEFAULT_SCHED_CHUNK).max(1);
        let level_chunk_rows = params
            .level_chunk_rows
            .unwrap_or_else(|| default_level_chunk_rows(params.memory_budget, width.blocks() + 1))
            .max(1);
        // The uniqueness table starts small and is grown between kernel
        // launches as the cache fills (see `CsSet::maybe_grow`). On a
        // resumed run it is re-keyed from the retained rows: the retained
        // cache holds exactly the unique representatives of the complete
        // levels, so re-inserting them restores the dedup state a cold
        // run would have reached at this point.
        let mut seen = CsSet::new(width.blocks(), 4096.min(cache.capacity_rows()));
        if !cache.is_empty() {
            seen.reserve(cache.len());
            for idx in 0..cache.len() as u32 {
                seen.insert(cache.row(idx));
            }
        }
        let stats_device = backend.device().cloned().unwrap_or_else(Device::sequential);
        let stats = SynthesisStats {
            infix_closure_size: ic.len() as u64,
            ..Default::default()
        };

        Search {
            params,
            observer,
            stop,
            scratch,
            ic,
            pair_table: OnceLock::new(),
            guide_masks,
            masks,
            prefilter,
            width,
            eps_index,
            sched_chunk,
            sched_chunk_cap: sched_chunk,
            level_chunk_rows,
            cache,
            seen,
            stats_device,
            stats,
            on_the_fly: false,
            last_full_cost,
        }
    }

    /// Extracts the state a refinement session may retain: `None` once
    /// OnTheFly mode discarded rows (the cached levels then no longer
    /// hold the complete enumeration), otherwise the closure, guide masks
    /// and the cache truncated back to the last *complete* level (a
    /// winning level is only partially stored).
    fn into_retained(self) -> Option<ResumeState> {
        if self.on_the_fly || self.last_full_cost < self.params.costs.literal {
            return None;
        }
        let mut cache = self.cache;
        cache.truncate_to_cost(self.last_full_cost);
        Some(ResumeState {
            ic: self.ic,
            guide_masks: self.guide_masks,
            cache,
            last_full_cost: self.last_full_cost,
        })
    }

    /// Advances the search by one cost level: the unified stop check at
    /// the level boundary, then the level build, then the steal-rate
    /// feedback on the work-stealing chunk size.
    fn step_level(&mut self, cost: u64, backend: &dyn Backend) -> LevelOutcome {
        if let Some(stop) = self.stop.poll() {
            return LevelOutcome::Stopped(stop);
        }
        self.stats.max_cost_reached = cost;
        let claimed_before = self.stats.chunks_claimed;
        let stolen_before = self.stats.chunks_stolen;
        let outcome = self.build_level(cost, backend);
        self.adapt_sched_chunk(
            self.stats.chunks_claimed - claimed_before,
            self.stats.chunks_stolen - stolen_before,
        );
        outcome
    }

    /// Applies [`adapted_sched_chunk`] to one level's scheduler counters:
    /// a contended level halves the next level's chunk, a calm one grows
    /// it back towards the configured cap. Single-worker strategies claim
    /// without stealing, so the chunk settles at the cap and the rule
    /// degrades to a no-op.
    fn adapt_sched_chunk(&mut self, claimed: u64, stolen: u64) {
        self.sched_chunk =
            adapted_sched_chunk(self.sched_chunk, self.sched_chunk_cap, claimed, stolen);
    }
    /// The pair-based guide table, built on first use (only the device
    /// strategy reads it).
    fn pair_table(&self) -> &GuideTable {
        self.pair_table.get_or_init(|| GuideTable::build(&self.ic))
    }

    fn seed_alphabet(&mut self) -> Option<Provenance> {
        let cost = self.params.costs.literal;
        self.stats.max_cost_reached = cost;
        let alphabet = self.params.alphabet.clone();
        for &a in alphabet.symbols() {
            let row = self.ic.cs_of_literal(a);
            self.stats.candidates_generated += 1;
            self.stats_device.record_hash_insertions(1);
            if !self.seen.insert(row.blocks()) {
                continue;
            }
            self.stats.unique_languages += 1;
            self.stats.admission_folds += 1;
            if self
                .masks
                .is_satisfied_with_error(row.blocks(), self.params.allowed_errors)
            {
                return Some(Provenance::Literal(a));
            }
            if self
                .cache
                .push(row.blocks(), Provenance::Literal(a), cost)
                .is_none()
            {
                // A memory budget too small even for the alphabet: OnTheFly
                // from the start; nothing will ever be cached.
                self.enter_on_the_fly();
            }
        }
        if !self.on_the_fly {
            self.last_full_cost = cost;
        }
        self.push_level(LevelStats {
            cost,
            candidates: alphabet.len() as u64,
            unique: self.stats.unique_languages,
            cached: self.cache.len() as u64,
        });
        None
    }

    fn enter_on_the_fly(&mut self) {
        self.on_the_fly = true;
        self.stats.used_on_the_fly = true;
    }

    /// Records a completed level and reports it to the observer.
    fn push_level(&mut self, level: LevelStats) {
        self.stats.levels.push(level);
        self.observer.on_level(&level);
    }

    /// Converts a fired stop condition into the corresponding error.
    fn stopped(&self, stop: Stop) -> SynthesisError {
        match stop {
            Stop::TimedOut => SynthesisError::Timeout {
                budget: self.stop.budget,
                stats: self.final_stats(),
            },
            Stop::Cancelled => SynthesisError::Cancelled {
                stats: self.final_stats(),
            },
        }
    }

    /// The highest operand cost any constructor may need when building
    /// languages of cost `cost`.
    fn max_operand_cost(&self, cost: u64) -> u64 {
        cost.saturating_sub(self.params.costs.min_constructor_cost())
    }

    /// The shared level driver: streams the level's candidate
    /// constructions in bounded chunks through the backend. Every
    /// strategy — sequential, thread-parallel and data-parallel — consumes
    /// the same stream; none of them ever sees (or allocates for) more
    /// than `level_chunk_rows` candidates at once, and the stop condition
    /// is polled at every chunk boundary, so cancellation lands mid-level
    /// instead of waiting out a giant level.
    fn build_level(&mut self, cost: u64, backend: &dyn Backend) -> LevelOutcome {
        if self.on_the_fly && self.max_operand_cost(cost) > self.last_full_cost {
            // OnTheFly mode would need operand levels that were never
            // (fully) cached: the search cannot make further progress
            // without violating minimality, so it stops (paper: the
            // out-of-memory outcome).
            return LevelOutcome::Exhausted;
        }
        let mut stream = JobStream::for_level(cost, &self.params.costs, &self.cache);
        let candidates = stream.total();
        self.stats.candidates_generated += candidates;
        let unique_before = self.stats.unique_languages;
        let cached_before = self.cache.len() as u64;

        if !self.on_the_fly {
            // Size the uniqueness table once, before the level streams.
            // The estimate is the level's candidate count scaled by the
            // dedup rate observed so far (with 2x headroom) — most
            // candidates are duplicates, so reserving for every candidate
            // would spike peak memory for nothing — and is clamped by the
            // hard bound on unique insertions: the cache's remaining row
            // capacity plus one chunk (after the cache rejects a row the
            // search flips to OnTheFly mode and stops inserting). The
            // chunk slack is capped at the default launch bound so an
            // explicit whole-level `level_chunk_rows` (e.g. `usize::MAX`)
            // cannot turn the reservation into a level-sized allocation.
            // An undershoot is safe: the per-batch reserves inside the
            // strategies still grow the table between launches, and an
            // outrun narrow table degrades gracefully
            // (`dedup_overflowed`).
            let observed = if self.stats.candidates_generated > 0 {
                let rate =
                    self.stats.unique_languages as f64 / self.stats.candidates_generated as f64;
                (candidates as f64 * (rate * 2.0).min(1.0)) as usize
            } else {
                candidates as usize
            };
            let remaining = self.cache.capacity_rows().saturating_sub(self.cache.len());
            let slack = self.level_chunk_rows.min(MAX_LEVEL_CHUNK_ROWS);
            let expected = observed
                .max(slack)
                .min(candidates as usize)
                .min(remaining.saturating_add(slack));
            self.seen.reserve(expected);
        }

        let mut jobs = std::mem::take(&mut self.scratch.jobs);
        let cap = self.level_chunk_rows;
        let mut outcome = LevelOutcome::Continue;
        loop {
            jobs.clear();
            if !stream.fill(&mut jobs, cap) {
                break;
            }
            if let Some(stop) = self.stop.poll() {
                outcome = LevelOutcome::Stopped(stop);
                break;
            }
            let mut batch = LevelBatch {
                search: self,
                jobs: &jobs,
                cost,
            };
            if let BatchOutcome::Found(prov) = backend.process(&mut batch) {
                outcome = LevelOutcome::Found(prov);
                break;
            }
        }
        self.scratch.jobs = jobs;
        if !matches!(outcome, LevelOutcome::Continue) {
            return outcome;
        }

        // Once the cache has rejected a row the level is not fully stored
        // (and `on_the_fly` stays set), so level completeness is exactly
        // the absence of OnTheFly mode.
        if !self.on_the_fly {
            self.last_full_cost = cost;
        }
        // Per-level breakdown for fully processed levels (levels cut short
        // by a satisfying row or a stop are not recorded).
        self.push_level(LevelStats {
            cost,
            candidates,
            unique: self.stats.unique_languages - unique_before,
            cached: self.cache.len() as u64 - cached_before,
        });
        LevelOutcome::Continue
    }

    fn compute_row(&self, job: Job, row: &mut [u64], scratch: &mut [u64]) {
        compute_job_row(
            job,
            row,
            scratch,
            &self.cache,
            &self.guide_masks,
            self.eps_index,
        );
    }

    /// The two-phase satisfaction check: the single-block prefilter
    /// first, the full mask fold only when the prefilter cannot already
    /// reject the row.
    fn row_satisfies(&mut self, row: &[u64]) -> bool {
        let allowed = self.params.allowed_errors;
        self.stats.admission_folds += 1;
        if self.prefilter.rejects(row, allowed) {
            self.stats.prefilter_rejects += 1;
            return false;
        }
        self.masks.is_satisfied_with_error(row, allowed)
    }

    /// Admits a computed row; the caller records its hash insertion.
    fn admit(&mut self, row: &[u64], job: Job, cost: u64) -> RowVerdict {
        self.seen.maybe_grow();
        if self.on_the_fly {
            // OnTheFly: no uniqueness check, no caching — only the
            // satisfaction check (which preserves precision/minimality).
            if self.row_satisfies(row) {
                return RowVerdict::Found(job.provenance());
            }
            return RowVerdict::Duplicate;
        }
        if !self.seen.insert(row) {
            return RowVerdict::Duplicate;
        }
        self.stats.unique_languages += 1;
        if self.row_satisfies(row) {
            return RowVerdict::Found(job.provenance());
        }
        if self.cache.push(row, job.provenance(), cost).is_none() {
            self.enter_on_the_fly();
            return RowVerdict::Overflowed;
        }
        RowVerdict::Admitted
    }

    fn final_stats(&self) -> SynthesisStats {
        let mut stats = self.stats.clone();
        stats.cache_rows = self.cache.len() as u64;
        stats.cache_bytes = self.cache.memory_bytes() as u64;
        stats.dedup_overflowed = self.seen.overflowed();
        stats.sched_chunk = self.sched_chunk as u64;
        stats.elapsed = self.params.started.elapsed();
        stats
    }

    fn finish(&self, provenance: Provenance) -> SynthesisResult {
        let regex = self.cache.reconstruct(provenance);
        let cost = regex.cost(&self.params.costs);
        debug_assert!(
            self.params.spec.misclassified_by(&regex) <= self.params.allowed_errors,
            "reconstructed expression {regex} does not satisfy the specification"
        );
        SynthesisResult {
            regex,
            cost,
            stats: self.final_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_provenance_round_trip() {
        assert_eq!(Job::Question(3).provenance(), Provenance::Question(3));
        assert_eq!(Job::Star(4).provenance(), Provenance::Star(4));
        assert_eq!(Job::Concat(1, 2).provenance(), Provenance::Concat(1, 2));
        assert_eq!(Job::Union(5, 6).provenance(), Provenance::Union(5, 6));
    }

    #[test]
    fn sched_chunk_adapts_to_steal_rate() {
        // Contended level: halve.
        assert_eq!(adapted_sched_chunk(64, 64, 100, 40), 32);
        // Calm level: grow back ...
        assert_eq!(adapted_sched_chunk(32, 64, 100, 2), 64);
        // ... but never beyond the configured cap.
        assert_eq!(adapted_sched_chunk(64, 64, 100, 2), 64);
        // Floored so scheduler overhead cannot dominate.
        assert_eq!(adapted_sched_chunk(8, 64, 100, 90), 8);
        // A cap below the floor wins (explicitly tiny configuration).
        assert_eq!(adapted_sched_chunk(4, 4, 100, 90), 4);
        // Moderate steal rate: hold steady.
        assert_eq!(adapted_sched_chunk(64, 64, 100, 15), 64);
        // No claims at all (empty level): hold steady.
        assert_eq!(adapted_sched_chunk(32, 64, 0, 0), 32);
    }

    #[test]
    fn stop_check_polls_cancel_and_deadline() {
        assert!(StopCheck::default().poll().is_none());

        let token = CancelToken::new();
        let stop = StopCheck {
            cancel: Some(token.clone()),
            ..StopCheck::default()
        };
        assert!(stop.poll().is_none());
        token.cancel();
        assert!(matches!(stop.poll(), Some(Stop::Cancelled)));

        let expired = StopCheck {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            budget: Duration::ZERO,
            cancel: None,
        };
        assert!(matches!(expired.poll(), Some(Stop::TimedOut)));
    }
}
