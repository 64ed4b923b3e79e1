//! Seeded workload generation. Everything a run sends to the program is
//! derived from `--seed` here; the program receives only these inputs.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use gpu_sim::Device;
use rei_bench::generator::{generate_type1, generate_type2, Type1Params, Type2Params};
use rei_core::{
    Backend, BatchOutcome, CancelToken, LevelBatch, Sequential, SynthConfig, SynthSession,
    SynthesisStats,
};
use rei_lang::{Alphabet, Spec, Word};
use rei_syntax::CostFn;

/// The workloads (README.md says why each was chosen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SearchDeep,
    LongExamples,
    ServeLoop,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "search-deep" => Some(Kind::SearchDeep),
            "long-examples" => Some(Kind::LongExamples),
            "serve-loop" => Some(Kind::ServeLoop),
            _ => None,
        }
    }
}

/// The synthesis configuration of every session, every pool worker and
/// the reference: uniform costs, a 64 MiB language cache, and a time
/// budget that turns a runaway solve into a counted failure, not a hang.
pub fn synth_config() -> SynthConfig {
    SynthConfig::new(CostFn::UNIFORM)
        .with_memory_budget(64 << 20)
        .with_time_budget(Duration::from_secs(30))
}

/// Inclusive Type 1 / Type 2 parameter ranges of a family of binary specs
/// (Section 4.3 of the paper; `rei_bench::generator`).
struct Family {
    type1_len: (usize, usize),
    type1_examples: (usize, usize),
    type2_len: (usize, usize),
    type2_examples: (usize, usize),
}

/// search-deep: below Figure-1 scale (length 4–7 and 8–12 examples there,
/// where most specs time out). At this size few draws exceed
/// [`DEEP_BAND`], which keeps screening to a few seconds.
const DEEP: Family = Family {
    type1_len: (4, 4),
    type1_examples: (5, 6),
    type2_len: (4, 4),
    type2_examples: (5, 6),
};

/// The [`work`] a search-deep spec may take, and the pool's total: a
/// narrow band gives every spec about the same search time, 0.035–0.06 s
/// on `cpu-sequential`, so that the pool time does not depend much on
/// which specs a seed draws.
const DEEP_BAND: (u64, u64) = (1_600_000, 2_400_000);
const DEEP_TARGET: Target = Target::Work(26_000_000);

/// Quick specs, for serve-loop's solve pool and the hot set every serve
/// phase repeats.
const QUICK: Family = Family {
    type1_len: (3, 3),
    type1_examples: (3, 5),
    type2_len: (3, 3),
    type2_examples: (3, 5),
};

/// A narrow band of quick specs, about 0.17 ms each on `cpu-sequential`,
/// so that neither serve-loop's pool time nor the priming in `setup_s`
/// depends much on which specs a seed draws. A quick spec's time is
/// mostly per-run overhead, so the count, not the work, sets the pool's
/// time.
const QUICK_BAND: (u64, u64) = (2_000, 6_000);
const QUICK_TARGET: Target = Target::Specs(300);

/// Miss specs, the serve phase's cache misses: length 4 and 4–5 examples
/// each side, banded to about 7 ms on `cpu-sequential` (4–10 ms from the
/// 10th to the 90th percentile). That is well above rei-net's 1 ms answer
/// poll, so the synthesis, not the poll, sets the miss latency.
const MISS: Family = Family {
    type1_len: (4, 4),
    type1_examples: (4, 5),
    type2_len: (4, 4),
    type2_examples: (4, 5),
};
const MISS_BAND: (u64, u64) = (100_000, 300_000);

/// Misses each client sends per second of the serve phase, on a fixed
/// schedule. A fixed rate, unlike a share of the requests, fixes the
/// number of misses — about 1,200 in a 30 s run, so at least ten lie
/// beyond the p99 — and with it the reference's work to check them. At
/// about 8 ms each they hold a client for a third of its time; hits fill
/// the rest (README.md, "Serve mix").
pub const MISS_RATE: f64 = 40.0;

/// When a screened pool is complete.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// Once the [`work`] of its specs adds up to this much.
    Work(u64),
    /// Once it holds this many specs.
    Specs(usize),
}

/// How many candidates one unique row weighs in [`work`]: admission and
/// the cache copy make a unique row cost about this much more than a
/// duplicate (fitted on search-deep specs, where it halves the spread of
/// time per unit of work against candidates alone).
const UNIQUE_WEIGHT: u64 = 16;

/// Specs primed into the service cache during set-up.
const HOT: usize = 64;

/// Draws a screened pool may take before it settles for less.
const MAX_DRAWS: u64 = 5_000;

/// Example lengths of the long-examples specs: 2–4 examples of 60–120
/// symbols. They are fixed, and only the symbols come from the seed, so
/// closure sizes — and with them the staging work — hardly depend on it.
const LONG_SHAPES: [&[usize]; 4] = [&[64, 96], &[112, 72, 88], &[60, 120, 80, 100], &[84, 76]];

/// Closed-loop client connections (and load threads) of the serve phase:
/// one per core of a 2-core machine.
pub const CLIENTS: usize = 2;

/// Share of `--seconds` the serve phase gets: every solve pass is followed
/// by a serve slice as long as the pass. The same on every workload, so
/// that every serving metric has as many samples on one workload as on
/// another.
const SERVE_SHARE: f64 = 0.5;

/// Misses generated over those due in the serve share of `--seconds`: the
/// last round may end after it.
const MISS_HEADROOM: f64 = 1.15;

/// Sub-streams of the seed.
const HOT_STREAM: u64 = 0x4807;
const MISS_STREAM: u64 = 0xF2E5;

impl Family {
    /// One spec, or `None` when the drawn parameters ask for more distinct
    /// words than the lengths allow.
    fn draw(&self, seed: u64) -> Option<Spec> {
        let mut rng = Rng::new(seed);
        let alphabet = Alphabet::binary();
        if rng.below(2) == 0 {
            let params = Type1Params {
                alphabet,
                max_len: rng.range(self.type1_len),
                positives: rng.range(self.type1_examples),
                negatives: rng.range(self.type1_examples),
            };
            generate_type1(&params, rng.next_u64())
        } else {
            let params = Type2Params {
                alphabet,
                max_len: rng.range(self.type2_len),
                positives: rng.range(self.type2_examples),
                negatives: rng.range(self.type2_examples),
            };
            generate_type2(&params, rng.next_u64())
        }
    }
}

/// One workload's inputs.
pub struct Inputs {
    pub seed: u64,
    /// Specs every backend solves in process.
    pub pool: Vec<Spec>,
    /// Specs primed into the service cache during set-up.
    pub hot: Vec<Spec>,
    /// The serve phase's cache misses, in the order they are sent.
    misses: Vec<Spec>,
}

impl Inputs {
    /// Generates the inputs of `kind` from `seed` for runs of `budget`,
    /// with the reference cost of every spec.
    pub fn generate(kind: Kind, seed: u64, budget: Duration) -> (Inputs, Reference) {
        let mut reference = Reference::new();
        let pool = match kind {
            Kind::SearchDeep => reference.screened_pool(&DEEP, seed, DEEP_BAND, DEEP_TARGET),
            Kind::LongExamples => LONG_SHAPES
                .iter()
                .enumerate()
                .map(|(index, lengths)| long_spec(mix(seed, index as u64), lengths))
                .collect(),
            Kind::ServeLoop => reference.screened_pool(&QUICK, seed, QUICK_BAND, QUICK_TARGET),
        };
        // Every workload serves the same mix: the result line holds every
        // metric, so each workload measures the serving metrics too.
        let hot = reference.screened_pool(
            &QUICK,
            mix(seed, HOT_STREAM),
            QUICK_BAND,
            Target::Specs(HOT),
        );
        for spec in pool.iter().chain(&hot) {
            if let Err(why) = reference.cost(spec) {
                panic!("{why}");
            }
        }
        let serve_s = budget.as_secs_f64() * SERVE_SHARE * MISS_HEADROOM;
        let wanted = CLIENTS * (MISS_RATE * serve_s).ceil() as usize;
        let misses = reference.misses(mix(seed, MISS_STREAM), wanted, &hot);
        eprintln!(
            "perfbench: seed {seed}: {} pool specs, {} hot specs, {} miss specs",
            pool.len(),
            hot.len(),
            misses.len()
        );
        let inputs = Inputs {
            seed,
            pool,
            hot,
            misses,
        };
        (inputs, reference)
    }

    /// The `k`-th miss of serve-phase client `client`, while any is left.
    pub fn miss(&self, client: usize, k: usize) -> Option<&Spec> {
        self.misses.get(k * CLIENTS + client)
    }
}

/// Image `k` (0–3) of a binary spec under the symmetries of its alphabet:
/// bit 0 swaps the letters `0` and `1`, bit 1 reverses every word. Each
/// maps every regex to one of the same cost that accepts the image of its
/// language, so every image has the spec's minimal cost.
fn image(spec: &Spec, k: usize) -> Spec {
    let map = |word: &Word| -> Word {
        let mut chars: Vec<char> = word
            .chars()
            .iter()
            .map(|&c| match (k & 1 == 1, c) {
                (true, '0') => '1',
                (true, '1') => '0',
                _ => c,
            })
            .collect();
        if k & 2 == 2 {
            chars.reverse();
        }
        chars.into_iter().collect()
    };
    Spec::new(
        spec.positive().iter().map(map),
        spec.negative().iter().map(map),
    )
    .expect("a bijection of words keeps the examples apart")
}

/// A long-examples spec with examples of the given lengths. Positives
/// start with one symbol and negatives with the other, so a shallow
/// regex such as `(01*)*` separates them however long the words are.
fn long_spec(seed: u64, lengths: &[usize]) -> Spec {
    let mut rng = Rng::new(seed);
    let marks = if rng.below(2) == 0 {
        ['0', '1']
    } else {
        ['1', '0']
    };
    let positives = lengths.len().div_ceil(2);
    let (mut pos, mut neg) = (Vec::new(), Vec::new());
    for (index, &len) in lengths.iter().enumerate() {
        let first = marks[usize::from(index >= positives)];
        let word: Word = std::iter::once(first)
            .chain((1..len).map(|_| if rng.below(2) == 0 { '0' } else { '1' }))
            .collect();
        if index < positives {
            pos.push(word);
        } else {
            neg.push(word);
        }
    }
    Spec::new(pos, neg).expect("positives and negatives start with different symbols")
}

/// A search's work in candidate units: its candidates plus
/// [`UNIQUE_WEIGHT`] per unique row. It predicts solve time, and unlike
/// a time it does not depend on the machine.
fn work(stats: &SynthesisStats) -> u64 {
    stats.candidates_generated + UNIQUE_WEIGHT * stats.unique_languages
}

/// The `cpu-sequential` reference: the minimal cost every answer is
/// checked against, solved once per distinct spec.
pub struct Reference {
    session: SynthSession,
    cap: Arc<Cap>,
    costs: HashMap<String, u64>,
}

impl Reference {
    fn new() -> Reference {
        let cap = Arc::new(Cap::default());
        let backend = Capped {
            inner: Sequential,
            cap: Arc::clone(&cap),
        };
        let session = SynthSession::with_backend(synth_config(), Box::new(backend))
            .expect("the benchmark config is valid");
        cap.token
            .set(session.cancel_token())
            .expect("the token is set once");
        cap.limit.store(u64::MAX, Ordering::Relaxed);
        Reference {
            session,
            cap,
            costs: HashMap::new(),
        }
    }

    /// The reference cost of `spec`, solved on first use.
    pub fn cost(&mut self, spec: &Spec) -> Result<u64, String> {
        if let Some(cost) = self.known(spec) {
            return Ok(cost);
        }
        let result = self
            .session
            .run(spec)
            .map_err(|err| format!("the reference failed on a workload spec: {err}"))?;
        self.costs.insert(spec.canonicalize(), result.cost);
        Ok(result.cost)
    }

    /// The reference cost of a spec solved before.
    pub fn known(&self, spec: &Spec) -> Option<u64> {
        self.costs.get(&spec.canonicalize()).copied()
    }

    /// Draws specs of `family` and keeps those whose [`work`] lies within
    /// `band` until the pool reaches `target`, so that a pool's total
    /// search work — and with it `solve_s` — hardly depends on the seed.
    fn screened_pool(
        &mut self,
        family: &Family,
        seed: u64,
        band: (u64, u64),
        target: Target,
    ) -> Vec<Spec> {
        let (mut pool, mut total, mut seen) = (Vec::new(), 0, HashSet::new());
        for draw in 0..MAX_DRAWS {
            let Some(spec) = family.draw(mix(seed, draw)) else {
                continue;
            };
            if !seen.insert(spec.canonicalize()) {
                continue;
            }
            // A spec whose candidates alone exceed the band is cut off
            // mid-level instead of being solved.
            self.cap.rows.store(0, Ordering::Relaxed);
            self.cap.limit.store(band.1, Ordering::Relaxed);
            let outcome = self.session.run(&spec);
            self.cap.limit.store(u64::MAX, Ordering::Relaxed);
            self.session.cancel_token().reset();
            let Ok(result) = outcome else {
                continue;
            };
            let work = work(&result.stats);
            if !(band.0..=band.1).contains(&work) {
                continue;
            }
            self.costs.insert(spec.canonicalize(), result.cost);
            pool.push(spec);
            total += work;
            let complete = match target {
                Target::Work(target) => total >= target,
                Target::Specs(target) => pool.len() >= target,
            };
            if complete {
                return pool;
            }
        }
        eprintln!("perfbench: the pool fell short of {target:?} in {MAX_DRAWS} draws");
        pool
    }

    /// About `wanted` miss specs, none of them in `hot`: a screened pool of
    /// [`MISS`] specs and their three other [`image`]s, each with its base
    /// spec's reference cost, so the reference solves a quarter of them.
    /// All first images come first, then all second ones, and so on, so
    /// that two images of one spec are sent far apart.
    fn misses(&mut self, seed: u64, wanted: usize, hot: &[Spec]) -> Vec<Spec> {
        let bases = self.screened_pool(&MISS, seed, MISS_BAND, Target::Specs(wanted.div_ceil(4)));
        let mut seen: HashSet<String> = hot.iter().map(Spec::canonicalize).collect();
        let mut misses = Vec::with_capacity(wanted);
        for k in 0..4 {
            for base in &bases {
                let cost = self.known(base).expect("a screened spec has a reference");
                let spec = image(base, k);
                let key = spec.canonicalize();
                if seen.insert(key.clone()) {
                    self.costs.insert(key, cost);
                    misses.push(spec);
                }
            }
        }
        misses
    }
}

/// The screening cut-off shared by [`Capped`] and the reference.
#[derive(Debug, Default)]
struct Cap {
    token: OnceLock<CancelToken>,
    rows: AtomicU64,
    limit: AtomicU64,
}

/// The reference backend: `cpu-sequential`, plus a cut-off that cancels
/// the run once it has processed more candidate rows than the limit. The
/// search stops at the next batch boundary, which, unlike a timeout, does
/// not depend on the machine.
#[derive(Debug)]
struct Capped {
    inner: Sequential,
    cap: Arc<Cap>,
}

impl Backend for Capped {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn device(&self) -> Option<&Device> {
        self.inner.device()
    }

    fn process(&self, batch: &mut LevelBatch<'_, '_>) -> BatchOutcome {
        let rows = self
            .cap
            .rows
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        if rows + batch.len() as u64 > self.cap.limit.load(Ordering::Relaxed) {
            if let Some(token) = self.cap.token.get() {
                token.cancel();
            }
        }
        self.inner.process(batch)
    }
}

/// SplitMix64: a small seeded generator, so a workload depends on
/// `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in the inclusive range.
    fn range(&mut self, (low, high): (usize, usize)) -> usize {
        low + self.below((high - low + 1) as u64) as usize
    }
}

/// An independent seed for sub-stream `stream` of `seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}
