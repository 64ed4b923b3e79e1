//! The service-side speed comparisons of `reproduce check`:
//!
//! * a **recovery pass** that fabricates a multi-segment write-ahead log
//!   of synthetic records (small `roll_bytes`, as a crashed server would
//!   leave behind) and times the read-only [`replay`] of it serially
//!   (one thread) versus in parallel (one thread per core), minimum of
//!   three rounds each — the number behind the claim that a restarted
//!   server warms up faster than a serial log scan;
//! * a **refine pass** that replays each benchmark as an *interactive
//!   refinement chain*: the maximal examples (those that are not infixes
//!   of other examples) open a session, the remaining examples arrive
//!   one at a time as `refine` requests against the warm session, and
//!   every step is cold re-solved on a second, sessionless service for
//!   comparison — the number behind the claim that refining a session
//!   beats re-solving the strengthened specification from scratch.
//!
//! The `check` module turns the numbers into pass/fail lines.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use rei_lang::{Spec, Word};
use rei_service::{replay, ServiceConfig, SynthRequest, SynthService, WalOptions, WalStore};

use crate::costs::REFERENCE;
use crate::harness::figure1::benchmark_pool;
use crate::harness::HarnessConfig;

/// Serial-versus-parallel recovery timings over a fabricated
/// multi-segment write-ahead log (see [`run_recovery`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryBench {
    /// Synthetic records written into the fabricated store.
    pub records: u64,
    /// Segment files the replay reads.
    pub segments: usize,
    /// Distinct records a recovery loads (all of them: keys are unique).
    pub loaded: u64,
    /// Best-of-rounds wall seconds of the one-thread replay.
    pub serial_seconds: f64,
    /// Best-of-rounds wall seconds of the one-thread-per-core replay.
    pub parallel_seconds: f64,
    /// Threads the parallel replay actually used.
    pub threads: usize,
    /// Cores the machine offered (`available_parallelism`).
    pub available_cores: usize,
    /// Timing rounds per mode (the minimum is reported).
    pub rounds: usize,
}

impl RecoveryBench {
    /// `serial_seconds / parallel_seconds` (0 when parallel is 0).
    pub fn speedup(&self) -> f64 {
        if self.parallel_seconds > 0.0 {
            self.serial_seconds / self.parallel_seconds
        } else {
            0.0
        }
    }
}

/// Fabricates a store of `records` synthetic results spread over many
/// small segments under `dir` (as a crashed server's unfolded history
/// would look), then times the read-only [`replay`] of it with one
/// thread versus one per core — the minimum of three rounds each, so a
/// scheduling hiccup cannot fake a regression. The fabricated store is
/// removed afterwards.
pub fn run_recovery(dir: &Path, records: u64) -> RecoveryBench {
    let root = dir.join("recovery-bench");
    std::fs::remove_dir_all(&root).ok();
    {
        let (store, _) = WalStore::open(
            &root,
            "bench",
            WalOptions {
                roll_bytes: 16 * 1024,
                ..WalOptions::default()
            },
        )
        .expect("the recovery bench store opens");
        for i in 0..records {
            assert!(
                store.append(&format!("bench-spec-{i:06}"), "(0+1)*", i % 17 + 1),
                "fabricated append {i} failed"
            );
        }
        store.seal();
    }
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rounds = 3;
    let time = |threads: usize| {
        (0..rounds)
            .map(|_| replay(&root, "bench", threads))
            .min_by(|a, b| a.wall.cmp(&b.wall))
            .expect("at least one round ran")
    };
    let serial = time(1);
    let parallel = time(0);
    std::fs::remove_dir_all(&root).ok();
    RecoveryBench {
        records,
        segments: parallel.segments,
        loaded: parallel.loaded,
        serial_seconds: serial.wall.as_secs_f64(),
        parallel_seconds: parallel.wall.as_secs_f64(),
        threads: parallel.threads,
        available_cores: available,
        rounds,
    }
}

/// Per-chain counters of the interactive-refinement pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainStat {
    /// Examples in the chain's base (maximal-word) specification.
    pub base_examples: usize,
    /// Refinement steps the chain played (one example added per step).
    pub steps: usize,
    /// Wall seconds the warm session spent answering all steps.
    pub refine_seconds: f64,
    /// Wall seconds the sessionless service spent cold re-solving the
    /// same strengthened specifications.
    pub cold_seconds: f64,
}

/// Counters of the interactive-refinement pass: warm `refine` steps
/// against a session versus cold re-solves of the same strengthened
/// specifications.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinePass {
    /// Benchmarks that yielded a refinement chain (a solvable base with
    /// at least one deferred example).
    pub chains: usize,
    /// Total refinement steps across all chains.
    pub steps: u64,
    /// Steps the session answered with warm reuse (retained state).
    pub warm: u64,
    /// Wall seconds of all warm refine steps.
    pub refine_seconds_total: f64,
    /// Wall seconds of all cold re-solves of the same specifications.
    pub cold_seconds_total: f64,
    /// Per-chain breakdown.
    pub per_chain: Vec<ChainStat>,
}

impl RefinePass {
    /// `cold_seconds_total / refine_seconds_total` (0 when refine is 0).
    pub fn speedup(&self) -> f64 {
        if self.refine_seconds_total > 0.0 {
            self.cold_seconds_total / self.refine_seconds_total
        } else {
            0.0
        }
    }
}

/// Splits a specification into a refinement chain: the *base* keeps the
/// maximal examples — words that are not proper infixes of any other
/// example — and the remaining (infix) examples arrive one at a time as
/// refinement steps. Because the maximal words already fix the infix
/// closure, every step strengthens the base without growing the closure,
/// which is exactly the case a warm session resumes instead of falling
/// back cold. Specifications whose base would lose every positive
/// example, or with nothing to defer, yield no chain.
pub fn refinement_chain(spec: &Spec) -> Option<(Spec, Vec<Spec>)> {
    let all: Vec<(&Word, bool)> = spec
        .positive()
        .iter()
        .map(|word| (word, true))
        .chain(spec.negative().iter().map(|word| (word, false)))
        .collect();
    // pos/neg are disjoint sets, so words are unique and "proper infix
    // of another example" is simply "infix of a different example".
    let deferred_word = |word: &Word| {
        all.iter()
            .any(|(other, _)| *other != word && other.contains_infix(word))
    };
    let mut pos: BTreeSet<Word> = BTreeSet::new();
    let mut neg: BTreeSet<Word> = BTreeSet::new();
    let mut deferred: Vec<(Word, bool)> = Vec::new();
    for (word, positive) in &all {
        if deferred_word(word) {
            deferred.push(((*word).clone(), *positive));
        } else if *positive {
            pos.insert((*word).clone());
        } else {
            neg.insert((*word).clone());
        }
    }
    if pos.is_empty() || deferred.is_empty() {
        return None;
    }
    let base = Spec::new(pos.clone(), neg.clone()).ok()?;
    let mut steps = Vec::with_capacity(deferred.len());
    for (word, positive) in deferred {
        if positive {
            pos.insert(word);
        } else {
            neg.insert(word);
        }
        steps.push(Spec::new(pos.clone(), neg.clone()).ok()?);
    }
    Some((base, steps))
}

/// Replays every chain-able benchmark as an interactive refinement: one
/// single-worker service holds the warm sessions, a second, identically
/// configured service cold re-solves each strengthened specification.
/// Both sides run the same backend and budgets, and every step waits for
/// its answer before the next example is added — the interactive usage
/// pattern the session API exists for.
pub fn run_refine_pass(config: &HarnessConfig) -> RefinePass {
    let pool = benchmark_pool(config);
    let synth = config.synth_config(REFERENCE.costs);
    let service_config = || {
        ServiceConfig::new(1)
            .with_queue_capacity(pool.len().max(1))
            .with_synth(synth.clone())
    };
    let warm_service = SynthService::start(service_config()).expect("harness config is valid");
    let cold_service = SynthService::start(service_config()).expect("harness config is valid");

    let mut pass = RefinePass {
        chains: 0,
        steps: 0,
        warm: 0,
        refine_seconds_total: 0.0,
        cold_seconds_total: 0.0,
        per_chain: Vec::new(),
    };
    for (index, bench) in pool.iter().enumerate() {
        let Some((base, steps)) = refinement_chain(&bench.spec) else {
            continue;
        };
        let name = format!("chain-{index}");
        warm_service
            .open_session(Some(&name), None)
            .expect("service accepts sessions while open");
        // Solve the base through the session (untimed: both sides would
        // pay it identically) and skip chains whose base fails — a
        // failed previous run never retains state to refine from.
        let base_request = SynthRequest::new(base).with_session(&name);
        let solved = warm_service
            .submit(base_request)
            .expect("session was just opened")
            .wait()
            .outcome
            .is_ok();
        if !solved {
            warm_service.close_session(&name).expect("session is live");
            continue;
        }
        let mut chain = ChainStat {
            base_examples: 0,
            steps: 0,
            refine_seconds: 0.0,
            cold_seconds: 0.0,
        };
        chain.base_examples = bench.spec.len() - steps.len();
        for step in steps {
            let started = Instant::now();
            let refined = warm_service
                .submit(SynthRequest::new(step.clone()).with_session(&name))
                .expect("session is live")
                .wait();
            chain.refine_seconds += started.elapsed().as_secs_f64();
            if refined
                .reuse
                .as_ref()
                .is_some_and(|reuse| reuse.label() == "warm")
            {
                pass.warm += 1;
            }
            let started = Instant::now();
            let _ = cold_service
                .submit(SynthRequest::new(step))
                .expect("cold service accepts while open")
                .wait();
            chain.cold_seconds += started.elapsed().as_secs_f64();
            chain.steps += 1;
        }
        warm_service.close_session(&name).expect("session is live");
        pass.chains += 1;
        pass.steps += chain.steps as u64;
        pass.refine_seconds_total += chain.refine_seconds;
        pass.cold_seconds_total += chain.cold_seconds;
        pass.per_chain.push(chain);
    }
    warm_service.shutdown();
    cold_service.shutdown();
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refinement_chains_defer_only_infix_examples() {
        // "101"/"100" keep the closure; "10", "", "0" and "1" are all
        // infixes of them and become the refinement steps.
        let spec = Spec::from_strs(["10", "101", "100"], ["", "0", "1"]).unwrap();
        let (base, steps) = refinement_chain(&spec).expect("the intro spec chains");
        assert_eq!(base.num_positive(), 2);
        assert_eq!(base.num_negative(), 0);
        assert_eq!(steps.len(), 4);
        // Each step adds exactly one example; the last step is the
        // original specification.
        for (index, step) in steps.iter().enumerate() {
            assert_eq!(step.len(), base.len() + index + 1);
        }
        assert_eq!(steps.last().unwrap().canonicalize(), spec.canonicalize());
        // A spec of incomparable words has nothing to defer.
        let flat = Spec::from_strs(["01"], ["10"]).unwrap();
        assert!(refinement_chain(&flat).is_none());
        // A spec whose positives are all infixes of a negative would
        // leave a positive-free base: no chain.
        let swallowed = Spec::from_strs(["0"], ["00"]).unwrap();
        assert!(refinement_chain(&swallowed).is_none());
    }

    #[test]
    fn the_recovery_bench_cleans_up_and_uses_every_core() {
        let dir = std::env::temp_dir().join(format!("rei-bench-recovery-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let bench = run_recovery(&dir, 2_000);
        assert_eq!(bench.records, 2_000);
        assert_eq!(bench.loaded, 2_000, "unique keys all survive the merge");
        assert!(bench.segments >= 4, "{bench:?}");
        assert!(bench.threads >= 1 && bench.threads <= bench.available_cores);
        assert!(bench.rounds == 3);
        assert!(
            !dir.join("recovery-bench").exists(),
            "the fabricated store is removed"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
