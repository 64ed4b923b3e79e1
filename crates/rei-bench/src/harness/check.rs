//! The `check` experiment: the repository's speed gates.
//!
//! Three timing comparisons, each a claim some part of the design rests
//! on:
//!
//! * **kernels** — the mask-based concatenation and the squared star beat
//!   the split-gather and linear-iteration kernels they replaced by a
//!   geometric mean of at least [`MIN_KERNEL_SPEEDUP`] over the Table 1
//!   pool ([`run_kernels`]);
//! * **recovery** — a multi-segment write-ahead log replays faster with
//!   one thread per core than with one thread, whenever the host has two
//!   cores or more ([`run_recovery`]);
//! * **refine** — answering each added example through a warm session
//!   beats cold re-solving the strengthened specification
//!   ([`run_refine_pass`]).
//!
//! Measuring and judging are separate: [`kernel_verdict`],
//! [`recovery_verdict`] and [`refine_verdict`] are pure functions of the
//! measured numbers, so each pass/fail rule is unit-tested without
//! timing anything. CI runs `reproduce check` in release mode; the debug
//! test suite never asserts a speed.

use std::fmt;

use crate::harness::perf::geomean;
use crate::harness::{
    run_kernels, run_recovery, run_refine_pass, HarnessConfig, KernelPerfRow, RecoveryBench,
    RefinePass, Scale,
};

/// The smallest geometric-mean speedup the mask-based concat and the
/// squared star must show over the kernels they replaced.
pub(crate) const MIN_KERNEL_SPEEDUP: f64 = 1.5;

/// The judgement of one speed gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The gate's name: `kernels`, `recovery` or `refine`.
    pub gate: &'static str,
    /// The measured numbers, on one line.
    pub summary: String,
    /// Each violated condition; empty when the gate passes.
    pub failures: Vec<String>,
}

impl Verdict {
    fn judge(gate: &'static str, summary: String, conditions: Vec<(bool, String)>) -> Self {
        let failures = conditions
            .into_iter()
            .filter(|(holds, _)| !holds)
            .map(|(_, condition)| condition)
            .collect();
        Verdict {
            gate,
            summary,
            failures,
        }
    }

    /// `true` when every condition of the gate holds.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.passed() {
            write!(f, "PASS {}: {}", self.gate, self.summary)
        } else {
            write!(
                f,
                "FAIL {}: {}; violated: {}",
                self.gate,
                self.summary,
                self.failures.join(", ")
            )
        }
    }
}

/// Judges the kernel micro-timings: both geometric-mean speedups must
/// reach [`MIN_KERNEL_SPEEDUP`], over at least one benchmark whose every
/// timing is positive.
pub(crate) fn kernel_verdict(rows: &[KernelPerfRow]) -> Verdict {
    let concat = geomean(rows.iter().map(|k| k.concat_speedup));
    let star = geomean(rows.iter().map(|k| k.star_speedup));
    let timed = rows.iter().all(|k| {
        k.concat_gather_ns > 0.0
            && k.concat_masked_ns > 0.0
            && k.star_linear_ns > 0.0
            && k.star_squared_ns > 0.0
    });
    Verdict::judge(
        "kernels",
        format!(
            "geomean speedup concat {concat:.2}x, star {star:.2}x over {} benchmarks \
             (bound {MIN_KERNEL_SPEEDUP}x)",
            rows.len()
        ),
        vec![
            (!rows.is_empty(), "benchmarks > 0".into()),
            (timed, "every kernel timing > 0".into()),
            (
                concat >= MIN_KERNEL_SPEEDUP,
                format!("concat speedup >= {MIN_KERNEL_SPEEDUP}"),
            ),
            (
                star >= MIN_KERNEL_SPEEDUP,
                format!("star speedup >= {MIN_KERNEL_SPEEDUP}"),
            ),
        ],
    )
}

/// Judges the serial-versus-parallel WAL replay: every fabricated record
/// is loaded from a store of at least four segments, timed over at least
/// three rounds on between one and all cores; with two cores or more the
/// replay must use at least two threads and beat the serial one.
pub(crate) fn recovery_verdict(bench: &RecoveryBench) -> Verdict {
    let multi_core = bench.available_cores >= 2;
    Verdict::judge(
        "recovery",
        format!(
            "{} records / {} segments; serial {:.2} ms vs parallel {:.2} ms on {} threads \
             of {} cores ({:.2}x)",
            bench.records,
            bench.segments,
            bench.serial_seconds * 1e3,
            bench.parallel_seconds * 1e3,
            bench.threads,
            bench.available_cores,
            bench.speedup()
        ),
        vec![
            (bench.records > 0, "records > 0".into()),
            (bench.loaded == bench.records, "loaded == records".into()),
            (bench.segments >= 4, "segments >= 4".into()),
            (bench.serial_seconds > 0.0, "serial time > 0".into()),
            (bench.parallel_seconds > 0.0, "parallel time > 0".into()),
            (bench.rounds >= 3, "rounds >= 3".into()),
            (
                (1..=bench.available_cores).contains(&bench.threads),
                "1 <= threads <= cores".into(),
            ),
            (
                !multi_core || bench.threads >= 2,
                "threads >= 2 on >= 2 cores".into(),
            ),
            (
                !multi_core || bench.parallel_seconds < bench.serial_seconds,
                "parallel < serial on >= 2 cores".into(),
            ),
        ],
    )
}

/// Judges the interactive-refinement pass: real chains were played, at
/// least one step reused warm state, the per-chain breakdown adds up,
/// and the warm refines beat the cold re-solves outright.
pub(crate) fn refine_verdict(pass: &RefinePass) -> Verdict {
    let chain_steps: u64 = pass.per_chain.iter().map(|c| c.steps as u64).sum();
    let chains_timed = pass.per_chain.iter().all(|c| {
        c.base_examples > 0 && c.steps > 0 && c.refine_seconds > 0.0 && c.cold_seconds > 0.0
    });
    Verdict::judge(
        "refine",
        format!(
            "{} chains / {} steps ({} warm); refine {:.2} ms vs cold re-solve {:.2} ms ({:.2}x)",
            pass.chains,
            pass.steps,
            pass.warm,
            pass.refine_seconds_total * 1e3,
            pass.cold_seconds_total * 1e3,
            pass.speedup()
        ),
        vec![
            (pass.chains > 0, "chains > 0".into()),
            (pass.steps > 0, "steps > 0".into()),
            (
                (1..=pass.steps).contains(&pass.warm),
                "1 <= warm <= steps".into(),
            ),
            (
                pass.per_chain.len() == pass.chains,
                "one breakdown per chain".into(),
            ),
            (chain_steps == pass.steps, "chain steps sum to steps".into()),
            (
                chains_timed,
                "every chain has examples, steps and both times > 0".into(),
            ),
            (
                pass.refine_seconds_total < pass.cold_seconds_total,
                "refine total < cold total".into(),
            ),
            (pass.speedup() > 1.0, "speedup > 1".into()),
        ],
    )
}

/// Runs the three timing comparisons and judges each. The recovery
/// store is fabricated in a per-process scratch directory that is
/// removed afterwards.
pub fn run_check(config: &HarnessConfig) -> Vec<Verdict> {
    let kernels = kernel_verdict(&run_kernels(config));
    let refine = refine_verdict(&run_refine_pass(config));

    let records = match config.scale {
        Scale::Quick => 5_000,
        Scale::Full => 40_000,
    };
    let scratch = std::env::temp_dir().join(format!("rei-check-{}", std::process::id()));
    let recovery = recovery_verdict(&run_recovery(&scratch, records));
    std::fs::remove_dir_all(&scratch).ok();
    vec![kernels, recovery, refine]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ChainStat;

    fn kernel(concat_speedup: f64, star_speedup: f64) -> KernelPerfRow {
        KernelPerfRow {
            benchmark: "T1-0".into(),
            closure_size: 20,
            concat_gather_ns: 100.0 * concat_speedup,
            concat_masked_ns: 100.0,
            concat_speedup,
            star_linear_ns: 100.0 * star_speedup,
            star_squared_ns: 100.0,
            star_speedup,
        }
    }

    fn recovery() -> RecoveryBench {
        RecoveryBench {
            records: 5_000,
            segments: 24,
            loaded: 5_000,
            serial_seconds: 0.009,
            parallel_seconds: 0.005,
            threads: 2,
            available_cores: 2,
            rounds: 3,
        }
    }

    fn refine() -> RefinePass {
        let chain = ChainStat {
            base_examples: 4,
            steps: 3,
            refine_seconds: 0.002,
            cold_seconds: 0.004,
        };
        RefinePass {
            chains: 2,
            steps: 6,
            warm: 6,
            refine_seconds_total: 0.004,
            cold_seconds_total: 0.008,
            per_chain: vec![chain.clone(), chain],
        }
    }

    /// Asserts that `verdict` failed on exactly `condition`.
    fn fails_on(verdict: Verdict, condition: &str) {
        assert_eq!(verdict.failures, [condition], "{verdict}");
        assert!(verdict.to_string().starts_with("FAIL "), "{verdict}");
    }

    #[test]
    fn passing_measurements_pass_every_gate() {
        for verdict in [
            kernel_verdict(&[kernel(4.9, 6.9), kernel(5.1, 7.0)]),
            recovery_verdict(&recovery()),
            refine_verdict(&refine()),
        ] {
            assert!(verdict.passed(), "{verdict}");
            assert!(verdict.to_string().starts_with("PASS "), "{verdict}");
        }
        // One core cannot show a parallel speedup, so it is not asked to.
        let single_core = RecoveryBench {
            threads: 1,
            available_cores: 1,
            parallel_seconds: 0.010,
            ..recovery()
        };
        assert!(recovery_verdict(&single_core).passed());
    }

    #[test]
    fn each_kernel_condition_fails_on_its_own() {
        let empty = kernel_verdict(&[]);
        assert!(empty.failures.contains(&"benchmarks > 0".to_string()));
        let mut untimed = kernel(4.0, 4.0);
        untimed.star_squared_ns = 0.0;
        fails_on(kernel_verdict(&[untimed]), "every kernel timing > 0");
        fails_on(
            kernel_verdict(&[kernel(1.2, 6.0), kernel(1.8, 6.0)]),
            "concat speedup >= 1.5",
        );
        fails_on(kernel_verdict(&[kernel(6.0, 1.4)]), "star speedup >= 1.5");
    }

    #[test]
    fn each_recovery_condition_fails_on_its_own() {
        let cases: [(RecoveryBench, &str); 9] = [
            (
                RecoveryBench {
                    records: 0,
                    loaded: 0,
                    ..recovery()
                },
                "records > 0",
            ),
            (
                RecoveryBench {
                    loaded: 4_999,
                    ..recovery()
                },
                "loaded == records",
            ),
            (
                RecoveryBench {
                    segments: 3,
                    ..recovery()
                },
                "segments >= 4",
            ),
            (
                RecoveryBench {
                    serial_seconds: 0.0,
                    available_cores: 1,
                    threads: 1,
                    ..recovery()
                },
                "serial time > 0",
            ),
            (
                RecoveryBench {
                    parallel_seconds: 0.0,
                    ..recovery()
                },
                "parallel time > 0",
            ),
            (
                RecoveryBench {
                    rounds: 2,
                    ..recovery()
                },
                "rounds >= 3",
            ),
            (
                RecoveryBench {
                    threads: 3,
                    ..recovery()
                },
                "1 <= threads <= cores",
            ),
            (
                RecoveryBench {
                    threads: 1,
                    ..recovery()
                },
                "threads >= 2 on >= 2 cores",
            ),
            (
                RecoveryBench {
                    parallel_seconds: 0.009,
                    ..recovery()
                },
                "parallel < serial on >= 2 cores",
            ),
        ];
        for (bench, condition) in cases {
            fails_on(recovery_verdict(&bench), condition);
        }
    }

    #[test]
    fn each_refine_condition_fails_on_its_own() {
        let empty = refine_verdict(&RefinePass {
            chains: 0,
            steps: 0,
            warm: 0,
            refine_seconds_total: 0.0,
            cold_seconds_total: 0.0,
            per_chain: Vec::new(),
        });
        for condition in ["chains > 0", "steps > 0"] {
            assert!(empty.failures.contains(&condition.to_string()), "{empty}");
        }

        let cold_only = RefinePass {
            warm: 0,
            ..refine()
        };
        fails_on(refine_verdict(&cold_only), "1 <= warm <= steps");

        let mut lost_chain = refine();
        lost_chain.per_chain.pop();
        let verdict = refine_verdict(&lost_chain);
        assert!(verdict
            .failures
            .contains(&"one breakdown per chain".to_string()));

        let mut miscounted = refine();
        miscounted.per_chain[0].steps = 2;
        miscounted.per_chain[1].steps = 2;
        fails_on(refine_verdict(&miscounted), "chain steps sum to steps");

        let mut untimed = refine();
        untimed.per_chain[1].cold_seconds = 0.0;
        fails_on(
            refine_verdict(&untimed),
            "every chain has examples, steps and both times > 0",
        );

        let unmeasured = RefinePass {
            refine_seconds_total: 0.0,
            ..refine()
        };
        fails_on(refine_verdict(&unmeasured), "speedup > 1");

        let tied = RefinePass {
            cold_seconds_total: 0.004,
            ..refine()
        };
        let verdict = refine_verdict(&tied);
        assert_eq!(
            verdict.failures,
            ["refine total < cold total", "speedup > 1"],
            "{verdict}"
        );
    }
}
