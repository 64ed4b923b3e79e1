//! The experiment harness: one function per table/figure of the paper,
//! plus the speed gates of `reproduce check` ([`run_check`]).
//!
//! Every experiment takes a [`HarnessConfig`] and returns plain row
//! structures; the `reproduce` binary only formats and prints them. All
//! randomness is seeded, so runs are reproducible.

mod check;
mod error_table;
mod figure1;
mod outliers;
mod perf;
mod serve;
mod table1;
mod table2;

pub use check::{run_check, Verdict};
pub use error_table::{paper_error_spec, run_error_table, ErrorRow};
pub use figure1::{benchmark_pool, run_figure1, Figure1Row};
pub use outliers::{outlier_distribution, OutlierRow, PAPER_THRESHOLDS};
pub use perf::{run_kernels, KernelPerfRow};
pub use serve::{
    refinement_chain, run_recovery, run_refine_pass, ChainStat, RecoveryBench, RefinePass,
};
pub use table1::{run_table1, Table1Row};
pub use table2::{run_table2, Table2Row};

use std::time::Duration;

use gpu_sim::Device;
use rei_core::{
    BackendChoice, DeviceParallel, Sequential, SynthConfig, SynthSession, SynthesisError,
    SynthesisResult,
};
use rei_lang::Spec;
use rei_syntax::CostFn;
use serde::{Deserialize, Serialize};

/// How much work an experiment should do.
///
/// `Quick` keeps every experiment in the range of seconds so that it can
/// run inside the test suite; `Full` approaches the paper's
/// parameters and can take considerably longer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Seconds-scale experiments (default for tests and `reproduce`).
    Quick,
    /// Paper-scale experiments (`reproduce --full`).
    Full,
}

/// Configuration shared by all experiments.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// How much work to do.
    pub scale: Scale,
    /// Seed for all random benchmark generation.
    pub seed: u64,
    /// Per-run wall-clock budget (the paper uses 5 seconds for Figure 1).
    pub time_budget: Duration,
    /// Memory budget of the language cache per run, in bytes.
    pub memory_budget: usize,
    /// Number of worker threads of the simulated GPU device.
    pub device_threads: usize,
}

impl HarnessConfig {
    /// A quick configuration suitable for tests and `reproduce`.
    pub fn quick() -> Self {
        HarnessConfig {
            scale: Scale::Quick,
            seed: 0xC0FFEE,
            time_budget: Duration::from_millis(1500),
            memory_budget: 64 * 1024 * 1024,
            device_threads: available_threads(),
        }
    }

    /// A paper-scale configuration (5-second timeout per run).
    pub fn full() -> Self {
        HarnessConfig {
            scale: Scale::Full,
            seed: 0xC0FFEE,
            time_budget: Duration::from_secs(5),
            memory_budget: 512 * 1024 * 1024,
            device_threads: available_threads(),
        }
    }

    /// A session configuration for this harness with the given cost
    /// function: harness memory and time budgets, sequential backend.
    pub fn synth_config(&self, costs: CostFn) -> SynthConfig {
        SynthConfig::new(costs)
            .with_memory_budget(self.memory_budget)
            .with_time_budget(self.time_budget)
    }

    /// The simulated device an experiment shares across all of its
    /// data-parallel sessions. The device carries a thread count and its
    /// launch counters, not a thread pool: every batch it runs spawns its
    /// workers afresh. Sharing it accumulates the device statistics per
    /// experiment rather than per run.
    pub fn device(&self) -> Device {
        Device::with_threads(self.device_threads)
    }

    /// A reusable sequential session for this configuration.
    pub fn sequential_session(&self, costs: CostFn) -> SynthSession {
        let config = self.synth_config(costs);
        SynthSession::with_backend(config, Box::new(Sequential)).expect("harness config is valid")
    }

    /// A reusable data-parallel session sharing `device` with the rest of
    /// the experiment.
    pub fn parallel_session(&self, costs: CostFn, device: &Device) -> SynthSession {
        self.parallel_session_with(self.synth_config(costs), device)
    }

    /// Like [`parallel_session`](HarnessConfig::parallel_session) but for
    /// an experiment-specific config (different allowed error, budget, …);
    /// the config's own backend choice is overridden by the shared device.
    pub fn parallel_session_with(&self, config: SynthConfig, device: &Device) -> SynthSession {
        let config = config.with_backend(BackendChoice::DeviceParallel {
            threads: Some(self.device_threads),
        });
        SynthSession::with_backend(
            config,
            Box::new(DeviceParallel::with_device(device.clone())),
        )
        .expect("harness config is valid")
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// The outcome of running one synthesis task inside the harness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunOutcome {
    /// The run produced an expression.
    Solved {
        /// Wall-clock seconds.
        seconds: f64,
        /// Cost of the result under the run's cost function.
        cost: u64,
        /// Number of candidate expressions generated/checked.
        candidates: u64,
        /// The result, pretty printed.
        regex: String,
    },
    /// The run exceeded its wall-clock budget.
    Timeout,
    /// The run exceeded its memory budget.
    OutOfMemory,
    /// The search space was exhausted without a solution.
    NotFound,
    /// The run was cancelled through its session's cancel token.
    Cancelled,
}

impl RunOutcome {
    /// The wall-clock seconds of a solved run.
    pub fn seconds(&self) -> Option<f64> {
        match self {
            RunOutcome::Solved { seconds, .. } => Some(*seconds),
            _ => None,
        }
    }

    /// The number of candidates of a solved run.
    pub fn candidates(&self) -> Option<u64> {
        match self {
            RunOutcome::Solved { candidates, .. } => Some(*candidates),
            _ => None,
        }
    }

    /// The result cost of a solved run.
    pub fn cost(&self) -> Option<u64> {
        match self {
            RunOutcome::Solved { cost, .. } => Some(*cost),
            _ => None,
        }
    }

    /// Returns `true` if the run produced an expression.
    pub fn is_solved(&self) -> bool {
        matches!(self, RunOutcome::Solved { .. })
    }

    /// A short status label for reports.
    pub fn label(&self) -> String {
        match self {
            RunOutcome::Solved { seconds, .. } => format!("{seconds:.4}s"),
            RunOutcome::Timeout => "timeout".to_string(),
            RunOutcome::OutOfMemory => "oom".to_string(),
            RunOutcome::NotFound => "not-found".to_string(),
            RunOutcome::Cancelled => "cancelled".to_string(),
        }
    }
}

/// Runs one Paresy synthesis through a session and converts the result
/// into a [`RunOutcome`].
///
/// # Panics
///
/// Panics on [`SynthesisError::InvalidConfig`]: the harness builds its own
/// configurations, so an invalid one is a bug, not a benchmark outcome.
pub fn run_paresy(session: &mut SynthSession, spec: &Spec) -> RunOutcome {
    match session.run(spec) {
        Ok(SynthesisResult { regex, cost, stats }) => RunOutcome::Solved {
            seconds: stats.elapsed.as_secs_f64(),
            cost,
            candidates: stats.candidates_generated,
            regex: regex.to_string(),
        },
        Err(SynthesisError::Timeout { .. }) => RunOutcome::Timeout,
        Err(SynthesisError::OutOfMemory { .. }) => RunOutcome::OutOfMemory,
        Err(SynthesisError::NotFound { .. }) => RunOutcome::NotFound,
        Err(SynthesisError::Cancelled { .. }) => RunOutcome::Cancelled,
        Err(err @ SynthesisError::InvalidConfig { .. }) => {
            panic!("harness produced an invalid configuration: {err}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_bounded() {
        let config = HarnessConfig::quick();
        assert_eq!(config.scale, Scale::Quick);
        assert!(config.time_budget <= Duration::from_secs(2));
        assert!(config.device_threads >= 1);
    }

    #[test]
    fn outcome_accessors() {
        let solved = RunOutcome::Solved {
            seconds: 0.25,
            cost: 8,
            candidates: 100,
            regex: "10(0+1)*".into(),
        };
        assert!(solved.is_solved());
        assert_eq!(solved.seconds(), Some(0.25));
        assert_eq!(solved.cost(), Some(8));
        assert_eq!(solved.candidates(), Some(100));
        assert_eq!(solved.label(), "0.2500s");
        assert_eq!(RunOutcome::Timeout.seconds(), None);
        assert_eq!(RunOutcome::OutOfMemory.label(), "oom");
        assert!(!RunOutcome::NotFound.is_solved());
    }

    #[test]
    fn run_paresy_reports_solved_and_timeout() {
        let config = HarnessConfig::quick();
        let spec = Spec::from_strs(["0", "00"], ["1", "10"]).unwrap();
        let mut session = config.sequential_session(CostFn::UNIFORM);
        assert!(run_paresy(&mut session, &spec).is_solved());

        let spec = Spec::from_strs(
            ["10", "101", "100", "1010", "1011", "1000", "1001"],
            ["", "0", "1", "00", "11", "010"],
        )
        .unwrap();
        let strict = SynthConfig::new(CostFn::UNIFORM).with_time_budget(Duration::ZERO);
        let mut strict = SynthSession::new(strict).unwrap();
        assert_eq!(run_paresy(&mut strict, &spec), RunOutcome::Timeout);
        assert_eq!(session.stats().runs, 1);
        assert_eq!(strict.stats().failed, 1);
    }

    #[test]
    fn cancelled_runs_have_their_own_outcome() {
        let config = HarnessConfig::quick();
        let spec = Spec::from_strs(["0", "00"], ["1", "10"]).unwrap();
        let mut session = config.sequential_session(CostFn::UNIFORM);
        session.cancel_token().cancel();
        assert_eq!(run_paresy(&mut session, &spec), RunOutcome::Cancelled);
        assert_eq!(RunOutcome::Cancelled.label(), "cancelled");
    }
}
