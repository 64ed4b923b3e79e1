//! Figure 1: synthesis time of random benchmarks across 12 cost functions.

use rei_lang::Alphabet;
use serde::{Deserialize, Serialize};

use crate::costs::PAPER_COST_FUNCTIONS;
use crate::generator::{generate_pool, Benchmark};
use crate::harness::{run_paresy, HarnessConfig, RunOutcome, Scale};

/// One measurement of Figure 1: a benchmark run under one cost function.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure1Row {
    /// Benchmark name (`T1-…` / `T2-…`).
    pub benchmark: String,
    /// Which generation scheme produced the benchmark (1 or 2).
    pub scheme: u8,
    /// Number of positive examples.
    pub num_positive: usize,
    /// Number of negative examples.
    pub num_negative: usize,
    /// Maximal example length.
    pub max_len: usize,
    /// Label of the cost function.
    pub cost_label: String,
    /// The measured outcome.
    pub outcome: RunOutcome,
}

/// The benchmark pool used by Figure 1 and Table 1 for a configuration.
pub fn benchmark_pool(config: &HarnessConfig) -> Vec<Benchmark> {
    let alphabet = Alphabet::binary();
    match config.scale {
        // Paper parameters: Type 1 with p, n ∈ 8..12 and le ≤ 7; Type 2
        // with p, n ∈ 7..14 and le ≤ 10.
        Scale::Full => generate_pool(
            &alphabet,
            25,
            (4, 7),
            (8, 12),
            (4, 10),
            (7, 14),
            config.seed,
        ),
        // Quick: smaller example counts and lengths so a full sweep stays
        // in the seconds range.
        Scale::Quick => generate_pool(&alphabet, 5, (2, 4), (3, 5), (2, 5), (3, 5), config.seed),
    }
}

/// Runs the Figure 1 sweep: every benchmark of the pool under every cost
/// function, on the data-parallel backend, with the configured per-run
/// timeout.
///
/// One device and one session per cost function serve the whole pool, so
/// device setup is amortised across the sweep.
pub fn run_figure1(config: &HarnessConfig) -> Vec<Figure1Row> {
    let pool = benchmark_pool(config);
    let device = config.device();
    let mut rows = Vec::with_capacity(pool.len() * PAPER_COST_FUNCTIONS.len());
    let mut sessions: Vec<_> = PAPER_COST_FUNCTIONS
        .iter()
        .map(|named| config.parallel_session(named.costs, &device))
        .collect();
    for benchmark in &pool {
        for (named, session) in PAPER_COST_FUNCTIONS.iter().zip(&mut sessions) {
            let outcome = run_paresy(session, &benchmark.spec);
            rows.push(Figure1Row {
                benchmark: benchmark.name.clone(),
                scheme: benchmark.scheme,
                num_positive: benchmark.spec.num_positive(),
                num_negative: benchmark.spec.num_negative(),
                max_len: benchmark.spec.max_example_len(),
                cost_label: named.label.to_string(),
                outcome,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_pool_is_small_and_named() {
        let pool = benchmark_pool(&HarnessConfig::quick());
        assert!(!pool.is_empty());
        assert!(pool.len() <= 10);
        assert!(pool
            .iter()
            .all(|b| b.name.starts_with("T1-") || b.name.starts_with("T2-")));
    }

    #[test]
    fn quick_sweep_produces_a_row_per_cost_function() {
        let mut config = HarnessConfig::quick();
        // Keep this unit test fast: tiny pool via a different seed range is
        // not possible, so shrink the timeout instead.
        config.time_budget = std::time::Duration::from_millis(250);
        let rows = run_figure1(&config);
        let pool = benchmark_pool(&config);
        assert_eq!(rows.len(), pool.len() * 12);
        assert!(rows.iter().any(|r| r.outcome.is_solved()));
        // Every benchmark appears with all 12 cost functions.
        let per_bench = rows
            .iter()
            .filter(|r| r.benchmark == rows[0].benchmark)
            .count();
        assert_eq!(per_bench, 12);
    }
}
