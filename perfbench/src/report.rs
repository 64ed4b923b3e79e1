//! The result line: attempted and failed operations plus every metric by
//! name with its unit, printed as one JSON object.

use std::fmt::Write as _;

/// Failures printed to standard error; the counts carry the rest.
const SHOWN_FAILURES: u64 = 10;

/// The checked operations and the metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one checked operation; `Err` says why it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(&why);
        }
    }

    /// Adds operations checked elsewhere: `attempted` of them, of which
    /// `failures` failed.
    pub fn count(&mut self, attempted: u64, failures: &[String]) {
        self.attempted += attempted;
        for why in failures {
            self.fail(why);
        }
    }

    fn fail(&mut self, why: &str) {
        self.failed += 1;
        if self.failed <= SHOWN_FAILURES {
            eprintln!("perfbench: failed: {why}");
        }
    }

    /// Records a metric. A ratio over nothing (not finite) reads 0.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit));
    }

    /// Whether every checked operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (index, (name, value, unit)) in self.metrics.iter().enumerate() {
            if index > 0 {
                line.push_str(", ");
            }
            let _ = write!(
                line,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        line
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The latencies of one request class over a whole loop, in milliseconds.
#[derive(Debug, Default)]
pub struct Latencies(Vec<f64>);

impl Latencies {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn extend(&mut self, other: Latencies) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The nearest-rank median.
    pub fn p50(&self) -> f64 {
        percentile(&self.0, 50.0)
    }

    /// The nearest-rank 99th percentile.
    pub fn p99(&self) -> f64 {
        percentile(&self.0, 99.0)
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
