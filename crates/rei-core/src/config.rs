//! The serializable session configuration.

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

use rei_lang::{Alphabet, Spec};
use rei_syntax::CostFn;

use crate::backend::BackendChoice;
use crate::result::SynthesisError;

/// Default memory budget for the language cache (bytes). The paper
/// restricts both implementations to the 25 GB of the Colab CPU; the
/// default here is sized for laptop-scale runs and can be raised with
/// [`SynthConfig::with_memory_budget`].
pub(crate) const DEFAULT_MEMORY_BUDGET: usize = 256 * 1024 * 1024;

/// Everything a [`SynthSession`](crate::SynthSession) needs, as plain data.
///
/// A config is built with the `with_*` methods, validated once when the
/// session is created (invalid values produce
/// [`SynthesisError::InvalidConfig`] instead of panicking), and can be
/// serialized to a single `key=value` line via [`fmt::Display`] and parsed
/// back via [`FromStr`] — useful for job queues, logs and reproducible
/// benchmark manifests without a serde dependency.
///
/// # Example
///
/// ```
/// use rei_core::{BackendChoice, SynthConfig};
/// use rei_syntax::CostFn;
///
/// let config = SynthConfig::new(CostFn::UNIFORM)
///     .with_backend(BackendChoice::parallel())
///     .with_allowed_error(0.1);
/// let wire = config.to_string();
/// assert_eq!(wire.parse::<SynthConfig>().unwrap(), config);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    costs: CostFn,
    backend: BackendChoice,
    memory_budget: usize,
    max_cost: Option<u64>,
    allowed_error: f64,
    time_budget: Option<Duration>,
    alphabet: Option<Alphabet>,
    level_chunk_rows: Option<usize>,
}

impl SynthConfig {
    /// A config for the given cost homomorphism with default settings:
    /// sequential backend, 256 MiB cache budget, no explicit cost bound
    /// (the cost of the maximally overfitted expression is used), no
    /// allowed error, no time budget, alphabet inferred from each
    /// specification.
    pub fn new(costs: CostFn) -> Self {
        SynthConfig {
            costs,
            backend: BackendChoice::Sequential,
            memory_budget: DEFAULT_MEMORY_BUDGET,
            max_cost: None,
            allowed_error: 0.0,
            time_budget: None,
            alphabet: None,
            level_chunk_rows: None,
        }
    }

    /// Selects the execution backend.
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the memory budget of the language cache in bytes. When the
    /// budget is exhausted the search switches to OnTheFly mode and may
    /// eventually fail with [`SynthesisError::OutOfMemory`].
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Bounds the search to expressions of cost at most `max_cost`
    /// (`maxCost` in Algorithm 1 of the paper).
    pub fn with_max_cost(mut self, max_cost: u64) -> Self {
        self.max_cost = Some(max_cost);
        self
    }

    /// Sets the allowed error of the REI-with-error extension (§5.2): a
    /// fraction in `[0, 1]` of examples the result may misclassify.
    ///
    /// Out-of-range values are recorded as-is and rejected by
    /// [`SynthConfig::validate`] with [`SynthesisError::InvalidConfig`]
    /// when the session is created — this replaces the panic of the old
    /// `Synthesizer::with_allowed_error`.
    pub fn with_allowed_error(mut self, error: f64) -> Self {
        self.allowed_error = error;
        self
    }

    /// Bounds the wall-clock time of each run. When exceeded a run fails
    /// with [`SynthesisError::Timeout`], mirroring the 5-second timeout of
    /// the paper's random benchmark protocol.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Overrides the alphabet. By default the alphabet is the set of
    /// characters occurring in each specification's examples.
    pub fn with_alphabet(mut self, alphabet: Alphabet) -> Self {
        self.alphabet = Some(alphabet);
        self
    }

    /// Bounds the number of candidate rows a streamed cost level
    /// materialises at once (the size of the in-flight job chunk and of
    /// the batch row buffer). By default the bound is derived from the
    /// memory budget. Lower values tighten both peak memory and the
    /// cancellation latency (the stop condition is polled between
    /// chunks); `usize::MAX` is the explicit whole-level fallback — note
    /// that it makes the batch buffer scale with the largest level
    /// (quadratic in cached rows on binary-heavy levels), which is
    /// exactly what the default streaming bound exists to prevent.
    pub fn with_level_chunk_rows(mut self, rows: usize) -> Self {
        self.level_chunk_rows = Some(rows);
        self
    }

    /// The cost homomorphism results are minimised against.
    pub fn costs(&self) -> &CostFn {
        &self.costs
    }

    /// The configured backend choice.
    pub fn backend(&self) -> BackendChoice {
        self.backend
    }

    /// The language-cache memory budget in bytes.
    pub fn memory_budget(&self) -> usize {
        self.memory_budget
    }

    /// The explicit cost bound, if any.
    pub fn max_cost(&self) -> Option<u64> {
        self.max_cost
    }

    /// The allowed-error fraction.
    pub fn allowed_error(&self) -> f64 {
        self.allowed_error
    }

    /// The per-run wall-clock budget, if any.
    pub fn time_budget(&self) -> Option<Duration> {
        self.time_budget
    }

    /// The alphabet override, if any.
    pub fn alphabet(&self) -> Option<&Alphabet> {
        self.alphabet.as_ref()
    }

    /// The streamed-level chunk-row bound override, if any.
    pub fn level_chunk_rows(&self) -> Option<usize> {
        self.level_chunk_rows
    }

    /// Checks every field, returning [`SynthesisError::InvalidConfig`]
    /// with a description of the first offending value.
    pub fn validate(&self) -> Result<(), SynthesisError> {
        if !self.allowed_error.is_finite() || !(0.0..=1.0).contains(&self.allowed_error) {
            return Err(SynthesisError::invalid_config(format!(
                "allowed error must be a finite fraction in [0, 1], got {}",
                self.allowed_error
            )));
        }
        if self.memory_budget == 0 {
            return Err(SynthesisError::invalid_config(
                "memory budget must be positive",
            ));
        }
        if let Some(alphabet) = &self.alphabet {
            if alphabet.is_empty() {
                return Err(SynthesisError::invalid_config("alphabet must be non-empty"));
            }
        }
        if self.level_chunk_rows == Some(0) {
            return Err(SynthesisError::invalid_config(
                "level chunk rows must be positive",
            ));
        }
        Ok(())
    }

    /// Number of examples a result may misclassify on `spec` under the
    /// configured allowed-error fraction.
    pub fn allowed_example_errors(&self, spec: &Spec) -> usize {
        (self.allowed_error * spec.len() as f64).floor() as usize
    }
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig::new(CostFn::UNIFORM)
    }
}

impl fmt::Display for SynthConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, q, s, c, u] = self.costs.as_tuple();
        write!(
            f,
            "costs={a},{q},{s},{c},{u} backend={} memory={} error={}",
            self.backend, self.memory_budget, self.allowed_error
        )?;
        if let Some(max_cost) = self.max_cost {
            write!(f, " max-cost={max_cost}")?;
        }
        if let Some(budget) = self.time_budget {
            // Nanosecond precision so any Duration round-trips exactly
            // (milliseconds would floor a 500µs budget to 0).
            write!(f, " timeout-ns={}", budget.as_nanos())?;
        }
        if let Some(rows) = self.level_chunk_rows {
            write!(f, " level-chunk-rows={rows}")?;
        }
        if let Some(alphabet) = &self.alphabet {
            write!(f, " alphabet=")?;
            for &symbol in alphabet.symbols() {
                // Whitespace would split the token and '=' would confuse
                // key=value parsing, so those (and the escape char itself)
                // travel as \u{...} escapes.
                if symbol.is_whitespace() || symbol == '=' || symbol == '\\' {
                    write!(f, "\\u{{{:x}}}", symbol as u32)?;
                } else {
                    write!(f, "{symbol}")?;
                }
            }
        }
        Ok(())
    }
}

/// Decodes the `alphabet=` wire value: literal characters with `\u{...}`
/// escapes for whitespace, `=` and `\`.
fn parse_alphabet_value(value: &str) -> Result<Alphabet, String> {
    let mut symbols = Vec::new();
    let mut chars = value.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            symbols.push(c);
            continue;
        }
        let rest = chars.as_str();
        let hex = rest
            .strip_prefix("u{")
            .and_then(|r| r.split_once('}'))
            .ok_or_else(|| format!("malformed escape in alphabet '{value}'"))?;
        let code = u32::from_str_radix(hex.0, 16)
            .ok()
            .and_then(char::from_u32)
            .ok_or_else(|| format!("invalid \\u escape in alphabet '{value}'"))?;
        symbols.push(code);
        chars = hex.1.chars();
    }
    Ok(Alphabet::new(symbols))
}

impl FromStr for SynthConfig {
    type Err = SynthesisError;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        let invalid = |message: String| SynthesisError::InvalidConfig { message };
        let mut config = SynthConfig::default();
        for token in raw.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| invalid(format!("expected key=value, got '{token}'")))?;
            match key {
                "costs" => {
                    let parts: Vec<u64> = value
                        .split(',')
                        .map(|p| p.parse())
                        .collect::<Result<_, _>>()
                        .map_err(|_| invalid(format!("invalid cost tuple '{value}'")))?;
                    let parts: [u64; 5] = parts.try_into().map_err(|_| {
                        invalid(format!("cost tuple needs 5 components: '{value}'"))
                    })?;
                    if parts.contains(&0) {
                        return Err(invalid(format!(
                            "cost components must be strictly positive: '{value}'"
                        )));
                    }
                    config.costs = CostFn::from_tuple(parts);
                }
                "backend" => {
                    config.backend = value.parse().map_err(invalid)?;
                }
                "memory" => {
                    config.memory_budget = value
                        .parse()
                        .map_err(|_| invalid(format!("invalid memory budget '{value}'")))?;
                }
                "error" => {
                    config.allowed_error = value
                        .parse()
                        .map_err(|_| invalid(format!("invalid allowed error '{value}'")))?;
                }
                "max-cost" => {
                    config.max_cost = Some(
                        value
                            .parse()
                            .map_err(|_| invalid(format!("invalid max cost '{value}'")))?,
                    );
                }
                "timeout-ns" => {
                    let nanos: u128 = value
                        .parse()
                        .map_err(|_| invalid(format!("invalid timeout '{value}'")))?;
                    let nanos: u64 = nanos
                        .try_into()
                        .map_err(|_| invalid(format!("timeout '{value}' is out of range")))?;
                    config.time_budget = Some(Duration::from_nanos(nanos));
                }
                // Accepted for hand-written configs; the writer always
                // emits `timeout-ns`.
                "timeout-ms" => {
                    let millis: u64 = value
                        .parse()
                        .map_err(|_| invalid(format!("invalid timeout '{value}'")))?;
                    config.time_budget = Some(Duration::from_millis(millis));
                }
                "level-chunk-rows" => {
                    config.level_chunk_rows = Some(
                        value
                            .parse()
                            .map_err(|_| invalid(format!("invalid level chunk rows '{value}'")))?,
                    );
                }
                "alphabet" => {
                    config.alphabet = Some(parse_alphabet_value(value).map_err(invalid)?);
                }
                other => return Err(invalid(format!("unknown config key '{other}'"))),
            }
        }
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(SynthConfig::default().validate().is_ok());
    }

    #[test]
    fn out_of_range_error_is_invalid_config_not_a_panic() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = SynthConfig::default()
                .with_allowed_error(bad)
                .validate()
                .unwrap_err();
            assert!(
                matches!(err, SynthesisError::InvalidConfig { .. }),
                "expected InvalidConfig for {bad}, got {err:?}"
            );
        }
        assert!(SynthConfig::default()
            .with_allowed_error(0.5)
            .validate()
            .is_ok());
    }

    #[test]
    fn zero_budget_and_zero_costs_are_rejected() {
        let err = SynthConfig::default()
            .with_memory_budget(0)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("memory"));
        // `CostFn` itself forbids zero components, so they can only arrive
        // through the wire format — which must reject them cleanly.
        let err = "costs=1,0,1,1,1".parse::<SynthConfig>().unwrap_err();
        assert!(err.to_string().contains("strictly positive"));
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let configs = [
            SynthConfig::default(),
            SynthConfig::new(CostFn::new(1, 2, 10, 1, 3))
                .with_backend(BackendChoice::DeviceParallel { threads: Some(4) })
                .with_memory_budget(1 << 20)
                .with_allowed_error(0.25)
                .with_max_cost(40)
                .with_time_budget(Duration::from_millis(1500))
                .with_alphabet(Alphabet::new(['0', '1', 'a'])),
            // Sub-millisecond budgets must survive the wire format too.
            SynthConfig::default().with_time_budget(Duration::from_micros(500)),
            SynthConfig::default().with_backend(BackendChoice::ThreadParallel { threads: Some(3) }),
            SynthConfig::default().with_level_chunk_rows(4096),
            SynthConfig::default().with_level_chunk_rows(usize::MAX),
        ];
        for config in configs {
            let wire = config.to_string();
            let parsed: SynthConfig = wire.parse().unwrap_or_else(|e| panic!("{wire}: {e}"));
            assert_eq!(parsed, config, "round trip of '{wire}'");
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "costs=1,2",
            "backend=quantum",
            "memory=lots",
            "error=2.0",
            "wat=1",
            "sched-chunk=16",
            "no-equals",
            "level-chunk-rows=0",
            "level-chunk-rows=-3",
        ] {
            let err = bad.parse::<SynthConfig>().unwrap_err();
            assert!(
                matches!(err, SynthesisError::InvalidConfig { .. }),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn alphabets_with_awkward_symbols_round_trip() {
        // Whitespace, '=' and '\' would break naive key=value tokenizing;
        // they travel as \u{...} escapes.
        let config =
            SynthConfig::default().with_alphabet(Alphabet::new(['a', ' ', '=', '\\', '\t']));
        let wire = config.to_string();
        let parsed: SynthConfig = wire.parse().unwrap_or_else(|e| panic!("{wire}: {e}"));
        assert_eq!(parsed, config, "round trip of '{wire}'");

        let err = "alphabet=a\\u{zz}".parse::<SynthConfig>().unwrap_err();
        assert!(err.to_string().contains("escape"), "{err}");
        let err = "alphabet=a\\x".parse::<SynthConfig>().unwrap_err();
        assert!(err.to_string().contains("escape"), "{err}");
    }

    #[test]
    fn allowed_example_errors_floor() {
        let spec = Spec::from_strs(["0", "1"], ["00", "11"]).unwrap();
        let config = SynthConfig::default().with_allowed_error(0.5);
        assert_eq!(config.allowed_example_errors(&spec), 2);
        assert_eq!(SynthConfig::default().allowed_example_errors(&spec), 0);
    }
}
