//! Command-line argument parsing (dependency-free).

use std::error::Error;
use std::fmt;
use std::time::Duration;

use rei_core::BackendChoice;
use rei_service::{AdmissionConfig, TenantPolicy};
use rei_syntax::CostFn;

/// Options of the `synth` command.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthOptions {
    /// Comma-separated positive examples given on the command line.
    pub positives: Vec<String>,
    /// Comma-separated negative examples given on the command line.
    pub negatives: Vec<String>,
    /// Path of a `.spec` file to read examples from.
    pub spec_file: Option<String>,
    /// Paths of `.spec` files to run as one batch through a single
    /// session (`--batch`).
    pub batch_files: Vec<String>,
    /// The cost homomorphism (default uniform).
    pub costs: CostFn,
    /// Backend selection (`--backend`, with `--engine` as an alias). The
    /// accepted names come straight from `Backend::name()`, the single
    /// source of truth shared with the benchmark reports.
    pub backend: BackendChoice,
    /// Allowed error fraction (default 0).
    pub allowed_error: f64,
    /// Optional cost bound.
    pub max_cost: Option<u64>,
    /// Optional wall-clock budget.
    pub time_budget: Option<Duration>,
    /// Rows per work-stealing claim of the thread-parallel backend
    /// (`--sched-chunk`).
    pub sched_chunk: Option<usize>,
    /// Bound on candidate rows per streamed level chunk
    /// (`--level-chunk-rows`).
    pub level_chunk_rows: Option<usize>,
    /// Also run the AlphaRegex baseline and report the comparison.
    pub compare_baseline: bool,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            positives: Vec::new(),
            negatives: Vec::new(),
            spec_file: None,
            batch_files: Vec::new(),
            costs: CostFn::UNIFORM,
            backend: BackendChoice::Sequential,
            allowed_error: 0.0,
            max_cost: None,
            time_budget: None,
            sched_chunk: None,
            level_chunk_rows: None,
            compare_baseline: false,
        }
    }
}

/// Options of the `serve` command.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Worker threads of *each* service pool.
    pub workers: usize,
    /// Number of pools behind the shard router (`--pools`). Requests are
    /// routed by their `tenant` key, falling back to the specification
    /// fingerprint.
    pub pools: usize,
    /// Bound of the job queue.
    pub queue_capacity: usize,
    /// Result-cache capacity.
    pub cache_capacity: usize,
    /// The cost homomorphism every worker session runs.
    pub costs: CostFn,
    /// Backend of every worker session.
    pub backend: BackendChoice,
    /// Allowed error fraction.
    pub allowed_error: f64,
    /// Optional cost bound.
    pub max_cost: Option<u64>,
    /// Optional per-run wall-clock budget of the worker sessions
    /// (requests can additionally carry their own `timeout_ms` deadline).
    pub time_budget: Option<Duration>,
    /// Rows per work-stealing claim of the worker sessions.
    pub sched_chunk: Option<usize>,
    /// Bound on candidate rows per streamed level chunk of the worker
    /// sessions (also the cancellation granularity of request deadlines).
    pub level_chunk_rows: Option<usize>,
    /// Directory the per-pool result caches persist to (`--cache-dir`);
    /// `None` keeps every cache in memory only.
    pub cache_dir: Option<String>,
    /// Segment size at which the persistent cache's write-ahead log
    /// rolls to a fresh file (`--cache-roll-bytes`); `None` keeps the
    /// engine default. Small values force multi-segment stores, which
    /// crash-recovery tests use to exercise parallel replay.
    pub cache_roll_bytes: Option<u64>,
    /// Start stdin in stream mode: answer each request as it completes,
    /// tagged by id, instead of in input order (`--stream`).
    pub stream: bool,
    /// Emit a final metrics JSON line after the results.
    pub metrics: bool,
    /// Listen on a TCP address (`--listen ADDR`) instead of serving
    /// stdin; `:0` picks a free port, printed as `listening on ADDR`.
    pub listen: Option<String>,
    /// Size of the TCP connection-handler pool (`--net-threads`).
    pub net_threads: usize,
    /// Fair-share admission policies (`--tenant`, `--default-tenant`);
    /// only the TCP front-end enforces them.
    pub admission: AdmissionConfig,
    /// Address of the Prometheus scrape listener (`--metrics-addr`);
    /// only the TCP front-end serves one.
    pub metrics_addr: Option<String>,
    /// Slow-request SLO threshold (`--slo-ms`): a request at or above it
    /// has its trace timeline dumped to the structured log. TCP only.
    pub slo: Option<Duration>,
    /// Structured-log threshold (`--log-level`); overrides `REI_LOG`.
    pub log_level: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 2,
            pools: 1,
            queue_capacity: 64,
            cache_capacity: 1024,
            costs: CostFn::UNIFORM,
            backend: BackendChoice::Sequential,
            allowed_error: 0.0,
            max_cost: None,
            time_budget: None,
            sched_chunk: None,
            level_chunk_rows: None,
            cache_dir: None,
            cache_roll_bytes: None,
            stream: false,
            metrics: false,
            listen: None,
            net_threads: 4,
            admission: AdmissionConfig::new(),
            metrics_addr: None,
            slo: None,
            log_level: None,
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run the synthesiser on a specification (or a batch of them).
    Synth(SynthOptions),
    /// Serve JSONL synthesis requests from stdin through a worker pool.
    Serve(ServeOptions),
    /// Run one or all tasks of the bundled AlphaRegex suite.
    Suite {
        /// Specific task number (1..=25), or `None` for all easy tasks.
        task: Option<usize>,
    },
    /// Generate a random specification and print it in `.spec` format.
    Generate {
        /// Benchmark scheme (1 or 2).
        scheme: u8,
        /// Maximal example length.
        max_len: usize,
        /// Number of positive examples.
        positives: usize,
        /// Number of negative examples.
        negatives: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Print usage information.
    Help,
}

/// An error produced while parsing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandError(pub String);

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for CommandError {}

/// The usage string printed by `paresy help`.
pub const USAGE: &str = "\
paresy — search-based regular expression inference (Paresy, PLDI 2023)

USAGE:
  paresy synth    [--pos w1,w2,...] [--neg w1,w2,...] [--spec-file FILE]
                  [--batch FILE1,FILE2,...]
                  [--cost a,q,s,c,u]
                  [--backend cpu-sequential|cpu-thread-parallel|gpu-sim-parallel]
                  [--error FRACTION] [--max-cost N] [--timeout SECONDS]
                  [--sched-chunk ROWS] [--level-chunk-rows ROWS]
                  [--compare-baseline]
  paresy serve    [--workers N] [--pools N] [--queue N] [--cache N]
                  [--cache-dir DIR] [--cache-roll-bytes N] [--stream]
                  [--listen ADDR] [--net-threads N]
                  [--metrics-addr ADDR] [--slo-ms MS] [--log-level LEVEL]
                  [--tenant NAME=WEIGHT,RATE,BURST,MAX_INFLIGHT]
                  [--default-tenant WEIGHT,RATE,BURST,MAX_INFLIGHT]
                  [--cost a,q,s,c,u] [--backend NAME] [--error FRACTION]
                  [--max-cost N] [--timeout SECONDS]
                  [--sched-chunk ROWS] [--level-chunk-rows ROWS] [--metrics]
  paresy suite    [--task N]
  paresy generate [--scheme 1|2] [--max-len N] [--positives N] [--negatives N] [--seed N]
  paresy help

Examples are comma separated; the empty string is written 'ε'.
Backends also accept the aliases sequential/cpu, threads/thread-parallel
and parallel/gpu; the multi-threaded forms take an optional thread count
(threads:4, parallel:8). --batch runs every file through one session, so
a parallel backend's device is set up once.

--sched-chunk sets the rows per work-stealing claim of the
thread-parallel backend (smaller balances skew, larger amortises
claiming); --level-chunk-rows bounds the candidate rows a cost level
materialises at once (peak batch memory and cancellation granularity).
Both default to engine-chosen values.

serve reads one JSON request per stdin line, e.g.
  {\"id\": \"r1\", \"pos\": [\"10\", \"101\"], \"neg\": [\"\", \"0\"],
   \"priority\": 1, \"timeout_ms\": 500, \"tenant\": \"acme\"}
and emits one JSON answer per line, in input order (with --stream: as
each completes, tagged by id, order not guaranteed). Identical
requests are answered by the result cache or coalesced onto one
in-flight synthesis. --pools shards requests across N pools by tenant
key (spec fingerprint when absent); --cache-dir persists each pool's
result cache to a segmented write-ahead log under DIR/pool-K/ and warms
it on the next start — even after a crash or kill -9 — so a restarted
server answers repeats without re-running syntheses.
--cache-roll-bytes sets the segment size at which that log rolls to a
fresh file (default 1 MiB; small values force multi-segment stores).
--metrics appends a final metrics JSON line (router snapshot). The
verbs ping/hello/metrics/trace/prometheus/session.open/session.close
work on stdin and on TCP; {\"op\": \"mode\", \"value\": \"stream\"}
switches between ordered and streaming answers, and {\"op\":
\"shutdown\"} ends the input (on TCP: drains the whole server).

--listen ADDR serves the same protocol over TCP instead of stdin
(':0' picks a free port, printed as 'listening on ADDR'). Connections
are handled by a pool of --net-threads threads. --tenant
gives one tenant a fair-share admission policy (request weight, token
rate per second, bucket burst, max in-flight; rate/burst accept 'inf'),
--default-tenant replaces the all-unlimited policy for everyone else.
Over-limit requests are answered with \"status\": \"rejected\",
\"reason\": \"rate_limited\" instead of queueing. Ctrl-C or a shutdown
verb drains in-flight work, persists caches and exits cleanly.

--metrics-addr ADDR serves a Prometheus text-format scrape of the live
router metrics on a dedicated listener (':0' picks a free port, printed
as 'metrics on ADDR'); the same body is available as the 'prometheus'
verb on request connections. Every admitted request gets a trace id
(echoed as \"trace\" in its answer); the 'trace' verb
({\"op\": \"trace\", \"trace\": N}) returns the request's phase
timeline. --slo-ms MS dumps the timeline of any request whose
end-to-end latency reaches MS to the structured stderr log.
--log-level error|warn|info|debug sets that log's threshold (default
info; the REI_LOG environment variable is the process-wide default).
";

fn split_words(raw: &str) -> Vec<String> {
    raw.split(',')
        .map(|w| {
            if w == "ε" || w == "<eps>" {
                String::new()
            } else {
                w.to_string()
            }
        })
        .collect()
}

fn parse_cost(raw: &str) -> Result<CostFn, CommandError> {
    let parts: Vec<u64> = raw
        .split(',')
        .map(|p| p.trim().parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|_| CommandError(format!("invalid cost tuple '{raw}'")))?;
    if parts.len() != 5 || parts.contains(&0) {
        return Err(CommandError(format!(
            "cost tuple must have five strictly positive components, got '{raw}'"
        )));
    }
    Ok(CostFn::new(
        parts[0], parts[1], parts[2], parts[3], parts[4],
    ))
}

/// Parses the `WEIGHT,RATE,BURST,MAX_INFLIGHT` tail of `--tenant` and
/// `--default-tenant`. `RATE` and `BURST` accept `inf` for "unlimited".
fn parse_tenant_policy(flag: &str, raw: &str) -> Result<TenantPolicy, CommandError> {
    let bad = || {
        CommandError(format!(
            "{flag} expects WEIGHT,RATE,BURST,MAX_INFLIGHT (rate/burst may be 'inf'), got '{raw}'"
        ))
    };
    let parts: Vec<&str> = raw.split(',').map(str::trim).collect();
    if parts.len() != 4 {
        return Err(bad());
    }
    let weight: u32 = parts[0].parse().ok().filter(|w| *w >= 1).ok_or_else(bad)?;
    let positive_or_inf = |part: &str| -> Option<f64> {
        if part.eq_ignore_ascii_case("inf") {
            return Some(f64::INFINITY);
        }
        part.parse::<f64>()
            .ok()
            .filter(|v| *v > 0.0 && v.is_finite())
    };
    let rate = positive_or_inf(parts[1]).ok_or_else(bad)?;
    let burst = positive_or_inf(parts[2]).ok_or_else(bad)?;
    let max_inflight: usize = parts[3].parse().ok().filter(|n| *n >= 1).ok_or_else(bad)?;
    Ok(TenantPolicy {
        weight,
        rate,
        burst,
        max_inflight,
    })
}

fn next_value<'a, I: Iterator<Item = &'a str>>(
    flag: &str,
    iter: &mut I,
) -> Result<&'a str, CommandError> {
    iter.next()
        .ok_or_else(|| CommandError(format!("{flag} expects a value")))
}

/// Parses one of the session flags `synth` and `serve` share (`--cost`,
/// `--backend`/`--engine`, `--error`, `--max-cost`, `--timeout`,
/// `--sched-chunk`, `--level-chunk-rows`) into the given slots. Returns
/// `Ok(false)` when `flag` is none of them, so the caller can try its own
/// flags or report it as unknown.
#[allow(clippy::too_many_arguments)]
fn parse_session_flag<'a, I: Iterator<Item = &'a str>>(
    flag: &str,
    iter: &mut I,
    costs: &mut CostFn,
    backend: &mut BackendChoice,
    allowed_error: &mut f64,
    max_cost: &mut Option<u64>,
    time_budget: &mut Option<Duration>,
    sched_chunk: &mut Option<usize>,
    level_chunk_rows: &mut Option<usize>,
) -> Result<bool, CommandError> {
    match flag {
        "--cost" => *costs = parse_cost(next_value(flag, iter)?)?,
        "--backend" | "--engine" => {
            *backend = next_value(flag, iter)?.parse().map_err(CommandError)?
        }
        "--error" => {
            *allowed_error = next_value(flag, iter)?
                .parse()
                .map_err(|_| CommandError("invalid --error fraction".into()))?
        }
        "--max-cost" => {
            *max_cost = Some(
                next_value(flag, iter)?
                    .parse()
                    .map_err(|_| CommandError("invalid --max-cost".into()))?,
            )
        }
        "--timeout" => {
            // try_from rejects negative, NaN, infinite and overflowing
            // values — a usage error, not a panic.
            let budget = next_value(flag, iter)?
                .parse::<f64>()
                .ok()
                .and_then(|seconds| Duration::try_from_secs_f64(seconds).ok())
                .ok_or_else(|| {
                    CommandError("--timeout expects a non-negative number of seconds".into())
                })?;
            *time_budget = Some(budget);
        }
        "--sched-chunk" => {
            *sched_chunk = Some(
                next_value(flag, iter)?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| {
                        CommandError("--sched-chunk expects a positive row count".into())
                    })?,
            )
        }
        "--level-chunk-rows" => {
            *level_chunk_rows = Some(
                next_value(flag, iter)?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| {
                        CommandError("--level-chunk-rows expects a positive row count".into())
                    })?,
            )
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses a full command line (excluding the program name).
///
/// # Errors
///
/// Returns a [`CommandError`] describing the first malformed argument.
///
/// # Example
///
/// ```
/// use paresy_cli::args::{parse_args, Command};
///
/// let cmd = parse_args(&["synth", "--pos", "10,101", "--neg", "ε,0"]).unwrap();
/// assert!(matches!(cmd, Command::Synth(_)));
/// ```
pub fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<Command, CommandError> {
    let mut iter = args.iter().map(AsRef::as_ref);
    let command = match iter.next() {
        None | Some("help") | Some("--help") | Some("-h") => return Ok(Command::Help),
        Some(other) => other,
    };
    match command {
        "synth" => {
            let mut options = SynthOptions::default();
            while let Some(flag) = iter.next() {
                match flag {
                    "--pos" => options.positives = split_words(next_value(flag, &mut iter)?),
                    "--neg" => options.negatives = split_words(next_value(flag, &mut iter)?),
                    "--spec-file" => {
                        options.spec_file = Some(next_value(flag, &mut iter)?.to_string())
                    }
                    "--batch" => {
                        options.batch_files = next_value(flag, &mut iter)?
                            .split(',')
                            .map(str::to_string)
                            .collect()
                    }
                    "--compare-baseline" => options.compare_baseline = true,
                    other => {
                        if !parse_session_flag(
                            other,
                            &mut iter,
                            &mut options.costs,
                            &mut options.backend,
                            &mut options.allowed_error,
                            &mut options.max_cost,
                            &mut options.time_budget,
                            &mut options.sched_chunk,
                            &mut options.level_chunk_rows,
                        )? {
                            return Err(CommandError(format!("unknown flag '{other}'")));
                        }
                    }
                }
            }
            if options.spec_file.is_none()
                && options.batch_files.is_empty()
                && options.positives.is_empty()
            {
                return Err(CommandError(
                    "synth needs --pos/--neg examples, a --spec-file, or a --batch list".into(),
                ));
            }
            if !options.batch_files.is_empty()
                && (options.spec_file.is_some()
                    || !options.positives.is_empty()
                    || !options.negatives.is_empty())
            {
                return Err(CommandError(
                    "--batch cannot be combined with --pos/--neg or --spec-file \
                     (the batch files are the only specifications run)"
                        .into(),
                ));
            }
            Ok(Command::Synth(options))
        }
        "serve" => {
            let mut options = ServeOptions::default();
            let mut net_only_flag = None;
            while let Some(flag) = iter.next() {
                if matches!(
                    flag,
                    "--net-threads"
                        | "--tenant"
                        | "--default-tenant"
                        | "--metrics-addr"
                        | "--slo-ms"
                ) {
                    net_only_flag = Some(flag.to_string());
                }
                match flag {
                    "--workers" => {
                        options.workers = next_value(flag, &mut iter)?
                            .parse()
                            .ok()
                            .filter(|n| *n >= 1)
                            .ok_or_else(|| {
                                CommandError("--workers expects a positive integer".into())
                            })?
                    }
                    "--queue" => {
                        options.queue_capacity = next_value(flag, &mut iter)?
                            .parse()
                            .ok()
                            .filter(|n| *n >= 1)
                            .ok_or_else(|| {
                                CommandError("--queue expects a positive integer".into())
                            })?
                    }
                    "--cache" => {
                        options.cache_capacity = next_value(flag, &mut iter)?
                            .parse()
                            .ok()
                            .filter(|n| *n >= 1)
                            .ok_or_else(|| {
                                CommandError("--cache expects a positive integer".into())
                            })?
                    }
                    "--pools" => {
                        options.pools = next_value(flag, &mut iter)?
                            .parse()
                            .ok()
                            .filter(|n| *n >= 1)
                            .ok_or_else(|| {
                                CommandError("--pools expects a positive integer".into())
                            })?
                    }
                    "--cache-dir" => {
                        options.cache_dir = Some(next_value(flag, &mut iter)?.to_string())
                    }
                    "--cache-roll-bytes" => {
                        options.cache_roll_bytes = Some(
                            next_value(flag, &mut iter)?
                                .parse()
                                .ok()
                                .filter(|n| *n >= 1)
                                .ok_or_else(|| {
                                    CommandError(
                                        "--cache-roll-bytes expects a positive byte count".into(),
                                    )
                                })?,
                        )
                    }
                    "--stream" => options.stream = true,
                    "--metrics" => options.metrics = true,
                    "--listen" => options.listen = Some(next_value(flag, &mut iter)?.to_string()),
                    "--net-threads" => {
                        options.net_threads = next_value(flag, &mut iter)?
                            .parse()
                            .ok()
                            .filter(|n| *n >= 1)
                            .ok_or_else(|| {
                                CommandError("--net-threads expects a positive integer".into())
                            })?
                    }
                    "--tenant" => {
                        let raw = next_value(flag, &mut iter)?;
                        let (name, policy) = raw.split_once('=').ok_or_else(|| {
                            CommandError(format!(
                                "--tenant expects NAME=WEIGHT,RATE,BURST,MAX_INFLIGHT, got '{raw}'"
                            ))
                        })?;
                        if name.is_empty() {
                            return Err(CommandError("--tenant needs a non-empty NAME".into()));
                        }
                        let policy = parse_tenant_policy(flag, policy)?;
                        options.admission =
                            std::mem::take(&mut options.admission).with_tenant(name, policy);
                    }
                    "--default-tenant" => {
                        let policy = parse_tenant_policy(flag, next_value(flag, &mut iter)?)?;
                        options.admission =
                            std::mem::take(&mut options.admission).with_default_policy(policy);
                    }
                    "--metrics-addr" => {
                        options.metrics_addr = Some(next_value(flag, &mut iter)?.to_string())
                    }
                    "--slo-ms" => {
                        let slo = next_value(flag, &mut iter)?
                            .parse::<f64>()
                            .ok()
                            .filter(|ms| *ms > 0.0)
                            .and_then(|ms| Duration::try_from_secs_f64(ms / 1e3).ok())
                            .ok_or_else(|| {
                                CommandError(
                                    "--slo-ms expects a positive number of milliseconds".into(),
                                )
                            })?;
                        options.slo = Some(slo);
                    }
                    "--log-level" => {
                        let raw = next_value(flag, &mut iter)?;
                        if !matches!(raw, "error" | "warn" | "warning" | "info" | "debug") {
                            return Err(CommandError(format!(
                                "--log-level expects error|warn|info|debug, got '{raw}'"
                            )));
                        }
                        options.log_level = Some(raw.to_string());
                    }
                    other => {
                        if !parse_session_flag(
                            other,
                            &mut iter,
                            &mut options.costs,
                            &mut options.backend,
                            &mut options.allowed_error,
                            &mut options.max_cost,
                            &mut options.time_budget,
                            &mut options.sched_chunk,
                            &mut options.level_chunk_rows,
                        )? {
                            return Err(CommandError(format!("unknown flag '{other}'")));
                        }
                    }
                }
            }
            if options.listen.is_none() {
                if let Some(flag) = net_only_flag {
                    return Err(CommandError(format!(
                        "{flag} only applies to the TCP front-end; add --listen ADDR"
                    )));
                }
            }
            Ok(Command::Serve(options))
        }
        "suite" => {
            let mut task = None;
            while let Some(flag) = iter.next() {
                match flag {
                    "--task" => {
                        task = Some(
                            next_value(flag, &mut iter)?
                                .parse()
                                .map_err(|_| CommandError("invalid --task number".into()))?,
                        )
                    }
                    other => return Err(CommandError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Suite { task })
        }
        "generate" => {
            let (mut scheme, mut max_len, mut positives, mut negatives, mut seed) =
                (1u8, 5usize, 6usize, 6usize, 0u64);
            while let Some(flag) = iter.next() {
                let value = next_value(flag, &mut iter)?;
                match flag {
                    "--scheme" => {
                        scheme = value
                            .parse()
                            .map_err(|_| CommandError("invalid --scheme".into()))?
                    }
                    "--max-len" => {
                        max_len = value
                            .parse()
                            .map_err(|_| CommandError("invalid --max-len".into()))?
                    }
                    "--positives" => {
                        positives = value
                            .parse()
                            .map_err(|_| CommandError("invalid --positives".into()))?
                    }
                    "--negatives" => {
                        negatives = value
                            .parse()
                            .map_err(|_| CommandError("invalid --negatives".into()))?
                    }
                    "--seed" => {
                        seed = value
                            .parse()
                            .map_err(|_| CommandError("invalid --seed".into()))?
                    }
                    other => return Err(CommandError(format!("unknown flag '{other}'"))),
                }
            }
            if scheme != 1 && scheme != 2 {
                return Err(CommandError("--scheme must be 1 or 2".into()));
            }
            Ok(Command::Generate {
                scheme,
                max_len,
                positives,
                negatives,
                seed,
            })
        }
        other => Err(CommandError(format!("unknown command '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_variants() {
        assert_eq!(parse_args::<&str>(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&["help"]).unwrap(), Command::Help);
        assert_eq!(parse_args(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn synth_with_inline_examples() {
        let cmd = parse_args(&[
            "synth",
            "--pos",
            "10,101",
            "--neg",
            "ε,0",
            "--cost",
            "1,1,10,1,1",
            "--backend",
            "parallel",
            "--error",
            "0.1",
            "--timeout",
            "2.5",
        ])
        .unwrap();
        match cmd {
            Command::Synth(options) => {
                assert_eq!(options.positives, vec!["10", "101"]);
                assert_eq!(options.negatives, vec!["", "0"]);
                assert_eq!(options.costs, CostFn::new(1, 1, 10, 1, 1));
                assert_eq!(
                    options.backend,
                    BackendChoice::DeviceParallel { threads: None }
                );
                assert!((options.allowed_error - 0.1).abs() < 1e-9);
                assert_eq!(options.time_budget, Some(Duration::from_secs_f64(2.5)));
                assert!(!options.compare_baseline);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn backend_names_and_aliases() {
        for (raw, expected) in [
            ("cpu-sequential", BackendChoice::Sequential),
            ("sequential", BackendChoice::Sequential),
            ("cpu", BackendChoice::Sequential),
            ("gpu-sim-parallel", BackendChoice::parallel()),
            ("parallel", BackendChoice::parallel()),
            ("gpu", BackendChoice::parallel()),
            ("cpu-thread-parallel", BackendChoice::threaded()),
            ("threads", BackendChoice::threaded()),
            ("thread-parallel", BackendChoice::threaded()),
            (
                "threads:4",
                BackendChoice::ThreadParallel { threads: Some(4) },
            ),
            (
                "parallel:8",
                BackendChoice::DeviceParallel { threads: Some(8) },
            ),
        ] {
            let cmd = parse_args(&["synth", "--pos", "1", "--backend", raw]).unwrap();
            match cmd {
                Command::Synth(options) => assert_eq!(options.backend, expected, "{raw}"),
                other => panic!("unexpected {other:?}"),
            }
        }
        // `--engine` stays as an alias for old scripts.
        let cmd = parse_args(&["synth", "--pos", "1", "--engine", "parallel"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Synth(SynthOptions {
                backend: BackendChoice::DeviceParallel { .. },
                ..
            })
        ));
        assert!(parse_args(&["synth", "--pos", "1", "--backend", "quantum"]).is_err());
    }

    #[test]
    fn synth_requires_examples_or_a_file() {
        assert!(parse_args(&["synth"]).is_err());
        assert!(parse_args(&["synth", "--spec-file", "x.spec"]).is_ok());
        assert!(parse_args(&["synth", "--batch", "a.spec,b.spec"]).is_ok());
    }

    #[test]
    fn batch_splits_file_list() {
        let cmd = parse_args(&["synth", "--batch", "a.spec,b.spec,c.spec"]).unwrap();
        match cmd {
            Command::Synth(options) => {
                assert_eq!(options.batch_files, vec!["a.spec", "b.spec", "c.spec"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_conflicts_with_inline_specs() {
        // A silent precedence would drop the user's inline examples.
        for conflicting in [
            vec!["synth", "--pos", "10", "--batch", "a.spec"],
            vec!["synth", "--neg", "0", "--batch", "a.spec"],
            vec!["synth", "--spec-file", "x.spec", "--batch", "a.spec"],
        ] {
            let err = parse_args(&conflicting).unwrap_err();
            assert!(
                err.to_string().contains("--batch"),
                "{conflicting:?}: {err}"
            );
        }
    }

    #[test]
    fn bad_cost_tuples_are_rejected() {
        assert!(parse_args(&["synth", "--pos", "1", "--cost", "1,2,3"]).is_err());
        assert!(parse_args(&["synth", "--pos", "1", "--cost", "1,0,1,1,1"]).is_err());
        assert!(parse_args(&["synth", "--pos", "1", "--cost", "a,b,c,d,e"]).is_err());
    }

    #[test]
    fn serve_flags_and_defaults() {
        assert_eq!(
            parse_args(&["serve"]).unwrap(),
            Command::Serve(ServeOptions::default())
        );
        let cmd = parse_args(&[
            "serve",
            "--workers",
            "4",
            "--pools",
            "3",
            "--queue",
            "8",
            "--cache",
            "16",
            "--cache-dir",
            "/tmp/paresy-cache",
            "--cache-roll-bytes",
            "4096",
            "--stream",
            "--backend",
            "threads:2",
            "--timeout",
            "0.5",
            "--metrics",
        ])
        .unwrap();
        match cmd {
            Command::Serve(options) => {
                assert_eq!(options.workers, 4);
                assert_eq!(options.pools, 3);
                assert_eq!(options.queue_capacity, 8);
                assert_eq!(options.cache_capacity, 16);
                assert_eq!(options.cache_dir.as_deref(), Some("/tmp/paresy-cache"));
                assert_eq!(options.cache_roll_bytes, Some(4096));
                assert!(options.stream);
                assert_eq!(
                    options.backend,
                    BackendChoice::ThreadParallel { threads: Some(2) }
                );
                assert_eq!(options.time_budget, Some(Duration::from_millis(500)));
                assert!(options.metrics);
            }
            other => panic!("unexpected {other:?}"),
        }
        for bad in [
            vec!["serve", "--workers", "0"],
            vec!["serve", "--pools", "0"],
            vec!["serve", "--pools", "some"],
            vec!["serve", "--cache-dir"],
            vec!["serve", "--cache-roll-bytes", "0"],
            vec!["serve", "--cache-roll-bytes", "big"],
            vec!["serve", "--queue", "none"],
            vec!["serve", "--cache", "0"],
            vec!["serve", "--backend", "quantum"],
            vec!["serve", "--wat"],
        ] {
            assert!(parse_args(&bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn listen_and_tenant_policies_parse() {
        let cmd = parse_args(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--net-threads",
            "8",
            "--metrics-addr",
            "127.0.0.1:0",
            "--slo-ms",
            "250",
            "--log-level",
            "debug",
            "--tenant",
            "acme=3,2.5,10,4",
            "--tenant",
            "free=1,0.5,2,1",
            "--default-tenant",
            "2,inf,inf,64",
        ])
        .unwrap();
        match cmd {
            Command::Serve(options) => {
                assert_eq!(options.listen.as_deref(), Some("127.0.0.1:0"));
                assert_eq!(options.net_threads, 8);
                assert_eq!(options.metrics_addr.as_deref(), Some("127.0.0.1:0"));
                assert_eq!(options.slo, Some(Duration::from_millis(250)));
                assert_eq!(options.log_level.as_deref(), Some("debug"));
                assert_eq!(options.admission.tenants.len(), 2);
                let (name, acme) = &options.admission.tenants[0];
                assert_eq!(name, "acme");
                assert_eq!(acme.weight, 3);
                assert!((acme.rate - 2.5).abs() < 1e-9);
                assert!((acme.burst - 10.0).abs() < 1e-9);
                assert_eq!(acme.max_inflight, 4);
                assert_eq!(options.admission.default_policy.weight, 2);
                assert!(options.admission.default_policy.rate.is_infinite());
                assert_eq!(options.admission.default_policy.max_inflight, 64);
            }
            other => panic!("unexpected {other:?}"),
        }
        for bad in [
            vec!["serve", "--listen", "127.0.0.1:0", "--net-threads", "0"],
            vec!["serve", "--listen", "x", "--tenant", "acme"],
            vec!["serve", "--listen", "x", "--tenant", "=1,1,1,1"],
            vec!["serve", "--listen", "x", "--tenant", "a=0,1,1,1"],
            vec!["serve", "--listen", "x", "--tenant", "a=1,-2,1,1"],
            vec!["serve", "--listen", "x", "--tenant", "a=1,1,1"],
            vec!["serve", "--listen", "x", "--default-tenant", "1,1,1,0"],
            vec!["serve", "--listen", "x", "--default-tenant", "1,nan,1,1"],
            vec!["serve", "--listen", "x", "--slo-ms", "0"],
            vec!["serve", "--listen", "x", "--slo-ms", "never"],
            vec!["serve", "--listen", "x", "--log-level", "loud"],
        ] {
            assert!(parse_args(&bad).is_err(), "{bad:?}");
        }
        // The net-only flags demand --listen so they are never silently
        // ignored on a stdin server.
        for net_only in [
            vec!["serve", "--tenant", "acme=1,1,1,1"],
            vec!["serve", "--net-threads", "2"],
            vec!["serve", "--metrics-addr", "127.0.0.1:0"],
            vec!["serve", "--slo-ms", "100"],
        ] {
            let err = parse_args(&net_only).unwrap_err();
            assert!(err.to_string().contains("--listen"), "{net_only:?}: {err}");
        }
        // --log-level is not net-only: the structured log also carries
        // stdin-server diagnostics.
        assert!(parse_args(&["serve", "--log-level", "warn"]).is_ok());
    }

    #[test]
    fn scheduler_knobs_parse_on_both_commands() {
        let cmd = parse_args(&[
            "synth",
            "--pos",
            "1",
            "--sched-chunk",
            "16",
            "--level-chunk-rows",
            "512",
        ])
        .unwrap();
        match cmd {
            Command::Synth(options) => {
                assert_eq!(options.sched_chunk, Some(16));
                assert_eq!(options.level_chunk_rows, Some(512));
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse_args(&["serve", "--sched-chunk", "8", "--level-chunk-rows", "64"]).unwrap();
        match cmd {
            Command::Serve(options) => {
                assert_eq!(options.sched_chunk, Some(8));
                assert_eq!(options.level_chunk_rows, Some(64));
            }
            other => panic!("unexpected {other:?}"),
        }
        for bad in [
            vec!["synth", "--pos", "1", "--sched-chunk", "0"],
            vec!["synth", "--pos", "1", "--sched-chunk", "many"],
            vec!["serve", "--level-chunk-rows", "0"],
            vec!["serve", "--level-chunk-rows", "-2"],
        ] {
            let err = parse_args(&bad).unwrap_err();
            assert!(err.to_string().contains("positive row count"), "{bad:?}");
        }
    }

    #[test]
    fn hostile_timeouts_are_usage_errors_not_panics() {
        for command in ["synth", "serve"] {
            for bad in ["-1", "nan", "inf", "1e30", "zero"] {
                let args = match command {
                    "synth" => vec!["synth", "--pos", "1", "--timeout", bad],
                    _ => vec!["serve", "--timeout", bad],
                };
                let err = parse_args(&args).unwrap_err();
                assert!(
                    err.to_string().contains("--timeout"),
                    "{command} {bad}: {err}"
                );
            }
        }
    }

    #[test]
    fn suite_and_generate() {
        assert_eq!(
            parse_args(&["suite"]).unwrap(),
            Command::Suite { task: None }
        );
        assert_eq!(
            parse_args(&["suite", "--task", "7"]).unwrap(),
            Command::Suite { task: Some(7) }
        );
        let generate = parse_args(&[
            "generate",
            "--scheme",
            "2",
            "--max-len",
            "6",
            "--positives",
            "8",
            "--negatives",
            "9",
            "--seed",
            "42",
        ])
        .unwrap();
        assert_eq!(
            generate,
            Command::Generate {
                scheme: 2,
                max_len: 6,
                positives: 8,
                negatives: 9,
                seed: 42
            }
        );
        assert!(parse_args(&["generate", "--scheme", "3"]).is_err());
    }

    #[test]
    fn unknown_commands_and_flags_are_rejected() {
        assert!(parse_args(&["frobnicate"]).is_err());
        assert!(parse_args(&["synth", "--pos", "1", "--wat"]).is_err());
        assert!(parse_args(&["suite", "--task"]).is_err());
    }
}
