//! Execution of the parsed CLI commands; returns the report as a string so
//! that behaviour is unit-testable without spawning the binary.

use std::fmt::Write as _;

use alpharegex::{AlphaRegex, AlphaRegexConfig};
use rei_bench::generator::{generate_type1, generate_type2, Type1Params, Type2Params};
use rei_bench::suite::{alpharegex_suite, easy_tasks};
use rei_core::{SynthConfig, SynthSession, SynthesisError, SynthesisResult};
use rei_lang::{Alphabet, Spec};

use crate::args::{Command, SynthOptions, USAGE};
use crate::serve::{run_serve_listen, run_serve_on};
use crate::specfile::{parse_spec_file, render_spec_file};

/// Runs a parsed command and returns the text to print.
///
/// # Errors
///
/// Returns a human-readable message when the command cannot be executed
/// (unreadable spec file, contradictory examples, invalid configuration,
/// failed synthesis, …).
pub fn run_command(command: &Command) -> Result<String, String> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Synth(options) => run_synth(options),
        Command::Serve(options) => {
            // Both modes write their own lines as they happen; tests
            // drive `run_serve_on` with in-memory input.
            if options.listen.is_some() {
                // TCP mode: "listening on ADDR", then — with --metrics —
                // the final snapshot.
                run_serve_listen(options, std::io::stdout().lock())?;
            } else {
                // `Stdin` (unlike `StdinLock`) is `Send`, which the
                // connection's reader thread needs.
                let input = std::io::BufReader::new(std::io::stdin());
                run_serve_on(options, input, std::io::stdout().lock())?;
            }
            Ok(String::new())
        }
        Command::Suite { task } => run_suite(*task),
        Command::Generate {
            scheme,
            max_len,
            positives,
            negatives,
            seed,
        } => run_generate(*scheme, *max_len, *positives, *negatives, *seed),
    }
}

fn load_spec_file(path: &str) -> Result<Spec, String> {
    let contents = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_spec_file(&contents).map_err(|e| e.to_string())
}

fn load_spec(options: &SynthOptions) -> Result<Spec, String> {
    if let Some(path) = &options.spec_file {
        return load_spec_file(path);
    }
    Spec::from_strs(
        options.positives.iter().map(String::as_str),
        options.negatives.iter().map(String::as_str),
    )
    .map_err(|e| e.to_string())
}

fn describe_error(err: &SynthesisError) -> String {
    match err {
        // A bad configuration is the user's flags, not a failed search:
        // surface it as a usage error with a pointer to the help text.
        SynthesisError::InvalidConfig { .. } => {
            format!("usage error: {err}\nrun 'paresy help' for the accepted flags")
        }
        _ => format!("synthesis failed: {err}"),
    }
}

/// Builds the session configuration the `synth` flags describe.
fn session_config(options: &SynthOptions) -> SynthConfig {
    let mut config = SynthConfig::new(options.costs)
        .with_backend(options.backend)
        .with_allowed_error(options.allowed_error);
    if let Some(max_cost) = options.max_cost {
        config = config.with_max_cost(max_cost);
    }
    if let Some(budget) = options.time_budget {
        config = config.with_time_budget(budget);
    }
    if let Some(rows) = options.sched_chunk {
        config = config.with_sched_chunk(rows);
    }
    if let Some(rows) = options.level_chunk_rows {
        config = config.with_level_chunk_rows(rows);
    }
    config
}

fn render_result(out: &mut String, options: &SynthOptions, spec: &Spec, result: &SynthesisResult) {
    let _ = writeln!(out, "specification : {spec}");
    let _ = writeln!(out, "cost function : {}", options.costs);
    let _ = writeln!(out, "regex         : {}", result.regex);
    let _ = writeln!(out, "cost          : {}", result.cost);
    let _ = writeln!(out, "candidates    : {}", result.stats.candidates_generated);
    let _ = writeln!(out, "unique langs  : {}", result.stats.unique_languages);
    let _ = writeln!(out, "#ic(P∪N)      : {}", result.stats.infix_closure_size);
    let _ = writeln!(out, "elapsed       : {:.3?}", result.stats.elapsed);
    if result.stats.used_on_the_fly {
        let _ = writeln!(
            out,
            "note          : memory budget exhausted, OnTheFly mode was used"
        );
    }
}

fn run_synth(options: &SynthOptions) -> Result<String, String> {
    let mut session = SynthSession::new(session_config(options)).map_err(|e| describe_error(&e))?;

    if !options.batch_files.is_empty() {
        return run_synth_batch(options, &mut session);
    }

    let spec = load_spec(options)?;
    let result = session.run(&spec).map_err(|e| describe_error(&e))?;

    let mut out = String::new();
    let _ = writeln!(out, "backend       : {}", session.backend_name());
    render_result(&mut out, options, &spec, &result);

    if options.compare_baseline {
        match AlphaRegex::with_config(AlphaRegexConfig {
            costs: options.costs,
            ..AlphaRegexConfig::default()
        })
        .run(&spec)
        {
            Ok(alpha) => {
                let _ = writeln!(
                    out,
                    "alpharegex    : {} (cost {}, {} REs checked)",
                    alpha.regex, alpha.cost, alpha.res_checked
                );
            }
            Err(err) => {
                let _ = writeln!(out, "alpharegex    : failed ({err})");
            }
        }
    }
    Ok(out)
}

/// Runs every `--batch` file through the one warm session and reports each
/// outcome plus a session summary. Per-spec failures are reported inline
/// rather than aborting the batch.
fn run_synth_batch(options: &SynthOptions, session: &mut SynthSession) -> Result<String, String> {
    let mut specs = Vec::with_capacity(options.batch_files.len());
    for path in &options.batch_files {
        specs.push(load_spec_file(path)?);
    }

    let results = session.run_batch(&specs);
    let mut out = String::new();
    let _ = writeln!(out, "backend       : {}", session.backend_name());
    for ((path, spec), outcome) in options.batch_files.iter().zip(&specs).zip(&results) {
        let _ = writeln!(out, "--- {path}");
        match outcome {
            Ok(result) => render_result(&mut out, options, spec, result),
            // The session validated its config at creation, so any per-spec
            // failure here is a search outcome worth reporting inline.
            Err(err) => {
                let _ = writeln!(out, "specification : {spec}");
                let _ = writeln!(out, "outcome       : {err}");
            }
        }
    }
    let stats = session.stats();
    let _ = writeln!(
        out,
        "=== batch: {} specs, {} solved, {} failed, {:.3?} total",
        stats.runs, stats.solved, stats.failed, stats.elapsed
    );
    if let Some(device) = session.device() {
        let device_stats = device.stats();
        let _ = writeln!(
            out,
            "    device: {} kernel launches, {} items, {} hash inserts (1 device for the whole batch)",
            device_stats.kernel_launches, device_stats.items_executed, device_stats.hash_insertions
        );
    }
    Ok(out)
}

fn run_suite(task_number: Option<usize>) -> Result<String, String> {
    let tasks = match task_number {
        Some(number) => {
            let task = alpharegex_suite()
                .into_iter()
                .find(|t| t.number == number)
                .ok_or_else(|| format!("no task number {number} (expected 1..=25)"))?;
            vec![task]
        }
        None => easy_tasks(9),
    };
    // One session serves every task of the suite.
    let mut session = SynthSession::new(SynthConfig::new(rei_syntax::CostFn::UNIFORM))
        .map_err(|e| describe_error(&e))?;
    let mut out = String::new();
    for task in tasks {
        let spec = task.spec();
        let result = session.run(&spec).map_err(|e| describe_error(&e))?;
        let _ = writeln!(
            out,
            "{}  {:<45} {:<18} cost {:>3}  ({} candidates)",
            task.name(),
            task.description,
            result.regex.to_string(),
            result.cost,
            result.stats.candidates_generated
        );
    }
    Ok(out)
}

fn run_generate(
    scheme: u8,
    max_len: usize,
    positives: usize,
    negatives: usize,
    seed: u64,
) -> Result<String, String> {
    let alphabet = Alphabet::binary();
    let spec = match scheme {
        1 => generate_type1(
            &Type1Params { alphabet, max_len, positives, negatives },
            seed,
        ),
        2 => generate_type2(
            &Type2Params { alphabet, max_len, positives, negatives },
            seed,
        ),
        _ => None,
    }
    .ok_or_else(|| {
        format!(
            "cannot generate {positives}+{negatives} distinct examples of length ≤ {max_len} over {{0,1}}"
        )
    })?;
    Ok(render_spec_file(&spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    #[test]
    fn synth_command_end_to_end() {
        let cmd = parse_args(&["synth", "--pos", "10,101,100", "--neg", "ε,0,1"]).unwrap();
        let report = run_command(&cmd).unwrap();
        assert!(report.contains("regex"), "{report}");
        assert!(report.contains("cost"), "{report}");
        assert!(
            report.contains("backend       : cpu-sequential"),
            "{report}"
        );
    }

    #[test]
    fn synth_on_the_parallel_backend_reports_its_name() {
        let cmd = parse_args(&[
            "synth",
            "--pos",
            "10,101,100",
            "--neg",
            "ε,0,1",
            "--backend",
            "parallel:2",
        ])
        .unwrap();
        let report = run_command(&cmd).unwrap();
        assert!(
            report.contains("backend       : gpu-sim-parallel"),
            "{report}"
        );
    }

    #[test]
    fn invalid_error_fraction_is_a_usage_error() {
        let cmd = parse_args(&["synth", "--pos", "1", "--neg", "0", "--error", "1.5"]).unwrap();
        let err = run_command(&cmd).unwrap_err();
        assert!(err.contains("usage error"), "{err}");
        assert!(err.contains("invalid configuration"), "{err}");
        assert!(err.contains("paresy help"), "{err}");
    }

    #[test]
    fn batch_runs_several_spec_files_through_one_session() {
        let dir = std::env::temp_dir().join(format!("paresy-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut paths = Vec::new();
        for (name, spec) in [
            ("a.spec", Spec::from_strs(["0", "00"], ["1", "10"]).unwrap()),
            (
                "b.spec",
                Spec::from_strs(["1", "11", "111"], ["", "0", "10"]).unwrap(),
            ),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, render_spec_file(&spec)).unwrap();
            paths.push(path.to_string_lossy().into_owned());
        }
        let cmd = parse_args(&[
            "synth",
            "--batch",
            &paths.join(","),
            "--backend",
            "parallel:2",
        ])
        .unwrap();
        let report = run_command(&cmd).unwrap();
        assert!(report.contains("2 specs, 2 solved, 0 failed"), "{report}");
        assert!(report.contains("1 device for the whole batch"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synth_with_baseline_comparison() {
        let cmd = parse_args(&[
            "synth",
            "--pos",
            "0,00,000",
            "--neg",
            "1,01,10",
            "--compare-baseline",
        ])
        .unwrap();
        let report = run_command(&cmd).unwrap();
        assert!(report.contains("alpharegex"), "{report}");
    }

    #[test]
    fn suite_command_runs_a_single_task() {
        let cmd = parse_args(&["suite", "--task", "20"]).unwrap();
        let report = run_command(&cmd).unwrap();
        assert!(report.contains("no20"), "{report}");
        assert!(run_command(&parse_args(&["suite", "--task", "99"]).unwrap()).is_err());
    }

    #[test]
    fn generate_round_trips_through_the_spec_parser() {
        let cmd = parse_args(&[
            "generate",
            "--scheme",
            "2",
            "--max-len",
            "4",
            "--positives",
            "5",
            "--negatives",
            "5",
            "--seed",
            "3",
        ])
        .unwrap();
        let rendered = run_command(&cmd).unwrap();
        let spec = parse_spec_file(&rendered).unwrap();
        assert_eq!(spec.num_positive(), 5);
        assert_eq!(spec.num_negative(), 5);
    }

    #[test]
    fn missing_spec_file_is_reported() {
        let cmd = parse_args(&["synth", "--spec-file", "/nonexistent/examples.spec"]).unwrap();
        let err = run_command(&cmd).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        let cmd = parse_args(&["synth", "--batch", "/nonexistent/a.spec"]).unwrap();
        assert!(run_command(&cmd).unwrap_err().contains("cannot read"));
    }

    #[test]
    fn help_contains_usage() {
        let report = run_command(&Command::Help).unwrap();
        assert!(report.contains("USAGE"));
        assert!(report.contains("--backend"));
        assert!(report.contains("--batch"));
    }
}
