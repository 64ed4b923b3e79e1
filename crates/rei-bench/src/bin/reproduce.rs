//! Command-line entry point that regenerates the paper's tables and
//! figures and runs the repository's speed gates.
//!
//! ```text
//! reproduce [--full] [--seed N] <experiment>
//!   experiment: figure1 | table1 | table2 | outliers | error | check | all
//! ```
//!
//! By default the quick scale is used (seconds per experiment); `--full`
//! switches to paper-scale parameters with a 5-second per-run timeout.
//! `check` times the kernels, parallel WAL recovery and warm refinement
//! against their baselines, prints one PASS/FAIL line per gate and exits
//! 1 if any gate fails; `all` runs it after the paper experiments. Its
//! speed claims only hold for optimised builds: run it with `--release`.

use std::process::ExitCode;

use rei_bench::harness::{
    outlier_distribution, run_check, run_error_table, run_figure1, run_table1, run_table2,
    HarnessConfig, RunOutcome, PAPER_THRESHOLDS,
};
use rei_bench::report::{fmt_opt, format_table};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = HarnessConfig::quick();
    let mut experiment: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => config = HarnessConfig::full(),
            "--seed" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(seed) => config.seed = seed,
                None => return usage("--seed expects an integer"),
            },
            "--help" | "-h" => return usage(""),
            other if experiment.is_none() && !other.starts_with('-') => {
                experiment = Some(other.to_string());
            }
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }
    let Some(experiment) = experiment else {
        return usage("missing experiment name");
    };

    match experiment.as_str() {
        "figure1" => print_figure1(&config),
        "table1" => print_table1(&config),
        "table2" => print_table2(&config),
        "outliers" => print_outliers(&config),
        "error" => print_error(&config),
        "check" => return print_check(&config),
        "all" => {
            print_figure1(&config);
            print_table1(&config);
            print_table2(&config);
            print_outliers(&config);
            print_error(&config);
            return print_check(&config);
        }
        other => return usage(&format!("unknown experiment '{other}'")),
    }
    ExitCode::SUCCESS
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("error: {error}");
    }
    eprintln!(
        "usage: reproduce [--full] [--seed N] <figure1|table1|table2|outliers|error|check|all>"
    );
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn outcome_cells(outcome: &RunOutcome) -> (String, String, String) {
    match outcome {
        RunOutcome::Solved {
            seconds,
            cost,
            candidates,
            ..
        } => (
            format!("{seconds:.4}"),
            cost.to_string(),
            candidates.to_string(),
        ),
        other => (other.label(), "-".into(), "-".into()),
    }
}

fn print_figure1(config: &HarnessConfig) {
    println!("== Figure 1: synthesis time across 12 cost functions ==");
    let rows = run_figure1(config);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                r.scheme.to_string(),
                r.num_positive.to_string(),
                r.num_negative.to_string(),
                r.cost_label.clone(),
                r.outcome.label(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["benchmark", "type", "#P", "#N", "cost function", "time"],
            &table_rows
        )
    );
}

fn print_table1(config: &HarnessConfig) {
    println!("== Table 1: sequential CPU vs data-parallel engine ==");
    let rows = run_table1(config);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.to_string(),
                r.benchmark.clone(),
                r.num_positive.to_string(),
                r.num_negative.to_string(),
                r.cost_label.clone(),
                fmt_opt(r.cpu.seconds(), 4),
                fmt_opt(r.gpu.seconds(), 4),
                fmt_opt(r.speedup, 1),
                r.candidates
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "type",
                "bench",
                "#P",
                "#N",
                "cost function",
                "cpu s",
                "par s",
                "speedup",
                "#REs"
            ],
            &table_rows
        )
    );
    let speedups: Vec<f64> = rows.iter().filter_map(|r| r.speedup).collect();
    if !speedups.is_empty() {
        println!(
            "average speedup: {:.1}x over {} rows\n",
            speedups.iter().sum::<f64>() / speedups.len() as f64,
            speedups.len()
        );
    }
}

fn print_table2(config: &HarnessConfig) {
    println!("== Table 2: Paresy vs AlphaRegex ==");
    let rows = run_table2(config);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let (alpha_time, alpha_cost, alpha_res) = outcome_cells(&r.alpha);
            let (paresy_time, paresy_cost, paresy_res) = outcome_cells(&r.paresy);
            vec![
                format!("{}{}", r.task, if r.wildcard { "†" } else { "" }),
                alpha_time,
                paresy_time,
                fmt_opt(r.speedup, 1),
                alpha_cost,
                paresy_cost,
                alpha_res,
                paresy_res,
                fmt_opt(r.res_increase, 2),
                match r.alpha_minimal {
                    Some(true) => "yes".into(),
                    Some(false) => "NO".into(),
                    None => "-".into(),
                },
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "task",
                "αR s",
                "paresy s",
                "speedup",
                "αR cost",
                "paresy cost",
                "αR #REs",
                "paresy #REs",
                "increase",
                "αR minimal"
            ],
            &table_rows
        )
    );
}

fn print_check(config: &HarnessConfig) -> ExitCode {
    println!("== Speed gates ==");
    let verdicts = run_check(config);
    for verdict in &verdicts {
        println!("{verdict}");
    }
    if verdicts.iter().all(|v| v.passed()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_outliers(config: &HarnessConfig) {
    println!("== Outlier distribution ==");
    let rows = run_figure1(config);
    let dist = outlier_distribution(&rows, &PAPER_THRESHOLDS);
    let table_rows: Vec<Vec<String>> = dist
        .iter()
        .map(|r| {
            vec![
                format!("<{}", r.threshold_seconds),
                format!("{:.2}", r.percent_below),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(&["duration (sec)", "% of benchmarks"], &table_rows)
    );
}

fn print_error(config: &HarnessConfig) {
    println!("== Allowed-error table (Section 5.2) ==");
    let rows = run_error_table(config);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let (time, cost, candidates) = outcome_cells(&r.outcome);
            let regex = match &r.outcome {
                RunOutcome::Solved { regex, .. } => regex.clone(),
                other => other.label(),
            };
            vec![
                format!("{} %", r.allowed_error_percent),
                candidates,
                regex,
                cost,
                time,
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["allowed error", "#REs", "RE", "cost(RE)", "time (s)"],
            &table_rows
        )
    );
}
