//! The repository's benchmark: one command that derives a named workload
//! from `--seed`, drives the program only through its public APIs, checks
//! every answer against the `cpu-sequential` reference, and prints every
//! metric by name with its unit as the last line of standard output.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload search-deep --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate,
//! instrumented run that prints the per-layer ledger instead (README.md).

mod inputs;
mod layers;
mod report;
mod serve;
mod solve;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use inputs::{Inputs, Kind, Reference};
use report::{median, Report};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 25;

/// Rounds an untraced run makes at the least, however long one takes.
const MIN_ROUNDS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <search-deep|long-examples|serve-loop> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let (inputs, reference) = Inputs::generate(args.kind, args.seed, budget);
    eprintln!(
        "perfbench: inputs generated in {:.2} s",
        started.elapsed().as_secs_f64()
    );
    let mut report = Report::default();
    if args.trace {
        layers::traced(&inputs, &reference, budget, &mut report);
    } else {
        end_to_end(&inputs, &reference, budget, &mut report);
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The untraced run. One set-up serves the run; more, spread over the
/// run, give `setup_s` a steady median. Then rounds until `budget` has
/// passed (and at least [`MIN_ROUNDS`]): a solve pass, and a serve slice
/// as long as the pass, so that both phases meet the same conditions of
/// the machine.
fn end_to_end(inputs: &Inputs, reference: &Reference, budget: Duration, report: &mut Report) {
    let scratch = serve::Scratch::create();
    let started = Instant::now();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let setup = set_up(inputs, reference, &scratch, &mut setup_s, report);
    let mut sessions = setup.sessions;
    let running = serve::Running::start(setup.server);
    let mut clients = running.clients(inputs, &setup.hot, report);
    let mut passes = solve::Passes::new(inputs);
    let mut round = Duration::ZERO;
    while passes.done() < MIN_ROUNDS || started.elapsed() + round / 2 < budget {
        let share = (started.elapsed().as_secs_f64() / budget.as_secs_f64()).min(1.0);
        while (setup_s.len() as f64) < SETUP_REPEATS as f64 * share {
            drop(set_up(inputs, reference, &scratch, &mut setup_s, report));
        }
        let round_started = Instant::now();
        let pass = passes.run(&mut sessions, inputs, reference, report);
        clients.run(inputs, pass);
        round = round_started.elapsed();
    }
    while setup_s.len() < SETUP_REPEATS {
        drop(set_up(inputs, reference, &scratch, &mut setup_s, report));
    }
    report.metric("setup_s", median(&setup_s), "s");
    passes.finish(&sessions, report);

    let served = clients.finish(reference, report);
    running.stop(0, report);
    eprintln!(
        "perfbench: {} rounds; served {} hits and {} misses in {:.2} s",
        passes.done(),
        served.hits.len(),
        served.misses.len(),
        served.elapsed
    );
    report.metric("hit_p50_ms", served.hits.p50(), "ms");
    report.metric("hit_p99_ms", served.hits.p99(), "ms");
    report.metric("miss_p50_ms", served.misses.p50(), "ms");
    report.metric("miss_p99_ms", served.misses.p99(), "ms");
}

/// Builds one set-up in a directory of its own under `scratch`, and records
/// how long it took. Dropping it tears it down off the clock.
fn set_up(
    inputs: &Inputs,
    reference: &Reference,
    scratch: &serve::Scratch,
    setup_s: &mut Vec<f64>,
    report: &mut Report,
) -> serve::Setup {
    let dir = scratch.dir(&format!("setup-{}", setup_s.len()));
    let started = Instant::now();
    let setup = serve::Setup::build(inputs, reference, &dir, report);
    setup_s.push(started.elapsed().as_secs_f64());
    setup
}
