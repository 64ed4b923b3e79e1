//! The CPU-versus-GPU comparison of Table 1 in miniature: run the same
//! batch of specifications through a sequential session and through a
//! data-parallel session backed by one shared simulated SIMT device, and
//! report times, speed-ups and device statistics.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example cpu_vs_gpu
//! ```

use std::time::{Duration, Instant};

use paresy::gpu::Device;
use paresy::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let specs = vec![
        Spec::from_strs(
            ["10", "101", "100", "1010", "1011", "1000", "1001"],
            ["", "0", "1", "00", "11", "010"],
        )?,
        Spec::from_strs(["1", "011", "1011", "11011"], ["", "10", "101", "0011"])?,
        Spec::from_strs(
            [
                "00", "1101", "0001", "0111", "001", "1", "10", "1100", "111", "1010",
            ],
            [
                "", "0", "0000", "0011", "01", "010", "011", "100", "1000", "1001", "11", "1110",
            ],
        )?,
    ];
    let names = ["intro 10(0+1)*", "example 3.6", "section 5.2"];

    // One session per backend; the parallel session owns the device (a
    // thread count and launch counters; workers are spawned per batch)
    // for the whole batch, so its statistics cover every spec. The
    // hardest instance (§5.2 at zero allowed error) can need billions of
    // candidates, so each run gets a budget — exactly the paper's
    // per-run-timeout protocol.
    let config = SynthConfig::new(CostFn::UNIFORM).with_time_budget(Duration::from_secs(10));
    let mut cpu = SynthSession::new(config.clone())?;
    let device = Device::default();
    let mut par = SynthSession::with_backend(
        config,
        Box::new(DeviceParallel::with_device(device.clone())),
    )?;

    println!(
        "{:<16} {:>12} {:>12} {:>9}  {:<18}",
        "benchmark", "cpu (s)", "parallel (s)", "speedup", "result"
    );
    for (name, spec) in names.iter().zip(&specs) {
        let started = Instant::now();
        let cpu_result = cpu.run(spec);
        let cpu_secs = started.elapsed().as_secs_f64();

        // Per-run device deltas on the reused device.
        device.reset_stats();
        let started = Instant::now();
        let par_result = par.run(spec);
        let par_secs = started.elapsed().as_secs_f64();

        match (&cpu_result, &par_result) {
            (Ok(cpu_result), Ok(par_result)) => {
                assert_eq!(
                    cpu_result.cost, par_result.cost,
                    "both backends are cost-minimal"
                );
                println!(
                    "{:<16} {:>12.4} {:>12.4} {:>8.1}x  {:<18}",
                    name,
                    cpu_secs,
                    par_secs,
                    cpu_secs / par_secs.max(1e-9),
                    par_result.regex
                );
            }
            (cpu_result, par_result) => {
                let label = |outcome: &Result<SynthesisResult, SynthesisError>| match outcome {
                    Ok(result) => result.regex.to_string(),
                    Err(err) => err.to_string(),
                };
                println!(
                    "{:<16} {:>12.4} {:>12.4} {:>9}  cpu: {} / parallel: {}",
                    name,
                    cpu_secs,
                    par_secs,
                    "-",
                    label(cpu_result),
                    label(par_result)
                );
            }
        }
        let stats = device.stats();
        println!(
            "{:<16} kernels={} items={} hash-inserts={}",
            "", stats.kernel_launches, stats.items_executed, stats.hash_insertions
        );
    }
    println!(
        "\nsessions: {} ({} runs)  vs  {} ({} runs, one warm device)",
        cpu.backend_name(),
        cpu.stats().runs,
        par.backend_name(),
        par.stats().runs,
    );
    println!(
        "\nNote: on small instances the sequential backend can win — exactly like the\n\
         paper's 0.2 s GPU launch-latency floor. The parallel backend pays off as the\n\
         per-level candidate batches grow (see `reproduce table1 --full`)."
    );
    Ok(())
}
