//! Serving concurrent tenants from one warm worker pool. A burst of
//! requests — with many duplicates, as real multi-tenant traffic has — is
//! pushed through a [`SynthService`]; the service coalesces identical in-flight
//! requests, answers repeats from its result cache, and reports the
//! reuse through its metrics snapshot.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example service_throughput
//! ```

use std::time::Instant;

use paresy::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let specs = [
        Spec::from_strs(
            ["10", "101", "100", "1010", "1011", "1000", "1001"],
            ["", "0", "1", "00", "11", "010"],
        )?,
        Spec::from_strs(["1", "011", "1011", "11011"], ["", "10", "101", "0011"])?,
        Spec::from_strs(["0", "00", "000"], ["", "01", "1"])?,
        Spec::from_strs(["1", "11", "111"], ["", "0", "10"])?,
    ];

    // Four workers, each with its own warm sequential session; a small
    // queue keeps the submission loop honest about backpressure.
    let service = SynthService::start(ServiceConfig::new(4).with_queue_capacity(16))
        .map_err(|err| err.to_string())?;

    // A burst of 5x the distinct work: every tenant asks for every spec.
    let started = Instant::now();
    let handles: Vec<(usize, JobHandle)> = (0..5)
        .flat_map(|tenant| {
            specs
                .iter()
                .cloned()
                .map(move |spec| (tenant, spec))
                .collect::<Vec<_>>()
        })
        .map(|(tenant, spec)| {
            let handle = service
                .submit(SynthRequest::new(spec).with_priority(tenant as i32))
                .expect("service accepts while open");
            (tenant, handle)
        })
        .collect();

    println!("tenant  source     cost  regex");
    for (tenant, handle) in &handles {
        let response = handle.wait();
        let result = response.outcome.map_err(|err| err.to_string())?;
        println!(
            "{tenant:>6}  {:<9}  {:>4}  {}",
            response.source.as_str(),
            result.cost,
            result.regex
        );
    }
    let wall = started.elapsed();

    let metrics = service.shutdown();
    println!();
    println!(
        "{} requests in {wall:.2?}: {} syntheses, {} coalesced, {} cache hits \
         ({:.0}% of traffic reused)",
        metrics.submitted,
        metrics.completed,
        metrics.coalesced,
        metrics.cache_hits,
        100.0 * (metrics.cache_hits + metrics.coalesced) as f64 / metrics.submitted as f64,
    );
    for (index, worker) in metrics.workers.iter().enumerate() {
        println!(
            "worker {index}: {} runs, {} candidates, {:.2?} busy",
            worker.runs, worker.candidates_generated, worker.elapsed
        );
    }
    Ok(())
}
