//! Kernel micro-timings: the mask-based concatenation and squared star
//! against the split-gather and linear-iteration kernels they replaced,
//! on the infix closure of every benchmark of the Table 1 pool. The
//! `reproduce check` experiment gates their geometric-mean speedups.

use std::time::Instant;

use rei_lang::{csops, Cs, GuideMasks, GuideTable, InfixClosure};
use rei_syntax::parse;

use crate::harness::figure1::benchmark_pool;
use crate::harness::{HarnessConfig, Scale};

/// Kernel micro-timings on one benchmark's infix closure.
#[derive(Debug, Clone)]
pub struct KernelPerfRow {
    /// Benchmark name (`T1-…` / `T2-…`).
    pub benchmark: String,
    /// Size of the infix closure the kernels operate over.
    pub closure_size: usize,
    /// Mean nanoseconds per split-gather concatenation (the seed kernel).
    pub concat_gather_ns: f64,
    /// Mean nanoseconds per mask-based concatenation.
    pub concat_masked_ns: f64,
    /// `concat_gather_ns / concat_masked_ns`.
    pub concat_speedup: f64,
    /// Mean nanoseconds per linear-iteration star (the seed kernel).
    pub star_linear_ns: f64,
    /// Mean nanoseconds per squared star.
    pub star_squared_ns: f64,
    /// `star_linear_ns / star_squared_ns`.
    pub star_speedup: f64,
}

/// Times `f` and returns the nanoseconds per operation of the *fastest*
/// of several measurement rounds (the minimum is the standard scheduler-
/// noise-resistant estimator for micro-benchmarks), where each call of
/// `f` performs `ops_per_call` operations. One warm-up call precedes the
/// measurements.
fn time_per_op<F: FnMut()>(calls: usize, ops_per_call: usize, mut f: F) -> f64 {
    const ROUNDS: usize = 5;
    f();
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        let per_op = start.elapsed().as_nanos() as f64 / (calls * ops_per_call) as f64;
        best = best.min(per_op);
    }
    best
}

/// A mixed bag of operand rows over `ic`: sparse literals, mid-density
/// concatenations and dense starred languages, mirroring what a real
/// cost level combines.
fn operand_rows(ic: &InfixClosure) -> Vec<Cs> {
    [
        "0",
        "1",
        "01",
        "0?1",
        "(0+1)(0+1)",
        "1(0+1)*",
        "(0?1)*",
        "(0+11)*1",
        "(10)*",
    ]
    .iter()
    .map(|e| ic.cs_of_regex(&parse(e).expect("operand regex parses")))
    .collect()
}

fn kernel_row(name: &str, spec: &rei_lang::Spec, calls: usize) -> KernelPerfRow {
    let ic = InfixClosure::of_spec(spec);
    let gt = GuideTable::build(&ic);
    let gm = GuideMasks::build(&ic);
    let eps = ic.eps_index().expect("non-empty spec closure");
    let rows = operand_rows(&ic);
    let width = ic.width();
    let pairs = rows.len() * rows.len();

    let mut dst = Cs::zero(width);
    let concat_gather_ns = time_per_op(calls, pairs, || {
        for a in &rows {
            for b in &rows {
                csops::concat_into_gather(dst.blocks_mut(), a.blocks(), b.blocks(), &gt);
            }
        }
    });
    let concat_masked_ns = time_per_op(calls, pairs, || {
        for a in &rows {
            for b in &rows {
                csops::concat_into(dst.blocks_mut(), a.blocks(), b.blocks(), &gm);
            }
        }
    });

    let mut scratch = vec![0u64; width.blocks()];
    let star_linear_ns = time_per_op(calls, rows.len(), || {
        for a in &rows {
            csops::star_into_linear(dst.blocks_mut(), a.blocks(), &gt, eps, &mut scratch);
        }
    });
    let star_squared_ns = time_per_op(calls, rows.len(), || {
        for a in &rows {
            csops::star_into(dst.blocks_mut(), a.blocks(), &gm, eps, &mut scratch);
        }
    });

    KernelPerfRow {
        benchmark: name.to_string(),
        closure_size: ic.len(),
        concat_gather_ns,
        concat_masked_ns,
        concat_speedup: concat_gather_ns / concat_masked_ns,
        star_linear_ns,
        star_squared_ns,
        star_speedup: star_linear_ns / star_squared_ns,
    }
}

pub(crate) fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0f64, 0usize), |(s, c), v| (s + v.ln(), c + 1));
    if count == 0 {
        1.0
    } else {
        (sum / count as f64).exp()
    }
}

/// Times both kernel pairs on the infix closure of every benchmark of the
/// Table 1 pool.
pub fn run_kernels(config: &HarnessConfig) -> Vec<KernelPerfRow> {
    let calls = match config.scale {
        Scale::Quick => 200,
        Scale::Full => 1000,
    };
    benchmark_pool(config)
        .iter()
        .map(|b| kernel_row(&b.name, &b.spec, calls))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        let g = geomean([2.0, 2.0, 2.0].into_iter());
        assert!((g - 2.0).abs() < 1e-9);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }
}
