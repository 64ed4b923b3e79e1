//! Micro-benchmarks of the substrate operations the search is built from:
//! infix-closure construction, guide-table staging, the semiring kernels on
//! characteristic sequences and the uniqueness set.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use bench::{error_table_spec, example_3_6_spec, intro_spec};
use gpu_sim::hashset::LockFreeU64Set;
use gpu_sim::Device;
use rei_core::{BackendChoice, SynthConfig, SynthSession};
use rei_lang::{csops, Cs, GuideMasks, GuideTable, InfixClosure, SatisfyMasks};
use rei_syntax::{parse, CostFn};

fn substrate_construction(c: &mut Criterion) {
    let spec = error_table_spec();
    let mut group = c.benchmark_group("substrate");
    group.bench_function("infix_closure_build", |b| {
        b.iter(|| InfixClosure::of_spec(std::hint::black_box(&spec)))
    });
    let ic = InfixClosure::of_spec(&spec);
    group.bench_function("guide_table_build", |b| {
        b.iter(|| GuideTable::build(std::hint::black_box(&ic)))
    });
    group.bench_function("guide_masks_build", |b| {
        b.iter(|| GuideMasks::build(std::hint::black_box(&ic)))
    });
    group.finish();
}

fn cs_kernels(c: &mut Criterion) {
    let spec = example_3_6_spec();
    let ic = InfixClosure::of_spec(&spec);
    let gt = GuideTable::build(&ic);
    let gm = GuideMasks::build(&ic);
    let a = ic.cs_of_regex(&parse("(0?1)*").unwrap());
    let b_cs = ic.cs_of_regex(&parse("1(0+1)?").unwrap());
    let eps = ic.eps_index().unwrap();
    let width = ic.width();

    let mut group = c.benchmark_group("cs_kernels");
    group.bench_function("union", |b| {
        let mut dst = Cs::zero(width);
        b.iter(|| csops::or_into(dst.blocks_mut(), a.blocks(), b_cs.blocks()))
    });
    // The three concatenation kernels, fastest to slowest: the mask-based
    // hot path, the split gather it replaced, and the unstaged baseline.
    group.bench_function("concat_masked", |b| {
        let mut dst = Cs::zero(width);
        b.iter(|| csops::concat_into(dst.blocks_mut(), a.blocks(), b_cs.blocks(), &gm))
    });
    group.bench_function("concat_gather", |b| {
        let mut dst = Cs::zero(width);
        b.iter(|| csops::concat_into_gather(dst.blocks_mut(), a.blocks(), b_cs.blocks(), &gt))
    });
    group.bench_function("concat_unstaged", |b| {
        let mut dst = Cs::zero(width);
        b.iter(|| csops::concat_into_unstaged(dst.blocks_mut(), a.blocks(), b_cs.blocks(), &ic))
    });
    // Star by squaring (over the mask table) against the linear fixed
    // point (over the pair table) it replaced.
    group.bench_function("star_squared", |b| {
        let mut dst = Cs::zero(width);
        let mut scratch = vec![0u64; width.blocks()];
        b.iter(|| csops::star_into(dst.blocks_mut(), a.blocks(), &gm, eps, &mut scratch))
    });
    group.bench_function("star_linear", |b| {
        let mut dst = Cs::zero(width);
        let mut scratch = vec![0u64; width.blocks()];
        b.iter(|| csops::star_into_linear(dst.blocks_mut(), a.blocks(), &gt, eps, &mut scratch))
    });
    group.finish();
}

fn admission_prefilter(c: &mut Criterion) {
    // The two phases of the admission check on a mixed bag of rows: the
    // single-block prefilter reject against the full per-block fold it
    // short-circuits.
    let spec = example_3_6_spec();
    let ic = InfixClosure::of_spec(&spec);
    let masks = SatisfyMasks::new(&spec, &ic);
    let prefilter = masks.prefilter();
    let rows: Vec<Cs> = ["0", "1", "01", "(0+1)(0+1)", "1(0+1)*", "(0?1)*", "(10)*"]
        .iter()
        .map(|e| ic.cs_of_regex(&parse(e).unwrap()))
        .collect();

    let mut group = c.benchmark_group("prefilter");
    group.bench_function("prefilter_reject", |b| {
        b.iter(|| {
            for row in &rows {
                std::hint::black_box(prefilter.rejects(std::hint::black_box(row.blocks()), 0));
            }
        })
    });
    group.bench_function("full_misclassified", |b| {
        b.iter(|| {
            for row in &rows {
                std::hint::black_box(masks.misclassified(std::hint::black_box(row.blocks())));
            }
        })
    });
    group.finish();
}

fn level_scheduler_sweep(c: &mut Criterion) {
    // End-to-end effect of the level-execution knobs on one spec: the
    // work-stealing claim size on the thread-parallel backend and the
    // streamed chunk bound on the sequential driver.
    let spec = intro_spec();
    let mut group = c.benchmark_group("level_scheduler");
    for sched_chunk in [16usize, 64, 256] {
        group.bench_function(format!("threads2_sched_chunk_{sched_chunk}"), |b| {
            let config = SynthConfig::new(CostFn::UNIFORM)
                .with_backend(BackendChoice::ThreadParallel { threads: Some(2) })
                .with_sched_chunk(sched_chunk);
            let mut session = SynthSession::new(config).unwrap();
            b.iter(|| std::hint::black_box(session.run(&spec).unwrap().cost))
        });
    }
    for level_chunk_rows in [64usize, 1024, usize::MAX] {
        let label = if level_chunk_rows == usize::MAX {
            "whole_level".to_string()
        } else {
            level_chunk_rows.to_string()
        };
        group.bench_function(format!("sequential_level_chunk_{label}"), |b| {
            let config = SynthConfig::new(CostFn::UNIFORM).with_level_chunk_rows(level_chunk_rows);
            let mut session = SynthSession::new(config).unwrap();
            b.iter(|| std::hint::black_box(session.run(&spec).unwrap().cost))
        });
    }
    group.finish();
}

fn uniqueness_set(c: &mut Criterion) {
    let device = Device::sequential();
    let mut group = c.benchmark_group("uniqueness");
    group.bench_function("lockfree_insert_10k", |b| {
        b.iter_batched(
            || LockFreeU64Set::with_capacity(32_768),
            |set| {
                for key in 0..10_000u64 {
                    std::hint::black_box(set.insert(key.wrapping_mul(0x9E3779B97F4A7C15)));
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("sharded_insert_10k", |b| {
        b.iter_batched(
            || gpu_sim::hashset::ShardedSet::new(64),
            |set| {
                for key in 0..10_000u64 {
                    std::hint::black_box(set.insert(&[key, key ^ 0xABCD]));
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
    let _ = device;
}

criterion_group!(
    benches,
    substrate_construction,
    cs_kernels,
    admission_prefilter,
    level_scheduler_sweep,
    uniqueness_set
);
criterion_main!(benches);
