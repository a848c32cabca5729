//! Criterion benchmarks for the substrates: start-offset analysis, loop
//! reduction and the useful-cache-block dataflow as the task's control-flow
//! graph grows, and the calls the acceptance sweep makes per task set.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fnpr_cache::{AccessMap, CacheConfig, CrpdAnalysis};
use fnpr_cfg::{reduce_loops, Occupancy, StartOffsets};
use fnpr_pipeline::program_access_map;
use fnpr_sched::{
    edf_schedulable_with_delay, fp_schedulable_with_delay, max_npr_lengths_edf, max_npr_lengths_fp,
    DelayMethod,
};
use fnpr_synth::{
    random_cfg, random_program, random_taskset, with_npr_and_curves, CfgGenParams, GeneratedCfg,
    Policy, ProgramGenParams, TaskSetParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn generated(depth: usize, seed: u64) -> GeneratedCfg {
    let params = CfgGenParams {
        max_depth: depth,
        ..CfgGenParams::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    random_cfg(&mut rng, &params).expect("generation succeeds")
}

fn bench_offsets(c: &mut Criterion) {
    let mut group = c.benchmark_group("start_offsets");
    for depth in [2usize, 4, 6] {
        let g = generated(depth, 42);
        let reduced = reduce_loops(&g.cfg, &g.loop_bounds).expect("reducible");
        group.bench_with_input(
            BenchmarkId::from_parameter(reduced.cfg.len()),
            &reduced.cfg,
            |b, cfg| {
                b.iter(|| StartOffsets::analyze(black_box(cfg)).unwrap());
            },
        );
    }
    group.finish();
}

fn bench_loop_reduction(c: &mut Criterion) {
    let mut group = c.benchmark_group("loop_reduction");
    for depth in [2usize, 4, 6] {
        let g = generated(depth, 7);
        group.bench_with_input(BenchmarkId::from_parameter(g.cfg.len()), &g, |b, g| {
            b.iter(|| reduce_loops(black_box(&g.cfg), black_box(&g.loop_bounds)).unwrap());
        });
    }
    group.finish();
}

fn bench_ucb_dataflow(c: &mut Criterion) {
    let mut group = c.benchmark_group("ucb_crpd");
    group.sample_size(30);
    let cache = CacheConfig::lee_style();
    for depth in [2usize, 4, 6] {
        let g = generated(depth, 11);
        let accesses = AccessMap::from_code_layout(&g.layout, &cache);
        group.bench_with_input(
            BenchmarkId::from_parameter(g.cfg.len()),
            &(g, accesses),
            |b, (g, accesses)| {
                b.iter(|| {
                    CrpdAnalysis::analyze(black_box(&g.cfg), black_box(accesses), &cache).unwrap()
                });
            },
        );
    }
    // `[cfg]`-shaped inputs: generated programs whose blocks carry data
    // accesses besides their instruction fetches, under a direct-mapped and
    // a 2-way LRU cache of 256 sets.
    for depth in [2usize, 3, 4] {
        let params = ProgramGenParams {
            max_depth: depth,
            max_loop_iterations: 16,
            footprint_lines: 64,
            ..ProgramGenParams::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let compiled = random_program(&mut rng, &params)
            .expect("generation succeeds")
            .compiled;
        for (name, ways) in [("dm256_data", 1), ("lru2x256_data", 2)] {
            let cache = CacheConfig::new(256, ways, 16, 10.0).expect("valid geometry");
            let accesses = program_access_map(&compiled, &cache);
            group.bench_with_input(
                BenchmarkId::new(name, compiled.cfg.len()),
                &accesses,
                |b, accesses| {
                    b.iter(|| {
                        CrpdAnalysis::analyze(black_box(&compiled.cfg), black_box(accesses), &cache)
                            .unwrap()
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_occupancy_windows(c: &mut Criterion) {
    let mut group = c.benchmark_group("occupancy");
    for depth in [3usize, 6] {
        let g = generated(depth, 3);
        let reduced = reduce_loops(&g.cfg, &g.loop_bounds).expect("reducible");
        group.bench_with_input(
            BenchmarkId::from_parameter(reduced.cfg.len()),
            &reduced.cfg,
            |b, cfg| {
                b.iter(|| Occupancy::analyze(black_box(cfg)).unwrap());
            },
        );
    }
    group.finish();
}

/// One acceptance instance, shaped like the benchmark sweep's (n = 5,
/// U = 0.6, periods 10–1000, implicit deadlines, `q_scale` 0.8,
/// `delay_frac` 0.6): curve equipment under each policy, the `Qi` bounds,
/// and the Algorithm 1 inflated tests on the equipped sets.
fn bench_acceptance_equipment(c: &mut Criterion) {
    let mut group = c.benchmark_group("acceptance_equipment");
    let params = TaskSetParams {
        n: 5,
        utilization: 0.6,
        period_range: (10.0, 1000.0),
        deadline_factor: (1.0, 1.0),
    };
    let base = random_taskset(&mut StdRng::seed_from_u64(17), &params).expect("valid set");
    let equip = |policy| {
        with_npr_and_curves(&mut StdRng::seed_from_u64(18), &base, policy, 0.8, 0.6)
            .expect("bounds compute")
            .expect("equipped at U = 0.6")
    };
    let (fp_set, edf_set) = (equip(Policy::FixedPriority), equip(Policy::Edf));
    for (name, policy) in [("fp", Policy::FixedPriority), ("edf", Policy::Edf)] {
        group.bench_function(BenchmarkId::new("with_npr_and_curves", name), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(18);
                with_npr_and_curves(&mut rng, black_box(&base), policy, 0.8, 0.6).unwrap()
            });
        });
    }
    group.bench_function("max_npr_lengths_fp", |b| {
        b.iter(|| max_npr_lengths_fp(black_box(&base)));
    });
    group.bench_function("max_npr_lengths_edf", |b| {
        b.iter(|| max_npr_lengths_edf(black_box(&base)).unwrap());
    });
    group.bench_function("fp_schedulable_with_delay", |b| {
        b.iter(|| fp_schedulable_with_delay(black_box(&fp_set), DelayMethod::Algorithm1).unwrap());
    });
    group.bench_function("edf_schedulable_with_delay", |b| {
        b.iter(|| {
            edf_schedulable_with_delay(black_box(&edf_set), DelayMethod::Algorithm1).unwrap()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_offsets,
    bench_loop_reduction,
    bench_ucb_dataflow,
    bench_occupancy_windows,
    bench_acceptance_equipment
);
criterion_main!(benches);
