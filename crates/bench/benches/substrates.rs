//! Criterion benchmarks for the substrates: start-offset analysis, loop
//! reduction and the useful-cache-block dataflow as the task's control-flow
//! graph grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fnpr_cache::{AccessMap, CacheConfig, CrpdAnalysis};
use fnpr_cfg::{reduce_loops, Occupancy, StartOffsets};
use fnpr_pipeline::program_access_map;
use fnpr_synth::{random_cfg, random_program, CfgGenParams, GeneratedCfg, ProgramGenParams};
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

criterion_group!(
    benches,
    bench_offsets,
    bench_loop_reduction,
    bench_ucb_dataflow,
    bench_occupancy_windows
);
criterion_main!(benches);
