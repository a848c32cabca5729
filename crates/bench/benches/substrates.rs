//! Criterion benchmarks for the substrates: start-offset analysis, loop
//! reduction and the useful-cache-block dataflow as the task's control-flow
//! graph grows, the calls the acceptance sweep makes per task set, and the
//! result store's write and restore of one finished point.

use std::path::Path;

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use fnpr_cache::{AccessMap, CacheConfig, CrpdAnalysis};
use fnpr_campaign::report::{CfgPoint, SoundnessRow, SoundnessShard};
use fnpr_campaign::store::StoreTable;
use fnpr_campaign::ResultStore;
use fnpr_cfg::ast::CompiledProgram;
use fnpr_cfg::{reduce_loops, Occupancy, StartOffsets};
use fnpr_pipeline::program_access_map;
use fnpr_sched::{
    edf_schedulable_with_delay, fp_schedulable_with_delay, max_npr_lengths_edf, max_npr_lengths_fp,
    DelayMethod,
};
use fnpr_synth::{
    random_program, random_taskset, random_unimodal_curve, with_npr_and_curves, Policy,
    ProgramGenParams, TaskSetParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// A `[cfg]`-shaped program of nesting depth `depth`, drawn from `seed`.
fn generated(depth: usize, seed: u64) -> CompiledProgram {
    let params = ProgramGenParams {
        max_depth: depth,
        ..ProgramGenParams::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    random_program(&mut rng, &params)
        .expect("generation succeeds")
        .compiled
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
/// `delay_frac` 0.6): curve equipment under each policy, one of its 64-cell
/// sampled curves, the `Qi` bounds, and the Algorithm 1 inflated tests on
/// the equipped sets.
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
    // The first task's curve as the fixed-priority equipment draws it.
    let first = fp_set.task(0);
    let (wcet, peak) = (first.wcet(), first.q().expect("equipped") * 0.6);
    group.bench_function("random_unimodal_curve", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(18);
            random_unimodal_curve(&mut rng, black_box(wcet), peak, wcet / 64.0).unwrap()
        });
    });
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

/// A one-trial soundness shard, as the soundness workload stores 20,000
/// of them (361 bytes of JSON).
fn soundness_shard() -> SoundnessShard {
    SoundnessShard {
        first_trial: 0,
        rows: vec![SoundnessRow {
            trial: 0,
            q: 5.12227735285861,
            naive: 96.21001807040463,
            exact: 239.37113527988092,
            algorithm1: 245.7157468551535,
            eq4: 675.3522908164298,
            sim_max: Some(96.03654580306035),
        }],
        naive_unsound: 1,
        theorem1_violations: 0,
        eq4_violations: 0,
        sim_violations: 0,
        ratio_sum: 1.0265053326828828,
        ratio_max: 1.0265053326828828,
        ratio_count: 1,
    }
}

/// A `[cfg]` grid point from the `cfg_smoke` example (421 bytes of JSON).
fn cfg_point() -> CfgPoint {
    CfgPoint {
        shape: "d2_l4_f4".to_string(),
        depth: 2,
        loop_iterations: 4,
        footprint: 4,
        sets: 16,
        associativity: 1,
        line_bytes: 16,
        reload_cost: 1.0,
        q_scale: 0.4,
        programs: 6,
        blocks_mean: 5.0,
        wcet_mean: 43.74755764929869,
        curve_max_mean: 8.333333333333334,
        alg1_converged: 5,
        eq4_converged: 5,
        delay_mean: 21.2,
        pessimism_mean: 1.657777777777778,
        pessimism_max: 2.2222222222222223,
        pessimism_count: 5,
        dominance_violations: 0,
    }
}

/// `ResultStore::get_or_compute` on one finished point: `put` computes
/// under a key the store has not seen (the self-check, the framing and one
/// append), `restore` reads back a stored key (the decode).
fn bench_store_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_codec");
    let dir = std::env::temp_dir().join(format!("fnpr_store_codec_{}", std::process::id()));
    bench_store_table(
        &mut group,
        &dir,
        "soundness_shard",
        StoreTable::SoundnessShards,
        &soundness_shard(),
    );
    bench_store_table(
        &mut group,
        &dir,
        "cfg_point",
        StoreTable::CfgPoints,
        &cfg_point(),
    );
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_store_table<V>(
    group: &mut BenchmarkGroup<'_>,
    dir: &Path,
    name: &str,
    table: StoreTable,
    value: &V,
) where
    V: serde::Serialize + serde::Deserialize + PartialEq + Clone,
{
    let open = |kind: &str| {
        ResultStore::open(&dir.join(format!("{kind}_{name}"))).expect("scratch store opens")
    };
    let store = open("put");
    let mut key = 0u128;
    group.bench_function(BenchmarkId::new("put", name), |b| {
        b.iter(|| {
            key += 1;
            store.get_or_compute(table, key, || Ok::<_, ()>(black_box(value).clone()))
        });
    });
    assert_eq!(store.stats().write_errors, 0, "every point was stored");
    let store = open("restore");
    let _ = store.get_or_compute(table, 0, || Ok::<_, ()>(value.clone()));
    group.bench_function(BenchmarkId::new("restore", name), |b| {
        b.iter(|| {
            store
                .get_or_compute(table, 0, || Err::<V, _>(()))
                .expect("restored")
        });
    });
}

criterion_group!(
    benches,
    bench_offsets,
    bench_loop_reduction,
    bench_ucb_dataflow,
    bench_occupancy_windows,
    bench_acceptance_equipment,
    bench_store_codec
);
criterion_main!(benches);
