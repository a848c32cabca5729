//! Criterion benchmarks for the discrete-event simulator: periodic task
//! sets of growing size under floating-NPR vs. fully-preemptive handling,
//! and the soundness workload's single-victim interference scenarios.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fnpr_sim::{simulate, Scenario, SimConfig};
use fnpr_synth::{random_step_curve, random_taskset, with_npr_and_curves, Policy, TaskSetParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn scenario_for(n: usize) -> Scenario {
    let mut rng = StdRng::seed_from_u64(n as u64);
    loop {
        let params = TaskSetParams {
            n,
            utilization: 0.6,
            period_range: (20.0, 400.0),
            deadline_factor: (1.0, 1.0),
        };
        let Ok(base) = random_taskset(&mut rng, &params) else {
            continue;
        };
        if let Ok(Some(tasks)) =
            with_npr_and_curves(&mut rng, &base, Policy::FixedPriority, 0.7, 0.5)
        {
            let horizon = tasks.iter().map(|t| t.period()).fold(0.0f64, f64::max) * 5.0;
            return Scenario::periodic(&tasks, &[], horizon);
        }
    }
}

fn bench_floating_npr(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_floating_npr");
    group.sample_size(30);
    for n in [3usize, 6, 10] {
        let scenario = scenario_for(n);
        group.bench_with_input(
            BenchmarkId::from_parameter(scenario.releases.len()),
            &scenario,
            |b, s| {
                b.iter(|| simulate(black_box(s), &SimConfig::floating_npr_fp(1e9)));
            },
        );
    }
    group.finish();
}

fn bench_preemptive(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_preemptive");
    group.sample_size(30);
    for n in [3usize, 6, 10] {
        let scenario = scenario_for(n);
        group.bench_with_input(
            BenchmarkId::from_parameter(scenario.releases.len()),
            &scenario,
            |b, s| {
                b.iter(|| simulate(black_box(s), &SimConfig::preemptive_fp(1e9)));
            },
        );
    }
    group.finish();
}

/// Scenarios drawn the way a soundness trial draws them, with the
/// workload's default ranges: a step curve over `C` in [50, 400) with 2–11
/// segments and peak in [1, 8), `Q` = peak + [0.5, 10), and spikes of
/// [0.1, 2) every [1, 2Q) until `4C`.
fn soundness_scenarios(count: u64) -> Vec<Scenario> {
    (0..count)
        .map(|trial| {
            let mut rng = StdRng::seed_from_u64(trial);
            let c = rng.gen_range(50.0..400.0);
            let segments = rng.gen_range(2..12);
            let max_value = rng.gen_range(1.0..8.0);
            let curve = random_step_curve(&mut rng, c, segments, max_value).expect("valid curve");
            let q = curve.max_value() + rng.gen_range(0.5..10.0);
            let spike = rng.gen_range(0.1..2.0);
            Scenario::random_interference(c, q, &curve, spike, 1.0, q * 2.0, c * 4.0, &mut rng)
        })
        .collect()
}

fn bench_soundness_shaped(c: &mut Criterion) {
    let scenarios = soundness_scenarios(200);
    let mut group = c.benchmark_group("simulate_soundness_shaped");
    group.sample_size(30);
    group.throughput(Throughput::Elements(scenarios.len() as u64));
    group.bench_function("fp_floating_npr/200", |b| {
        b.iter(|| {
            for s in &scenarios {
                black_box(simulate(black_box(s), &SimConfig::floating_npr_fp(1e9)));
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_floating_npr,
    bench_preemptive,
    bench_soundness_shaped
);
criterion_main!(benches);
