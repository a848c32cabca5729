//! Criterion benchmarks for the core analyses on the Figure 4/5 workload:
//! the cost of regenerating one Figure 5 data point (per curve, per
//! method), plus the exact adversary and the naive bound. The paper claims
//! the method is "easy to implement with small overhead" — these benches
//! quantify the overhead. The two oracles also run on soundness-shaped
//! curves (a few segments), the inputs the soundness workload feeds them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fnpr_core::{algorithm1, eq4_bound_for_curve, exact_worst_case, naive_bound, DelayCurve};
use fnpr_synth::{figure4_all, random_step_curve};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_algorithm1(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm1");
    for (name, curve) in figure4_all() {
        for q in [20.0, 100.0, 500.0] {
            group.bench_with_input(
                BenchmarkId::new(name.replace(' ', "_"), q as u64),
                &q,
                |b, &q| {
                    b.iter(|| algorithm1(black_box(&curve), black_box(q)).unwrap());
                },
            );
        }
    }
    group.finish();
}

fn bench_eq4(c: &mut Criterion) {
    let mut group = c.benchmark_group("eq4_baseline");
    let (_, curve) = &figure4_all()[1];
    for q in [20.0, 100.0, 500.0] {
        group.bench_with_input(BenchmarkId::from_parameter(q as u64), &q, |b, &q| {
            b.iter(|| eq4_bound_for_curve(black_box(curve), black_box(q)).unwrap());
        });
    }
    group.finish();
}

fn bench_exact_adversary(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_worst_case");
    group.sample_size(20);
    let (_, curve) = &figure4_all()[1];
    for q in [50.0, 200.0] {
        group.bench_with_input(BenchmarkId::from_parameter(q as u64), &q, |b, &q| {
            b.iter(|| exact_worst_case(black_box(curve), black_box(q)).unwrap());
        });
    }
    group.finish();
}

fn bench_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("naive_bound");
    group.sample_size(20);
    let (_, curve) = &figure4_all()[0];
    for q in [50.0, 200.0] {
        group.bench_with_input(BenchmarkId::from_parameter(q as u64), &q, |b, &q| {
            b.iter(|| naive_bound(black_box(curve), black_box(q)).unwrap());
        });
    }
    group.finish();
}

/// A curve and `Q` drawn the way a soundness trial draws them, with the
/// workload's default ranges: a step curve over `C` in [50, 400) with 2–11
/// segments and peak in [1, 8), and `Q` = peak + [0.5, 10).
fn soundness_curve(seed: u64) -> (DelayCurve, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = rng.gen_range(50.0..400.0);
    let segments = rng.gen_range(2..12);
    let max_value = rng.gen_range(1.0..8.0);
    let curve = random_step_curve(&mut rng, c, segments, max_value).expect("valid curve");
    let q = curve.max_value() + rng.gen_range(0.5..10.0);
    (curve, q)
}

/// Both oracles on three soundness-shaped curves. Over 20,000 such curves
/// the exact adversary steps through 177 candidates on average (p99 955);
/// seed 3 (2 segments) steps through 40, seed 0 (7 segments) through 138
/// and seed 911 (9 segments) through 930.
fn bench_soundness_oracles(c: &mut Criterion) {
    let mut group = c.benchmark_group("soundness_oracles");
    group.sample_size(30);
    for seed in [3u64, 0, 911] {
        let (curve, q) = soundness_curve(seed);
        group.bench_with_input(BenchmarkId::new("exact_worst_case", seed), &q, |b, &q| {
            b.iter(|| exact_worst_case(black_box(&curve), black_box(q)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("naive_bound", seed), &q, |b, &q| {
            b.iter(|| naive_bound(black_box(&curve), black_box(q)).unwrap());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_algorithm1,
    bench_eq4,
    bench_exact_adversary,
    bench_naive,
    bench_soundness_oracles
);
criterion_main!(benches);
