//! The `bound_kernel` criterion group: the fused `CurveCursor` kernel
//! against the per-call reference path (the test reference
//! `crates/core/tests/support/algorithm1_reference.rs`, included below), on
//! the workloads the campaign engines actually run — a many-segment
//! synthetic curve and a CFG-derived curve, near-divergent `Q` choices
//! (many windows), a dense `Q` grid, a sensitivity-bisection probe (scale
//! the curve, then run), the heap-based `from_windows` sweep and the
//! allocation-free Eq. 4 fast path.
//!
//! Results persist to `BENCH_bound_kernel.json` at the repo root (see the
//! criterion shim docs): re-runs report per-benchmark deltas, and CI runs
//! the group twice in smoke mode with a 30% regression gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fnpr_cache::CacheConfig;
use fnpr_core::{algorithm1, eq4_bound_with_limit, DelayCurve};
use fnpr_pipeline::{analyze_task, program_access_map};
use fnpr_synth::{random_program, ProgramGenParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

// The bench times only `reference::algorithm1`.
#[allow(dead_code)]
#[path = "../../core/tests/support/algorithm1_reference.rs"]
mod reference;

/// Domain end of the synthetic curve.
const SYNTH_C: f64 = 4000.0;
/// Spike height; `Q` sits just above it, so windows containing a spike
/// charge almost the whole region and progress creeps — the many-window
/// regime the campaign sweeps hit near the divergence boundary.
const SPIKE: f64 = 40.0;
/// Near-divergent region length for the synthetic curve.
const SYNTH_Q: f64 = SPIKE + 0.5;

/// A ≥1000-segment curve shaped like the hard campaign cases: a low noisy
/// tail with sparse tall spikes. Windows between spikes scan long low
/// stretches; windows at spikes creep by `Q − SPIKE` per step.
fn synthetic_curve(segments: usize) -> DelayCurve {
    let mut rng = StdRng::seed_from_u64(0x2012_0314);
    let points: Vec<(f64, f64)> = (0..segments)
        .map(|k| {
            let start = SYNTH_C * (k as f64) / (segments as f64);
            let value = if k > 0 && k % 200 == 0 {
                SPIKE
            } else {
                rng.gen_range(0.0..2.0)
            };
            (start, value)
        })
        .collect();
    DelayCurve::from_breakpoints(points, SYNTH_C).expect("valid synthetic curve")
}

/// A curve derived from generated program structure through the full
/// Section IV pipeline (compile → CRPD → windows → `fi`), as the `[cfg]`
/// campaign workload produces them.
fn cfg_curve() -> DelayCurve {
    // Sequence/branch-heavy shape: a program dominated by one big loop
    // reduces to a single super-block window, which is not the fragmented
    // regime this group measures.
    let params = ProgramGenParams {
        max_depth: 9,
        max_sequence: 5,
        max_loop_iterations: 8,
        branch_probability: 0.35,
        loop_probability: 0.04,
        footprint_lines: 64,
        accesses_per_block: (2, 6),
        ..ProgramGenParams::default()
    };
    let mut rng = StdRng::seed_from_u64(2012);
    let program = random_program(&mut rng, &params).expect("program generates");
    let cache = CacheConfig::new(64, 2, 16, 25.0).expect("valid cache");
    let accesses = program_access_map(&program.compiled, &cache);
    analyze_task(
        &program.compiled.cfg,
        &program.compiled.loop_bounds,
        &accesses,
        &cache,
    )
    .expect("pipeline analyzes")
    .curve
}

fn bench_bound_kernel(c: &mut Criterion) {
    let synthetic = synthetic_curve(1600);
    assert!(synthetic.segment_count() >= 1000, "acceptance floor");
    let cfg = cfg_curve();
    let cfg_q = cfg.max_value() * 1.05 + 1.0;
    eprintln!(
        "# synthetic: {} segments, q {SYNTH_Q}; cfg: {} segments, wcet {}, q {cfg_q:.2}",
        synthetic.segment_count(),
        cfg.segment_count(),
        cfg.domain_end(),
    );
    // The fused kernel must agree with the reference before we time it.
    assert_eq!(
        algorithm1(&synthetic, SYNTH_Q).unwrap(),
        reference::algorithm1(&synthetic, SYNTH_Q).unwrap()
    );
    assert_eq!(
        algorithm1(&cfg, cfg_q).unwrap(),
        reference::algorithm1(&cfg, cfg_q).unwrap()
    );

    let mut group = c.benchmark_group("bound_kernel");
    group.sample_size(15).throughput(Throughput::Elements(1));
    group.bench_with_input(
        BenchmarkId::new("cursor", "synthetic_1600seg"),
        &synthetic,
        |b, curve| b.iter(|| algorithm1(black_box(curve), black_box(SYNTH_Q)).unwrap()),
    );
    group.bench_with_input(
        BenchmarkId::new("reference", "synthetic_1600seg"),
        &synthetic,
        |b, curve| b.iter(|| reference::algorithm1(black_box(curve), black_box(SYNTH_Q)).unwrap()),
    );
    group.bench_with_input(BenchmarkId::new("cursor", "cfg"), &cfg, |b, curve| {
        b.iter(|| algorithm1(black_box(curve), black_box(cfg_q)).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("reference", "cfg"), &cfg, |b, curve| {
        b.iter(|| reference::algorithm1(black_box(curve), black_box(cfg_q)).unwrap())
    });

    // A dense near-divergent Q grid, the per-curve unit of work of the
    // fig5/soundness/cfg sweeps.
    let q_grid: Vec<f64> = (0..64).map(|j| SPIKE + 0.25 + j as f64 * 0.125).collect();
    group.throughput(Throughput::Elements(q_grid.len() as u64));
    group.bench_with_input(BenchmarkId::new("cursor", "q_grid_64"), &q_grid, |b, qs| {
        b.iter(|| {
            qs.iter()
                .filter_map(|&q| algorithm1(black_box(&synthetic), q).unwrap().total_delay())
                .sum::<f64>()
        })
    });
    group.bench_with_input(
        BenchmarkId::new("reference", "q_grid_64"),
        &q_grid,
        |b, qs| {
            b.iter(|| {
                qs.iter()
                    .filter_map(|&q| {
                        reference::algorithm1(black_box(&synthetic), q)
                            .unwrap()
                            .total_delay()
                    })
                    .sum::<f64>()
            })
        },
    );

    // The sensitivity-bisection probe: scale the curve, then run.
    let factor = 0.85;
    group.throughput(Throughput::Elements(1));
    group.bench_function("scaled_materialized", |b| {
        b.iter(|| {
            let scaled = black_box(&synthetic).scaled(black_box(factor)).unwrap();
            algorithm1(&scaled, black_box(SYNTH_Q)).unwrap()
        })
    });

    // Curve assembly from heavily overlapping CFG block windows (the
    // lazy-deletion-heap sweep; previously O(w²)).
    let windows: Vec<(f64, f64, f64)> = (0..5000)
        .map(|i| {
            let inset = i as f64 * SYNTH_C / 11_000.0;
            (inset, SYNTH_C - inset, (i % 31) as f64)
        })
        .collect();
    group.bench_with_input(
        BenchmarkId::new("from_windows", "5000_overlapping"),
        &windows,
        |b, ws| b.iter(|| DelayCurve::from_windows(ws.iter().copied(), SYNTH_C).unwrap()),
    );

    // The allocation-free Eq. 4 fixpoint. max_delay just under q makes it
    // crawl.
    group.bench_function("eq4_no_trace", |b| {
        b.iter(|| {
            eq4_bound_with_limit(
                black_box(SYNTH_C),
                black_box(5.0),
                black_box(4.99),
                1_000_000,
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_bound_kernel);
criterion_main!(benches);
