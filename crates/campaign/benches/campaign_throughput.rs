//! `campaign_throughput` — scenarios/second through the sharded executor
//! at 1 vs N worker threads, for both workloads. The interesting number in
//! CI logs is the ratio between the `threads/1` and `threads/N` lines: it
//! tracks how much of the engine's work actually parallelizes (BENCH
//! trajectory: keep this near the core count as workloads grow).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fnpr_campaign::{run_campaign_with_store, CampaignSpec};

/// `FNPR_OBS=1 cargo bench -p fnpr-campaign` runs the same grid with the
/// full counter/span stack live — diff the medians against a default run
/// to measure instrumentation overhead (budget: ≤ 5%).
fn obs_from_env() {
    if std::env::var_os("FNPR_OBS").is_some() {
        fnpr_obs::set_enabled(true);
    }
}

fn thread_grid() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let mut grid = vec![1];
    if max > 1 {
        grid.push(max);
    }
    grid
}

fn bench_acceptance(c: &mut Criterion) {
    obs_from_env();
    let spec = CampaignSpec::parse(
        r#"
seed = 2012
workload = "acceptance"
[acceptance]
sets_per_point = 8
max_attempts_factor = 10
utilizations = { values = [0.4, 0.6, 0.8] }
"#,
    )
    .unwrap();
    let campaign = spec.validate().unwrap();
    let mut group = c.benchmark_group("campaign_throughput/acceptance");
    // 2 policies x 3 utilizations x 8 sets = 48 set analyses per run.
    group.sample_size(10).throughput(Throughput::Elements(48));
    for threads in thread_grid() {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| run_campaign_with_store(&campaign, Some(threads), None).unwrap());
            },
        );
    }
    group.finish();
}

fn bench_soundness(c: &mut Criterion) {
    obs_from_env();
    let spec = CampaignSpec::parse(
        r#"
seed = 2012
workload = "soundness"
[soundness]
trials = 64
trials_per_shard = 4
"#,
    )
    .unwrap();
    let campaign = spec.validate().unwrap();
    let mut group = c.benchmark_group("campaign_throughput/soundness");
    group.sample_size(10).throughput(Throughput::Elements(64));
    for threads in thread_grid() {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| run_campaign_with_store(&campaign, Some(threads), None).unwrap());
            },
        );
    }
    group.finish();
}

fn bench_multicore(c: &mut Criterion) {
    obs_from_env();
    let spec = CampaignSpec::parse(
        r#"
seed = 2012
workload = "multicore"
[multicore]
sets_per_point = 4
max_attempts_factor = 10
cores = [2]
tasks_per_core = 2
utilizations = { values = [0.4, 0.6] }
sim_per_point = 1
"#,
    )
    .unwrap();
    let campaign = spec.validate().unwrap();
    let mut group = c.benchmark_group("campaign_throughput/multicore");
    // 2 policies x 4 allocations x 2 utilizations x 4 sets = 64 analyses.
    group.sample_size(10).throughput(Throughput::Elements(64));
    for threads in thread_grid() {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| run_campaign_with_store(&campaign, Some(threads), None).unwrap());
            },
        );
    }
    group.finish();
}

fn bench_cfg_pipeline(c: &mut Criterion) {
    obs_from_env();
    let spec = CampaignSpec::parse(
        r#"
seed = 2012
workload = "cfg"
[cfg]
programs_per_point = 4
depths = [2, 3]
loop_iterations = [4]
footprints = [8]
q_scales = { values = [0.3, 0.6] }
sets = [16, 64]
associativity = [1]
line_bytes = [16]
reload_cost = [10.0]
"#,
    )
    .unwrap();
    let campaign = spec.validate().unwrap();
    let mut group = c.benchmark_group("campaign_throughput/cfg_pipeline");
    // 2 shapes x 2 geometries x 2 q scales x 4 programs = 32 full
    // program->curve->bound pipeline analyses per run (memoized within a
    // run, so this tracks the generate+compile+prepare+CRPD path plus the
    // memo layer itself — the BENCH trajectory for the program->curve
    // path).
    group.sample_size(10).throughput(Throughput::Elements(32));
    for threads in thread_grid() {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| run_campaign_with_store(&campaign, Some(threads), None).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_acceptance,
    bench_soundness,
    bench_multicore,
    bench_cfg_pipeline
);
criterion_main!(benches);
