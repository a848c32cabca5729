//! The campaign benchmark's command line:
//!
//! ```text
//! fnpr-perfbench --workload <acceptance|soundness|cfg|multicore>
//!                [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run it from the repository root (it keeps scratch stores under
//! `.perfbench/runs/` and span traces under `.perfbench/traces/`). The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are the same
//! numbers for people. Exit code 0 means every output checked out, 1 that
//! some point failed its check, 2 that the benchmark could not run.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use fnpr_campaign::{
    run_campaign_with_store, Campaign, CampaignOutcome, CampaignSpec, ResultStore,
};
use fnpr_perfbench::check::{self, DEFAULT_SEED};
use fnpr_perfbench::replay::{replay, WORK_PREFIXES};
use fnpr_perfbench::spans::{self, Tracer};
use fnpr_perfbench::workloads::Workload;

/// Minimum seconds of warm runs per measurement cycle.
const WARM_SHARE_S: f64 = 0.25;

/// Cold `nproc`/1-thread run pairs behind the traced pass's parallel
/// efficiency and tracing overhead (medians).
const TRACED_BASELINE_PAIRS: usize = 3;

/// Memo tables reported per layer.
const MEMO_TABLES: [&str; 5] = ["taskset", "bounds", "program", "curve", "bound"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A fresh scratch directory under `.perfbench/runs/`, removed with
/// everything in it when dropped (normal exit, error return or panic),
/// along with its parents once no other run uses them.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create() -> std::io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = Path::new(".perfbench")
            .join("runs")
            .join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // `remove_dir` refuses a directory that is not empty.
        for parent in self.0.ancestors().skip(1).take(2) {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// What every result records so numbers from different machines or
/// specs are never compared.
struct Env {
    nproc: usize,
    cpu: String,
    rustc: String,
}

impl Env {
    fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        Self { nproc, cpu, rustc }
    }
}

/// One metric of the final JSON line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.
            value: if value.is_finite() { value + 0.0 } else { 0.0 },
            unit,
        }
    }
}

#[derive(Default)]
struct Outcome {
    /// The metrics of the JSON line (`BENCHMARK.json`'s lists).
    metrics: Vec<Metric>,
    /// Metrics printed for people only (too noisy on small hosts to gate).
    printed: Vec<Metric>,
    notes: Vec<String>,
    attempted: usize,
    failed: usize,
    correct: bool,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Books one real run's output against the reference CSV.
    fn book(
        &mut self,
        reference: &str,
        points: usize,
        result: &Result<(CampaignOutcome, String), String>,
    ) {
        self.attempted += points;
        match result {
            Ok((outcome, csv)) => {
                self.failed += check::failed_points(reference, csv, &outcome.report)
            }
            Err(e) => {
                self.failed += points;
                self.notes.push(format!("run failed: {e}"));
            }
        }
    }
}

/// A JSON string literal for `s`.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `label: n samples, median, and the highest of p90/p99 that has at
/// least ten samples beyond it`.
fn timing_note(label: &str, samples: &[f64]) -> String {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut note = format!(
        "{label}: {} samples, median {:.6} s",
        sorted.len(),
        median(&sorted)
    );
    for (name, share) in [("p99", 0.99), ("p90", 0.90)] {
        let beyond = (sorted.len() as f64 * (1.0 - share)).floor() as usize;
        if beyond >= 10 {
            let _ = write!(note, ", {name} {:.6} s", sorted[sorted.len() - 1 - beyond]);
            break;
        }
    }
    note
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One campaign run plus its CSV rendering.
fn run(
    campaign: &Campaign,
    threads: usize,
    store: Option<&ResultStore>,
) -> Result<(CampaignOutcome, String), String> {
    let outcome =
        run_campaign_with_store(campaign, Some(threads), store).map_err(|e| e.to_string())?;
    let csv = outcome.report.to_csv();
    Ok((outcome, csv))
}

/// Times one iteration, books its output against the reference, and
/// keeps its time when it ran. Returns the outcome for further checks.
fn timed_iteration(
    out: &mut Outcome,
    setup: &Setup,
    samples: &mut Vec<f64>,
    iteration: impl FnOnce() -> Result<(CampaignOutcome, String), String>,
) -> Option<CampaignOutcome> {
    let t = Instant::now();
    let result = iteration();
    let dt = seconds_since(t);
    if result.is_ok() {
        samples.push(dt);
    }
    out.book(&setup.reference, setup.points, &result);
    result.ok().map(|(outcome, _)| outcome)
}

/// Everything set-up leaves for the timed iterations.
struct Setup {
    campaign: Campaign,
    reference: String,
    points: usize,
    scenario: String,
    store_dir: PathBuf,
    /// Whole set-up wall time, one per set-up.
    times: Vec<f64>,
    /// The latest store-filling run alone (no spec work).
    fill_run_s: f64,
}

/// One set-up's output.
struct Fill {
    campaign: Campaign,
    outcome: CampaignOutcome,
    csv: String,
    /// Whole set-up wall time.
    total_s: f64,
    /// The store-filling run alone.
    run_s: f64,
}

/// One set-up: spec generation from the seed, parse and validate, and one
/// cold `nproc` run filling a fresh store in `store_dir`.
fn fill(args: &Args, env: &Env, store_dir: &Path) -> Result<Fill, String> {
    let started = Instant::now();
    let text = args.workload.spec_text(args.seed);
    let campaign = CampaignSpec::parse(&text)
        .and_then(|spec| spec.validate())
        .map_err(|e| format!("spec: {e}"))?;
    let store = ResultStore::open(store_dir).map_err(|e| format!("store open: {e}"))?;
    let run_started = Instant::now();
    let (outcome, csv) = run(&campaign, env.nproc, Some(&store))?;
    let run_s = seconds_since(run_started);
    drop(store);
    Ok(Fill {
        campaign,
        outcome,
        csv,
        total_s: seconds_since(started),
        run_s,
    })
}

/// The first set-up. Its CSV becomes the reference every later run is
/// checked against (and, at the default seed, must match the recorded
/// digest).
fn set_up(
    args: &Args,
    env: &Env,
    scratch: &ScratchDir,
    out: &mut Outcome,
) -> Result<Setup, String> {
    let store_dir = scratch.0.join("store-0");
    let first = fill(args, env, &store_dir)?;
    let points = check::points(&first.outcome.report);
    out.attempted += points;
    out.failed += check::violating_points(&first.outcome.report).len();
    let digest = check::digest(first.csv.as_bytes());
    if args.seed == DEFAULT_SEED {
        let recorded = check::recorded_digest(args.workload);
        if digest != recorded {
            out.failed += points;
            out.notes.push(format!(
                "CSV digest {digest} differs from the recorded {recorded} at the default seed"
            ));
        }
    }
    out.notes.push(format!("csv digest {digest}"));
    Ok(Setup {
        campaign: first.campaign,
        reference: first.csv,
        points,
        scenario: first.outcome.report.scenario.clone(),
        store_dir,
        times: vec![first.total_s],
        fill_run_s: first.run_s,
    })
}

impl Setup {
    /// Another set-up, booked against the reference; its store replaces
    /// the previous one.
    fn repeat(
        &mut self,
        args: &Args,
        env: &Env,
        scratch: &ScratchDir,
        out: &mut Outcome,
    ) -> Result<(), String> {
        let store_dir = scratch.0.join(format!("store-{}", self.times.len()));
        let again = fill(args, env, &store_dir)?;
        out.book(
            &self.reference,
            self.points,
            &Ok((again.outcome, again.csv)),
        );
        let _ = std::fs::remove_dir_all(&self.store_dir);
        self.store_dir = store_dir;
        self.times.push(again.total_s);
        self.fill_run_s = again.run_s;
        Ok(())
    }
}

/// The untraced pass: end-to-end metrics. Until `--seconds` have passed,
/// each cycle takes one set-up sample (the first cycle's is the
/// reference), then times a cold `nproc` run, a cold 1-thread run and
/// warm runs, so every kind of sample spreads over the whole window.
fn untraced(
    args: &Args,
    env: &Env,
    scratch: &ScratchDir,
    out: &mut Outcome,
) -> Result<Setup, String> {
    let started = Instant::now();
    let mut setup = set_up(args, env, scratch, out)?;
    let points = setup.points as f64;
    let (mut cold, mut cold_1t, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    let mut partial_warm = 0;
    loop {
        timed_iteration(out, &setup, &mut cold, || {
            run(&setup.campaign, env.nproc, None)
        });
        timed_iteration(out, &setup, &mut cold_1t, || run(&setup.campaign, 1, None));
        // Warm runs restore everything in milliseconds on the small
        // grids, so repeat them until a share of the cycle has passed.
        let warm_started = Instant::now();
        loop {
            let outcome = timed_iteration(out, &setup, &mut warm, || {
                let store =
                    ResultStore::open(&setup.store_dir).map_err(|e| format!("store open: {e}"))?;
                run(&setup.campaign, env.nproc, Some(&store))
            });
            // One stored record per point (soundness runs one trial per shard).
            let restored = outcome
                .and_then(|o| o.store)
                .map_or(0, |s| s.points_restored);
            if restored != setup.points as u64 {
                partial_warm += 1;
            }
            if seconds_since(warm_started) >= WARM_SHARE_S {
                break;
            }
        }
        if seconds_since(started) >= args.seconds {
            break;
        }
        setup.repeat(args, env, scratch, out)?;
    }
    if partial_warm > 0 {
        out.notes.push(format!(
            "{partial_warm} warm runs did not restore every point"
        ));
    }
    for (label, samples) in [
        ("cold", &cold),
        ("cold 1-thread", &cold_1t),
        ("warm", &warm),
        ("setup", &setup.times),
    ] {
        out.notes.push(timing_note(label, samples));
    }
    if cold.is_empty() || cold_1t.is_empty() || warm.is_empty() {
        return Err("no timed iteration succeeded".to_string());
    }
    out.metric("points_per_s", points / median(&cold), "points/s");
    out.metric("points_per_s_1t", points / median(&cold_1t), "points/s");
    // Warm runs take milliseconds, so host noise moves them most (a 23%
    // quartile spread over ten seeds on a shared 2-vCPU host): printed,
    // not gated. `campaign.store.restore_s` tracks the same path per layer.
    out.printed.push(Metric::new(
        "warm_points_per_s",
        points / median(&warm),
        "points/s",
    ));
    out.metric("setup_s", median(&setup.times), "s");
    out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    Ok(setup)
}

/// Peak resident set (VmHWM) of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A real run with the program's telemetry on: its counters and
/// histograms, plus wall time and threads used.
struct Telemetry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, fnpr_obs::HistogramSnapshot>,
    wall_s: f64,
    threads: usize,
}

fn telemetry_run(setup: &Setup, threads: usize, out: &mut Outcome) -> Telemetry {
    fnpr_obs::reset();
    let mut wall = Vec::new();
    let outcome = timed_iteration(out, setup, &mut wall, || {
        run(&setup.campaign, threads, None)
    });
    Telemetry {
        counters: fnpr_obs::counters_snapshot(),
        histograms: fnpr_obs::histograms_snapshot(),
        wall_s: median(&wall),
        threads: outcome.map_or(threads, |o| o.threads),
    }
}

fn count(counters: &BTreeMap<String, u64>, name: &str) -> f64 {
    counters.get(name).copied().unwrap_or(0) as f64
}

/// The traced pass: per-layer metrics.
fn traced(
    args: &Args,
    env: &Env,
    scratch: &ScratchDir,
    out: &mut Outcome,
) -> Result<Setup, String> {
    let setup = set_up(args, env, scratch, out)?;

    // Untraced baselines: cold runs without a store at nproc and 1 thread.
    let (mut cold, mut cold_1t) = (Vec::new(), Vec::new());
    for _ in 0..TRACED_BASELINE_PAIRS {
        timed_iteration(out, &setup, &mut cold, || {
            run(&setup.campaign, env.nproc, None)
        });
        timed_iteration(out, &setup, &mut cold_1t, || run(&setup.campaign, 1, None));
    }
    let (cold_s, cold_1t_s) = (median(&cold), median(&cold_1t));

    // Store: open, then restore (and render) everything from the set-up fill.
    let t = Instant::now();
    let store = ResultStore::open(&setup.store_dir).map_err(|e| format!("store open: {e}"))?;
    let open_s = seconds_since(t);
    let mut restore = Vec::new();
    let restored = timed_iteration(out, &setup, &mut restore, || {
        run(&setup.campaign, env.nproc, Some(&store))
    });
    let records: usize = store.table_counts().iter().map(|(_, n)| n).sum();
    drop(store);
    let renders: Vec<f64> = restored
        .iter()
        .flat_map(|outcome| {
            (0..5).map(|_| {
                let t = Instant::now();
                std::hint::black_box(outcome.report.to_csv());
                seconds_since(t)
            })
        })
        .collect();

    // Real runs with the program's telemetry on.
    fnpr_obs::set_enabled(true);
    let one = telemetry_run(&setup, 1, out);
    let many = telemetry_run(&setup, env.nproc, out);

    // The replay, with the program's spans collected alongside ours.
    fnpr_obs::reset();
    fnpr_obs::set_trace_collection(true);
    let mut tracer = Tracer::new();
    let t = Instant::now();
    let replayed = replay(&setup.campaign, &mut tracer);
    let replay_s = seconds_since(t);
    let replay_counters = fnpr_obs::counters_snapshot();
    let program_spans = fnpr_obs::take_trace_events();
    fnpr_obs::set_trace_collection(false);
    fnpr_obs::set_enabled(false);
    let stats = replayed.map_err(|e| format!("replay: {e}"))?;

    // Replay check: every work counter equals the 1-thread run's.
    let names: BTreeSet<&String> = one.counters.keys().chain(replay_counters.keys()).collect();
    let mut checked = 0;
    let mut mismatches = Vec::new();
    for name in names {
        if !WORK_PREFIXES.iter().any(|p| name.starts_with(p)) {
            continue;
        }
        let real = one.counters.get(name).copied().unwrap_or(0);
        let replayed = replay_counters.get(name).copied().unwrap_or(0);
        checked += 1;
        if replayed != real {
            mismatches.push(format!("{name}: replay {replayed} vs run {real}"));
        }
    }
    out.notes.push(format!(
        "replay check: {checked} work counters, {} differ from the 1-thread run",
        mismatches.len()
    ));
    if !mismatches.is_empty() {
        out.correct = false;
        out.notes
            .push(format!("replay check failed: {}", mismatches.join("; ")));
    }

    // Layer split of the replay.
    let span_list = tracer.spans();
    let layers = spans::layer_seconds(span_list);
    let self_times = spans::self_times(span_list);
    let self_of = |names: &[&str]| -> f64 {
        span_list
            .iter()
            .zip(&self_times)
            .filter(|(s, _)| names.contains(&s.name))
            .map(|(_, &ns)| ns as f64 * 1e-9)
            .sum()
    };
    let program_span_s = |names: &[&str]| -> f64 {
        program_spans
            .iter()
            .filter(|e| names.contains(&e.name))
            .map(|e| e.dur_us as f64 * 1e-6)
            .sum()
    };
    let crpd_s = program_span_s(&["pipeline.crpd"]);
    let cfg_s = program_span_s(&["pipeline.loop_reduction", "pipeline.occupancy"]);
    let prepare_s = (self_of(&["pipeline.prepare"]) - cfg_s).max(0.0);
    let analyze_s =
        (self_of(&["pipeline.analyze", "pipeline.program_access_map"]) - crpd_s).max(0.0);
    let layer = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    // The exported per-layer self times; each point's own framing (the
    // point layer) is left out, so coverage shows what they explain.
    let covered = ["synth", "sched", "core", "multicore", "sim"]
        .iter()
        .map(|name| layer(name))
        .sum::<f64>()
        + cfg_s
        + crpd_s
        + prepare_s
        + analyze_s;

    let threads = many.threads as f64;
    let busy_s = many
        .histograms
        .get("campaign.shard.micros")
        .map_or(0.0, |h| h.sum as f64 * 1e-6);
    let point_hist = many
        .histograms
        .get(&format!("campaign.point.micros.{}", args.workload.name()))
        .cloned()
        .unwrap_or_default();
    out.metric(
        "campaign.exec.parallel_eff",
        cold_1t_s / (env.nproc as f64 * cold_s),
        "ratio",
    );
    out.metric("campaign.exec.busy_s", busy_s, "s");
    out.metric("campaign.exec.idle_s", threads * many.wall_s - busy_s, "s");
    out.metric("campaign.exec.point_us.p50", point_hist.p50, "us");
    out.metric("campaign.exec.point_us.p99", point_hist.p99, "us");
    out.metric(
        "campaign.exec.point_us.count",
        point_hist.count as f64,
        "count",
    );

    let hits = count(&many.counters, "campaign.memo.hit");
    let misses = count(&many.counters, "campaign.memo.miss");
    out.metric(
        "campaign.memo.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
    );
    for table in MEMO_TABLES {
        let name = format!("campaign.memo.{table}.miss");
        let miss_n = count(&many.counters, &name);
        out.metric(&name, miss_n, "count");
        out.metric(
            &format!("campaign.memo.{table}.dup"),
            miss_n - count(&one.counters, &name),
            "count",
        );
    }

    out.metric("campaign.store.open_s", open_s, "s");
    out.metric("campaign.store.restore_s", median(&restore), "s");
    out.metric(
        "campaign.store.write_s",
        (setup.fill_run_s - cold_s).max(0.0),
        "s",
    );
    out.metric("campaign.store.records", records as f64, "count");
    out.metric(
        "campaign.store.bytes",
        dir_bytes(&setup.store_dir) as f64,
        "bytes",
    );
    out.metric("campaign.report.render_s", median(&renders), "s");

    out.metric("synth.self_s", layer("synth"), "s");
    out.metric("synth.calls", stats.synth_calls as f64, "count");
    out.metric(
        "synth.accept_ratio",
        if stats.synth_calls > 0 {
            stats.synth_generated as f64 / stats.synth_calls as f64
        } else {
            0.0
        },
        "ratio",
    );
    out.metric("sched.self_s", layer("sched"), "s");
    out.metric(
        "sched.rta.iterations",
        count(&one.counters, "sched.rta.iterations"),
        "count",
    );
    out.metric("core.self_s", layer("core"), "s");
    for name in [
        "core.alg1.runs",
        "core.cursor.segment_advances",
        "core.eq4.iterations",
    ] {
        out.metric(name, count(&one.counters, name), "count");
    }
    out.metric("cfg.self_s", cfg_s, "s");
    out.metric("cache.crpd_s", crpd_s, "s");
    out.metric(
        "cache.crpd.analyses",
        count(&one.counters, "cache.crpd.analyses"),
        "count",
    );
    out.metric(
        "cache.crpd.dup_ratio",
        if stats.program_geometry_pairs > 0 {
            count(&many.counters, "cache.crpd.analyses") / stats.program_geometry_pairs as f64
        } else {
            0.0
        },
        "ratio",
    );
    out.metric("pipeline.prepare_s", prepare_s, "s");
    out.metric("pipeline.analyze_s", analyze_s, "s");
    out.metric(
        "pipeline.curves.derived",
        count(&one.counters, "pipeline.curves.derived"),
        "count",
    );
    out.metric("multicore.self_s", layer("multicore"), "s");
    for name in ["multicore.partition.attempts", "multicore.global.tests"] {
        out.metric(name, count(&one.counters, name), "count");
    }
    out.metric("sim.self_s", layer("sim"), "s");
    for name in ["sim.dispatches", "sim.preemptions"] {
        out.metric(name, count(&one.counters, name), "count");
    }
    out.metric("trace.coverage", covered / replay_s, "ratio");
    out.metric("trace.overhead", replay_s / cold_1t_s - 1.0, "ratio");
    out.notes.push(format!(
        "replay: {} points, {} spans, {:.3} s wall; framing outside calls {:.3} s",
        stats.points,
        span_list.len(),
        replay_s,
        layer(spans::POINT_LAYER)
    ));

    let trace_dir = Path::new(".perfbench").join("traces");
    let trace_path = trace_dir.join(format!("{}-s{}.json", args.workload.name(), args.seed));
    let trace = fnpr_obs::chrome_trace_json(&spans::trace_events(span_list));
    std::fs::create_dir_all(&trace_dir)
        .and_then(|()| std::fs::write(&trace_path, trace))
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    out.notes
        .push(format!("span trace written to {}", trace_path.display()));
    Ok(setup)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: fnpr-perfbench --workload <acceptance|soundness|cfg|multicore> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let scratch = match ScratchDir::create() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("error: cannot create the scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let env = Env::probe();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let result = if args.trace {
        traced(&args, &env, &scratch, &mut out)
    } else {
        untraced(&args, &env, &scratch, &mut out)
    };
    drop(scratch);
    let setup = match result {
        Ok(setup) => setup,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    out.correct &= out.failed == 0;

    println!(
        "# fnpr-perfbench workload={} seed={} trace={} points={} scenario={} nproc={} cpu={} rustc={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        setup.points,
        setup.scenario,
        env.nproc,
        json_string(&env.cpu),
        json_string(&env.rustc)
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for m in out.metrics.iter().chain(&out.printed) {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if !args.trace {
        let frac = out.failed as f64 / out.attempted.max(1) as f64;
        println!(
            "{:<34} {:>16.6} ratio ({} of {} points)",
            "failed_frac", frac, out.failed, out.attempted
        );
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct, out.attempted, out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(&m.name),
            m.value,
            json_string(m.unit)
        );
    }
    json.push_str("}}");
    println!("{json}");
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
