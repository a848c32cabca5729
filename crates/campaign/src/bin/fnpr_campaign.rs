//! `fnpr-campaign` — run experiment campaigns from scenario spec files.
//!
//! ```text
//! fnpr-campaign run <spec.toml|spec.json> [--threads N] [--csv PATH] [--json PATH]
//!                   [--resume] [--store PATH] [--ledger PATH] [--quiet]
//! fnpr-campaign grid <spec>          # show the expanded scenario grid
//! fnpr-campaign history <LEDGER>     # trend tables over the run ledger
//! fnpr-campaign store stats <PATH>   # inspect a result store
//! fnpr-campaign store gc <PATH>      # compact a result store
//! fnpr-campaign example-spec         # print a template TOML spec
//! ```
//!
//! Exit codes: 0 on success, 1 on usage/spec errors (a spec error is one
//! line naming its key, without the usage text), 2 when the run
//! completed but the paper's dominance/soundness claims were violated —
//! or, for `history --check`, when a performance regression was detected.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fnpr_campaign::spec::{allocation_label, policy_label};
use fnpr_campaign::store::{GcPolicy, ResultStore};
use fnpr_campaign::{
    history, ledger, run_campaign_with_store, CampaignError, CampaignSpec, GridWorkload, Workload,
};

struct RunArgs {
    spec: PathBuf,
    threads: Option<usize>,
    resume: bool,
    csv: Option<String>,
    json: Option<String>,
    store: Option<String>,
    metrics: Option<String>,
    trace: Option<String>,
    ledger: Option<String>,
    quiet: bool,
}

struct HistoryArgs {
    ledger: PathBuf,
    check: bool,
    max_regression_pct: f64,
    html: Option<String>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run_args(&args[1..]) {
            Ok(run) => cmd_run(&run),
            Err(msg) => usage_error(&msg),
        },
        Some("grid") => match args.get(1) {
            Some(path) => cmd_grid(&PathBuf::from(path)),
            None => usage_error("`grid` needs a spec path"),
        },
        Some("history") => match parse_history_args(&args[1..]) {
            Ok(history) => cmd_history(&history),
            Err(msg) => usage_error(&msg),
        },
        Some("store") => match (args.get(1).map(String::as_str), args.get(2)) {
            (Some("stats"), Some(path)) => cmd_store_stats(Path::new(path)),
            (Some("gc"), Some(path)) => match parse_gc_policy(&args[3..]) {
                Ok(policy) => cmd_store_gc(Path::new(path), &policy),
                Err(msg) => usage_error(&msg),
            },
            _ => usage_error("`store` needs `stats <PATH>` or `gc <PATH>`"),
        },
        Some("example-spec") => {
            print!("{}", EXAMPLE_SPEC);
            ExitCode::SUCCESS
        }
        Some("--help" | "-h" | "help") | None => {
            eprint!("{}", USAGE);
            ExitCode::SUCCESS
        }
        Some(other) => usage_error(&format!("unknown subcommand {other:?}")),
    }
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut spec = None;
    let mut threads = None;
    let mut resume = false;
    let mut csv = None;
    let mut json = None;
    let mut store = None;
    let mut metrics = None;
    let mut trace = None;
    let mut ledger = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n = v
                    .parse::<usize>()
                    .map_err(|_| format!("bad thread count {v:?}"))?;
                if n == 0 {
                    return Err("--threads must be >= 1".into());
                }
                threads = Some(n);
            }
            "--resume" => resume = true,
            "--csv" => csv = Some(it.next().ok_or("--csv needs a path")?.clone()),
            "--json" => json = Some(it.next().ok_or("--json needs a path")?.clone()),
            "--store" => store = Some(it.next().ok_or("--store needs a path")?.clone()),
            "--metrics" => metrics = Some(it.next().ok_or("--metrics needs a path")?.clone()),
            "--trace-out" => trace = Some(it.next().ok_or("--trace-out needs a path")?.clone()),
            "--ledger" => ledger = Some(it.next().ok_or("--ledger needs a path")?.clone()),
            "--quiet" => quiet = true,
            other if spec.is_none() && !other.starts_with('-') => {
                spec = Some(PathBuf::from(other));
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(RunArgs {
        spec: spec.ok_or("`run` needs a spec path")?,
        threads,
        resume,
        csv,
        json,
        store,
        metrics,
        trace,
        ledger,
        quiet,
    })
}

fn parse_history_args(args: &[String]) -> Result<HistoryArgs, String> {
    let mut ledger = None;
    let mut check = false;
    let mut max_regression_pct = history::HistoryOptions::default().max_regression * 100.0;
    let mut html = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--max-regression" => {
                let v = it.next().ok_or("--max-regression needs a percentage")?;
                let pct = v
                    .parse::<f64>()
                    .map_err(|_| format!("bad percentage {v:?}"))?;
                if !pct.is_finite() || pct <= 0.0 {
                    return Err("--max-regression must be a positive percentage".into());
                }
                max_regression_pct = pct;
            }
            "--html" => html = Some(it.next().ok_or("--html needs a path")?.clone()),
            other if ledger.is_none() && !other.starts_with('-') => {
                ledger = Some(PathBuf::from(other));
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(HistoryArgs {
        ledger: ledger.ok_or("`history` needs a ledger path")?,
        check,
        max_regression_pct,
        html,
    })
}

fn cmd_run(args: &RunArgs) -> ExitCode {
    let campaign = match CampaignSpec::load_validated(&args.spec) {
        Ok(campaign) => campaign,
        Err(e) => return spec_error(&e),
    };
    // Telemetry: CLI flags win over the spec's [telemetry] table. The
    // whole subsystem is a write-only side channel — aggregates are
    // byte-identical with telemetry on or off (property-tested in
    // tests/determinism.rs) — so enabling it by default costs nothing but
    // relaxed atomic increments.
    let metrics_target = args
        .metrics
        .clone()
        .or_else(|| campaign.telemetry.metrics.clone());
    let trace_target = args
        .trace
        .clone()
        .or_else(|| campaign.telemetry.trace.clone());
    let ledger_target = args
        .ledger
        .clone()
        .or_else(|| campaign.telemetry.ledger.clone());
    let progress_on = !args.quiet && campaign.telemetry.progress.unwrap_or(true);
    fnpr_obs::set_enabled(
        metrics_target.is_some()
            || trace_target.is_some()
            || ledger_target.is_some()
            || progress_on,
    );
    fnpr_obs::set_trace_collection(trace_target.is_some());
    fnpr_obs::set_progress(progress_on);
    // Fail fast on unwritable telemetry targets: a multi-hour campaign must
    // not discover a bad --metrics path only when it tries to write the
    // snapshot at the end.
    for (flag, target) in [
        ("--metrics", &metrics_target),
        ("--trace-out", &trace_target),
        ("--ledger", &ledger_target),
    ] {
        if let Some(path) = target {
            if let Err(e) = probe_writable(Path::new(path)) {
                eprintln!("fnpr-campaign: {flag} target {path} is not writable: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // CLI --store wins over the spec's [store] table.
    let store_target = args.store.clone().or_else(|| campaign.store_path.clone());
    if args.resume && store_target.is_none() {
        eprintln!(
            "fnpr-campaign: --resume needs a result store \
             (--store PATH or the spec's [store] table)"
        );
        return ExitCode::FAILURE;
    }
    let store = match &store_target {
        Some(path) => match ResultStore::open(Path::new(path)) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!("fnpr-campaign: cannot open result store {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // Crash-safe resume: the writable open above collected a dead run's
    // in-progress marker; surface it.
    if let Some(store) = &store {
        if let Some(marker) = store.interrupted_run() {
            eprintln!("resume: previous run was interrupted ({marker}); continuing from the store");
        } else if args.resume && !args.quiet {
            eprintln!("resume: no interrupted run found; warm-starting from the store");
        }
    }
    let started = std::time::Instant::now();
    let outcome = match run_campaign_with_store(&campaign, args.threads, store.as_ref()) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("fnpr-campaign: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = &outcome.report;

    // CLI flags win over the spec's [output] table; `-` means stdout.
    let csv_target = args.csv.clone().or_else(|| campaign.output.csv.clone());
    let json_target = args.json.clone().or_else(|| campaign.output.json.clone());
    if let Err(e) = emit(csv_target.as_deref(), &report.to_csv(), true) {
        eprintln!("fnpr-campaign: writing CSV: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = emit(json_target.as_deref(), &report.to_json(), false) {
        eprintln!("fnpr-campaign: writing JSON: {e}");
        return ExitCode::FAILURE;
    }

    // Telemetry artifacts (side channels; never part of the aggregates).
    // The metrics snapshot carries the scenario hash and store path so a
    // snapshot joins against its run-ledger row without guessing.
    if let Some(path) = &metrics_target {
        let snapshot = fnpr_obs::MetricsReport::gather(
            &campaign.name,
            fnpr_obs::gauge("campaign.points.total").value(),
            fnpr_obs::counter("campaign.points.done").value(),
            started.elapsed().as_secs_f64(),
        )
        .with_scenario(&report.scenario)
        .with_store_path(store_target.as_deref());
        if let Err(e) = std::fs::write(path, snapshot.to_json()) {
            eprintln!("fnpr-campaign: writing metrics: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &trace_target {
        if let Err(e) = fnpr_obs::write_chrome_trace(Path::new(path)) {
            eprintln!("fnpr-campaign: writing trace: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &ledger_target {
        let record = ledger::ledger_record(&campaign, &outcome, started.elapsed().as_secs_f64());
        if let Err(e) = ledger::append_record(Path::new(path), &record) {
            eprintln!("fnpr-campaign: appending run record to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if !args.quiet {
        let s = &report.summary;
        eprintln!(
            "campaign {:?} (scenario {}): {} shards, {} instances in {:.2?} on {} threads",
            report.name,
            report.scenario,
            report.acceptance.len()
                + report.soundness.len()
                + report.multicore.len()
                + report.cfg.len(),
            s.instances,
            started.elapsed(),
            outcome.threads,
        );
        eprintln!(
            "memo: {} hits / {} misses; pessimism mean {:.3}x max {:.3}x; \
             naive bound unsound in {} trials",
            outcome.memo.hits,
            outcome.memo.misses,
            s.pessimism_mean,
            s.pessimism_max,
            s.naive_unsound,
        );
        if let (Some(stats), Some(path)) = (&outcome.store, &store_target) {
            eprintln!("store {path}: {stats}");
        }
        if let Some(csv) = &csv_target {
            eprintln!("wrote CSV aggregate to {csv}");
        }
        if let Some(json) = &json_target {
            eprintln!("wrote JSON aggregate to {json}");
        }
        if let Some(metrics) = &metrics_target {
            eprintln!("wrote metrics snapshot to {metrics}");
        }
        if let Some(trace) = &trace_target {
            eprintln!("wrote Chrome trace to {trace} (open in Perfetto / chrome://tracing)");
        }
        if let Some(ledger) = &ledger_target {
            eprintln!("appended run record to {ledger} (trend with `fnpr-campaign history`)");
        }
    }
    if report.summary.dominance_violations > 0 || report.summary.sim_violations > 0 {
        eprintln!(
            "FAIL: {} dominance and {} simulation violations — the paper's claims did not hold",
            report.summary.dominance_violations, report.summary.sim_violations
        );
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

/// Verifies a telemetry target path is writable before the campaign runs,
/// by opening it in non-destructive append mode (creating parent
/// directories and the file if absent — exactly what the real write will
/// do later, minus the bytes).
fn probe_writable(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map(drop)
}

/// Writes `content` to a file, or to stdout when the target is `-`/absent
/// (CSV defaults to stdout; JSON is only emitted when requested).
fn emit(target: Option<&str>, content: &str, stdout_default: bool) -> std::io::Result<()> {
    match target {
        Some("-") => {
            print!("{content}");
            Ok(())
        }
        Some(path) => std::fs::write(path, content),
        None if stdout_default => {
            print!("{content}");
            Ok(())
        }
        None => Ok(()),
    }
}

fn cmd_grid(path: &Path) -> ExitCode {
    let campaign = match CampaignSpec::load_validated(path) {
        Ok(campaign) => campaign,
        Err(e) => return spec_error(&e),
    };
    println!("campaign: {}", campaign.name);
    println!("seed: {}", campaign.seed);
    println!("scenario: {:016x}", campaign.scenario_hash());
    // Each workload's own grid expansion, so the printed order can never
    // drift from the CSV row order.
    match &campaign.workload {
        Workload::Acceptance(a) => {
            let grid = a.grid();
            println!(
                "workload: acceptance ({} policies x {} utilizations x {} sets = {} set analyses, {} methods each)",
                a.policies.len(),
                a.utilizations.len(),
                a.sets_per_point,
                grid.len() * a.sets_per_point,
                a.methods.len(),
            );
            for (p, u) in grid {
                println!("  point: policy={} utilization={u:.4}", policy_label(p));
            }
        }
        Workload::Soundness(s) => {
            println!(
                "workload: soundness ({} trials, {} per shard, simulate={})",
                s.trials, s.trials_per_shard, s.simulate
            );
        }
        Workload::Cfg(c) => {
            let shapes = c.depths.len() * c.loop_iterations.len() * c.footprints.len();
            let geometries =
                c.sets.len() * c.associativity.len() * c.line_bytes.len() * c.reload_costs.len();
            let grid = c.grid();
            println!(
                "workload: cfg ({shapes} shapes x {geometries} geometries x {} q scales x {} programs = {} pipeline analyses)",
                c.q_scales.len(),
                c.programs_per_point,
                grid.len() * c.programs_per_point,
            );
            for p in grid {
                println!(
                    "  point: shape=d{}_l{}_f{} cache={}x{}x{}B brt={} q_scale={:.4}",
                    p.depth,
                    p.loop_iterations,
                    p.footprint,
                    p.sets,
                    p.associativity,
                    p.line_bytes,
                    p.reload_cost,
                    p.q_scale,
                );
            }
        }
        Workload::Multicore(m) => {
            let grid = m.grid();
            println!(
                "workload: multicore ({} core counts x {} policies x {} allocations x {} utilizations x {} sets = {} set analyses, {} methods each, simulate={})",
                m.cores.len(),
                m.policies.len(),
                m.allocations.len(),
                m.utilizations.len(),
                m.sets_per_point,
                grid.len() * m.sets_per_point,
                m.methods.len(),
                m.simulate,
            );
            for (cores, p, a, u) in grid {
                println!(
                    "  point: m={cores} policy={} allocation={} utilization={u:.4}",
                    policy_label(p),
                    allocation_label(a),
                );
            }
        }
    }
    ExitCode::SUCCESS
}

/// `history`: read the run ledger, trend each scenario against its
/// trailing median, and (under `--check`) gate on regressions the way the
/// run path gates on the paper's claims — exit code 2.
fn cmd_history(args: &HistoryArgs) -> ExitCode {
    let view = match ledger::read_ledger(&args.ledger) {
        Ok(view) => view,
        Err(e) => {
            eprintln!(
                "fnpr-campaign: cannot read ledger {}: {e}",
                args.ledger.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let options = history::HistoryOptions {
        max_regression: args.max_regression_pct / 100.0,
        ..history::HistoryOptions::default()
    };
    let trends = history::analyze(&view, &options);
    print!("{}", history::render_table(&trends, &options));
    if view.invalid > 0 || view.stale > 0 {
        eprintln!(
            "ledger {}: skipped {} invalid and {} stale line(s)",
            args.ledger.display(),
            view.invalid,
            view.stale
        );
    }
    if let Some(path) = &args.html {
        if let Err(e) = std::fs::write(path, history::render_html(&trends, &options)) {
            eprintln!("fnpr-campaign: writing history dashboard: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote history dashboard to {path}");
    }
    if args.check && history::any_regression(&trends) {
        eprintln!(
            "FAIL: regression beyond {:.1}% detected (see table above)",
            args.max_regression_pct
        );
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

/// Refuses the introspection subcommands on a missing path: unlike `run`
/// (where first use legitimately creates the store), `stats`/`gc` on a
/// missing path is almost certainly a typo — creating an empty store
/// there and reporting it healthy would mislead far worse than erroring.
fn require_existing_store(path: &Path) -> Result<(), ExitCode> {
    if !path.exists() {
        eprintln!(
            "fnpr-campaign: result store {} does not exist \
             (runs create it via --store or the spec's [store] table)",
            path.display()
        );
        return Err(ExitCode::FAILURE);
    }
    Ok(())
}

/// `store gc` retention flags: `--max-age-days F` and `--max-bytes N` on
/// top of the always-on structural compaction.
fn parse_gc_policy(args: &[String]) -> Result<GcPolicy, String> {
    let mut policy = GcPolicy::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-age-days" => {
                let v = it.next().ok_or("--max-age-days needs a value")?;
                let days = v
                    .parse::<f64>()
                    .map_err(|_| format!("bad age {v:?} (days)"))?;
                if !days.is_finite() || days < 0.0 {
                    return Err("--max-age-days must be a non-negative number".into());
                }
                policy.max_age_days = Some(days);
            }
            "--max-bytes" => {
                let v = it.next().ok_or("--max-bytes needs a value")?;
                policy.max_bytes = Some(v.parse::<u64>().map_err(|_| format!("bad size {v:?}"))?);
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(policy)
}

/// `store stats`: open the store **read-only** (validating every line)
/// and report per-shard file sizes and record counts plus live entry
/// totals.
fn cmd_store_stats(path: &Path) -> ExitCode {
    // Counters on (load-time invalid/stale lines register in the obs
    // registry too); never any stderr chatter from this subcommand.
    fnpr_obs::set_enabled(true);
    if let Err(code) = require_existing_store(path) {
        return code;
    }
    let store = match ResultStore::open_read_only(path) {
        Ok(store) => store,
        Err(e) => {
            eprintln!(
                "fnpr-campaign: cannot open result store {}: {e}",
                path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let files = store.shard_files();
    let size: u64 = files.iter().map(|f| f.bytes).sum();
    println!("store: {}", path.display());
    println!("file size: {size} bytes");
    println!(
        "analysis fingerprint: {:016x}",
        fnpr_campaign::store::analysis_fingerprint()
    );
    for f in &files {
        println!(
            "  shard {:<24} {:>10} bytes {:>8} records",
            f.table.file_name(),
            f.bytes,
            f.records
        );
    }
    let mut total = 0usize;
    for (table, count) in store.table_counts() {
        println!("  {:<26} {count}", table.label());
        total += count;
    }
    let stats = store.stats();
    println!("live entries: {total}");
    println!(
        "skipped at load: {} invalid, {} stale (reclaim with `store gc`)",
        stats.invalid_entries, stats.stale_entries
    );
    ExitCode::SUCCESS
}

/// `store gc`: rewrite each shard log with only live (valid,
/// current-fingerprint, newest-per-key) entries, then apply the optional
/// age/size retention policy (oldest entries evicted first).
fn cmd_store_gc(path: &Path, policy: &GcPolicy) -> ExitCode {
    // Counters on: the gc pass reports scanned/dropped/bytes-reclaimed
    // through the obs registry as well as the printed summary.
    fnpr_obs::set_enabled(true);
    if let Err(code) = require_existing_store(path) {
        return code;
    }
    let store = match ResultStore::open(path) {
        Ok(store) => store,
        Err(e) => {
            eprintln!(
                "fnpr-campaign: cannot open result store {}: {e}",
                path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let stats = store.stats();
    match store.gc_with(*policy) {
        Ok(report) => {
            println!(
                "gc {}: kept {} entries, dropped {} invalid + {} stale lines, \
                 {} -> {} bytes",
                path.display(),
                report.kept,
                stats.invalid_entries,
                stats.stale_entries,
                report.bytes_before,
                report.bytes_after,
            );
            if policy.max_age_days.is_some() || policy.max_bytes.is_some() {
                println!("evicted {} live entries (retention policy)", report.evicted);
            }
            eprintln!("gc summary: {}", report.summary());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fnpr-campaign: gc failed on {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// A spec that cannot be read, parsed or validated: one line naming the
/// problem, without the usage text (the arguments were fine).
fn spec_error(e: &CampaignError) -> ExitCode {
    eprintln!("fnpr-campaign: {e}");
    ExitCode::FAILURE
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("fnpr-campaign: {msg}");
    eprint!("{}", USAGE);
    ExitCode::FAILURE
}

const USAGE: &str = "\
usage:
  fnpr-campaign run <spec.toml|spec.json> [--threads N] [--csv PATH] [--json PATH]
                    [--resume] [--store PATH] [--metrics PATH] [--trace-out PATH]
                    [--ledger PATH] [--quiet]
  fnpr-campaign grid <spec>
  fnpr-campaign history <LEDGER> [--check] [--max-regression PCT] [--html PATH]
  fnpr-campaign store stats <PATH>
  fnpr-campaign store gc <PATH> [--max-age-days F] [--max-bytes N]
  fnpr-campaign example-spec

execution (aggregates are byte-identical at any thread count):
  --threads N        worker threads (default: the spec's `threads`, else
                     all cores)
  --store PATH       persist finished points in a result store (overrides
                     the spec's [store] table)
  --resume           resume an interrupted campaign from its store:
                     persisted points restore instead of recomputing
                     (requires a store; FNPR_FAULT=kill_after=N aborts a
                     run after N shards, for crash-resume drills)

store gc retention (on top of the always-on structural compaction):
  --max-age-days F   evict live entries older than F days
  --max-bytes N      evict oldest live entries until the store fits N bytes

telemetry (write-only; aggregates are byte-identical with it on or off):
  --metrics PATH     write a versioned JSON snapshot of all counters/spans,
                     including p50/p90/p99 latency percentiles
  --trace-out PATH   write a Chrome trace-event JSON of per-shard spans
                     (open in Perfetto or chrome://tracing)
  --ledger PATH      append one run record (throughput, percentiles, hit
                     rates) to a checksummed run ledger
  --quiet            also suppresses the live progress line

history (regression watch over a run ledger):
  --check            exit 2 when a scenario's latest run regressed vs its
                     trailing median
  --max-regression PCT  allowed throughput drop / p99 rise (default 20)
  --html PATH        write a self-contained dashboard with SVG sparklines
";

const EXAMPLE_SPEC: &str = r#"# fnpr-campaign scenario spec (TOML; JSON works too)
name = "example"
seed = 2012
workload = "acceptance"        # or "soundness" / "multicore" / "cfg"
                               # (see examples/multicore_smoke.toml for the
                               # multiprocessor grid, examples/cfg_smoke.toml
                               # for the program->pipeline->curve sweep)

[acceptance]
sets_per_point = 200           # task sets per grid point
policies = ["fixed_priority", "edf"]
methods = ["none", "eq4", "algorithm1", "algorithm1_capped"]
utilizations = { start = 0.3, stop = 0.9, step = 0.1 }
q_scale = 0.8                  # Qi as a fraction of the max admissible region
delay_frac = 0.6               # curve peak as a fraction of Qi

[acceptance.taskset]           # UUniFast generation template
n = 5
utilization = 0.0              # replaced by each grid point's value
period_range = [10.0, 1000.0]
deadline_factor = [1.0, 1.0]

[output]
csv = "campaign.csv"           # "-" or omit for stdout
json = "campaign.json"         # omit to skip JSON

# Optional: persist finished points content-addressed on disk, so re-runs
# and grid extensions only compute new points (aggregates stay
# byte-identical). CLI `--store PATH` overrides; inspect with
# `fnpr-campaign store stats|gc <PATH>`. A killed run resumes from the
# store with `fnpr-campaign run <spec> --resume`.
# [store]
# path = "campaign.fnprstore"

# Optional: observability (write-only side channel; never changes results).
# CLI `--metrics` / `--trace-out` / `--ledger` override the paths; `--quiet`
# suppresses the live progress line. The ledger accumulates one record per
# run — trend and gate it with `fnpr-campaign history`.
# [telemetry]
# metrics = "campaign_metrics.json"
# trace = "campaign_trace.json"
# ledger = "LEDGER.jsonl"
# progress = true
"#;
