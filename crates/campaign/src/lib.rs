//! # fnpr-campaign — a sharded, deterministic experiment-campaign engine
//!
//! The paper's evaluation (and every schedulability study like it) is a
//! large parameter-space exploration: thousands of generated task sets or
//! random curves, analysed under several bounds, aggregated into acceptance
//! ratios and tightness statistics. This crate turns the repo's one-off
//! experiment binaries into a batch engine:
//!
//! * **Scenario specs** ([`spec`]) — a serde-backed TOML/JSON description
//!   of the workload (acceptance, soundness, multicore, or the
//!   CFG-pipeline workload of [`cfg_workload`]), its parameter grid, and
//!   the outputs;
//! * **Sharded execution** ([`exec`]) — grid shards are claimed by worker
//!   threads from an atomic cursor, but every shard's RNG streams are pure
//!   functions of the campaign seed and grid coordinates, so the same spec
//!   produces **bit-identical aggregates at any thread count**;
//! * **Memoization** ([`memo`]) — results are cached under structural
//!   scenario hashes; e.g. the fixed-priority and EDF halves of an
//!   acceptance grid share base task sets and each is generated once;
//! * **Result pipeline** ([`report`]) — streaming per-shard aggregation,
//!   folded in shard order into a [`CampaignReport`] with CSV and JSON
//!   renderings.
//!
//! # Quickstart
//!
//! ```
//! use fnpr_campaign::{run_campaign, CampaignSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = CampaignSpec::parse(r#"
//!     name = "doc-smoke"
//!     seed = 42
//!     workload = "soundness"
//!
//!     [soundness]
//!     trials = 4
//!     simulate = false
//! "#)?;
//! let outcome = run_campaign(&spec.validate()?, Some(2))?;
//! assert_eq!(outcome.report.summary.dominance_violations, 0);
//! println!("{}", outcome.report.to_csv());
//! # Ok(())
//! # }
//! ```
//!
//! The `fnpr-campaign` binary wraps this: `fnpr-campaign run <spec.toml>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod acceptance;
pub mod cfg_workload;
pub mod error;
pub mod exec;
pub mod history;
pub mod memo;
pub mod multicore;
pub mod report;
pub mod soundness;
pub mod spec;
pub mod store;

pub use error::CampaignError;
pub use history::{HistoryOptions, ScenarioTrend};
pub use memo::MemoStats;
pub use report::{CampaignReport, StoreStats, Summary};
pub use spec::{Campaign, CampaignSpec, Workload, WorkloadKind};
pub use store::{GcPolicy, GcReport, ResultStore};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared unit-test support (one definition of the scratch-dir
    //! uniqueness scheme instead of a copy per test module).
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A fresh, unique scratch directory under the system temp dir.
    pub fn scratch_dir(label: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "fnpr_{label}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}

/// Everything a campaign run produces: the deterministic report plus
/// informational (scheduling-dependent) memo statistics.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The deterministic aggregate — identical for a given validated spec
    /// at any thread count.
    pub report: CampaignReport,
    /// Memo hit/miss counters (not part of the deterministic surface).
    pub memo: MemoStats,
    /// Result-store counters, when a store was attached (not part of the
    /// deterministic surface: a warm run restores what a cold run
    /// computes, with byte-identical aggregates either way).
    pub store: Option<StoreStats>,
    /// Worker threads the run resolved to.
    pub threads: usize,
}

/// Builds the run-ledger record for a finished campaign run — the
/// longitudinal row `fnpr-campaign history` trends and gates on (see
/// [`fnpr_obs::ledger`]). The latency percentiles come from the
/// workload's per-point timing histogram
/// (`campaign.point.micros.<workload>`), so they are meaningful only when
/// telemetry was enabled for the run (zeros otherwise); the CLI arms
/// telemetry whenever a ledger target is set.
#[must_use]
pub fn ledger_record(
    campaign: &Campaign,
    outcome: &CampaignOutcome,
    wall_seconds: f64,
) -> fnpr_obs::RunRecord {
    let report = &outcome.report;
    let grid_points = (report.acceptance.len()
        + report.soundness.len()
        + report.multicore.len()
        + report.cfg.len()) as u64;
    let timing = fnpr_obs::histogram(&format!(
        "campaign.point.micros.{}",
        campaign.workload_kind().key()
    ))
    .snapshot();
    let store = outcome.store.unwrap_or_default();
    fnpr_obs::RunRecord {
        schema: fnpr_obs::LEDGER_SCHEMA_VERSION,
        unix_seconds: fnpr_obs::ledger::unix_now(),
        name: campaign.name.clone(),
        scenario: report.scenario.clone(),
        workload: campaign.workload_kind().key().to_string(),
        grid_points,
        threads: outcome.threads as u64,
        wall_seconds,
        points_per_sec: if wall_seconds > 0.0 {
            grid_points as f64 / wall_seconds
        } else {
            0.0
        },
        memo_hits: outcome.memo.hits,
        memo_misses: outcome.memo.misses,
        points_restored: store.points_restored,
        points_computed: store.points_computed,
        bounds_restored: store.bounds_restored,
        bounds_computed: store.bounds_computed,
        // The engine has no recovery path; the field keeps the ledger at
        // schema v2.
        recovered_shards: 0,
        p50_us: timing.p50,
        p90_us: timing.p90,
        p99_us: timing.p99,
        max_us: timing.max,
    }
}

/// Runs a validated campaign. `threads_override` (e.g. from the CLI) wins
/// over the spec's `threads`; both absent means all cores.
///
/// When the spec carries a `[store]` section, the persistent result store
/// at that path is opened (created if absent) and consulted before any
/// point computes — see [`store::ResultStore`]. Use
/// [`run_campaign_with_store`] to supply a store (or an explicit `None`)
/// directly, e.g. for a CLI `--store` override.
///
/// # Errors
///
/// Propagates the first shard failure, and I/O errors opening the spec's
/// store.
pub fn run_campaign(
    campaign: &Campaign,
    threads_override: Option<usize>,
) -> Result<CampaignOutcome, CampaignError> {
    let store = match &campaign.store_path {
        Some(path) => Some(ResultStore::open(std::path::Path::new(path))?),
        None => None,
    };
    run_campaign_with_store(campaign, threads_override, store.as_ref())
}

/// [`run_campaign`] against an explicitly provided result store (`None`
/// disables persistence regardless of the spec).
///
/// Shards run on a scoped thread pool ([`exec::parallel_map`]); when
/// `FNPR_FAULT=kill_after=N` is set ([`exec::FAULT_ENV`]), the process
/// aborts after `N` retired shards, leaving the store's in-progress
/// marker behind for a `--resume` drill.
///
/// # Errors
///
/// Propagates the first shard failure, and a malformed `FNPR_FAULT`.
pub fn run_campaign_with_store(
    campaign: &Campaign,
    threads_override: Option<usize>,
    store: Option<&ResultStore>,
) -> Result<CampaignOutcome, CampaignError> {
    let threads = exec::resolve_threads(threads_override.or(campaign.threads));
    exec::arm_kill_switch(exec::kill_after_from_env()?);
    let scenario = format!("{:016x}", campaign.scenario_hash());
    let _run_span = fnpr_obs::span("campaign.run", "campaign");
    // Crash-safety marker: a run that dies before `end_run` leaves the
    // marker behind, and the next writable open reports the interruption.
    if let Some(store) = store {
        store.begin_run(&campaign.name);
    }
    exec::set_progress_label(Some(campaign.name.clone()));
    exec::set_point_histogram(Some(format!(
        "campaign.point.micros.{}",
        campaign.workload_kind().key()
    )));
    let seed = campaign.seed;
    let (mut acceptance_points, mut soundness_shards, mut multicore_points, mut cfg_points) =
        Default::default();
    let (methods, memo) = match &campaign.workload {
        Workload::Acceptance(params) => {
            let engine = acceptance::AcceptanceEngine::new();
            acceptance_points = acceptance::run(params, seed, threads, &engine, store)?;
            (method_labels(&params.methods), engine.taskset_memo.stats())
        }
        Workload::Soundness(params) => {
            let engine = soundness::SoundnessEngine::new();
            soundness_shards = soundness::run(params, seed, threads, &engine, store)?;
            (Vec::new(), engine.bounds_memo.stats())
        }
        Workload::Multicore(params) => {
            let engine = multicore::MulticoreEngine::new();
            multicore_points = multicore::run(params, seed, threads, &engine, store)?;
            (method_labels(&params.methods), engine.taskset_memo.stats())
        }
        Workload::Cfg(params) => {
            let engine = cfg_workload::CfgEngine::new();
            cfg_points = cfg_workload::run(params, seed, threads, &engine, store)?;
            (
                Vec::new(),
                engine.program_memo.stats() + engine.curve_memo.stats(),
            )
        }
    };
    exec::set_progress_label(None);
    exec::set_point_histogram(None);
    if let Some(store) = store {
        store.end_run();
    }
    exec::arm_kill_switch(None);
    let summary = report::summarize(
        &acceptance_points,
        &soundness_shards,
        &multicore_points,
        &cfg_points,
        &methods,
    );
    Ok(CampaignOutcome {
        report: CampaignReport {
            name: campaign.name.clone(),
            workload: campaign.workload_kind(),
            seed,
            scenario,
            methods,
            acceptance: acceptance_points,
            soundness: soundness_shards,
            multicore: multicore_points,
            cfg: cfg_points,
            summary,
        },
        memo,
        store: store.map(ResultStore::stats),
        threads: threads.get(),
    })
}

/// The report's method column labels.
fn method_labels(methods: &[fnpr_sched::DelayMethod]) -> Vec<String> {
    methods
        .iter()
        .map(|&m| spec::method_label(m).to_string())
        .collect()
}
