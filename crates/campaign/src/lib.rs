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
//!   CFG-pipeline workload of [`cfg_workload`]) and its parameter grid;
//! * **Workloads** ([`GridWorkload`]) — each workload's validated
//!   parameters define its grid and how one point is keyed, computed and
//!   folded into the summary; one runner gives all four the memo tables,
//!   the store read-through and the executor map;
//! * **Sharded execution** ([`exec`]) — grid shards are claimed by worker
//!   threads from an atomic cursor, but every shard's RNG streams are pure
//!   functions of the campaign seed and grid coordinates, so the same spec
//!   produces **bit-identical aggregates at any thread count**;
//! * **Memoization** ([`memo`]) — results are cached under structural
//!   scenario hashes; e.g. the fixed-priority and EDF halves of an
//!   acceptance grid share base task sets and each is generated once;
//! * **Result pipeline** ([`report`]) — streaming per-shard aggregation,
//!   folded in shard order into a [`CampaignReport`] with CSV and JSON
//!   renderings;
//! * **Run ledger** ([`ledger`]) — one record per run in the result
//!   store's line format, trended and gated by [`history`].
//!
//! # Quickstart
//!
//! ```
//! use fnpr_campaign::{run_campaign_with_store, CampaignSpec};
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
//! let outcome = run_campaign_with_store(&spec.validate()?, Some(2), None)?;
//! assert_eq!(outcome.report.summary.dominance_violations, 0);
//! println!("{}", outcome.report.to_csv());
//! # Ok(())
//! # }
//! ```
//!
//! The `fnpr-campaign` binary wraps this: `fnpr-campaign run <spec.toml>`,
//! whose flags choose the threads, the outputs, the store and telemetry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod acceptance;
pub mod cfg_workload;
pub mod error;
pub mod exec;
pub mod history;
pub mod ledger;
pub mod memo;
pub mod multicore;
pub mod report;
pub mod soundness;
pub mod spec;
pub mod store;

use std::num::NonZeroUsize;

use serde::{Deserialize, Serialize};

pub use error::CampaignError;
pub use history::ScenarioTrend;
pub use memo::MemoStats;
pub use report::{CampaignReport, StoreStats, Summary};
pub use spec::{Campaign, CampaignSpec, Workload, WorkloadKind};
pub use store::{GcReport, ResultStore};

use memo::ScenarioHasher;
use store::StoreTable;

/// One campaign workload, implemented directly on its validated
/// parameters (`spec::*Params`): its grid in report order, and how one
/// point of it is keyed, computed and folded into the summary. This is
/// the one place a workload is defined; [`run_campaign_with_store`] runs
/// every workload through one runner, which owns the memo tables, the
/// result store's read-through and the executor map. Workloads never see
/// the store: it holds finished points only.
pub trait GridWorkload: Sync {
    /// One grid point's coordinates.
    type Point: Copy + Send + Sync;
    /// One finished point (for soundness, one shard of trials): a report
    /// entry, persisted in [`Self::TABLE`].
    type Output: Serialize + Deserialize + PartialEq + Send;
    /// The memo tables every point of one run shares.
    type Memos: Default + Sync;
    /// The store table finished points persist in.
    const TABLE: StoreTable;
    /// The domain tag of the point key.
    const KEY_TAG: u64;

    /// The grid in report order; a point's shard index is its position.
    fn grid(&self) -> Vec<Self::Point>;

    /// How many consecutive points one thread claims at a time. Points
    /// that share memoized work are claimed together, so one thread
    /// derives the shared values once.
    fn run_length(&self) -> usize {
        1
    }

    /// Hashes the non-axis parameters, which every point's result depends
    /// on. [`Campaign::scenario_hash`] and every point key both start with
    /// this.
    fn template(&self, h: ScenarioHasher) -> ScenarioHasher;

    /// Appends one point's own words to its key, after the domain tag, the
    /// campaign seed and [`Self::template`]. The key holds the point's
    /// coordinates but never the axis lists, so a grid extension restores
    /// the points it shares with an earlier run.
    fn point_key(&self, point: Self::Point, h: ScenarioHasher) -> ScenarioHasher;

    /// Computes one point from the campaign seed and its coordinates, with
    /// the run's in-RAM `memos`. The runner restores or persists the
    /// finished point; nothing below it reads or writes the store.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Analysis`] when an analysis fails on the generated
    /// inputs.
    fn compute(
        &self,
        seed: u64,
        point: Self::Point,
        memos: &Self::Memos,
    ) -> Result<Self::Output, CampaignError>;

    /// The memo hit/miss counters a run reports.
    fn memo_stats(memos: &Self::Memos) -> MemoStats;

    /// Folds the finished points, in report order, into the summary.
    fn fold(&self, outputs: &[Self::Output], summary: &mut Summary);
}

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

/// Runs a validated campaign on `threads` worker threads (`None`: all
/// cores), restoring and persisting finished points through `store` when
/// one is given.
///
/// Shards run on a scoped thread pool (see [`exec`]); when
/// `FNPR_FAULT=kill_after=N` is set ([`exec::FAULT_ENV`]), the process
/// aborts after `N` retired shards, leaving the store's in-progress
/// marker behind for the next store-backed run to report.
///
/// # Errors
///
/// Propagates the first shard failure, and a malformed `FNPR_FAULT`.
pub fn run_campaign_with_store(
    campaign: &Campaign,
    threads: Option<usize>,
    store: Option<&ResultStore>,
) -> Result<CampaignOutcome, CampaignError> {
    let threads = exec::resolve_threads(threads);
    let kill_after = exec::kill_after_from_env()?;
    let scenario = format!("{:016x}", campaign.scenario_hash());
    let _run_span = fnpr_obs::span("campaign.run", "campaign");
    // Crash-safety marker: a run that dies before `end_run` leaves the
    // marker behind, and the next writable open reports the interruption.
    if let Some(store) = store {
        store.begin_run(&campaign.name);
    }
    let histogram = format!("campaign.point.micros.{}", campaign.workload_kind().key());
    let settings = exec::MapSettings {
        label: Some(campaign.name.clone()),
        // fnpr-lint: metric(histogram, "campaign.point.micros.{}")
        point_micros: fnpr_obs::enabled().then(|| fnpr_obs::histogram(&histogram)),
        kill_after,
    };
    let seed = campaign.seed;
    let (mut acceptance, mut soundness, mut multicore, mut cfg) = Default::default();
    let (summary, memo) = match &campaign.workload {
        Workload::Acceptance(p) => {
            run_workload(p, seed, threads, store, &settings, &mut acceptance)
        }
        Workload::Soundness(p) => run_workload(p, seed, threads, store, &settings, &mut soundness),
        Workload::Multicore(p) => run_workload(p, seed, threads, store, &settings, &mut multicore),
        Workload::Cfg(p) => run_workload(p, seed, threads, store, &settings, &mut cfg),
    }?;
    if let Some(store) = store {
        store.end_run();
    }
    let methods = match &campaign.workload {
        Workload::Acceptance(spec::AcceptanceParams { methods, .. })
        | Workload::Multicore(spec::MulticoreParams { methods, .. }) => methods
            .iter()
            .map(|&m| spec::method_label(m).to_string())
            .collect(),
        Workload::Soundness(_) | Workload::Cfg(_) => Vec::new(),
    };
    Ok(CampaignOutcome {
        report: CampaignReport {
            name: campaign.name.clone(),
            workload: campaign.workload_kind(),
            seed,
            scenario,
            methods,
            acceptance,
            soundness,
            multicore,
            cfg,
            summary,
        },
        memo,
        store: store.map(ResultStore::stats),
        threads: threads.get(),
    })
}

/// Runs one workload with fresh memo tables: its points land in
/// `outputs`, and their summary and the memo counters come back.
fn run_workload<W: GridWorkload>(
    params: &W,
    seed: u64,
    threads: NonZeroUsize,
    store: Option<&ResultStore>,
    settings: &exec::MapSettings,
    outputs: &mut Vec<W::Output>,
) -> Result<(Summary, MemoStats), CampaignError> {
    let memos = W::Memos::default();
    *outputs = run_grid(params, seed, threads, &memos, store, settings)?;
    Ok((report::summarize(params, outputs), W::memo_stats(&memos)))
}

/// Runs `params`' grid on the executor, with `memos` shared by every
/// point. With a store attached, each point goes through its read-through:
/// a stored point is restored, a computed one is persisted. Returns the
/// points in report order.
pub(crate) fn run_grid<W: GridWorkload>(
    params: &W,
    seed: u64,
    threads: NonZeroUsize,
    memos: &W::Memos,
    store: Option<&ResultStore>,
    settings: &exec::MapSettings,
) -> Result<Vec<W::Output>, CampaignError> {
    let grid = params.grid();
    let run = NonZeroUsize::new(params.run_length()).unwrap_or(NonZeroUsize::MIN);
    exec::parallel_map(grid.len(), threads, run, settings, |i| {
        let compute = || params.compute(seed, grid[i], memos);
        let Some(store) = store else {
            return compute();
        };
        let key = params.point_key(
            grid[i],
            params.template(ScenarioHasher::new(W::KEY_TAG).word(seed)),
        );
        store.get_or_compute(W::TABLE, key.finish128(), compute)
    })
}
