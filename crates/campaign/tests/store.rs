//! Campaign-level contract of the persistent result store: warm re-runs
//! and grid extensions restore previously measured points with
//! **byte-identical** aggregates, corrupted or version-mismatched store
//! content degrades to a clean recompute (and the store heals), and the
//! store keeps finished points only: a changed point key recomputes, and
//! files an older build left behind are never read or rewritten.

use std::path::PathBuf;

use fnpr_campaign::store::ResultStore;
use fnpr_campaign::{run_campaign_with_store, Campaign, CampaignOutcome, CampaignSpec};

mod common;

fn temp_store_path(name: &str) -> PathBuf {
    common::scratch_dir("store_e2e").join(name)
}

fn acceptance_campaign(utilizations: &str) -> Campaign {
    CampaignSpec::parse(&format!(
        r#"
name = "store-e2e"
seed = 41
workload = "acceptance"
[acceptance]
sets_per_point = 4
max_attempts_factor = 10
utilizations = {{ values = [{utilizations}] }}
[acceptance.taskset]
n = 4
utilization = 0.0
period_range = [10.0, 1000.0]
deadline_factor = [1.0, 1.0]
"#
    ))
    .unwrap()
    .validate()
    .unwrap()
}

fn soundness_campaign(trials: usize, simulate: bool) -> Campaign {
    CampaignSpec::parse(&format!(
        "name = \"store-snd\"\nseed = 17\nworkload = \"soundness\"\n\
         [soundness]\ntrials = {trials}\nsimulate = {simulate}\n"
    ))
    .unwrap()
    .validate()
    .unwrap()
}

fn run_with(campaign: &Campaign, store: Option<&ResultStore>, threads: usize) -> CampaignOutcome {
    run_campaign_with_store(campaign, Some(threads), store).expect("campaign runs")
}

fn renderings(outcome: &CampaignOutcome) -> (String, String) {
    (outcome.report.to_csv(), outcome.report.to_json())
}

#[test]
fn warm_rerun_computes_nothing_and_is_byte_identical() {
    let campaign = acceptance_campaign("0.5, 0.7");
    let reference = renderings(&run_with(&campaign, None, 2));

    let path = temp_store_path("warm.log");
    let cold_store = ResultStore::open(&path).unwrap();
    let cold = run_with(&campaign, Some(&cold_store), 2);
    assert_eq!(renderings(&cold), reference, "store changed cold results");
    let stats = cold.store.unwrap();
    assert_eq!(stats.points_computed, 4, "2 policies x 2 utilizations");
    assert_eq!(stats.points_restored, 0);

    // Fresh store handle = fresh counters; the file carries the results.
    let warm_store = ResultStore::open(&path).unwrap();
    let warm = run_with(&campaign, Some(&warm_store), 4);
    assert_eq!(renderings(&warm), reference, "warm aggregates drifted");
    let stats = warm.store.unwrap();
    assert_eq!(stats.points_computed, 0, "warm run recomputed points");
    assert_eq!(stats.points_restored, 4);
}

#[test]
fn grid_extension_computes_only_the_new_points() {
    let base = acceptance_campaign("0.5");
    let extended = acceptance_campaign("0.5, 0.7, 0.8");
    let reference = renderings(&run_with(&extended, None, 2));

    let path = temp_store_path("extend.log");
    run_with(&base, Some(&ResultStore::open(&path).unwrap()), 2);

    let store = ResultStore::open(&path).unwrap();
    let outcome = run_with(&extended, Some(&store), 2);
    assert_eq!(renderings(&outcome), reference, "extended warm run drifted");
    let stats = outcome.store.unwrap();
    assert_eq!(stats.points_restored, 2, "the base (policy x 0.5) points");
    assert_eq!(
        stats.points_computed, 4,
        "two new utilizations x 2 policies"
    );
}

#[test]
fn soundness_trial_extension_restores_complete_shards() {
    let base = soundness_campaign(6, false);
    let extended = soundness_campaign(10, false);
    let reference = renderings(&run_with(&extended, None, 2));

    let path = temp_store_path("trials.log");
    run_with(&base, Some(&ResultStore::open(&path).unwrap()), 2);
    let store = ResultStore::open(&path).unwrap();
    let outcome = run_with(&extended, Some(&store), 2);
    assert_eq!(renderings(&outcome), reference);
    let stats = outcome.store.unwrap();
    // trials_per_shard defaults to 1: all 6 base shards restore.
    assert_eq!(stats.points_restored, 6);
    assert_eq!(stats.points_computed, 4);
}

#[test]
fn simulate_toggle_recomputes_every_shard_with_equal_bounds() {
    // Same trials, different `simulate`: every shard key changes (the sim
    // rows differ), so the second campaign restores nothing and recomputes
    // every shard, bounds included, to the same analytical columns.
    let path = temp_store_path("simulate.log");
    let first = run_with(
        &soundness_campaign(8, false),
        Some(&ResultStore::open(&path).unwrap()),
        2,
    );
    assert_eq!(first.store.unwrap().points_computed, 8);

    let second = run_with(
        &soundness_campaign(8, true),
        Some(&ResultStore::open(&path).unwrap()),
        2,
    );
    let stats = second.store.unwrap();
    assert_eq!(stats.points_restored, 0, "simulate changes every shard");
    assert_eq!(stats.points_computed, 8);
    let rows = |o: &CampaignOutcome| {
        o.report
            .soundness
            .iter()
            .flat_map(|s| s.rows.iter())
            .map(|r| (r.trial, r.naive, r.exact, r.algorithm1, r.eq4))
            .collect::<Vec<_>>()
    };
    assert_eq!(rows(&first), rows(&second));
}

#[test]
fn older_store_restores_in_full_and_its_bounds_table_is_left_alone() {
    // Older builds also kept a `bounds.tbl` of (curve, Q) bounds in the
    // store directory. This build never opens, counts or rewrites it.
    let campaign = soundness_campaign(8, false);
    let path = temp_store_path("older.log");
    let cold = run_with(&campaign, Some(&ResultStore::open(&path).unwrap()), 2);
    let bounds_tbl = path.join("bounds.tbl");
    let legacy = "FNPR2 424e4453 not a record this build reads\n\
                  arbitrary bytes, no trailing newline";
    std::fs::write(&bounds_tbl, legacy).unwrap();

    let store = ResultStore::open(&path).unwrap();
    let warm = run_with(&campaign, Some(&store), 2);
    let stats = warm.store.unwrap();
    assert_eq!((stats.points_restored, stats.points_computed), (8, 0));
    assert_eq!(stats.invalid_entries, 0, "bounds.tbl was read");
    assert_eq!(renderings(&warm), renderings(&cold));

    store.gc().unwrap();
    assert_eq!(std::fs::read_to_string(&bounds_tbl).unwrap(), legacy);
    assert!(store
        .shard_files()
        .iter()
        .all(|f| f.table.file_name() != "bounds.tbl"));
}

#[test]
fn corrupted_store_content_recomputes_cleanly_and_heals() {
    let campaign = acceptance_campaign("0.5, 0.7");
    let reference = renderings(&run_with(&campaign, None, 2));
    let path = temp_store_path("corrupt.log");
    run_with(&campaign, Some(&ResultStore::open(&path).unwrap()), 2);

    // Maul the acceptance table's shard file: truncate mid-line, splice
    // garbage bytes, and flip one record to an unknown format version.
    let table = path.join(fnpr_campaign::store::StoreTable::AcceptancePoints.file_name());
    let mut bytes = std::fs::read(&table).unwrap();
    bytes.truncate(bytes.len() - 11);
    let mut mauled = b"\x00\xff garbage that is not a record\n".to_vec();
    mauled.extend_from_slice(&bytes);
    let mut text = String::from_utf8_lossy(&mauled).into_owned();
    text = text.replacen("FNPR2", "FNPR0", 1);
    std::fs::write(&table, text).unwrap();

    // The mauled store never crashes the run and never distorts results;
    // whatever was lost recomputes and is appended back.
    let store = ResultStore::open(&path).unwrap();
    let outcome = run_with(&campaign, Some(&store), 2);
    assert_eq!(
        renderings(&outcome),
        reference,
        "corruption leaked into results"
    );
    let stats = outcome.store.unwrap();
    assert!(stats.points_computed > 0, "mauled entries should recompute");
    assert!(stats.invalid_entries > 0, "corruption went undetected");

    // Fully healed: the next run restores everything.
    let healed = run_with(&campaign, Some(&ResultStore::open(&path).unwrap()), 2);
    assert_eq!(renderings(&healed), reference);
    assert_eq!(healed.store.unwrap().points_computed, 0);
}

#[test]
fn wrong_analysis_fingerprint_recomputes_never_serves() {
    let campaign = acceptance_campaign("0.6");
    let reference = renderings(&run_with(&campaign, None, 2));
    let path = temp_store_path("fingerprint.log");

    // Populate the store under a *different* analysis fingerprint — the
    // honest emulation of entries written by an older analysis version
    // (hand-editing the fp field in place would fail the record checksum,
    // which covers every header field, and read as corruption instead).
    let old_analysis = ResultStore::open_with_fingerprint(&path, 0xdead_beef).unwrap();
    run_with(&campaign, Some(&old_analysis), 2);

    let store = ResultStore::open(&path).unwrap();
    let outcome = run_with(&campaign, Some(&store), 2);
    assert_eq!(renderings(&outcome), reference);
    let stats = outcome.store.unwrap();
    assert_eq!(stats.points_restored, 0, "served a stale-analysis entry");
    assert_eq!(stats.points_computed, 2);
    assert!(stats.stale_entries > 0);

    // The recompute re-wrote current-fingerprint entries.
    let warm = run_with(&campaign, Some(&ResultStore::open(&path).unwrap()), 2);
    assert_eq!(warm.store.unwrap().points_computed, 0);
    assert_eq!(renderings(&warm), reference);
}
