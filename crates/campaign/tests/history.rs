//! End-to-end regression-watch tests: real campaign runs append real
//! records to a real on-disk ledger, and `history`'s analysis detects a
//! synthetically degraded final row — the full `--ledger` →
//! `fnpr-campaign history --check` loop the CI gate relies on, minus the
//! process boundary.

use fnpr_campaign::history::{analyze, any_regression, render_html, render_table};
use fnpr_campaign::ledger::{append_record, ledger_record, read_ledger, LEDGER_SCHEMA_VERSION};
use fnpr_campaign::{run_campaign_with_store, CampaignSpec};

mod common;

fn smoke_spec() -> CampaignSpec {
    CampaignSpec::parse(
        r#"
name = "history-e2e"
seed = 2012
workload = "soundness"

[soundness]
trials = 6
trials_per_shard = 2
"#,
    )
    .expect("spec parses")
}

/// Runs the smoke campaign once and appends its ledger record unchanged.
fn append_run_raw(ledger: &std::path::Path, wall_seconds: f64) {
    fnpr_obs::set_enabled(true);
    let campaign = smoke_spec().validate().expect("spec validates");
    let outcome = run_campaign_with_store(&campaign, Some(2), None).expect("campaign runs");
    let record = ledger_record(&campaign, &outcome, wall_seconds);
    append_record(ledger, &record).expect("ledger appends");
}

/// Runs the smoke campaign once and appends its ledger record with the
/// given (synthetic) wall time — the wall-clock knob is how the tests
/// fabricate fast and slow runs that are otherwise fully real. The
/// latency percentiles are pinned to constants: the process-global
/// timing histogram is shared with every other test in this binary, so
/// live values would make the trend verdicts racy.
fn append_run(ledger: &std::path::Path, wall_seconds: f64) {
    fnpr_obs::set_enabled(true);
    let campaign = smoke_spec().validate().expect("spec validates");
    let outcome = run_campaign_with_store(&campaign, Some(2), None).expect("campaign runs");
    let mut record = ledger_record(&campaign, &outcome, wall_seconds);
    record.p50_us = 100.0;
    record.p90_us = 200.0;
    record.p99_us = 300.0;
    record.max_us = 400;
    append_record(ledger, &record).expect("ledger appends");
}

#[test]
fn healthy_ledger_passes_the_check() {
    let dir = common::scratch_dir("history_ok");
    let ledger = dir.join("LEDGER.jsonl");
    for wall in [0.100, 0.103, 0.098, 0.101] {
        append_run(&ledger, wall);
    }
    let view = read_ledger(&ledger).expect("ledger reads");
    assert_eq!(view.records.len(), 4);
    assert_eq!((view.invalid, view.stale), (0, 0));
    let trends = analyze(&view, 0.20);
    assert_eq!(trends.len(), 1, "one scenario");
    assert!(!any_regression(&trends));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degraded_final_run_fails_the_check_and_is_flagged_everywhere() {
    let dir = common::scratch_dir("history_bad");
    let ledger = dir.join("LEDGER.jsonl");
    // Three healthy runs, then one at a third of the throughput — the
    // synthetic-regression fixture.
    for wall in [0.100, 0.102, 0.099, 0.300] {
        append_run(&ledger, wall);
    }
    let view = read_ledger(&ledger).expect("ledger reads");
    let trends = analyze(&view, 0.20);
    assert!(any_regression(&trends), "must flag the degraded final row");
    let regression = trends[0].regression.expect("regression verdict");
    let drop = regression.throughput_drop_pct.expect("throughput side");
    assert!((drop - 66.6).abs() < 2.0, "expected ~67% drop, got {drop}");
    // Both renderings surface it.
    assert!(render_table(&trends, 0.20).contains("REGRESSION"));
    assert!(render_html(&trends, 0.20).contains("REGRESSION"));
    // A generous allowance lets the same ledger pass — the --max-regression
    // escape hatch.
    assert!(!any_regression(&analyze(&view, 0.80)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn records_survive_a_torn_tail_between_runs() {
    use std::io::Write;
    let dir = common::scratch_dir("history_torn");
    let ledger = dir.join("LEDGER.jsonl");
    append_run(&ledger, 0.1);
    // Simulate a crash mid-append: a partial, unterminated record.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&ledger)
            .unwrap();
        write!(f, "FNPRL1 0123456789abcdef 99 dead").unwrap();
    }
    // The next append heals the tail; the reader skips the torn line and
    // keeps both real records.
    append_run(&ledger, 0.1);
    let view = read_ledger(&ledger).expect("ledger reads");
    assert_eq!(view.records.len(), 2);
    assert_eq!(view.invalid, 1, "torn line counted, not fatal");
    assert!(!any_regression(&analyze(&view, 0.20)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ledger_rows_carry_real_run_shape() {
    let dir = common::scratch_dir("history_shape");
    let ledger = dir.join("LEDGER.jsonl");
    append_run_raw(&ledger, 0.5);
    let view = read_ledger(&ledger).expect("ledger reads");
    let r = &view.records[0];
    assert_eq!(r.schema, LEDGER_SCHEMA_VERSION);
    assert_eq!(r.name, "history-e2e");
    assert_eq!(r.workload, "soundness");
    assert_eq!(r.grid_points, 3, "6 trials / 2 per shard");
    assert_eq!(r.threads, 2);
    assert_eq!(r.wall_seconds, 0.5);
    assert!((r.points_per_sec - 6.0).abs() < 1e-9);
    assert_eq!(r.scenario.len(), 16, "scenario hash is 16 hex chars");
    assert!(u64::from_str_radix(&r.scenario, 16).is_ok());
    assert!(r.p50_us <= r.p90_us && r.p90_us <= r.p99_us);
    assert!(r.p99_us <= r.max_us as f64);
    std::fs::remove_dir_all(&dir).ok();
}
