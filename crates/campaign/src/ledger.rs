//! The run ledger: longitudinal, append-only run records.
//!
//! A `--metrics` snapshot describes one run and is overwritten by the
//! next. The ledger is its durable complement: one line per campaign run
//! (`LEDGER.jsonl` by convention) carrying the scenario identity,
//! throughput, hit rates and latency percentiles, so `fnpr-campaign
//! history` ([`crate::history`]) can answer "did run N get slower than run
//! N-1?" without any external metrics stack.
//!
//! # Layout
//!
//! Every line is a result-store record ([`crate::store`]) under the
//! ledger's own table tag, written and checked by the store's record
//! functions:
//!
//! ```text
//! FNPR2 <tag:8hex> <key:32hex> <fingerprint:16hex> <stamp> <len> <sum:16hex> <payload>
//! ```
//!
//! * `key` is the run's scenario hash and `stamp` its `unix_seconds`;
//! * `fingerprint` is a hash of [`LEDGER_SCHEMA_VERSION`]: lines written
//!   under another record schema are *stale*, counted but not served;
//! * `payload` is one [`RunRecord`] as compact JSON.
//!
//! Lines of the retired `FNPRL1` framing read as invalid.
//!
//! # Correctness contract
//!
//! *Never crash, never serve a wrong row.* Unreadable, truncated, corrupt
//! or stale lines degrade to skipped rows (counted in [`LedgerView`]); a
//! torn final line from a crashed writer is terminated by the next append,
//! the way the store's open heals its logs. A record that would not read
//! back as written (a NaN percentile, a count above `i64::MAX`) is refused
//! at append. `fnpr-campaign run --ledger` appends after writing its CSV
//! and JSON, and exits 1 when the append fails.

use std::io::Write as _;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::memo::ScenarioHasher;
use crate::store::{format_record, lossless_json, open_log_for_append, parse_record};
use crate::{Campaign, CampaignOutcome};

/// Version of the [`RunRecord`] payload schema. Folded into the line
/// fingerprint; bump when fields change shape or meaning, and old rows
/// become stale instead of being misread.
///
/// v3: dropped `bounds_restored`, `bounds_computed` and
/// `recovered_shards`, which the engine always wrote as 0.
pub const LEDGER_SCHEMA_VERSION: u64 = 3;

/// The table tag of ledger lines.
const LEDGER_TAG: u32 = 0x4c44_4752; // "LDGR"

/// Domain tag of [`ledger_fingerprint`].
const TAG_FINGERPRINT: u64 = 0x4c44_4746; // "LDGF"

/// One run of a campaign, as recorded in the ledger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Payload schema version ([`LEDGER_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Wall-clock seconds since the Unix epoch at record time.
    pub unix_seconds: u64,
    /// Campaign name (from the spec).
    pub name: String,
    /// Scenario hash as hex — the join key for grouping runs of the same
    /// scenario (telemetry/output/store settings are excluded from it).
    pub scenario: String,
    /// Workload kind (`acceptance`, `soundness`, `multicore`, `cfg`).
    pub workload: String,
    /// Grid points in the scenario.
    pub grid_points: u64,
    /// Worker threads used.
    pub threads: u64,
    /// Wall-clock seconds of the run.
    pub wall_seconds: f64,
    /// Throughput: grid points per wall-clock second.
    pub points_per_sec: f64,
    /// In-memory memo hits.
    pub memo_hits: u64,
    /// In-memory memo misses.
    pub memo_misses: u64,
    /// Grid points restored from the result store.
    pub points_restored: u64,
    /// Grid points computed fresh.
    pub points_computed: u64,
    /// Estimated median per-point wall time, microseconds.
    pub p50_us: f64,
    /// Estimated 90th-percentile per-point wall time, microseconds.
    pub p90_us: f64,
    /// Estimated 99th-percentile per-point wall time, microseconds.
    pub p99_us: f64,
    /// Largest observed per-point wall time, microseconds.
    pub max_us: u64,
}

/// What a full ledger read produced: the valid records in file order plus
/// the skipped-line counts (diagnostics for `history`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LedgerView {
    /// Valid, current-schema records, oldest first.
    pub records: Vec<RunRecord>,
    /// Malformed / truncated / corrupt / retired-format lines skipped.
    pub invalid: u64,
    /// Well-formed lines from another schema version skipped.
    pub stale: u64,
}

/// Builds the run-ledger record for a finished campaign run — the
/// longitudinal row `fnpr-campaign history` trends and gates on. The
/// latency percentiles come from the workload's per-point timing histogram
/// (`campaign.point.micros.<workload>`), so they are meaningful only when
/// telemetry was enabled for the run (zeros otherwise); the CLI arms
/// telemetry whenever a ledger target is set.
#[must_use]
pub fn ledger_record(
    campaign: &Campaign,
    outcome: &CampaignOutcome,
    wall_seconds: f64,
) -> RunRecord {
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
    // A run without a store computes every point.
    let (points_restored, points_computed) = outcome
        .store
        .map_or((0, grid_points), |s| (s.points_restored, s.points_computed));
    RunRecord {
        schema: LEDGER_SCHEMA_VERSION,
        unix_seconds: fnpr_obs::unix_now(),
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
        points_restored,
        points_computed,
        p50_us: timing.p50,
        p90_us: timing.p90,
        p99_us: timing.p99,
        max_us: timing.max,
    }
}

/// Appends one record to the ledger at `path`, creating the file (and
/// parent directories) if absent and terminating a torn final line first.
///
/// # Errors
///
/// [`std::io::ErrorKind::InvalidData`] for a record that does not survive
/// the JSON round trip (nothing is written), and real I/O failures.
pub fn append_record(path: &Path, record: &RunRecord) -> std::io::Result<()> {
    let payload = lossless_json(record).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "run record does not round-trip through JSON (a non-finite time or a count above i64::MAX)",
        )
    })?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let (mut file, healed) = open_log_for_append(path)?;
    if healed {
        fnpr_obs::counter!("campaign.ledger.healed").incr();
    }
    let key = u128::from_str_radix(&record.scenario, 16).unwrap_or(0);
    let line = format_record(
        LEDGER_TAG,
        key,
        ledger_fingerprint(),
        record.unix_seconds,
        &payload,
    );
    file.write_all(line.as_bytes())
}

/// Reads the whole ledger at `path`. Corrupt, truncated, retired-format
/// and stale lines are counted and skipped, never fatal; only real I/O
/// failures (including a missing file) error.
///
/// # Errors
///
/// Filesystem read failures.
pub fn read_ledger(path: &Path) -> std::io::Result<LedgerView> {
    let bytes = std::fs::read(path)?;
    // Lossy decoding: a line with invalid UTF-8 cannot checksum correctly
    // and parses as invalid, which is exactly right.
    let text = String::from_utf8_lossy(&bytes);
    let fingerprint = ledger_fingerprint();
    let mut view = LedgerView::default();
    for line in text.lines().filter(|line| !line.is_empty()) {
        match parse_record(line) {
            Some(r) if r.tag == LEDGER_TAG && r.fingerprint != fingerprint => view.stale += 1,
            Some(r) if r.tag == LEDGER_TAG => match serde_json::from_str(r.payload) {
                Ok(record) => view.records.push(record),
                Err(_) => view.invalid += 1,
            },
            _ => view.invalid += 1,
        }
    }
    Ok(view)
}

/// The fingerprint stamped on every line this build writes: a hash of the
/// record schema version. Lines carrying any other fingerprint are stale.
fn ledger_fingerprint() -> u64 {
    ScenarioHasher::new(TAG_FINGERPRINT)
        .word(LEDGER_SCHEMA_VERSION)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(throughput: f64) -> RunRecord {
        RunRecord {
            schema: LEDGER_SCHEMA_VERSION,
            unix_seconds: 1_700_000_000,
            name: "smoke".to_string(),
            scenario: "00112233445566778899aabbccddeeff".to_string(),
            workload: "acceptance".to_string(),
            grid_points: 8,
            threads: 2,
            wall_seconds: 0.25,
            points_per_sec: throughput,
            memo_hits: 3,
            memo_misses: 5,
            points_restored: 0,
            points_computed: 8,
            p50_us: 120.0,
            p90_us: 900.5,
            p99_us: 1800.25,
            max_us: 2100,
        }
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        crate::testutil::scratch_dir("ledger_unit").join(name)
    }

    /// A checksum-valid current-schema ledger line carrying `payload`.
    fn framed(payload: &str) -> String {
        format_record(LEDGER_TAG, 0, ledger_fingerprint(), 0, payload)
    }

    #[test]
    fn storeless_runs_record_every_point_as_computed() {
        let spec = crate::spec::CampaignSpec::parse(
            r#"{"workload":"soundness","soundness":{"trials":6,"trials_per_shard":2}}"#,
        )
        .unwrap();
        let campaign = spec.validate().unwrap();
        let storeless = crate::run_campaign_with_store(&campaign, Some(1), None).unwrap();
        let record = ledger_record(&campaign, &storeless, 0.5);
        assert_eq!(record.grid_points, 3, "one point per shard of two trials");
        assert_eq!((record.points_restored, record.points_computed), (0, 3));
        // With a store, the store's own counts are recorded: the same 3
        // points computed cold, then 3 restored warm.
        let path = scratch("counted.fnprstore");
        for expected in [(0, 3), (3, 0)] {
            let store = crate::store::ResultStore::open(&path).unwrap();
            let outcome = crate::run_campaign_with_store(&campaign, Some(1), Some(&store)).unwrap();
            let record = ledger_record(&campaign, &outcome, 0.5);
            assert_eq!((record.points_restored, record.points_computed), expected);
        }
    }

    #[test]
    fn record_json_round_trips() {
        let record = sample(32.0);
        let json = serde_json::to_string(&record);
        assert!(!json.contains('\n'));
        assert_eq!(serde_json::from_str::<RunRecord>(&json).ok(), Some(record));
    }

    #[test]
    fn record_with_hostile_strings_round_trips() {
        let record = RunRecord {
            name: "quo\"te \\ back\nslash\ttab \u{1}ctl".to_string(),
            scenario: "deadbeef".to_string(),
            workload: "cfg".to_string(),
            ..sample(1.0)
        };
        let json = serde_json::to_string(&record);
        assert_eq!(
            serde_json::from_str::<RunRecord>(&json).ok(),
            Some(record.clone())
        );
        let path = scratch("hostile.jsonl");
        append_record(&path, &record).unwrap();
        assert_eq!(read_ledger(&path).unwrap().records, vec![record]);
    }

    #[test]
    fn append_then_read_preserves_order() {
        let path = scratch("order.jsonl");
        for i in 1..=3 {
            append_record(&path, &sample(i as f64)).unwrap();
        }
        let view = read_ledger(&path).unwrap();
        assert_eq!(view.invalid, 0);
        assert_eq!(view.stale, 0);
        let rates: Vec<f64> = view.records.iter().map(|r| r.points_per_sec).collect();
        assert_eq!(rates, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn corrupt_and_truncated_lines_are_skipped_not_fatal() {
        let path = scratch("corrupt.jsonl");
        append_record(&path, &sample(1.0)).unwrap();
        // Flip a payload byte of a valid line, then add garbage and a
        // truncated copy of a real line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let good = text.clone();
        text = text.replace("\"threads\":2", "\"threads\":3");
        text.push_str("complete garbage, not a record\n");
        text.push_str(&good[..good.len() / 2]);
        text.push('\n');
        std::fs::write(&path, &text).unwrap();
        let view = read_ledger(&path).unwrap();
        assert!(view.records.is_empty(), "corrupt line served: {view:?}");
        assert_eq!(view.invalid, 3);
    }

    #[test]
    fn stale_schema_lines_are_counted_separately() {
        let path = scratch("stale.jsonl");
        append_record(&path, &sample(1.0)).unwrap();
        // Re-frame the same payload under a different fingerprint with a
        // *valid* checksum: well-formed, wrong schema.
        let payload = serde_json::to_string(&sample(1.0));
        let line = format_record(LEDGER_TAG, 0, ledger_fingerprint() ^ 1, 0, &payload);
        std::fs::write(
            &path,
            format!("{}{line}", std::fs::read_to_string(&path).unwrap()),
        )
        .unwrap();
        let view = read_ledger(&path).unwrap();
        assert_eq!(view.records.len(), 1);
        assert_eq!(view.stale, 1);
        assert_eq!(view.invalid, 0);
    }

    #[test]
    fn torn_tail_is_healed_on_next_append() {
        let path = scratch("torn.jsonl");
        append_record(&path, &sample(1.0)).unwrap();
        // Simulate a crash mid-write: drop the final newline and half the
        // last line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 10]).unwrap();
        append_record(&path, &sample(2.0)).unwrap();
        let view = read_ledger(&path).unwrap();
        assert_eq!(view.records.len(), 1, "torn line must not be served");
        assert_eq!(view.records[0].points_per_sec, 2.0);
        assert_eq!(view.invalid, 1);
    }

    #[test]
    fn missing_ledger_is_an_io_error() {
        let err = read_ledger(Path::new("/nonexistent/dir/LEDGER.jsonl")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn checksum_valid_lines_with_malformed_or_nested_payloads_are_invalid() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let deep_name = serde_json::to_string(&sample(1.0)).replace("\"smoke\"", &deep);
        let payloads = [
            "",
            "{",
            "{}{}",
            "[1, 2]",
            "{\"a\": [1]}",
            "{\"a\": {\"b\": 1}}",
            "{\"a\": true}",
            "{\"a\": 1,}",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            // An empty object parses as an object but has no fields.
            "{}",
            &deep,
            &deep_name,
        ];
        let path = scratch("malformed.jsonl");
        let text: String = payloads.iter().map(|p| framed(p)).collect();
        std::fs::write(&path, text).unwrap();
        let view = read_ledger(&path).unwrap();
        assert!(
            view.records.is_empty(),
            "malformed payload served: {view:?}"
        );
        assert_eq!(view.invalid, payloads.len() as u64);
        assert_eq!(view.stale, 0);
    }

    #[test]
    fn u64_fields_reject_negative_and_fractional_numbers() {
        let json = serde_json::to_string(&sample(1.0));
        for (bad, good) in [
            ("\"threads\":-2", "\"threads\":2"),
            ("\"threads\":2.5", "\"threads\":2"),
        ] {
            let mutated = json.replace(good, bad);
            assert_ne!(mutated, json);
            // The checksum layer would catch this first in a real file;
            // the payload decode alone must also refuse.
            assert!(
                serde_json::from_str::<RunRecord>(&mutated).is_err(),
                "{bad}"
            );
            let path = scratch("mutated.jsonl");
            std::fs::write(&path, framed(&mutated)).unwrap();
            assert_eq!(read_ledger(&path).unwrap().invalid, 1, "{bad}");
        }
    }

    #[test]
    fn fingerprint_tracks_schema_version() {
        // A fixed sanity pin: the fingerprint derives from the schema
        // constant, not from ambient state.
        assert_eq!(ledger_fingerprint(), ledger_fingerprint());
        assert_ne!(ledger_fingerprint(), 0);
    }

    #[test]
    fn retired_fnprl1_lines_are_skipped_and_counted() {
        // A line written by the `FNPRL1` framing (schema v2): checksum-valid
        // in its own format, never served by this one.
        let retired = "FNPRL1 60e9cf2dece7d755 403 88c95f313843273f \
            {\"schema\":2,\"unix_seconds\":1792292954,\"name\":\"campaign-smoke\",\
            \"scenario\":\"59ef3a68c946026a\",\"workload\":\"acceptance\",\"grid_points\":8,\
            \"threads\":2,\"wall_seconds\":0.011602791,\"points_per_sec\":689.4892789157368,\
            \"memo_hits\":160,\"memo_misses\":162,\"points_restored\":0,\"points_computed\":0,\
            \"bounds_restored\":0,\"bounds_computed\":0,\"recovered_shards\":0,\
            \"p50_us\":1706.0,\"p90_us\":5595.0,\"p99_us\":5595.0,\"max_us\":5595}\n";
        let path = scratch("retired.jsonl");
        std::fs::write(&path, retired).unwrap();
        append_record(&path, &sample(4.0)).unwrap();
        let view = read_ledger(&path).unwrap();
        assert_eq!(view.records, vec![sample(4.0)]);
        assert_eq!((view.invalid, view.stale), (1, 0));
    }

    #[test]
    fn records_that_do_not_round_trip_are_refused() {
        let path = scratch("lossy.jsonl");
        append_record(&path, &sample(1.0)).unwrap();
        let before = std::fs::read(&path).unwrap();
        let nan = RunRecord {
            p99_us: f64::NAN,
            ..sample(2.0)
        };
        let huge = RunRecord {
            max_us: u64::MAX,
            ..sample(3.0)
        };
        for record in [nan, huge] {
            let err = append_record(&path, &record).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{record:?}");
        }
        // Nothing was written: the ledger reads exactly as before.
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let view = read_ledger(&path).unwrap();
        assert_eq!(view.records, vec![sample(1.0)]);
        assert_eq!((view.invalid, view.stale), (0, 0));
    }
}
