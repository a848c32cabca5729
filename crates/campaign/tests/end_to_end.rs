//! End-to-end: the checked-in smoke spec loads, validates, runs, and emits
//! coherent CSV and JSON aggregates — the same path `fnpr-campaign run
//! examples/campaign_smoke.toml` exercises.

use fnpr_campaign::{run_campaign_with_store, CampaignReport, CampaignSpec, WorkloadKind};
use std::path::Path;

fn smoke_spec_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaign_smoke.toml")
}

#[test]
fn smoke_spec_runs_and_exports() {
    let spec = CampaignSpec::load(&smoke_spec_path()).expect("smoke spec loads");
    let campaign = spec.validate().expect("smoke spec validates");
    assert_eq!(campaign.workload_kind(), WorkloadKind::Acceptance);
    let outcome = run_campaign_with_store(&campaign, Some(4), None).expect("smoke campaign runs");
    let report = &outcome.report;

    // 2 policies x 4 utilizations.
    assert_eq!(report.acceptance.len(), 8);
    assert!(report.summary.instances > 0, "no task sets generated");
    assert_eq!(
        report.summary.dominance_violations, 0,
        "paper's ordering violated"
    );

    // CSV: header + one row per grid point, consistent column count.
    let csv = report.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 9);
    let columns = lines[0].split(',').count();
    assert_eq!(
        columns,
        4 + 4 + 2,
        "4 fixed + 4 methods + 2 pessimism columns"
    );
    for line in &lines[1..] {
        assert_eq!(line.split(',').count(), columns, "ragged CSV row: {line}");
    }

    // JSON: parses back into an identical report (true round-trip).
    let parsed: CampaignReport = serde_json::from_str(&report.to_json()).expect("JSON parses");
    assert_eq!(&parsed, report);

    // The scenario hash is stable for the checked-in spec + seed: it only
    // changes when someone edits the smoke scenario itself, which should be
    // a conscious, reviewed act.
    assert_eq!(report.scenario.len(), 16);
    let again = CampaignSpec::load(&smoke_spec_path())
        .unwrap()
        .validate()
        .unwrap();
    assert_eq!(report.scenario, format!("{:016x}", again.scenario_hash()));
}

#[test]
fn multicore_smoke_spec_runs_and_exports() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/multicore_smoke.toml");
    let spec = CampaignSpec::load(&path).expect("multicore smoke spec loads");
    let campaign = spec.validate().expect("multicore smoke spec validates");
    assert_eq!(campaign.workload_kind(), WorkloadKind::Multicore);
    let outcome =
        run_campaign_with_store(&campaign, Some(4), None).expect("multicore smoke campaign runs");
    let report = &outcome.report;

    // 2 core counts x 2 policies x 4 allocations x 3 utilizations.
    assert_eq!(report.multicore.len(), 48);
    assert!(report.summary.instances > 0, "no task sets generated");
    assert_eq!(
        report.summary.dominance_violations, 0,
        "inflation dominance violated on the multicore grid"
    );
    assert_eq!(
        report.summary.sim_violations, 0,
        "m-core simulation exceeded an Algorithm 1 bound"
    );
    let checks: usize = report.multicore.iter().map(|p| p.sim_checks).sum();
    assert!(checks > 0, "no simulator soundness checks ran");

    // CSV: header + one row per grid point, consistent column count.
    let csv = report.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 49);
    let columns = lines[0].split(',').count();
    assert_eq!(
        columns,
        6 + 4 + 3,
        "6 fixed + 4 methods + 3 simulator columns"
    );
    for line in &lines[1..] {
        assert_eq!(line.split(',').count(), columns, "ragged CSV row: {line}");
    }
    assert!(lines[0].starts_with("m,policy,allocation,utilization"));

    // JSON round-trips.
    let parsed: CampaignReport = serde_json::from_str(&report.to_json()).expect("JSON parses");
    assert_eq!(&parsed, report);
}

#[test]
fn cfg_smoke_spec_runs_the_real_pipeline_end_to_end() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/cfg_smoke.toml");
    let spec = CampaignSpec::load(&path).expect("cfg smoke spec loads");
    let campaign = spec.validate().expect("cfg smoke spec validates");
    assert_eq!(campaign.workload_kind(), WorkloadKind::Cfg);
    let outcome =
        run_campaign_with_store(&campaign, Some(4), None).expect("cfg smoke campaign runs");
    let report = &outcome.report;

    // 2 depths x 1 loop bound x 2 footprints x (2 set counts x 1 x 1 x 2
    // reload costs) x 2 q scales.
    assert_eq!(report.cfg.len(), 32);
    assert!(report.summary.instances > 0, "no programs analysed");
    assert_eq!(
        report.summary.dominance_violations, 0,
        "Algorithm 1 / Eq. 4 ordering violated on derived curves"
    );
    // The whole point of the workload: real program structure produces
    // real (nonzero) delay curves somewhere on the grid.
    assert!(
        report.cfg.iter().any(|p| p.curve_max_mean > 0.0),
        "no derived curve had CRPD — the pipeline is not being exercised"
    );
    // Pessimism data flowed into the summary.
    assert!(report.summary.pessimism_max >= report.summary.pessimism_mean);
    // The geometry/Q sweep separates schedulable from unschedulable
    // points: cheap reloads converge, expensive ones diverge.
    assert!(report.cfg.iter().any(|p| p.alg1_converged == p.programs));
    assert!(report.cfg.iter().any(|p| p.alg1_converged == 0));

    // (program, geometry) memoization is observable: the q axis must hit
    // the curve memo and the geometry axis the program memo.
    assert!(
        outcome.memo.hits > 0,
        "expected program/curve memo reuse, got {} hits / {} misses",
        outcome.memo.hits,
        outcome.memo.misses
    );

    // CSV: header + one row per grid point, consistent column count.
    let csv = report.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 33);
    assert!(lines[0].starts_with("shape,depth,loop_iterations,footprint"));
    let columns = lines[0].split(',').count();
    assert_eq!(columns, 19);
    for line in &lines[1..] {
        assert_eq!(line.split(',').count(), columns, "ragged CSV row: {line}");
    }

    // JSON round-trips.
    let parsed: CampaignReport = serde_json::from_str(&report.to_json()).expect("JSON parses");
    assert_eq!(&parsed, report);
}

/// The checked-in `--trace-out` sample (produced by `fnpr-campaign run
/// examples/campaign_smoke.toml --trace-out …`) validates as Chrome
/// trace-event JSON: a `traceEvents` array of `ph: "X"` complete events
/// with the fields Perfetto / `chrome://tracing` require.
#[test]
fn sample_trace_artifact_is_valid_chrome_trace_json() {
    use serde::Value;
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/trace_sample.json");
    let text = std::fs::read_to_string(&path).expect("sample trace artifact is checked in");
    let doc = serde_json::parse_value(&text).expect("sample trace parses as JSON");
    let Value::Map(entries) = doc else {
        panic!("trace document must be a JSON object");
    };
    let events = entries
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents key");
    let Value::Seq(events) = events else {
        panic!("traceEvents must be an array");
    };
    assert!(!events.is_empty(), "sample trace has no events");
    let mut saw_run_span = false;
    for event in events {
        let Value::Map(fields) = event else {
            panic!("each trace event must be an object");
        };
        let field = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        match field("ph") {
            Some(Value::Str(ph)) => assert_eq!(ph, "X", "shim emits complete events only"),
            other => panic!("bad ph field: {other:?}"),
        }
        for required in ["ts", "dur", "pid", "tid"] {
            assert!(
                matches!(field(required), Some(Value::Int(n)) if *n >= 0),
                "event missing integer {required}"
            );
        }
        if matches!(field("name"), Some(Value::Str(name)) if name == "campaign.run") {
            saw_run_span = true;
        }
    }
    assert!(saw_run_span, "sample trace lacks the campaign.run span");
}

#[test]
fn memoization_pays_on_the_smoke_grid() {
    let campaign = CampaignSpec::load(&smoke_spec_path())
        .unwrap()
        .validate()
        .unwrap();
    let outcome = run_campaign_with_store(&campaign, Some(2), None).unwrap();
    // Both policies analyse the same base task sets; the second policy's
    // grid half must be answered from the memo.
    assert!(
        outcome.memo.hits >= outcome.memo.misses / 2,
        "expected substantial task-set reuse, got {} hits / {} misses",
        outcome.memo.hits,
        outcome.memo.misses
    );
}
