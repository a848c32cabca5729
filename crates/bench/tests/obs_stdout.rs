//! `FNPR_METRICS=-` and `FNPR_TRACE_OUT=-` send a figure binary's telemetry
//! to stdout, after its CSV, as `fnpr-campaign run --metrics -` does; no
//! file named `-` appears.

use std::process::Command;

#[test]
fn a_dash_is_stdout_for_metrics_and_trace() {
    let dir = std::env::temp_dir().join(format!("fnpr_bench_dash_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_fig4_functions"))
        .current_dir(&dir)
        .env("FNPR_METRICS", "-")
        .env("FNPR_TRACE_OUT", "-")
        .output()
        .unwrap();
    let leftover: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    std::fs::remove_dir_all(&dir).ok();
    assert!(output.status.success(), "{output:?}");
    assert!(leftover.is_empty(), "files left behind: {leftover:?}");

    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.starts_with("t,gaussian_1,gaussian_2,two_local_maxima\n"));
    let csv_end = stdout.find("\n{").expect("JSON after the CSV") + 1;
    let metrics = stdout[csv_end..].find("\"label\": \"fig4_functions\"");
    let trace = stdout[csv_end..].find("\"traceEvents\"");
    assert!(
        metrics.is_some() && trace.is_some() && metrics < trace,
        "metrics snapshot, then trace: {}",
        &stdout[csv_end..]
    );

    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(
        stderr.contains("wrote metrics snapshot to stdout\n"),
        "{stderr}"
    );
    assert!(stderr.contains("wrote Chrome trace to stdout "), "{stderr}");
}
