//! The crash-resume drill through the real CLI: the kill switch
//! (`FNPR_FAULT=kill_after=N`) aborts a store-backed run mid-campaign,
//! and the next run over the same store reports the interruption,
//! restores the points the dead run persisted and lands on the clean
//! run's bytes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use fnpr_campaign::exec::FAULT_ENV;

mod common;

fn smoke_spec() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaign_smoke.toml")
}

/// `fnpr-campaign run <smoke spec> --threads 2 --csv <dir>/<name>.csv`
/// plus `extra`, with `dir` as the working directory. `fault` is the
/// child's `FNPR_FAULT`; the variable is removed otherwise, so the test
/// process never arms it.
fn run(dir: &Path, name: &str, extra: &[&str], fault: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fnpr-campaign"));
    cmd.current_dir(dir)
        .arg("run")
        .arg(smoke_spec())
        .args(["--threads", "2", "--csv"])
        .arg(dir.join(format!("{name}.csv")))
        .args(extra);
    match fault {
        Some(value) => cmd.env(FAULT_ENV, value),
        None => cmd.env_remove(FAULT_ENV),
    };
    cmd.output().expect("fnpr-campaign starts")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// The `N` of the `store <path>: N points restored, …` summary line.
fn points_restored(log: &str) -> Option<u64> {
    log.lines()
        .filter(|line| line.starts_with("store "))
        .find_map(|line| line.split_once(": ")?.1.split_once(" points restored"))
        .and_then(|(n, _)| n.parse().ok())
}

#[test]
fn killed_run_resumes_to_the_clean_bytes() {
    let dir = common::scratch_dir("resume_drill");
    let store = dir.join("drill.fnprstore");
    let store = store.to_str().expect("utf-8 scratch path");

    let clean = run(&dir, "clean", &["--quiet"], None);
    assert!(
        clean.status.success(),
        "clean run failed: {}",
        stderr(&clean)
    );

    let killed = run(
        &dir,
        "dead",
        &["--quiet", "--store", store],
        Some("kill_after=4"),
    );
    assert!(
        !killed.status.success(),
        "the kill switch did not abort the run: {}",
        stderr(&killed)
    );

    let resumed = run(&dir, "resumed", &["--store", store], None);
    let log = stderr(&resumed);
    assert!(resumed.status.success(), "resume run failed: {log}");
    assert!(
        log.contains("resume: previous run was interrupted"),
        "interruption not reported: {log}"
    );
    let restored = points_restored(&log).expect("store summary line");
    assert!(restored >= 1, "nothing restored: {log}");
    assert_eq!(
        std::fs::read(dir.join("resumed.csv")).unwrap(),
        std::fs::read(dir.join("clean.csv")).unwrap(),
        "resumed CSV differs from a clean run"
    );
    std::fs::remove_dir_all(&dir).ok();
}
