//! `fnpr-campaign grid` through the real CLI: for each checked-in smoke
//! spec, the expansion it prints has one `point:` line per CSV row of the
//! same spec's run, in row order, and every coordinate on a line matches
//! its row.

use std::path::{Path, PathBuf};
use std::process::Command;

mod common;

fn spec(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../examples/{name}"))
}

/// Runs the CLI in `dir` (the spec's own output paths land there) and
/// returns its stdout, failing the test on a non-zero exit.
fn cli(dir: &Path, args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_fnpr-campaign"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("fnpr-campaign starts");
    assert!(
        output.status.success(),
        "fnpr-campaign {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

/// The CSV columns one `key=value` pair of a `point:` line names, with the
/// values it claims for them. `cache=SxAxLB` spans three columns.
fn claimed_columns(key: &str, value: &str) -> Vec<(String, String)> {
    match key {
        "cache" => {
            let dims: Vec<&str> = value.trim_end_matches('B').split('x').collect();
            assert_eq!(dims.len(), 3, "bad cache geometry {value:?}");
            ["sets", "associativity", "line_bytes"]
                .iter()
                .zip(dims)
                .map(|(column, dim)| (column.to_string(), dim.to_string()))
                .collect()
        }
        "brt" => vec![("reload_cost".into(), value.into())],
        _ => vec![(key.into(), value.into())],
    }
}

/// Equal as numbers when both parse (the CSV and the grid listing print
/// floats at different precisions), else as strings.
fn same_value(a: &str, b: &str) -> bool {
    match (a.parse::<f64>(), b.parse::<f64>()) {
        (Ok(x), Ok(y)) => (x - y).abs() <= 1e-9 * x.abs().max(1.0),
        _ => a == b,
    }
}

fn assert_grid_matches_run(name: &str) {
    let dir = common::scratch_dir("grid_cli");
    let spec = spec(name);
    let spec = spec.to_str().expect("utf-8 spec path");
    let csv = cli(
        &dir,
        &["run", spec, "--quiet", "--threads", "2", "--csv", "-"],
    );
    let grid = cli(&dir, &["grid", spec]);

    let mut rows = csv.lines();
    let header: Vec<&str> = rows.next().expect("CSV header").split(',').collect();
    let rows: Vec<Vec<&str>> = rows.map(|row| row.split(',').collect()).collect();
    let points: Vec<&str> = grid
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("point:"))
        .collect();
    assert!(!rows.is_empty(), "{name}: empty run");
    assert_eq!(points.len(), rows.len(), "{name}: one point line per row");

    for (i, (point, row)) in points.iter().zip(&rows).enumerate() {
        let mut checked = 0;
        for pair in point.split_whitespace() {
            let (key, value) = pair.split_once('=').expect("key=value");
            for (column, claimed) in claimed_columns(key, value) {
                let at = header
                    .iter()
                    .position(|h| *h == column)
                    .unwrap_or_else(|| panic!("{name}: no CSV column {column:?}"));
                assert!(
                    same_value(&claimed, row[at]),
                    "{name} row {i}: grid says {column}={claimed}, CSV says {}",
                    row[at]
                );
                checked += 1;
            }
        }
        assert!(checked >= 2, "{name} row {i}: too few coordinates: {point}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn acceptance_grid_lists_the_csv_rows() {
    assert_grid_matches_run("campaign_smoke.toml");
}

#[test]
fn multicore_grid_lists_the_csv_rows() {
    assert_grid_matches_run("multicore_smoke.toml");
}

#[test]
fn cfg_grid_lists_the_csv_rows() {
    assert_grid_matches_run("cfg_smoke.toml");
}

#[test]
fn deeply_nested_specs_are_spec_errors() {
    // 100,000 nested arrays used to overflow the parser's stack (exit
    // 134); both spec parsers now stop at their depth cap.
    let dir = common::scratch_dir("grid_deep");
    let deep = "[".repeat(100_000) + &"]".repeat(100_000);
    for (file, text) in [
        (
            "deep.json",
            format!("{{\"name\": {deep}, \"workload\": \"soundness\"}}"),
        ),
        (
            "deep.toml",
            format!("name = {deep}\nworkload = \"soundness\"\n"),
        ),
    ] {
        std::fs::write(dir.join(file), text).unwrap();
        let output = Command::new(env!("CARGO_BIN_EXE_fnpr-campaign"))
            .current_dir(&dir)
            .args(["grid", file])
            .output()
            .expect("fnpr-campaign starts");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{file}: {stderr}");
        assert!(stderr.contains("deeper than 128"), "{file}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
