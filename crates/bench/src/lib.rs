//! # fnpr-bench — figure regeneration and performance benchmarks
//!
//! One binary per figure of the paper (plus two extensions), and Criterion
//! benchmarks for the cost of the analyses themselves. Binaries
//! print CSV to stdout (pipe into a plotting tool of choice) with a human
//! summary on stderr, and exit non-zero if a shape claim of the paper fails
//! to reproduce.
//!
//! | binary | paper artefact |
//! |--------|----------------|
//! | `fig1_cfg` | Figure 1 — CFG start offsets |
//! | `fig2_runtime` | Figure 2 — naive bound vs. an actual run |
//! | `fig3_iteration` | Figure 3 — one Algorithm 1 window |
//! | `fig4_functions` | Figure 4 — the synthetic benchmark functions |
//! | `fig5_results` | Figure 5 — cumulative delay vs. Q (the headline) |
//! | `capped_ablation` | extension C — the arrival-capped Algorithm 1 |
//! | `pessimism_ablation` | extension E — Algorithm 1 against the exact adversary |
//!
//! Extensions A (acceptance ratios) and B (Theorem 1 / Figure 2 at scale)
//! are `fnpr-campaign run` workloads: the `fnpr-campaign example-spec`
//! template, and a spec holding `workload = "soundness"`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Telemetry wiring for the figure/sweep binaries.
///
/// [`ObsSession::from_env`] arms `fnpr-obs` when the environment asks for
/// artifacts — `FNPR_METRICS=PATH` for a [`fnpr_obs::MetricsReport`] JSON
/// snapshot, `FNPR_TRACE_OUT=PATH` for a Chrome trace, where a `PATH` of
/// `-` means stdout, after the binary's CSV — and
/// [`ObsSession::flush`] writes them. Call `flush` at every exit of
/// `main` (including the `process::exit(1)` shape-check failure paths,
/// which skip destructors). With neither variable set, both calls are
/// no-ops and the binaries run exactly as before.
pub struct ObsSession {
    label: String,
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
    started: Instant,
}

impl ObsSession {
    /// Arms telemetry from `FNPR_METRICS` / `FNPR_TRACE_OUT`.
    #[must_use]
    pub fn from_env(label: &str) -> Self {
        Self::new(
            label,
            std::env::var_os("FNPR_METRICS").map(PathBuf::from),
            std::env::var_os("FNPR_TRACE_OUT").map(PathBuf::from),
        )
    }

    /// Arms telemetry for explicit targets (what `from_env` resolves to;
    /// also the testable entry point).
    #[must_use]
    pub fn new(label: &str, metrics: Option<PathBuf>, trace: Option<PathBuf>) -> Self {
        if metrics.is_some() || trace.is_some() {
            fnpr_obs::set_enabled(true);
        }
        if trace.is_some() {
            fnpr_obs::set_trace_collection(true);
        }
        Self {
            label: label.to_string(),
            metrics,
            trace,
            started: Instant::now(),
        }
    }

    /// Writes whichever artifacts were requested, reporting each on
    /// stderr. Write failures warn rather than abort: telemetry must
    /// never turn a successful figure run into a failing one.
    pub fn flush(&self) {
        if let Some(path) = &self.metrics {
            let report = fnpr_obs::MetricsReport::gather(
                &self.label,
                fnpr_obs::gauge("campaign.points.total").value(),
                fnpr_obs::counter("campaign.points.done").value(),
                self.started.elapsed().as_secs_f64(),
            );
            match write_artifact(path, &report.to_json()) {
                Ok(()) => eprintln!("wrote metrics snapshot to {}", target_name(path)),
                Err(e) => eprintln!(
                    "warning: could not write metrics to {}: {e}",
                    target_name(path)
                ),
            }
        }
        if let Some(path) = &self.trace {
            let trace = fnpr_obs::chrome_trace_json(&fnpr_obs::take_trace_events());
            match write_artifact(path, &trace) {
                Ok(()) => eprintln!(
                    "wrote Chrome trace to {} (open in Perfetto / chrome://tracing)",
                    target_name(path)
                ),
                Err(e) => eprintln!(
                    "warning: could not write trace to {}: {e}",
                    target_name(path)
                ),
            }
        }
    }
}

/// Writes `content` to the file at `path`, or to stdout for `-` (as
/// `fnpr-campaign run --metrics -` does).
fn write_artifact(path: &Path, content: &str) -> std::io::Result<()> {
    if path == Path::new("-") {
        let mut out = std::io::stdout().lock();
        out.write_all(content.as_bytes())?;
        out.flush()
    } else {
        std::fs::write(path, content)
    }
}

/// How the stderr notes name an artifact's target.
fn target_name(path: &Path) -> String {
    if path == Path::new("-") {
        "stdout".to_owned()
    } else {
        path.display().to_string()
    }
}

/// The Figure 5 sweep grid: `Q` values from just above the curve maximum to
/// half the task length (the paper's x-axis runs to 2000 with `C = 4000`).
#[must_use]
pub fn figure5_q_grid() -> Vec<f64> {
    let mut grid = Vec::new();
    // Fine resolution at small Q where the curves move fastest...
    let mut q = 10.5;
    while q < 100.0 {
        grid.push(q);
        q += 2.5;
    }
    // ...and coarser afterwards.
    while q <= 2000.0 {
        grid.push(q);
        q += 25.0;
    }
    grid
}

/// Formats an optional value for CSV output (`divergent` for `None`).
#[must_use]
pub fn csv_value(v: Option<f64>) -> String {
    v.map_or_else(|| "divergent".to_owned(), |x| format!("{x:.3}"))
}

/// Renders series as an ASCII chart with a logarithmic y axis (the paper's
/// Figure 5 style). Each series gets a single marker character; colliding
/// points keep the earlier series' marker.
///
/// # Panics
///
/// Panics if `width`/`height` is zero or no positive data point exists
/// (misuse in harness code).
#[must_use]
pub fn ascii_log_chart(series: &[(char, &[(f64, f64)])], width: usize, height: usize) -> String {
    assert!(width > 1 && height > 1, "bad chart size");
    let points: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().copied())
        .filter(|&(_, y)| y > 0.0)
        .collect();
    assert!(!points.is_empty(), "no positive data");
    let x_min = points.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let x_max = points.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
    let y_min = points
        .iter()
        .map(|p| p.1)
        .fold(f64::INFINITY, f64::min)
        .ln();
    let y_max = points
        .iter()
        .map(|p| p.1)
        .fold(f64::NEG_INFINITY, f64::max)
        .ln();
    let col = |x: f64| -> usize {
        if x_max == x_min {
            0
        } else {
            (((x - x_min) / (x_max - x_min)) * (width - 1) as f64).round() as usize
        }
    };
    let row = |y: f64| -> usize {
        if y_max == y_min {
            0
        } else {
            (((y.ln() - y_min) / (y_max - y_min)) * (height - 1) as f64).round() as usize
        }
    };
    let mut grid = vec![vec![' '; width]; height];
    for &(marker, pts) in series {
        for &(x, y) in pts {
            if y > 0.0 {
                let (r, c) = (height - 1 - row(y), col(x));
                if grid[r][c] == ' ' {
                    grid[r][c] = marker;
                }
            }
        }
    }
    let mut out = String::new();
    for (r, line) in grid.iter().enumerate() {
        let edge = if r == 0 {
            format!("{:>9.0} ", y_max.exp())
        } else if r == height - 1 {
            format!("{:>9.0} ", y_min.exp())
        } else {
            " ".repeat(10)
        };
        out.push_str(&edge);
        out.push('|');
        out.extend(line.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "{:>10} {:<.0}{:>width$.0}\n",
        "",
        x_min,
        x_max,
        width = width - 1
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_session_writes_requested_artifacts() {
        let dir = std::env::temp_dir().join(format!("fnpr_bench_obs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("metrics.json");
        let trace = dir.join("trace.json");
        let session = ObsSession::new(
            "obs-session-test",
            Some(metrics.clone()),
            Some(trace.clone()),
        );
        fnpr_obs::counter("bench.obs.session.test").incr();
        drop(fnpr_obs::span("bench.obs.session", "bench"));
        session.flush();
        let metrics_text = std::fs::read_to_string(&metrics).unwrap();
        assert!(metrics_text.contains("\"label\": \"obs-session-test\""));
        assert!(metrics_text.contains("\"bench.obs.session.test\": 1"));
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_text.contains("\"traceEvents\""));
        assert!(trace_text.contains("bench.obs.session"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn obs_session_without_targets_writes_nothing() {
        // No paths: flush is a no-op and must not enable anything new or
        // touch the filesystem.
        ObsSession::new("idle", None, None).flush();
    }

    #[test]
    fn grid_is_increasing_and_spans_the_axis() {
        let grid = figure5_q_grid();
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        assert!(*grid.first().unwrap() > 10.0);
        assert!(*grid.last().unwrap() <= 2000.0);
        assert!(grid.len() > 100);
    }

    #[test]
    fn csv_value_formats() {
        assert_eq!(csv_value(Some(1.5)), "1.500");
        assert_eq!(csv_value(None), "divergent");
    }

    #[test]
    fn chart_places_extremes() {
        let sota = [(10.0, 1000.0), (100.0, 100.0), (1000.0, 10.0)];
        let alg1 = [(10.0, 100.0), (100.0, 20.0), (1000.0, 10.0)];
        let rendered = ascii_log_chart(&[('S', &sota[..]), ('a', &alg1[..])], 40, 10);
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 11);
        // Top row carries the y-max label and the SOTA's first point.
        assert!(lines[0].contains("1000"));
        assert!(lines[0].contains('S'));
        // Both series appear.
        assert!(rendered.contains('a'));
        // Log scale: SOTA's mid point (100) sits mid-chart, not near top.
        let mid_rows: String = lines[3..7].concat();
        assert!(mid_rows.contains('S'));
    }

    #[test]
    #[should_panic(expected = "no positive data")]
    fn chart_rejects_empty() {
        let empty: [(f64, f64); 0] = [];
        let _ = ascii_log_chart(&[('x', &empty[..])], 10, 5);
    }
}
