//! Regression watch over the run ledger.
//!
//! The `fnpr-campaign history` subcommand is a thin shell around this
//! module: read a ledger (see [`crate::ledger`]), group runs by
//! scenario hash, compare each scenario's **latest** run against the
//! **trailing median** of the runs before it, and render the result as a
//! terminal trend table or a self-contained HTML dashboard. Under
//! `--check` a detected regression exits nonzero — the CI gate for
//! campaign performance, the way `BENCH_FAIL_ON_REGRESSION` gates the
//! microbenches.
//!
//! A *regression* is either throughput (points/sec) falling more than the
//! allowed fraction below the trailing median, or tail latency (p99)
//! rising more than that fraction above it. Hit rates are displayed as
//! trend context but not gated: a cold store legitimately collapses the
//! restore rate without the binary getting slower.

use crate::ledger::{LedgerView, RunRecord};

/// How many runs preceding the latest feed the trailing median (fewer
/// when the ledger is shorter).
const WINDOW: usize = 8;

/// Why a scenario's latest run counts as regressed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Regression {
    /// Throughput drop vs the trailing median, as a percentage (present
    /// when it exceeded the allowance).
    pub throughput_drop_pct: Option<f64>,
    /// p99 rise vs the trailing median, as a percentage (present when it
    /// exceeded the allowance).
    pub p99_rise_pct: Option<f64>,
}

/// One scenario's run history plus the latest-vs-baseline verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioTrend {
    /// The scenario hash (hex) the runs share.
    pub scenario: String,
    /// Campaign name of the latest run (names may drift; the hash is the
    /// identity).
    pub name: String,
    /// Workload kind of the latest run.
    pub workload: String,
    /// Every run of this scenario, oldest first (ledger order).
    pub runs: Vec<RunRecord>,
    /// Trailing-median throughput baseline (`None` with fewer than 2
    /// runs — nothing to compare against).
    pub baseline_points_per_sec: Option<f64>,
    /// Trailing-median p99 baseline.
    pub baseline_p99_us: Option<f64>,
    /// The verdict, when the latest run regressed.
    pub regression: Option<Regression>,
}

/// Groups ledger records by scenario hash (first-seen order) and compares
/// each scenario's latest run against the trailing median of up to 8 runs
/// before it. `max_regression` is the allowed fractional change before a
/// run counts as regressed (0.2 = 20% slower throughput or 20% higher p99).
#[must_use]
pub fn analyze(view: &LedgerView, max_regression: f64) -> Vec<ScenarioTrend> {
    let mut order: Vec<&str> = Vec::new();
    for record in &view.records {
        if !order.contains(&record.scenario.as_str()) {
            order.push(&record.scenario);
        }
    }
    order
        .into_iter()
        .map(|scenario| {
            let runs: Vec<RunRecord> = view
                .records
                .iter()
                .filter(|r| r.scenario == scenario)
                .cloned()
                .collect();
            trend_for(scenario, runs, max_regression)
        })
        .collect()
}

fn trend_for(scenario: &str, runs: Vec<RunRecord>, max_regression: f64) -> ScenarioTrend {
    let latest = runs.last().expect("a trend group is never empty");
    let prior = &runs[..runs.len() - 1];
    let window = &prior[prior.len().saturating_sub(WINDOW)..];
    let baseline_pps = median(window.iter().map(|r| r.points_per_sec));
    let baseline_p99 = median(window.iter().map(|r| r.p99_us));
    let mut regression = Regression {
        throughput_drop_pct: None,
        p99_rise_pct: None,
    };
    if let Some(base) = baseline_pps {
        if base > 0.0 && latest.points_per_sec < base * (1.0 - max_regression) {
            regression.throughput_drop_pct = Some((1.0 - latest.points_per_sec / base) * 100.0);
        }
    }
    if let Some(base) = baseline_p99 {
        if base > 0.0 && latest.p99_us > base * (1.0 + max_regression) {
            regression.p99_rise_pct = Some((latest.p99_us / base - 1.0) * 100.0);
        }
    }
    let regressed = regression.throughput_drop_pct.is_some() || regression.p99_rise_pct.is_some();
    ScenarioTrend {
        scenario: scenario.to_string(),
        name: latest.name.clone(),
        workload: latest.workload.clone(),
        baseline_points_per_sec: baseline_pps,
        baseline_p99_us: baseline_p99,
        regression: regressed.then_some(regression),
        runs,
    }
}

/// Median of a float series; `None` when empty. Non-finite values are
/// dropped first (a ledger row can legally carry 0-division artifacts
/// from a pathological run; they must not poison the baseline).
fn median(values: impl Iterator<Item = f64>) -> Option<f64> {
    let mut values: Vec<f64> = values.filter(|v| v.is_finite()).collect();
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

/// Whether any scenario's latest run regressed (the `--check` verdict).
#[must_use]
pub fn any_regression(trends: &[ScenarioTrend]) -> bool {
    trends.iter().any(|t| t.regression.is_some())
}

/// The hit-rate pair a run's memo counters imply.
fn memo_rate(run: &RunRecord) -> f64 {
    fnpr_obs::percent(run.memo_hits, run.memo_hits + run.memo_misses)
}

fn restore_rate(run: &RunRecord) -> f64 {
    fnpr_obs::percent(
        run.points_restored,
        run.points_restored + run.points_computed,
    )
}

/// Renders the terminal trend tables: one block per scenario, one row per
/// run, and a latest-vs-baseline verdict line against the `max_regression`
/// allowance.
#[must_use]
pub fn render_table(trends: &[ScenarioTrend], max_regression: f64) -> String {
    let mut out = String::new();
    for trend in trends {
        out.push_str(&format!(
            "scenario {} — {:?} ({}), {} run{}\n",
            trend.scenario,
            trend.name,
            trend.workload,
            trend.runs.len(),
            if trend.runs.len() == 1 { "" } else { "s" },
        ));
        out.push_str(
            "  run   points  threads   points/s      p50_us      p99_us   memo%  restored%\n",
        );
        for (i, run) in trend.runs.iter().enumerate() {
            out.push_str(&format!(
                "  {:>3}  {:>7}  {:>7}  {:>9.1}  {:>10.1}  {:>10.1}  {:>5.1}%  {:>8.1}%\n",
                i + 1,
                run.grid_points,
                run.threads,
                run.points_per_sec,
                run.p50_us,
                run.p99_us,
                memo_rate(run),
                restore_rate(run),
            ));
        }
        match (trend.baseline_points_per_sec, trend.runs.last()) {
            (Some(base_pps), Some(latest)) => {
                let base_p99 = trend.baseline_p99_us.unwrap_or(0.0);
                let pps_delta = if base_pps > 0.0 {
                    (latest.points_per_sec / base_pps - 1.0) * 100.0
                } else {
                    0.0
                };
                let p99_delta = if base_p99 > 0.0 {
                    (latest.p99_us / base_p99 - 1.0) * 100.0
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "  latest vs trailing median: points/s {pps_delta:+.1}%, p99 {p99_delta:+.1}% \
                     (allowed \u{b1}{:.1}%)",
                    max_regression * 100.0,
                ));
                match &trend.regression {
                    Some(r) => {
                        out.push_str(" — REGRESSION");
                        if let Some(drop) = r.throughput_drop_pct {
                            out.push_str(&format!(" [throughput -{drop:.1}%]"));
                        }
                        if let Some(rise) = r.p99_rise_pct {
                            out.push_str(&format!(" [p99 +{rise:.1}%]"));
                        }
                        out.push('\n');
                    }
                    None => out.push_str(" — ok\n"),
                }
            }
            _ => out.push_str("  single run — no baseline yet\n"),
        }
        out.push('\n');
    }
    if trends.is_empty() {
        out.push_str("ledger holds no valid run records\n");
    }
    out
}

/// Renders the self-contained HTML dashboard: per-scenario run tables with
/// inline SVG sparklines for throughput and p99 (no external assets, no
/// scripts — the file works from `file://` and CI artifact viewers).
#[must_use]
pub fn render_html(trends: &[ScenarioTrend], max_regression: f64) -> String {
    let mut out = String::new();
    out.push_str(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n\
         <title>fnpr-campaign run history</title>\n<style>\n\
         body{font:14px/1.45 system-ui,sans-serif;margin:2rem;color:#222}\n\
         table{border-collapse:collapse;margin:0.5rem 0 1rem}\n\
         th,td{padding:0.2rem 0.7rem;text-align:right;border-bottom:1px solid #ddd}\n\
         th{background:#f5f5f5}\n\
         .ok{color:#1a7f37}.bad{color:#b42318;font-weight:600}\n\
         .spark{vertical-align:middle;margin-right:1rem}\n\
         code{background:#f5f5f5;padding:0 0.25rem}\n\
         </style></head><body>\n<h1>fnpr-campaign run history</h1>\n",
    );
    out.push_str(&format!(
        "<p>{} scenario{}, regression allowance \u{b1}{:.1}%.</p>\n",
        trends.len(),
        if trends.len() == 1 { "" } else { "s" },
        max_regression * 100.0,
    ));
    for trend in trends {
        out.push_str(&format!(
            "<h2><code>{}</code> — {} ({})</h2>\n",
            html_escape(&trend.scenario),
            html_escape(&trend.name),
            html_escape(&trend.workload),
        ));
        let verdict = match &trend.regression {
            Some(r) => {
                let mut parts = Vec::new();
                if let Some(drop) = r.throughput_drop_pct {
                    parts.push(format!("throughput &minus;{drop:.1}%"));
                }
                if let Some(rise) = r.p99_rise_pct {
                    parts.push(format!("p99 +{rise:.1}%"));
                }
                format!(
                    "<p class=\"bad\">REGRESSION vs trailing median: {}</p>\n",
                    parts.join(", ")
                )
            }
            None if trend.runs.len() > 1 => {
                "<p class=\"ok\">latest run within allowance</p>\n".to_string()
            }
            None => "<p>single run — no baseline yet</p>\n".to_string(),
        };
        out.push_str(&verdict);
        let pps: Vec<f64> = trend.runs.iter().map(|r| r.points_per_sec).collect();
        let p99: Vec<f64> = trend.runs.iter().map(|r| r.p99_us).collect();
        out.push_str("<p>");
        out.push_str(&sparkline("points/s", &pps));
        out.push_str(&sparkline("p99 µs", &p99));
        out.push_str("</p>\n");
        out.push_str(
            "<table><tr><th>run</th><th>points</th><th>threads</th><th>points/s</th>\
             <th>p50 µs</th><th>p90 µs</th><th>p99 µs</th><th>memo hit</th>\
             <th>restored</th><th>wall s</th></tr>\n",
        );
        for (i, run) in trend.runs.iter().enumerate() {
            out.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{:.1}</td><td>{:.1}</td>\
                 <td>{:.1}</td><td>{:.1}</td><td>{:.1}%</td><td>{:.1}%</td><td>{:.3}</td></tr>\n",
                i + 1,
                run.grid_points,
                run.threads,
                run.points_per_sec,
                run.p50_us,
                run.p90_us,
                run.p99_us,
                memo_rate(run),
                restore_rate(run),
                run.wall_seconds,
            ));
        }
        out.push_str("</table>\n");
    }
    if trends.is_empty() {
        out.push_str("<p>ledger holds no valid run records</p>\n");
    }
    out.push_str("</body></html>\n");
    out
}

/// A labelled inline-SVG sparkline over `values` (min-max scaled into a
/// fixed 160x40 box; a single point renders as a dot).
fn sparkline(label: &str, values: &[f64]) -> String {
    const W: f64 = 160.0;
    const H: f64 = 40.0;
    const PAD: f64 = 3.0;
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return String::new();
    }
    let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = if hi > lo { hi - lo } else { 1.0 };
    let x = |i: usize| {
        if finite.len() == 1 {
            W / 2.0
        } else {
            PAD + i as f64 / (finite.len() - 1) as f64 * (W - 2.0 * PAD)
        }
    };
    let y = |v: f64| H - PAD - (v - lo) / span * (H - 2.0 * PAD);
    let points: Vec<String> = finite
        .iter()
        .enumerate()
        .map(|(i, &v)| format!("{:.1},{:.1}", x(i), y(v)))
        .collect();
    let last = finite.len() - 1;
    format!(
        "<svg class=\"spark\" width=\"{W}\" height=\"{H}\" viewBox=\"0 0 {W} {H}\" \
         role=\"img\" aria-label=\"{label}\">\
         <title>{label}: {lo:.1}..{hi:.1}</title>\
         <polyline fill=\"none\" stroke=\"#0969da\" stroke-width=\"1.5\" points=\"{}\"/>\
         <circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"2.5\" fill=\"#0969da\"/>\
         </svg><small>{label}</small>",
        points.join(" "),
        x(last),
        y(finite[last]),
    )
}

/// Minimal HTML text escaping for the ledger-sourced strings.
fn html_escape(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '&' => "&amp;".to_string(),
            '<' => "&lt;".to_string(),
            '>' => "&gt;".to_string(),
            '"' => "&quot;".to_string(),
            c => c.to_string(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(scenario: &str, points_per_sec: f64, p99_us: f64) -> RunRecord {
        RunRecord {
            schema: crate::ledger::LEDGER_SCHEMA_VERSION,
            unix_seconds: 1_700_000_000,
            name: "trend-test".to_string(),
            scenario: scenario.to_string(),
            workload: "acceptance".to_string(),
            grid_points: 8,
            threads: 2,
            wall_seconds: 8.0 / points_per_sec.max(1e-9),
            points_per_sec,
            memo_hits: 4,
            memo_misses: 4,
            points_restored: 8,
            points_computed: 0,
            p50_us: p99_us / 4.0,
            p90_us: p99_us / 2.0,
            p99_us,
            max_us: (p99_us * 1.5) as u64,
        }
    }

    fn view(records: Vec<RunRecord>) -> LedgerView {
        LedgerView {
            records,
            invalid: 0,
            stale: 0,
        }
    }

    #[test]
    fn steady_history_passes() {
        let v = view(vec![
            run("aaaa", 100.0, 900.0),
            run("aaaa", 104.0, 880.0),
            run("aaaa", 98.0, 910.0),
            run("aaaa", 101.0, 905.0),
        ]);
        let trends = analyze(&v, 0.20);
        assert_eq!(trends.len(), 1);
        assert!(trends[0].regression.is_none());
        assert!(!any_regression(&trends));
    }

    #[test]
    fn degraded_final_row_is_a_throughput_regression() {
        // The synthetic-regression fixture of the acceptance criteria:
        // a healthy history whose final run collapses to half throughput.
        let v = view(vec![
            run("aaaa", 100.0, 900.0),
            run("aaaa", 102.0, 890.0),
            run("aaaa", 99.0, 905.0),
            run("aaaa", 50.0, 902.0),
        ]);
        let trends = analyze(&v, 0.20);
        let regression = trends[0].regression.expect("must detect the collapse");
        let drop = regression.throughput_drop_pct.expect("throughput side");
        assert!((drop - 50.0).abs() < 1.0, "drop = {drop}");
        assert!(regression.p99_rise_pct.is_none());
        assert!(any_regression(&trends));
    }

    #[test]
    fn tail_blowup_is_a_p99_regression() {
        let v = view(vec![
            run("aaaa", 100.0, 900.0),
            run("aaaa", 101.0, 910.0),
            run("aaaa", 100.5, 2000.0),
        ]);
        let trends = analyze(&v, 0.20);
        let regression = trends[0].regression.expect("must detect the tail");
        assert!(regression.p99_rise_pct.is_some());
        assert!(regression.throughput_drop_pct.is_none());
    }

    #[test]
    fn allowance_is_respected() {
        // 15% drop passes a 20% gate and fails a 10% one.
        let v = view(vec![run("aaaa", 100.0, 900.0), run("aaaa", 85.0, 900.0)]);
        assert!(analyze(&v, 0.20)[0].regression.is_none());
        assert!(analyze(&v, 0.10)[0].regression.is_some());
    }

    #[test]
    fn scenarios_group_independently_in_first_seen_order() {
        let v = view(vec![
            run("bbbb", 10.0, 900.0),
            run("aaaa", 100.0, 900.0),
            run("bbbb", 11.0, 890.0),
            run("aaaa", 20.0, 900.0), // aaaa collapses, bbbb is fine
        ]);
        let trends = analyze(&v, 0.20);
        assert_eq!(trends.len(), 2);
        assert_eq!(trends[0].scenario, "bbbb");
        assert!(trends[0].regression.is_none());
        assert_eq!(trends[1].scenario, "aaaa");
        assert!(trends[1].regression.is_some());
    }

    #[test]
    fn single_run_has_no_baseline_and_never_regresses() {
        let trends = analyze(&view(vec![run("aaaa", 1.0, 1.0)]), 0.20);
        assert_eq!(trends[0].baseline_points_per_sec, None);
        assert!(trends[0].regression.is_none());
        assert!(render_table(&trends, 0.20).contains("no baseline"));
    }

    #[test]
    fn window_bounds_the_baseline() {
        // Ancient fast runs age out of the trailing window: behind
        // `WINDOW` slow predecessors the baseline is slow, so the latest
        // passes.
        let history = |slow: usize| {
            let fast = (0..5).map(|_| run("aaaa", 1000.0, 900.0));
            let slow = (0..slow).map(|i| run("aaaa", 50.0 + i as f64, 900.0));
            view(fast.chain(slow).chain([run("aaaa", 51.0, 900.0)]).collect())
        };
        assert!(analyze(&history(WINDOW), 0.20)[0].regression.is_none());
        // A window that still reaches the fast era flags it.
        assert!(analyze(&history(3), 0.20)[0].regression.is_some());
    }

    #[test]
    fn median_handles_even_odd_and_nonfinite() {
        assert_eq!(median([1.0, 3.0, 2.0].into_iter()), Some(2.0));
        assert_eq!(median([1.0, 2.0, 3.0, 4.0].into_iter()), Some(2.5));
        assert_eq!(median([f64::NAN, 5.0].into_iter()), Some(5.0));
        assert_eq!(median(std::iter::empty()), None);
        assert_eq!(median([f64::NAN].into_iter()), None);
    }

    #[test]
    fn table_flags_regressions_and_lists_every_run() {
        let v = view(vec![
            run("aaaa", 100.0, 900.0),
            run("aaaa", 100.0, 900.0),
            run("aaaa", 10.0, 900.0),
        ]);
        let trends = analyze(&v, 0.20);
        let table = render_table(&trends, 0.20);
        assert!(table.contains("scenario aaaa"), "{table}");
        assert!(table.contains("REGRESSION"), "{table}");
        assert!(table.contains("3 runs"), "{table}");
        // All three run rows present.
        assert_eq!(table.lines().filter(|l| l.contains("  8  ")).count(), 3);
    }

    #[test]
    fn empty_ledger_renders_gracefully() {
        let trends = analyze(&view(Vec::new()), 0.20);
        assert!(trends.is_empty());
        assert!(render_table(&trends, 0.20).contains("no valid run"));
        assert!(render_html(&trends, 0.20).contains("no valid run"));
    }

    #[test]
    fn html_is_self_contained_with_sparklines() {
        let v = view(vec![
            run("aaaa", 100.0, 900.0),
            run("aaaa", 90.0, 950.0),
            run("aaaa", 95.0, 940.0),
        ]);
        let trends = analyze(&v, 0.20);
        let html = render_html(&trends, 0.20);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"), "no sparkline");
        assert!(html.contains("<polyline"), "no polyline");
        // Self-contained: no external fetches, no scripts.
        assert!(!html.contains("http://"), "external reference");
        assert!(!html.contains("https://"), "external reference");
        assert!(!html.contains("<script"), "script tag");
    }

    #[test]
    fn html_escapes_ledger_sourced_strings() {
        let mut r = run("aaaa", 100.0, 900.0);
        r.name = "<img src=x onerror=alert(1)>".to_string();
        let trends = analyze(&view(vec![r]), 0.20);
        let html = render_html(&trends, 0.20);
        assert!(!html.contains("<img"), "unescaped name:\n{html}");
        assert!(html.contains("&lt;img"));
    }

    #[test]
    fn sparkline_survives_flat_and_single_series() {
        assert!(sparkline("x", &[5.0, 5.0, 5.0]).contains("<svg"));
        assert!(sparkline("x", &[5.0]).contains("<circle"));
        assert_eq!(sparkline("x", &[]), "");
        assert!(sparkline("x", &[f64::NAN]).is_empty());
    }
}
