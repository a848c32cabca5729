//! The `MetricsReport` snapshot: everything the registry knows, as
//! versioned JSON (the CLI's `--metrics PATH`).
//!
//! The report serializes to a `serde::Value` tree, with real objects for
//! the name → value maps, and the workspace's `serde_json` renders it: the
//! one JSON codec that also writes the result store and the run ledger.

use std::collections::BTreeMap;

use serde::{Serialize, Value};

/// Version of the metrics JSON layout. Bump on breaking shape changes so
/// downstream dashboards can dispatch.
///
/// * v1 — counters/gauges/histograms (count/sum/max) + run context.
/// * v2 — histograms gained `p50`/`p90`/`p99`; the report gained
///   `scenario` and `store_path` so a snapshot can be joined to its run
///   ledger row and warm store.
pub const METRICS_SCHEMA_VERSION: u64 = 2;

/// Aggregate view of one histogram.
///
/// The percentiles are estimates interpolated inside the power-of-two
/// buckets, so they carry at most one octave of error — plenty for
/// "did the tail move?" trend questions, and cheap enough to keep the
/// record path to three relaxed atomic adds.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

impl HistogramSnapshot {
    /// Builds a snapshot from raw cells, deriving p50/p90/p99 by linear
    /// interpolation within the power-of-two buckets (bucket `i >= 1`
    /// spans `[2^(i-1), 2^i - 1]`; bucket 0 is exactly zero). Percentile
    /// ranks are computed against the bucket total (not `count`) so a
    /// snapshot racing concurrent `record` calls stays internally
    /// consistent, and every estimate is clamped to the observed `max`.
    #[must_use]
    pub fn from_parts(count: u64, sum: u64, max: u64, buckets: &[u64; 64]) -> Self {
        Self {
            count,
            sum,
            max,
            p50: bucket_quantile(buckets, max, 0.50),
            p90: bucket_quantile(buckets, max, 0.90),
            p99: bucket_quantile(buckets, max, 0.99),
        }
    }
}

/// The value range a power-of-two bucket covers (inclusive).
fn bucket_range(index: usize) -> (f64, f64) {
    match index {
        0 => (0.0, 0.0),
        63 => (2f64.powi(62), u64::MAX as f64),
        i => (2f64.powi(i as i32 - 1), 2f64.powi(i as i32) - 1.0),
    }
}

/// Quantile `q` (in `[0, 1]`) estimated from power-of-two bucket counts:
/// walk buckets until the cumulative count covers rank `q * total`, then
/// interpolate linearly inside that bucket's value range. Returns 0 for an
/// empty histogram.
fn bucket_quantile(buckets: &[u64; 64], max: u64, q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = q * total as f64;
    let mut cumulative = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let before = cumulative as f64;
        cumulative += n;
        if (cumulative as f64) >= target {
            let (lo, hi) = bucket_range(i);
            let fraction = ((target - before) / n as f64).clamp(0.0, 1.0);
            let estimate = lo + fraction * (hi - lo);
            return estimate.min(max as f64);
        }
    }
    max as f64
}

/// A point-in-time snapshot of the whole registry plus run-level context,
/// serialized by [`MetricsReport::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Layout version ([`METRICS_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// What ran (e.g. the campaign name).
    pub label: String,
    /// Scenario identity (the campaign's scenario hash as hex; empty when
    /// the producer has no scenario notion, e.g. the figure binaries).
    /// Joins the snapshot to its run-ledger row.
    pub scenario: String,
    /// Result-store path of the run, when one was attached.
    pub store_path: Option<String>,
    /// Total work items of the run (0 when unknown).
    pub points_total: u64,
    /// Work items finished.
    pub points_done: u64,
    /// Wall-clock seconds of the run.
    pub elapsed_seconds: f64,
    /// Spans finished (see [`crate::span_count`]).
    pub span_count: u64,
    /// Every registered counter.
    pub counters: BTreeMap<String, u64>,
    /// Every registered gauge.
    pub gauges: BTreeMap<String, u64>,
    /// Every registered histogram.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsReport {
    /// Snapshots the registry now, stamping the run-level context fields.
    #[must_use]
    pub fn gather(label: &str, points_total: u64, points_done: u64, elapsed_seconds: f64) -> Self {
        Self {
            schema_version: METRICS_SCHEMA_VERSION,
            label: label.to_string(),
            scenario: String::new(),
            store_path: None,
            points_total,
            points_done,
            elapsed_seconds,
            span_count: crate::span_count(),
            counters: crate::counters_snapshot(),
            gauges: crate::gauges_snapshot(),
            histograms: crate::histograms_snapshot(),
        }
    }

    /// Stamps the scenario identity (builder-style, for producers that
    /// have one — see the `scenario` field).
    #[must_use]
    pub fn with_scenario(mut self, scenario: &str) -> Self {
        self.scenario = scenario.to_string();
        self
    }

    /// Stamps the result-store path (builder-style).
    #[must_use]
    pub fn with_store_path(mut self, store_path: Option<&str>) -> Self {
        self.store_path = store_path.map(str::to_string);
        self
    }

    /// Serializes the report as pretty-printed JSON (objects keyed by
    /// metric name, keys sorted — the maps are `BTreeMap`s).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut json = serde_json::to_string_pretty(self);
        json.push('\n');
        json
    }
}

impl Serialize for MetricsReport {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("schema_version".into(), self.schema_version.to_value()),
            ("label".into(), self.label.to_value()),
            ("scenario".into(), self.scenario.to_value()),
            ("store_path".into(), self.store_path.to_value()),
            ("points_total".into(), self.points_total.to_value()),
            ("points_done".into(), self.points_done.to_value()),
            ("elapsed_seconds".into(), self.elapsed_seconds.to_value()),
            ("span_count".into(), self.span_count.to_value()),
            ("counters".into(), object(&self.counters)),
            ("gauges".into(), object(&self.gauges)),
            ("histograms".into(), object(&self.histograms)),
        ])
    }
}

/// A name-keyed map as a JSON object: the shim serializes a `BTreeMap` as
/// `[key, value]` pairs.
fn object<V: Serialize>(map: &BTreeMap<String, V>) -> Value {
    Value::Map(
        map.iter()
            .map(|(name, value)| (name.clone(), value.to_value()))
            .collect(),
    )
}

/// `part` as a percentage of `total` (0.0 when `total` is 0) — the one
/// shared definition of "hit rate" every stderr report uses.
#[must_use]
pub fn percent(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 * 100.0 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_contains_required_keys() {
        let _read = crate::testsync::FLAG.read().unwrap();
        crate::set_enabled(true);
        crate::counter("test.report.key").add(3);
        let report = MetricsReport::gather("unit-test", 10, 7, 1.25)
            .with_scenario("00000000deadbeef")
            .with_store_path(Some("results.fnprstore"));
        let json = report.to_json();
        for key in [
            "\"schema_version\": 2",
            "\"label\": \"unit-test\"",
            "\"scenario\": \"00000000deadbeef\"",
            "\"store_path\": \"results.fnprstore\"",
            "\"points_total\": 10",
            "\"points_done\": 7",
            "\"elapsed_seconds\": 1.25",
            "\"span_count\":",
            "\"counters\": {",
            "\"test.report.key\": 3",
            "\"gauges\": {",
            "\"histograms\": {",
        ] {
            assert!(json.contains(key), "missing {key:?} in:\n{json}");
        }
    }

    #[test]
    fn absent_store_path_renders_as_null() {
        let report = MetricsReport::gather("unit-test", 0, 0, 0.0);
        assert!(report.to_json().contains("\"store_path\": null"));
        assert!(report.to_json().contains("\"scenario\": \"\""));
    }

    #[test]
    fn histogram_json_carries_percentiles() {
        let _read = crate::testsync::FLAG.read().unwrap();
        crate::set_enabled(true);
        let h = crate::histogram("test.report.histo.percentiles");
        for v in [1, 2, 4, 8, 1000] {
            h.record(v);
        }
        let report = MetricsReport::gather("unit-test", 0, 0, 0.0);
        let json = report.to_json();
        for key in ["\"p50\":", "\"p90\":", "\"p99\":"] {
            assert!(json.contains(key), "missing {key:?} in:\n{json}");
        }
    }

    #[test]
    fn quantiles_of_an_empty_histogram_are_zero() {
        let snap = HistogramSnapshot::from_parts(0, 0, 0, &[0; 64]);
        assert_eq!((snap.p50, snap.p90, snap.p99), (0.0, 0.0, 0.0));
    }

    #[test]
    fn quantiles_are_monotone_and_clamped_to_max() {
        let mut buckets = [0u64; 64];
        // 90 small values (bucket 4: [8, 15]) and 10 large ones
        // (bucket 10: [512, 1023], observed max 600).
        buckets[4] = 90;
        buckets[10] = 10;
        let snap = HistogramSnapshot::from_parts(100, 0, 600, &buckets);
        assert!(snap.p50 >= 8.0 && snap.p50 <= 15.0, "p50 = {}", snap.p50);
        assert!(snap.p90 <= snap.p99, "p90 {} > p99 {}", snap.p90, snap.p99);
        assert!(snap.p50 <= snap.p90);
        assert!(snap.p99 <= 600.0, "p99 {} beyond observed max", snap.p99);
        assert!(snap.p99 >= 512.0, "p99 {} below the tail bucket", snap.p99);
    }

    #[test]
    fn quantiles_interpolate_inside_a_single_bucket() {
        let mut buckets = [0u64; 64];
        buckets[7] = 100; // [64, 127]
        let snap = HistogramSnapshot::from_parts(100, 0, 127, &buckets);
        assert!(snap.p50 > 64.0 && snap.p50 < 127.0, "p50 = {}", snap.p50);
        assert!(snap.p90 > snap.p50);
    }

    #[test]
    fn zero_only_histogram_quantiles_are_zero() {
        let mut buckets = [0u64; 64];
        buckets[0] = 5;
        let snap = HistogramSnapshot::from_parts(5, 0, 0, &buckets);
        assert_eq!((snap.p50, snap.p90, snap.p99), (0.0, 0.0, 0.0));
    }

    #[test]
    fn top_bucket_quantile_stays_finite() {
        let mut buckets = [0u64; 64];
        buckets[63] = 4;
        let snap = HistogramSnapshot::from_parts(4, 0, u64::MAX, &buckets);
        assert!(snap.p99.is_finite());
        assert!(snap.p99 <= u64::MAX as f64);
    }

    /// A report with no registry entries, its float field set to `seconds`.
    fn empty_report(seconds: f64) -> MetricsReport {
        MetricsReport {
            schema_version: METRICS_SCHEMA_VERSION,
            label: String::new(),
            scenario: String::new(),
            store_path: None,
            points_total: 0,
            points_done: 0,
            elapsed_seconds: seconds,
            span_count: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    #[test]
    fn floats_always_render_as_json_numbers_or_null() {
        let json = |seconds: f64| empty_report(seconds).to_json();
        assert!(json(1.25).contains("\"elapsed_seconds\": 1.25,"));
        assert!(json(3.0).contains("\"elapsed_seconds\": 3.0,"));
        assert!(json(0.5).contains("\"elapsed_seconds\": 0.5,"));
        // JSON has no NaN or infinity.
        assert!(json(f64::NAN).contains("\"elapsed_seconds\": null,"));
        assert!(json(f64::INFINITY).contains("\"elapsed_seconds\": null,"));
    }

    #[test]
    fn percent_is_safe_at_zero_total() {
        assert_eq!(percent(0, 0), 0.0);
        assert_eq!(percent(1, 2), 50.0);
        assert_eq!(percent(8, 8), 100.0);
    }

    #[test]
    fn empty_maps_render_as_empty_objects() {
        let json = empty_report(0.0).to_json();
        for map in ["\"counters\": {}", "\"gauges\": {}", "\"histograms\": {}"] {
            assert!(json.contains(map), "{json}");
        }
    }
}
