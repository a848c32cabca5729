//! The metrics snapshot and Chrome trace writers as they were before both
//! documents went through the `serde_json` codec — `MetricsReport::to_json`
//! with `push_map` and `json_f64`, `chrome_trace_json` with `json_string` —
//! kept as a reference and compared with the crate on random inputs.
//!
//! Layout may differ; the documents may not. Both texts must parse with
//! `serde_json::parse_value` to equal trees, key order included. Floats
//! are drawn finite: the reference wrote a non-finite float as `0`, the
//! crate writes `null`.

use std::collections::BTreeMap;

use fnpr_obs::{HistogramSnapshot, MetricsReport, TraceEvent};
use proptest::prelude::*;

mod reference {
    use std::collections::BTreeMap;

    use fnpr_obs::{MetricsReport, TraceEvent};

    /// The reference writer of the snapshot. A trait, so the body keeps its
    /// `self`; call it as `Reference::to_json(&report)`.
    pub trait Reference {
        fn to_json(&self) -> String;
    }

    impl Reference for MetricsReport {
        fn to_json(&self) -> String {
            let mut out = String::new();
            out.push_str("{\n");
            out.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
            out.push_str(&format!("  \"label\": {},\n", json_string(&self.label)));
            out.push_str(&format!(
                "  \"scenario\": {},\n",
                json_string(&self.scenario)
            ));
            out.push_str(&format!(
                "  \"store_path\": {},\n",
                match &self.store_path {
                    Some(path) => json_string(path),
                    None => "null".to_string(),
                }
            ));
            out.push_str(&format!("  \"points_total\": {},\n", self.points_total));
            out.push_str(&format!("  \"points_done\": {},\n", self.points_done));
            out.push_str(&format!(
                "  \"elapsed_seconds\": {},\n",
                json_f64(self.elapsed_seconds)
            ));
            out.push_str(&format!("  \"span_count\": {},\n", self.span_count));
            push_map(&mut out, "counters", &self.counters, |v| v.to_string());
            out.push_str(",\n");
            push_map(&mut out, "gauges", &self.gauges, |v| v.to_string());
            out.push_str(",\n");
            push_map(&mut out, "histograms", &self.histograms, |h| {
                format!(
                    "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                    h.count,
                    h.sum,
                    h.max,
                    json_f64(h.p50),
                    json_f64(h.p90),
                    json_f64(h.p99)
                )
            });
            out.push_str("\n}\n");
            out
        }
    }

    /// Appends `"name": { "key": value, ... }` (no trailing newline/comma).
    fn push_map<V>(
        out: &mut String,
        name: &str,
        map: &BTreeMap<String, V>,
        render: impl Fn(&V) -> String,
    ) {
        out.push_str(&format!("  {}: {{", json_string(name)));
        for (i, (key, value)) in map.iter().enumerate() {
            let comma = if i + 1 < map.len() { "," } else { "" };
            out.push_str(&format!(
                "\n    {}: {}{comma}",
                json_string(key),
                render(value)
            ));
        }
        if map.is_empty() {
            out.push('}');
        } else {
            out.push_str("\n  }");
        }
    }

    /// JSON-safe float rendering: `Display` for finite values (shortest
    /// round-trip), `0` for non-finite ones (JSON has no NaN/inf).
    fn json_f64(v: f64) -> String {
        if v.is_finite() {
            let s = format!("{v}");
            // `Display` prints integral floats without a dot; keep them
            // unambiguously floats for typed consumers.
            if s.contains('.') || s.contains('e') || s.contains('E') {
                s
            } else {
                format!("{s}.0")
            }
        } else {
            "0".to_string()
        }
    }

    /// Serializes events as Chrome trace-event JSON (the object form with a
    /// `traceEvents` array of `ph: "X"` complete events).
    pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"traceEvents\":[\n");
        for (i, e) in events.iter().enumerate() {
            let args = match e.shard {
                Some(shard) => format!(",\"args\":{{\"shard\":{shard}}}"),
                None => String::new(),
            };
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}{args}}}{}\n",
                json_string(e.name),
                json_string(e.cat),
                e.ts_us,
                e.dur_us,
                e.tid,
                if i + 1 < events.len() { "," } else { "" },
            ));
        }
        out.push_str("]}\n");
        out
    }

    /// Escapes `s` as a JSON string literal (quotes included).
    fn json_string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }
}

use reference::Reference;

/// Both texts parse, to equal trees.
fn assert_same_document(old: &str, new: &str) {
    let old_tree = serde_json::parse_value(old).expect("the reference text parses");
    let new_tree = serde_json::parse_value(new).expect("the crate's text parses");
    assert_eq!(old_tree, new_tree, "\nreference: {old}\ncrate: {new}");
}

/// Characters names are drawn from: plain text, quotes, backslashes,
/// every kind of control character the writers escape, DEL, and non-ASCII
/// text of every UTF-8 length.
const NAME_CHARS: &[char] = &[
    'a', 'Z', '0', '.', ' ', '/', '{', ':', ',', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}',
    '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', 'é', '日', '\u{2028}', '😀',
];

fn arb_name() -> impl Strategy<Value = String> {
    prop::collection::vec(0..NAME_CHARS.len(), 0..10)
        .prop_map(|picks| picks.into_iter().map(|i| NAME_CHARS[i]).collect())
}

/// A random name with the `'static` lifetime trace events need.
fn arb_static_name() -> impl Strategy<Value = &'static str> {
    arb_name().prop_map(|name| &*Box::leak(name.into_boxed_str()))
}

/// Every `u64`, with the bounds and `i64::MAX` drawn often.
fn arb_u64() -> BoxedStrategy<u64> {
    const SPECIAL: &[u64] = &[0, 1, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX];
    prop_oneof![
        (0..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
        0u64..1_000_000,
        0u64..=u64::MAX,
    ]
    .boxed()
}

/// Finite floats: any finite bit pattern, integral values (which print
/// without a dot) and everyday magnitudes.
fn arb_float() -> BoxedStrategy<f64> {
    prop_oneof![
        (0u64..=u64::MAX).prop_map(|bits| {
            let f = f64::from_bits(bits);
            if f.is_finite() {
                f
            } else {
                -0.0
            }
        }),
        (0i32..1014, 0u64..1000).prop_map(|(e, m)| m as f64 * 2f64.powi(e)),
        0.0..1.0e6f64,
    ]
    .boxed()
}

fn arb_option<T: Clone + 'static>(inner: BoxedStrategy<T>) -> BoxedStrategy<Option<T>> {
    prop_oneof![Just(None), inner.prop_map(Some)].boxed()
}

/// Maps of zero to five entries.
fn arb_map<V: 'static>(value: BoxedStrategy<V>) -> BoxedStrategy<BTreeMap<String, V>> {
    prop::collection::vec((arb_name(), value), 0..6)
        .prop_map(|entries| entries.into_iter().collect())
        .boxed()
}

fn arb_histogram() -> BoxedStrategy<HistogramSnapshot> {
    (
        arb_u64(),
        arb_u64(),
        arb_u64(),
        arb_float(),
        arb_float(),
        arb_float(),
    )
        .prop_map(|(count, sum, max, p50, p90, p99)| HistogramSnapshot {
            count,
            sum,
            max,
            p50,
            p90,
            p99,
        })
        .boxed()
}

fn arb_event() -> BoxedStrategy<TraceEvent> {
    (
        arb_static_name(),
        arb_static_name(),
        arb_u64(),
        arb_u64(),
        arb_u64(),
        arb_option(arb_u64()),
    )
        .prop_map(|(name, cat, ts_us, dur_us, tid, shard)| TraceEvent {
            name,
            cat,
            ts_us,
            dur_us,
            tid,
            shard,
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn metrics_snapshot_matches_reference(
        label in arb_name(),
        scenario in arb_name(),
        store_path in arb_option(arb_name().boxed()),
        points in (arb_u64(), arb_u64(), arb_u64()),
        elapsed_seconds in arb_float(),
        counters in arb_map(arb_u64()),
        gauges in arb_map(arb_u64()),
        histograms in arb_map(arb_histogram()),
    ) {
        let (points_total, points_done, span_count) = points;
        let report = MetricsReport {
            schema_version: fnpr_obs::METRICS_SCHEMA_VERSION,
            label,
            scenario,
            store_path,
            points_total,
            points_done,
            elapsed_seconds,
            span_count,
            counters,
            gauges,
            histograms,
        };
        assert_same_document(&Reference::to_json(&report), &report.to_json());
    }

    #[test]
    fn chrome_trace_matches_reference(events in prop::collection::vec(arb_event(), 0..6)) {
        assert_same_document(
            &reference::chrome_trace_json(&events),
            &fnpr_obs::chrome_trace_json(&events),
        );
    }
}

/// The live registry's snapshot, as the CLI writes it, is the same
/// document under both writers.
#[test]
fn gathered_snapshot_matches_reference() {
    fnpr_obs::set_enabled(true);
    fnpr_obs::counter("test.reference.counter").add(7);
    fnpr_obs::gauge("test.reference.gauge").set(3);
    let histogram = fnpr_obs::histogram("test.reference.histogram");
    for v in [1, 2, 4, 8, 1000] {
        histogram.record(v);
    }
    let report = MetricsReport::gather("reference \"run\"", 10, 7, 1.25)
        .with_scenario("00000000deadbeef")
        .with_store_path(Some("results.fnprstore"));
    assert!(!report.histograms.is_empty());
    assert_same_document(&Reference::to_json(&report), &report.to_json());
}
