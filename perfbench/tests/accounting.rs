//! Accounting checks on a tiny grid of each workload: span nesting, the
//! self-time closure per point, the Chrome trace export, and the output
//! check behind the failed-point count.

use std::collections::BTreeMap;

use fnpr_campaign::{run_campaign_with_store, Campaign, CampaignSpec};
use fnpr_perfbench::check;
use fnpr_perfbench::replay::replay;
use fnpr_perfbench::spans::{self, Tracer};
use serde::Value;

const WORKLOADS: [&str; 4] = ["acceptance", "soundness", "cfg", "multicore"];

/// A few points of `workload`, small enough for a unit test.
fn tiny(workload: &str) -> Campaign {
    let body = match workload {
        "acceptance" => {
            "[acceptance]\nsets_per_point = 4\nutilizations = { values = [0.5, 0.8] }\n\
             [acceptance.taskset]\nn = 4\nutilization = 0.0\n\
             period_range = [10.0, 1000.0]\ndeadline_factor = [1.0, 1.0]\n"
        }
        "soundness" => "[soundness]\ntrials = 12\nsimulate = true\n",
        "cfg" => {
            "[cfg]\nprograms_per_point = 2\ndepths = [2]\nloop_iterations = [4]\n\
             footprints = [8]\nsets = [16]\nassociativity = [1]\nline_bytes = [16]\n\
             reload_cost = [10.0]\nq_scales = { values = [0.3, 0.6] }\n"
        }
        "multicore" => {
            "[multicore]\nsets_per_point = 3\ncores = [2]\n\
             allocations = [\"first_fit\", \"global\"]\nutilizations = { values = [0.4] }\n\
             sim_per_point = 1\n"
        }
        other => panic!("unknown workload {other}"),
    };
    let text = format!("seed = 7\nworkload = \"{workload}\"\n{body}");
    CampaignSpec::parse(&text).unwrap().validate().unwrap()
}

fn traced(workload: &str) -> Tracer {
    let mut tracer = Tracer::new();
    let stats = replay(&tiny(workload), &mut tracer).unwrap();
    assert!(stats.points > 0, "{workload}: nothing replayed");
    tracer
}

#[test]
fn no_child_span_outlasts_its_parent() {
    for workload in WORKLOADS {
        let tracer = traced(workload);
        let list = tracer.spans();
        assert!(
            list.iter().any(|s| s.parent.is_some()),
            "{workload}: no calls"
        );
        for s in list {
            assert!(s.end_ns >= s.start_ns, "{workload}: {} ends first", s.name);
            if let Some(p) = s.parent {
                let parent = &list[p];
                assert!(
                    s.start_ns >= parent.start_ns && s.end_ns <= parent.end_ns,
                    "{workload}: {} outlasts {}",
                    s.name,
                    parent.name
                );
                assert_eq!(
                    s.point, parent.point,
                    "{workload}: {} crosses points",
                    s.name
                );
            }
        }
    }
}

#[test]
fn self_times_within_a_point_sum_to_the_point_span() {
    for workload in WORKLOADS {
        let tracer = traced(workload);
        let list = tracer.spans();
        let self_ns = spans::self_times(list);
        let mut per_point: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, ns) in list.iter().zip(&self_ns) {
            *per_point.entry(s.point).or_default() += ns;
        }
        let roots: Vec<_> = list.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(
            roots.len(),
            per_point.len(),
            "{workload}: one root per point"
        );
        for root in roots {
            assert_eq!(root.layer, spans::POINT_LAYER);
            assert_eq!(
                per_point[&root.point],
                root.duration_ns(),
                "{workload}: point {} self times do not add up",
                root.point
            );
        }
        let layers: f64 = spans::layer_seconds(list).values().sum();
        let points: f64 = list
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum();
        assert!(
            (layers - points).abs() < 1e-9,
            "{workload}: {layers} vs {points}"
        );
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let span = |start_ns, end_ns, parent| spans::SpanRecord {
        name: "x",
        layer: "core",
        point: 0,
        start_ns,
        end_ns,
        parent,
    };
    // Children [10, 40) and [30, 60) overlap; [90, 120) sticks out.
    let list = [
        span(0, 100, None),
        span(10, 40, Some(0)),
        span(30, 60, Some(0)),
        span(90, 120, Some(0)),
    ];
    assert_eq!(spans::self_times(&list), vec![100 - 50 - 10, 30, 30, 30]);
}

#[test]
fn span_export_parses_as_chrome_trace_events() {
    let tracer = traced("acceptance");
    let exported = spans::trace_events(tracer.spans());
    for (s, e) in tracer.spans().iter().zip(&exported) {
        if let Some(p) = s.parent {
            let parent = &exported[p];
            assert!(
                e.ts_us >= parent.ts_us && e.ts_us + e.dur_us <= parent.ts_us + parent.dur_us,
                "{} leaves {} in whole microseconds",
                s.name,
                tracer.spans()[p].name
            );
        }
    }
    let json = fnpr_obs::chrome_trace_json(&exported);
    let doc = serde_json::parse_value(&json).unwrap();
    let Value::Map(top) = doc else {
        panic!("trace is not an object");
    };
    let field = |map: &Vec<(String, Value)>, key: &str| -> Value {
        map.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap()
    };
    let Value::Seq(events) = field(&top, "traceEvents") else {
        panic!("traceEvents is not an array");
    };
    assert_eq!(events.len(), tracer.spans().len());
    for event in &events {
        let Value::Map(e) = event else {
            panic!("event is not an object");
        };
        assert!(matches!(field(e, "ph"), Value::Str(ref ph) if ph == "X"));
        assert!(matches!(field(e, "name"), Value::Str(_)));
        assert!(matches!(field(e, "cat"), Value::Str(_)));
        for key in ["ts", "dur"] {
            assert!(
                matches!(field(e, key), Value::Float(_) | Value::Int(_)),
                "{key}"
            );
        }
    }
}

#[test]
fn output_check_rejects_a_csv_with_one_altered_byte() {
    for workload in WORKLOADS {
        let outcome = run_campaign_with_store(&tiny(workload), Some(1), None).unwrap();
        let csv = outcome.report.to_csv();
        assert_eq!(
            check::failed_points(&csv, &csv, &outcome.report),
            0,
            "{workload}"
        );
        assert!(
            check::violating_points(&outcome.report).is_empty(),
            "{workload}"
        );
        assert_eq!(
            check::points(&outcome.report),
            csv.lines().count() - 1,
            "{workload}: one CSV row per point"
        );

        // Flip one digit in the last row.
        let mut bytes = csv.clone().into_bytes();
        let last_row = csv.trim_end().rfind('\n').unwrap() + 1;
        let at = (last_row..bytes.len())
            .find(|&i| bytes[i].is_ascii_digit())
            .unwrap();
        bytes[at] = if bytes[at] == b'1' { b'2' } else { b'1' };
        let altered = String::from_utf8(bytes).unwrap();
        assert_eq!(
            check::failed_points(&csv, &altered, &outcome.report),
            1,
            "{workload}: one altered byte must fail exactly one point"
        );
        assert_ne!(
            check::digest(csv.as_bytes()),
            check::digest(altered.as_bytes())
        );
    }
}
