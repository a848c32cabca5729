//! Scoped spans and Chrome trace-event export.
//!
//! A [`Span`] measures a region of code on the monotonic clock and
//! attributes it to the recording thread (a small per-thread ordinal, not
//! the OS id — Perfetto tracks read better that way) and optionally to a
//! campaign shard. Spans are counted always (cheap), but full events are
//! buffered only while *trace collection* is on
//! ([`set_trace_collection`]) — a million-point campaign should be able
//! to run with `--metrics` without buffering a million span records.
//!
//! The export format is the Chrome trace-event JSON array format
//! (`{"traceEvents": [...]}` with `ph: "X"` complete events, microsecond
//! timestamps relative to the first span): load the file in
//! `chrome://tracing` or drop it into <https://ui.perfetto.dev>.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use serde::{Serialize, Value};

/// Whether finished spans are buffered as trace events ([`Span`] cost
/// stays a counter bump otherwise).
static TRACE_ON: AtomicBool = AtomicBool::new(false);

/// Total spans finished since process start (or the last
/// [`reset`](crate::reset)); counted whenever telemetry is enabled,
/// regardless of trace collection.
static SPAN_COUNT: AtomicU64 = AtomicU64::new(0);

/// Hard cap on buffered trace events; beyond it spans are counted but
/// their events dropped (tracked by the `obs.trace.dropped` counter), so
/// an unexpectedly huge campaign degrades instead of exhausting memory.
const TRACE_EVENT_CAP: usize = 1 << 20;

/// Turns trace-event buffering on or off (requires
/// [`crate::set_enabled`] too — spans are inert while telemetry is off).
pub fn set_trace_collection(on: bool) {
    TRACE_ON.store(on, Ordering::Relaxed);
}

/// Whether finished spans are currently buffered as trace events.
#[must_use]
pub fn trace_collection() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

/// Spans finished so far (whenever telemetry was enabled).
#[must_use]
pub fn span_count() -> u64 {
    SPAN_COUNT.load(Ordering::Relaxed)
}

/// Zeroes the span count and drops buffered events (test support).
pub(crate) fn reset() {
    SPAN_COUNT.store(0, Ordering::Relaxed);
    buffer().lock().expect("trace buffer poisoned").clear();
}

/// The trace epoch: timestamps are microseconds since the first span of
/// the process, which keeps them small and the JSON compact.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn buffer() -> &'static Mutex<Vec<TraceEvent>> {
    static BUFFER: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    BUFFER.get_or_init(|| Mutex::new(Vec::new()))
}

/// Small dense per-thread ordinal (1, 2, 3…) used as the trace `tid`.
fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

/// One finished span, in Chrome trace-event terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (e.g. `pipeline.occupancy`).
    pub name: &'static str,
    /// Category (the owning layer, e.g. `pipeline`).
    pub cat: &'static str,
    /// Start, microseconds since the trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Recording thread's dense ordinal.
    pub tid: u64,
    /// Campaign shard index, when attributed.
    pub shard: Option<u64>,
}

struct ActiveSpan {
    name: &'static str,
    cat: &'static str,
    shard: Option<u64>,
    start: Instant,
}

/// A scope guard measuring from construction to drop. Obtain via
/// [`span`]/[`span_shard`]; inert (zero work on drop) when telemetry is
/// disabled at construction.
pub struct Span {
    active: Option<ActiveSpan>,
}

/// Opens a span named `name` in category `cat` (the owning layer).
#[inline]
#[must_use]
pub fn span(name: &'static str, cat: &'static str) -> Span {
    begin(name, cat, None)
}

/// [`span`] attributed to campaign shard `shard`.
#[inline]
#[must_use]
pub fn span_shard(name: &'static str, cat: &'static str, shard: u64) -> Span {
    begin(name, cat, Some(shard))
}

#[inline]
fn begin(name: &'static str, cat: &'static str, shard: Option<u64>) -> Span {
    if !crate::enabled() {
        return Span { active: None };
    }
    // Touch the epoch before taking the start time so `start >= epoch`
    // holds for the very first span too.
    let _ = epoch();
    Span {
        active: Some(ActiveSpan {
            name,
            cat,
            shard,
            start: Instant::now(),
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        SPAN_COUNT.fetch_add(1, Ordering::Relaxed);
        if !trace_collection() {
            return;
        }
        let end = Instant::now();
        let ts_us = active
            .start
            .checked_duration_since(epoch())
            .map_or(0, |d| d.as_micros() as u64);
        let dur_us = end
            .checked_duration_since(active.start)
            .map_or(0, |d| d.as_micros() as u64);
        let event = TraceEvent {
            name: active.name,
            cat: active.cat,
            ts_us,
            dur_us,
            tid: thread_ordinal(),
            shard: active.shard,
        };
        let mut buf = buffer().lock().expect("trace buffer poisoned");
        if buf.len() < TRACE_EVENT_CAP {
            buf.push(event);
        } else {
            drop(buf);
            crate::counter!("obs.trace.dropped").incr();
        }
    }
}

/// Drains and returns every buffered trace event.
#[must_use]
pub fn take_trace_events() -> Vec<TraceEvent> {
    std::mem::take(&mut *buffer().lock().expect("trace buffer poisoned"))
}

/// Serializes events as Chrome trace-event JSON (the object form with a
/// `traceEvents` array of `ph: "X"` complete events).
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    // One event's tree at a time: the whole trace as one tree would take
    // about 0.9 KB per event, against about 100 bytes of text.
    let mut json = String::from("{\"traceEvents\":");
    serde_json::append_seq(&mut json, events);
    json.push_str("}\n");
    json
}

impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        let args = self.shard.map(|shard| {
            let args = Value::Map(vec![("shard".into(), shard.to_value())]);
            ("args".into(), args)
        });
        let fields = [
            ("name".into(), self.name.to_value()),
            ("cat".into(), self.cat.to_value()),
            ("ph".into(), "X".to_value()),
            ("ts".into(), self.ts_us.to_value()),
            ("dur".into(), self.dur_us.to_value()),
            ("pid".into(), Value::Int(1)),
            ("tid".into(), self.tid.to_value()),
        ];
        Value::Map(fields.into_iter().chain(args).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_count_only_when_enabled() {
        let _write = crate::testsync::FLAG.write().unwrap();
        let was = crate::enabled();
        crate::set_enabled(false);
        let before = span_count();
        {
            let _s = span("test.span.off", "test");
        }
        assert_eq!(span_count(), before);
        crate::set_enabled(true);
        {
            let _s = span("test.span.on", "test");
        }
        assert!(span_count() > before);
        crate::set_enabled(was);
    }

    #[test]
    fn trace_events_record_attribution() {
        let _read = crate::testsync::FLAG.read().unwrap();
        crate::set_enabled(true);
        set_trace_collection(true);
        {
            let _s = span_shard("test.span.shard", "test", 42);
        }
        set_trace_collection(false);
        let events = take_trace_events();
        let ours: Vec<_> = events
            .iter()
            .filter(|e| e.name == "test.span.shard")
            .collect();
        assert!(!ours.is_empty());
        assert_eq!(ours[0].shard, Some(42));
        assert!(ours[0].tid >= 1);
    }

    #[test]
    fn chrome_json_shape_is_valid() {
        let events = vec![
            TraceEvent {
                name: "a",
                cat: "test",
                ts_us: 0,
                dur_us: 10,
                tid: 1,
                shard: Some(3),
            },
            TraceEvent {
                name: "b \"quoted\"",
                cat: "test",
                ts_us: 5,
                dur_us: 2,
                tid: 2,
                shard: None,
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"args\":{\"shard\":3}"));
        assert!(json.contains("b \\\"quoted\\\""));
        // Exactly the two events, in order.
        assert_eq!(parsed_names(&json), ["a", "b \"quoted\""]);
    }

    #[test]
    fn streamed_trace_matches_the_whole_tree() {
        const NAMES: [&str; 4] = [
            "plain",
            "say \"hi\"",
            "ctl\u{0}\u{1}\n\u{1f}",
            "back\\slash",
        ];
        let many: Vec<TraceEvent> = (0..40u64)
            .map(|i| TraceEvent {
                name: NAMES[i as usize % NAMES.len()],
                cat: "c\tat",
                ts_us: i * 7,
                dur_us: u64::MAX - i,
                tid: i % 3 + 1,
                shard: (i % 2 == 0).then_some(i),
            })
            .collect();
        for events in [&[][..], &many[..1], &many[1..2], &many] {
            let tree = Value::Map(vec![("traceEvents".into(), events.to_value())]);
            let whole = serde_json::value_to_string(&tree) + "\n";
            assert_eq!(chrome_trace_json(events), whole);
        }
    }

    /// The event names of a trace document, read back by the shim parser.
    fn parsed_names(json: &str) -> Vec<String> {
        let doc = serde_json::parse_value(json).unwrap_or_else(|e| panic!("unparseable: {e}"));
        doc.get("traceEvents")
            .and_then(Value::as_seq)
            .unwrap()
            .iter()
            .map(|e| e.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    /// One event named `name`, for the escaping tests.
    fn named(name: &'static str) -> TraceEvent {
        TraceEvent {
            name,
            cat: "test",
            ts_us: 0,
            dur_us: 1,
            tid: 1,
            shard: None,
        }
    }

    #[test]
    fn trace_names_escape_controls() {
        let json = chrome_trace_json(&[
            named("plain"),
            named("a\"b\\c"),
            named("x\ny"),
            named("\u{1}"),
        ]);
        for escaped in ["\"plain\"", "\"a\\\"b\\\\c\"", "\"x\\ny\"", "\"\\u0001\""] {
            assert!(json.contains(escaped), "missing {escaped} in {json}");
        }
    }

    #[test]
    fn trace_names_escape_every_control_and_specials_exhaustively() {
        // Every C0 control plus the two mandatory escapes: the document
        // must contain no raw control bytes before its final newline.
        for code in 0u32..0x20 {
            let c = char::from_u32(code).unwrap();
            let name: &'static str = Box::leak(format!("a{c}b").into_boxed_str());
            let json = chrome_trace_json(&[named(name)]);
            assert!(
                !json
                    .trim_end_matches('\n')
                    .chars()
                    .any(|c| (c as u32) < 0x20),
                "raw control {code:#x} leaked: {json:?}"
            );
        }
        let json = chrome_trace_json(&[named("\r"), named("\t"), named("héllo 日本")]);
        // \r and \t take their short forms, not \uXXXX.
        assert!(json.contains("\"name\":\"\\r\""), "{json}");
        assert!(json.contains("\"name\":\"\\t\""), "{json}");
        // Multi-byte characters pass through unescaped (JSON is UTF-8).
        assert!(json.contains("\"name\":\"héllo 日本\""), "{json}");
    }

    #[test]
    fn hostile_names_produce_valid_trace_json() {
        // Adversarial span/category names: quotes, backslashes (Windows
        // paths), embedded newlines and control characters. The emitted
        // document must stay structurally valid JSON — balanced quotes and
        // no raw control bytes.
        let events = vec![
            TraceEvent {
                name: "say \"hi\"",
                cat: "back\\slash",
                ts_us: 0,
                dur_us: 1,
                tid: 1,
                shard: None,
            },
            TraceEvent {
                name: "multi\nline\tname",
                cat: "ctl\u{1}\u{1f}cat",
                ts_us: 1,
                dur_us: 2,
                tid: 2,
                shard: Some(7),
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(
            !json.chars().any(|c| (c as u32) < 0x20 && c != '\n'),
            "raw control characters leaked into the document"
        );
        for line in json.lines().filter(|l| l.starts_with('{') && l.len() > 2) {
            let mut unescaped_quotes = 0usize;
            let mut escaped = false;
            for c in line.chars() {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    unescaped_quotes += 1;
                }
            }
            assert_eq!(unescaped_quotes % 2, 0, "unbalanced quotes in {line:?}");
        }
        assert!(json.contains("say \\\"hi\\\""));
        assert!(json.contains("back\\\\slash"));
        assert!(json.contains("multi\\nline\\tname"));
        assert!(json.contains("ctl\\u0001\\u001fcat"));
    }

    #[test]
    fn hostile_names_round_trip_through_a_json_parser() {
        // The workspace keeps one JSON grammar: the names a trace carries,
        // the serde shim's parser must read back verbatim. This pins the
        // escaping pair from the consuming side, for every tricky shape.
        let names = [
            "say \"hi\"",
            "back\\slash\\",
            "multi\nline",
            "tab\tand\rcr",
            "ctl\u{1}\u{1f}",
            "héllo 日本",
            "",
        ];
        let events: Vec<_> = names.into_iter().map(named).collect();
        assert_eq!(parsed_names(&chrome_trace_json(&events)), names);
    }
}
