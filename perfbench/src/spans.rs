//! The benchmark's own spans: a recorder that times calls into the
//! program's public functions, self-time accounting, and their conversion
//! to `fnpr_obs` trace events for Chrome trace export.
//!
//! Every span records its name, layer, start, end, parent and the id of
//! the grid point it belongs to. Spans stay in memory until the caller
//! exports them. A span's *self time* is its duration minus the union of
//! its children's intervals, so the self times of one point's spans sum
//! to the point span's duration and the per-layer split adds up.

use std::collections::BTreeMap;
use std::time::Instant;

/// The layer a point's own framing time (outside every call span) is
/// charged to.
pub const POINT_LAYER: &str = "point";

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// What was called, e.g. `core.algorithm1`.
    pub name: &'static str,
    /// The layer charged with its self time, e.g. `core`.
    pub layer: &'static str,
    /// The grid point this span belongs to.
    pub point: u64,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, `None` for a point.
    pub parent: Option<usize>,
}

impl SpanRecord {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
    point: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            // fnpr-lint: allow(wall_clock, "benchmark span timer; never feeds a campaign result")
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            point: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; nested spans opened by `f` become its
    /// children.
    fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let index = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            layer,
            point: self.point,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Times one call with no nested spans.
    pub fn call<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, layer, |_| f())
    }

    /// Runs grid point `id` inside a root span charged to [`POINT_LAYER`];
    /// every span opened within carries `id`.
    pub fn point<T>(&mut self, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        self.point = id;
        self.span("point", POINT_LAYER, f)
    }

    /// The spans recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }
}

/// Each span's self time in ns: its duration minus the union of its
/// children's intervals (clipped to the span).
#[must_use]
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(list) = children.get_mut(p) {
                list.push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time per layer, in seconds.
#[must_use]
pub fn layer_seconds(spans: &[SpanRecord]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

/// The spans as `fnpr_obs` trace events, for
/// `fnpr_obs::chrome_trace_json`: the layer is the category and the point
/// id the shard. Both ends are floored to whole microseconds, so a child
/// still lies within its parent.
#[must_use]
pub fn trace_events(spans: &[SpanRecord]) -> Vec<fnpr_obs::TraceEvent> {
    spans
        .iter()
        .map(|s| fnpr_obs::TraceEvent {
            name: s.name,
            cat: s.layer,
            ts_us: s.start_ns / 1000,
            dur_us: (s.end_ns / 1000).saturating_sub(s.start_ns / 1000),
            tid: 1,
            shard: Some(s.point),
        })
        .collect()
}
