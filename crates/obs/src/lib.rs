//! # fnpr-obs — write-only telemetry for a bit-deterministic pipeline
//!
//! The campaign engine's contract is that aggregates are **bit-identical**
//! for a given spec at any thread count, warm or cold store, telemetry on
//! or off. This crate provides the instrumentation layer that is safe
//! under that contract: atomic counters, monotonic-clock spans and a live
//! progress line that are *strictly write-only side channels* — nothing
//! here ever feeds a value back into an analysis or an aggregate
//! (`tests/determinism.rs` in `fnpr-campaign` property-tests exactly
//! that: byte-identical CSV/JSON with telemetry on vs off at 1/2/8
//! threads).
//!
//! Everything is gated on one process-global flag ([`set_enabled`]): while
//! disabled, every counter bump and span is a single relaxed atomic load
//! and an untaken branch, so instrumented hot paths cost nothing
//! measurable. The pieces:
//!
//! * a process-global registry of named [`Counter`]s / [`Gauge`]s /
//!   [`Histogram`]s — cache the handle at the call site with the
//!   [`counter!`] / [`gauge!`] / [`histogram!`] macros;
//! * scoped [`span`](span())s with thread- and shard-id attribution that
//!   [`take_trace_events`] drains and [`chrome_trace_json`] renders as
//!   Chrome trace-event JSON (the CLI's `--trace-out PATH`, loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev));
//! * a [`MetricsReport`] snapshot serialized to versioned JSON
//!   (the CLI's `--metrics PATH`), histograms carrying
//!   bucket-interpolated p50/p90/p99;
//! * a rate-limited [`ProgressMeter`] line on stderr (points done/total,
//!   points/sec, ETA, hit-rates; the CLI's `--quiet` suppresses it).
//!
//! Naming convention: dotted lowercase paths rooted at the owning crate
//! layer, e.g. `campaign.memo.hit`, `core.alg1.windows`,
//! `sim.migrations`. The README's "Observability" section lists the
//! metrics each crate emits.
//!
//! This is also the crate the determinism lints let read the clock:
//! [`unix_now`] stamps store records and run-ledger rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod progress;
pub mod report;
pub mod span;

pub use progress::{progress_enabled, set_progress, ProgressMeter};
pub use report::{percent, HistogramSnapshot, MetricsReport, METRICS_SCHEMA_VERSION};
pub use span::{
    chrome_trace_json, set_trace_collection, span, span_count, span_shard, take_trace_events,
    trace_collection, Span, TraceEvent,
};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// The master switch. Everything in this crate no-ops while it is off.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is collected at all. The hot-path gate: inlined to a
/// relaxed load so disabled instrumentation stays effectively free.
#[inline(always)]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Seconds since the Unix epoch right now (0 if the clock is somehow
/// before the epoch).
#[must_use]
pub fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// The histogram backing cells: count/sum/max plus power-of-two buckets
/// (bucket `i` counts values whose bit length is `i`, i.e. `2^(i-1) <= v <
/// 2^i`; zero lands in bucket 0).
struct HistogramCells {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; 64],
}

impl HistogramCells {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The process-global name → cell tables. Lookup cost is paid once per
/// call site (the macros cache the returned handles), so a plain
/// mutex-guarded map is plenty.
struct Registry {
    counters: Mutex<BTreeMap<String, &'static AtomicU64>>,
    gauges: Mutex<BTreeMap<String, &'static AtomicU64>>,
    histograms: Mutex<BTreeMap<String, &'static HistogramCells>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

/// A monotonically increasing event counter. `Copy`: pass it around, cache
/// it in statics ([`counter!`]), share it across threads freely.
#[derive(Clone, Copy)]
pub struct Counter {
    cell: &'static AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter (no-op while telemetry is disabled).
    #[inline]
    pub fn add(self, n: u64) {
        if enabled() && n != 0 {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one (no-op while telemetry is disabled).
    #[inline]
    pub fn incr(self) {
        self.add(1);
    }

    /// The current value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins level (e.g. `campaign.points.total`).
#[derive(Clone, Copy)]
pub struct Gauge {
    cell: &'static AtomicU64,
}

impl Gauge {
    /// Sets the gauge (no-op while telemetry is disabled).
    #[inline]
    pub fn set(self, v: u64) {
        if enabled() {
            self.cell.store(v, Ordering::Relaxed);
        }
    }

    /// The current value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A value distribution: count, sum, max and power-of-two buckets.
#[derive(Clone, Copy)]
pub struct Histogram {
    cells: &'static HistogramCells,
}

impl Histogram {
    /// Records one observation (no-op while telemetry is disabled).
    #[inline]
    pub fn record(self, v: u64) {
        if !enabled() {
            return;
        }
        self.cells.count.fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(v, Ordering::Relaxed);
        self.cells.max.fetch_max(v, Ordering::Relaxed);
        let bucket = (64 - v.leading_zeros()) as usize;
        self.cells.buckets[bucket.min(63)].fetch_add(1, Ordering::Relaxed);
    }

    /// The current aggregate view, including bucket-interpolated
    /// percentiles (see [`HistogramSnapshot::from_parts`]).
    #[must_use]
    pub fn snapshot(self) -> HistogramSnapshot {
        let mut buckets = [0u64; 64];
        for (slot, cell) in buckets.iter_mut().zip(&self.cells.buckets) {
            *slot = cell.load(Ordering::Relaxed);
        }
        HistogramSnapshot::from_parts(
            self.cells.count.load(Ordering::Relaxed),
            self.cells.sum.load(Ordering::Relaxed),
            self.cells.max.load(Ordering::Relaxed),
            &buckets,
        )
    }
}

/// Looks up (registering on first use) the counter named `name`. Prefer
/// the [`counter!`] macro on hot paths — it caches the handle.
pub fn counter(name: &str) -> Counter {
    let mut map = registry().counters.lock().expect("obs registry poisoned");
    let cell = map
        .entry(name.to_string())
        .or_insert_with(|| &*Box::leak(Box::new(AtomicU64::new(0))));
    Counter { cell }
}

/// Looks up (registering on first use) the gauge named `name`. Prefer the
/// [`gauge!`] macro on hot paths.
pub fn gauge(name: &str) -> Gauge {
    let mut map = registry().gauges.lock().expect("obs registry poisoned");
    let cell = map
        .entry(name.to_string())
        .or_insert_with(|| &*Box::leak(Box::new(AtomicU64::new(0))));
    Gauge { cell }
}

/// Looks up (registering on first use) the histogram named `name`. Prefer
/// the [`histogram!`] macro on hot paths.
pub fn histogram(name: &str) -> Histogram {
    let mut map = registry().histograms.lock().expect("obs registry poisoned");
    let cells = map
        .entry(name.to_string())
        .or_insert_with(|| &*Box::leak(Box::new(HistogramCells::new())));
    Histogram { cells }
}

/// [`counter`] with a per-call-site cached handle: the registry lock is
/// taken once, every later pass is just the handle copy.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::counter($name))
    }};
}

/// [`gauge`] with a per-call-site cached handle.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::gauge($name))
    }};
}

/// [`histogram`] with a per-call-site cached handle.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::histogram($name))
    }};
}

/// All registered counters by name (zero-valued ones included: a
/// registered-but-never-hit counter is itself a signal).
#[must_use]
pub fn counters_snapshot() -> BTreeMap<String, u64> {
    registry()
        .counters
        .lock()
        .expect("obs registry poisoned")
        .iter()
        .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
        .collect()
}

/// All registered gauges by name.
#[must_use]
pub fn gauges_snapshot() -> BTreeMap<String, u64> {
    registry()
        .gauges
        .lock()
        .expect("obs registry poisoned")
        .iter()
        .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
        .collect()
}

/// All registered histograms by name.
#[must_use]
pub fn histograms_snapshot() -> BTreeMap<String, HistogramSnapshot> {
    registry()
        .histograms
        .lock()
        .expect("obs registry poisoned")
        .iter()
        .map(|(name, cells)| (name.clone(), Histogram { cells }.snapshot()))
        .collect()
}

/// Zeroes every registered cell, the span count and the trace buffer.
/// Handles obtained before the reset stay valid (the cells are reused, not
/// replaced). Test support — concurrent writers racing a reset simply land
/// in the fresh epoch.
pub fn reset() {
    let reg = registry();
    for cell in reg.counters.lock().expect("obs registry poisoned").values() {
        cell.store(0, Ordering::Relaxed);
    }
    for cell in reg.gauges.lock().expect("obs registry poisoned").values() {
        cell.store(0, Ordering::Relaxed);
    }
    for cells in reg
        .histograms
        .lock()
        .expect("obs registry poisoned")
        .values()
    {
        cells.count.store(0, Ordering::Relaxed);
        cells.sum.store(0, Ordering::Relaxed);
        cells.max.store(0, Ordering::Relaxed);
        for bucket in &cells.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }
    span::reset();
}

#[cfg(test)]
pub(crate) mod testsync {
    //! The enable flag is process-global and `cargo test` runs in
    //! parallel: tests that turn it OFF take the write lock, tests that
    //! rely on it being ON take a read lock — so a disable can never race
    //! an enabled-path assertion.
    use std::sync::RwLock;

    pub static FLAG: RwLock<()> = RwLock::new(());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Holds the shared-flag read lock and guarantees telemetry is on.
    /// Each test uses uniquely named metrics and asserts deltas, so
    /// parallel execution cannot cross-talk.
    fn with_enabled<T>(f: impl FnOnce() -> T) -> T {
        let _read = testsync::FLAG.read().unwrap();
        set_enabled(true);
        f()
    }

    #[test]
    fn disabled_counters_do_not_move() {
        let _write = testsync::FLAG.write().unwrap();
        let was = enabled();
        let c = counter("test.lib.disabled");
        let before = c.value();
        set_enabled(false);
        c.incr();
        c.add(10);
        assert_eq!(c.value(), before);
        set_enabled(was);
    }

    #[test]
    fn counters_accumulate_when_enabled() {
        with_enabled(|| {
            let c = counter("test.lib.counter");
            let before = c.value();
            c.incr();
            c.add(4);
            assert_eq!(c.value(), before + 5);
            // Same name, same cell.
            assert_eq!(counter("test.lib.counter").value(), before + 5);
        });
    }

    #[test]
    fn gauges_store_last_value() {
        with_enabled(|| {
            let g = gauge("test.lib.gauge");
            g.set(7);
            g.set(3);
            assert_eq!(g.value(), 3);
            assert_eq!(gauges_snapshot()["test.lib.gauge"], 3);
        });
    }

    #[test]
    fn histogram_tracks_count_sum_max() {
        with_enabled(|| {
            let h = histogram("test.lib.histo");
            let before = h.snapshot();
            for v in [0, 1, 5, 100] {
                h.record(v);
            }
            let after = h.snapshot();
            assert_eq!(after.count - before.count, 4);
            assert_eq!(after.sum - before.sum, 106);
            assert!(after.max >= 100);
        });
    }

    #[test]
    fn macro_handles_are_cached_and_shared() {
        with_enabled(|| {
            let before = counter!("test.lib.macro").value();
            for _ in 0..3 {
                counter!("test.lib.macro").incr();
            }
            assert_eq!(counter("test.lib.macro").value(), before + 3);
        });
    }

    #[test]
    fn snapshot_contains_registered_names() {
        with_enabled(|| {
            counter("test.lib.snapshot").add(2);
            let snap = counters_snapshot();
            assert!(snap.contains_key("test.lib.snapshot"));
        });
    }
}
