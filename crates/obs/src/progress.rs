//! The rate-limited live progress line.
//!
//! One [`ProgressMeter`] per campaign run: workers call
//! [`ProgressMeter::tick`] per finished point, and at most every
//! [`PRINT_INTERVAL_MS`] one of them wins the race to repaint the stderr
//! line (carriage-return overwrite, newline-terminated on the final
//! point). Display is opt-in ([`set_progress`]) on top of the master
//! telemetry switch, so library users and tests never see it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::Counter;

/// Minimum milliseconds between repaints.
pub const PRINT_INTERVAL_MS: u64 = 200;

static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Turns the stderr progress display on or off (requires
/// [`crate::set_enabled`] too).
pub fn set_progress(on: bool) {
    PROGRESS.store(on, Ordering::Relaxed);
}

/// Whether the stderr progress display is on.
#[must_use]
pub fn progress_enabled() -> bool {
    PROGRESS.load(Ordering::Relaxed)
}

/// A labelled hit/miss pair rendered as a percentage (e.g. `memo 83.3%`).
struct Ratio {
    label: &'static str,
    hit: Counter,
    miss: Counter,
}

/// Tracks done/total progress for one run and paints the live line.
pub struct ProgressMeter {
    label: String,
    total: u64,
    done: AtomicU64,
    started: Instant,
    /// Milliseconds-since-start of the last repaint (CAS-guarded so
    /// exactly one racing worker repaints per interval).
    last_paint_ms: AtomicU64,
    ratios: Vec<Ratio>,
}

impl ProgressMeter {
    /// A meter for `total` work items, labelled `label` on the line.
    #[must_use]
    pub fn new(label: impl Into<String>, total: u64) -> Self {
        Self {
            label: label.into(),
            total,
            done: AtomicU64::new(0),
            started: Instant::now(),
            last_paint_ms: AtomicU64::new(0),
            ratios: Vec::new(),
        }
    }

    /// Adds a hit-rate display (`label hit/(hit+miss)%`) to the line.
    #[must_use]
    pub fn with_ratio(mut self, label: &'static str, hit: Counter, miss: Counter) -> Self {
        self.ratios.push(Ratio { label, hit, miss });
        self
    }

    /// Work items finished so far.
    #[must_use]
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Records one finished work item and, when the display is on and the
    /// rate limiter allows, repaints the stderr line.
    pub fn tick(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !crate::enabled() || !progress_enabled() {
            return;
        }
        let elapsed = self.started.elapsed();
        let elapsed_ms = elapsed.as_millis() as u64;
        // `fetch_add` hands out each value exactly once, so exactly one
        // tick observes `done == total` — the one that must paint the
        // newline-terminated 100% line.
        let finished = done == self.total;
        if !self.should_paint(finished, elapsed_ms) {
            return;
        }
        let line = self.render(done, elapsed);
        if finished {
            eprintln!("\r{line}");
        } else {
            eprint!("\r{line}");
        }
    }

    /// The repaint decision. Intermediate ticks race through the CAS rate
    /// limiter (one winner per [`PRINT_INTERVAL_MS`]); the finishing tick
    /// bypasses it unconditionally — a racing intermediate painter used to
    /// be able to steal the CAS from the final tick, leaving the terminal
    /// stuck below 100% for the rest of its days.
    fn should_paint(&self, finished: bool, elapsed_ms: u64) -> bool {
        if finished {
            self.last_paint_ms.store(elapsed_ms, Ordering::Relaxed);
            return true;
        }
        let last = self.last_paint_ms.load(Ordering::Relaxed);
        if elapsed_ms.saturating_sub(last) < PRINT_INTERVAL_MS {
            return false;
        }
        // One winner per interval; losers skip (their point is already
        // counted, the next repaint covers it).
        self.last_paint_ms
            .compare_exchange(last, elapsed_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Renders the progress line for `done` items after `elapsed`
    /// (separated from [`Self::tick`] so the format is unit-testable).
    /// Rate and ETA use the full resolution of `elapsed`: a warm run can
    /// finish in under a millisecond.
    #[must_use]
    pub fn render(&self, done: u64, elapsed: Duration) -> String {
        let secs = elapsed.as_secs_f64();
        let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
        let eta = if rate > 0.0 && self.total > done {
            (self.total - done) as f64 / rate
        } else {
            0.0
        };
        let mut line = format!(
            "{}: {done}/{} points ({:.1}%), {rate:.1} points/s, ETA {eta:.1}s",
            self.label,
            self.total,
            crate::percent(done, self.total),
        );
        for ratio in &self.ratios {
            let hits = ratio.hit.value();
            let total = hits + ratio.miss.value();
            line.push_str(&format!(
                "; {} {:.1}% hit",
                ratio.label,
                crate::percent(hits, total)
            ));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_shows_progress_rate_eta_and_ratios() {
        let _read = crate::testsync::FLAG.read().unwrap();
        crate::set_enabled(true);
        let hit = crate::counter("test.progress.hit");
        let miss = crate::counter("test.progress.miss");
        hit.add(3);
        miss.add(1);
        let meter = ProgressMeter::new("smoke", 8).with_ratio("memo", hit, miss);
        let line = meter.render(2, Duration::from_millis(1000));
        assert!(line.starts_with("smoke: 2/8 points (25.0%)"), "{line}");
        assert!(line.contains("2.0 points/s"), "{line}");
        assert!(line.contains("ETA 3.0s"), "{line}");
        assert!(line.contains("memo 75.0% hit"), "{line}");
    }

    #[test]
    fn render_survives_zero_elapsed_and_zero_total() {
        let meter = ProgressMeter::new("empty", 0);
        let line = meter.render(0, Duration::ZERO);
        assert!(line.contains("0/0 points (0.0%)"), "{line}");
        assert!(line.contains("ETA 0.0s"), "{line}");
    }

    #[test]
    fn render_rates_sub_millisecond_runs() {
        // Whole milliseconds would read 0.0 points/s for a warm run
        // restoring 32 points in 400 µs, and 100000.0 (300 / 3 ms) for
        // 300 points in 4,070 µs.
        let meter = ProgressMeter::new("warm", 32);
        let line = meter.render(32, Duration::from_micros(400));
        assert!(line.contains("80000.0 points/s"), "{line}");
        let meter = ProgressMeter::new("soundness", 300);
        let line = meter.render(300, Duration::from_micros(4_070));
        assert!(line.contains("73710.1 points/s"), "{line}");
    }

    #[test]
    fn final_tick_paints_despite_the_rate_limiter() {
        let meter = ProgressMeter::new("final", 4);
        // A repaint lands at 200ms (wins the CAS)...
        assert!(meter.should_paint(false, 200));
        // ...so a tick 1ms later is inside the interval and skips...
        assert!(!meter.should_paint(false, 201));
        // ...but the finishing tick paints unconditionally, interval or
        // not — a run must never end showing less than 100%.
        assert!(meter.should_paint(true, 201));
    }

    #[test]
    fn intermediate_ticks_stay_rate_limited_after_the_fix() {
        let meter = ProgressMeter::new("limited", 100);
        assert!(meter.should_paint(false, PRINT_INTERVAL_MS));
        for ms in PRINT_INTERVAL_MS..2 * PRINT_INTERVAL_MS {
            assert!(!meter.should_paint(false, ms), "repainted at {ms}ms");
        }
        assert!(meter.should_paint(false, 2 * PRINT_INTERVAL_MS));
    }

    #[test]
    fn ticks_count_even_with_display_off() {
        let _read = crate::testsync::FLAG.read().unwrap();
        crate::set_enabled(true);
        set_progress(false);
        let meter = ProgressMeter::new("silent", 3);
        for _ in 0..3 {
            meter.tick();
        }
        assert_eq!(meter.done(), 3);
    }
}
