//! The fused bound kernel: one amortized-linear forward scan per
//! Algorithm 1 run.
//!
//! The window loop of [`algorithm1`](crate::algorithm1) asks three questions
//! per window — the crossing point `p∩` ([`DelayCurve::first_crossing`]),
//! the window maximum ([`DelayCurve::max_on`]) and its earliest witness
//! ([`DelayCurve::argmax_on`]) — and each per-call answer costs a binary
//! search plus a segment scan. Across a run that is O(windows × segments)
//! with three redundant scans per window.
//!
//! [`CurveCursor`] exploits two monotonicity facts of the window iteration:
//!
//! 1. the window start `progress` is strictly increasing (each window
//!    guarantees `Q − delaymax > 0` units of progress), and
//! 2. the crossing point `p∩` is non-decreasing — a segment that failed to
//!    meet the line `D(p) = progress + Q − p` keeps failing as both
//!    `progress` and the window end grow (the failure condition
//!    `limit − value ≥ segment end` is monotone in `limit`).
//!
//! So the cursor keeps a persistent segment index for the window start, a
//! persistent crossing frontier, and a monotone deque (classic
//! sliding-window maximum) over the segments between them. Every segment
//! enters and leaves each structure at most once: a full Algorithm 1 run
//! costs **O(segments + windows)** and performs no per-window allocation.
//! The deque itself is borrowed from a per-thread slot and handed back,
//! cleared, when the cursor drops, so a warm thread's runs allocate nothing.
//!
//! The cursor reads segment values as the curve stores them. A scaled
//! curve (sensitivity bisection) is materialized with
//! [`DelayCurve::scaled`] and scanned like any other.
//!
//! Bit-identity with the pre-cursor per-call path (kept as a test
//! reference in `tests/support/algorithm1_reference.rs`) is
//! property-tested in `tests/properties.rs`.

use std::cell::Cell;
use std::collections::VecDeque;

use crate::curve::DelayCurve;

thread_local! {
    /// The window deque of the last cursor dropped on this thread, kept
    /// empty with its capacity so the next Algorithm 1 run reuses it.
    static SPARE_DEQUE: Cell<VecDeque<(usize, f64)>> = const { Cell::new(VecDeque::new()) };
}

/// The answers Algorithm 1 needs about one window `[progress, progress+q]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WindowScan {
    /// The crossing point `p∩` with the line `D(p) = progress + q − p`,
    /// clamped to the curve domain (exactly
    /// `first_crossing(progress, q).unwrap_or(wcet).min(wcet)`).
    pub p_cross: f64,
    /// The window maximum over `[progress, p_cross]` (exactly
    /// `max_on(progress, p_cross)`).
    pub delay: f64,
    /// The earliest point attaining the maximum (exactly
    /// `argmax_on(progress, p_cross)`).
    pub p_max: f64,
}

/// A stateful forward scanner over a [`DelayCurve`], answering Algorithm 1's
/// per-window queries in amortized O(1) under the contract that successive
/// `window` calls use strictly increasing `progress` (which the window
/// iteration guarantees: `next = progress + q − delay` with `delay < q`).
pub(crate) struct CurveCursor<'c> {
    curve: &'c DelayCurve,
    /// Index of the segment containing the current window start.
    lo: usize,
    /// Crossing frontier: segments below it can never cross again.
    cross: usize,
    /// Highest segment index ever offered to the deque (`None` before the
    /// first window).
    pushed: Option<usize>,
    /// Sliding-window maximum over `[lo segment .. crossing segment]`:
    /// `(segment index, value)` with values non-increasing front to
    /// back; the front is the earliest maximal segment still in the window.
    deque: VecDeque<(usize, f64)>,
    /// Segment-pointer advances this cursor performed (telemetry only:
    /// accumulated locally — a plain register increment — and flushed to
    /// the `core.cursor.segment_advances` counter once, on drop).
    advances: u64,
}

impl<'c> CurveCursor<'c> {
    /// A cursor at the start of `curve`, on this thread's spare deque (a
    /// fresh one while another cursor holds it, or during thread teardown).
    pub fn new(curve: &'c DelayCurve) -> Self {
        Self {
            curve,
            lo: 0,
            cross: 0,
            pushed: None,
            deque: SPARE_DEQUE.try_with(Cell::take).unwrap_or_default(),
            advances: 0,
        }
    }

    /// End of the segment `k` (the next start, or the domain end).
    #[inline]
    fn seg_end(&self, k: usize) -> f64 {
        let (starts, _) = self.curve.raw();
        starts
            .get(k + 1)
            .copied()
            .unwrap_or(self.curve.domain_end())
    }

    /// Offers segment `k` to the window-maximum deque (idempotent: already
    /// offered indices are skipped, so each segment is pushed once).
    #[inline]
    fn offer(&mut self, k: usize, value: f64) {
        if self.pushed.is_some_and(|p| k <= p) {
            return;
        }
        // Strict pop keeps the *earliest* segment among equal maxima at the
        // front — matching `argmax_on`'s earliest-witness semantics.
        while let Some(&(_, back)) = self.deque.back() {
            if back < value {
                self.deque.pop_back();
            } else {
                break;
            }
        }
        self.deque.push_back((k, value));
        self.pushed = Some(k);
    }

    /// Scans one window starting at `progress` with region length `q`,
    /// returning results bit-identical to the three per-call queries.
    ///
    /// Requires `0 ≤ progress < domain_end`, `q > 0`, and `progress`
    /// strictly greater than on the previous call.
    pub fn window(&mut self, progress: f64, q: f64) -> WindowScan {
        let (starts, values) = self.curve.raw();
        let n = starts.len();
        let wcet = self.curve.domain_end();
        debug_assert!(progress >= 0.0 && progress < wcet && q > 0.0);

        // Advance to the segment containing `progress` (amortized O(1):
        // `progress` only moves forward across calls).
        while self.lo + 1 < n && starts[self.lo + 1] <= progress {
            self.lo += 1;
            self.advances += 1;
        }
        // Retire deque segments that end at or before the new window start.
        while let Some(&(k, _)) = self.deque.front() {
            if self.seg_end(k) <= progress {
                self.deque.pop_front();
            } else {
                break;
            }
        }
        // Seed with the segment containing `progress`. Whenever the frontier
        // is behind `lo` (only before the first window), every previously
        // offered segment ended at or before `progress`, so the deque is
        // empty and the seed starts it fresh.
        if self.pushed.is_none_or(|p| p < self.lo) {
            debug_assert!(self.deque.is_empty());
            self.deque.push_back((self.lo, values[self.lo]));
            self.pushed = Some(self.lo);
        }

        // Crossing scan, resuming at the persistent frontier; every segment
        // it visits lies inside the window maximum's range and is offered to
        // the deque on first visit.
        let limit = progress + q;
        let mut crossing = None;
        let mut k = self.cross.max(self.lo);
        while k < n {
            let start = starts[k];
            let end = self.seg_end(k);
            if end <= progress {
                k += 1;
                continue;
            }
            if start > limit {
                break;
            }
            let value = values[k];
            self.offer(k, value);
            // Within segment k, f(p) = value, and the crossing condition
            // value >= limit - p first holds at p = limit - value.
            let candidate = (limit - value).max(start).max(progress);
            if candidate <= limit && candidate < end {
                crossing = Some(candidate);
                break;
            }
            k += 1;
            self.advances += 1;
        }
        self.cross = k;
        if crossing.is_none() {
            // The domain ends before any crossing: the window maximum runs
            // over the whole remaining domain `[progress, wcet]`.
            let from = self.pushed.map_or(0, |p| p + 1);
            for (j, &value) in values.iter().enumerate().skip(from) {
                self.offer(j, value);
                self.advances += 1;
            }
        }
        let p_cross = crossing.unwrap_or(wcet).min(wcet);

        let &(front, delay) = self
            .deque
            .front()
            .expect("window covers at least the segment containing progress");
        WindowScan {
            p_cross,
            delay,
            p_max: starts[front].max(progress),
        }
    }
}

impl Drop for CurveCursor<'_> {
    fn drop(&mut self) {
        // One telemetry flush per cursor lifetime (one Algorithm 1 run),
        // self-gated: free when telemetry is off.
        fnpr_obs::counter!("core.cursor.segment_advances").add(self.advances);
        let mut deque = std::mem::take(&mut self.deque);
        deque.clear();
        // During thread teardown the slot may be gone: drop the deque then.
        let _ = SPARE_DEQUE.try_with(|slot| slot.set(deque));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(points: &[(f64, f64)], end: f64) -> DelayCurve {
        DelayCurve::from_breakpoints(points.iter().copied(), end).expect("valid curve")
    }

    /// Checks one cursor window against the three per-call queries.
    fn assert_matches_queries(f: &DelayCurve, q: f64, progress: f64, scan: WindowScan) {
        assert!(progress < f.domain_end());
        let p_cross = f
            .first_crossing(progress, q)
            .unwrap()
            .unwrap_or(f.domain_end())
            .min(f.domain_end());
        let delay = f.max_on(progress, p_cross).unwrap();
        let p_max = f.argmax_on(progress, p_cross).unwrap();
        assert_eq!(scan.p_cross.to_bits(), p_cross.to_bits(), "p_cross");
        assert_eq!(scan.delay.to_bits(), delay.to_bits(), "delay");
        assert_eq!(scan.p_max.to_bits(), p_max.to_bits(), "p_max");
    }

    /// Runs the cursor and the three per-call queries side by side over a
    /// synthetic strictly-increasing progress schedule.
    fn check_against_reference(f: &DelayCurve, q: f64, progresses: &[f64]) {
        let mut cursor = CurveCursor::new(f);
        for &progress in progresses {
            assert_matches_queries(f, q, progress, cursor.window(progress, q));
        }
    }

    #[test]
    fn matches_reference_on_fixed_shapes() {
        let f = curve(&[(0.0, 1.0), (25.0, 6.0), (35.0, 2.0), (70.0, 0.5)], 120.0);
        check_against_reference(&f, 11.0, &[11.0, 16.0, 21.0, 40.0, 77.0, 119.0]);
        check_against_reference(&f, 7.0, &[0.5, 24.9, 25.0, 34.999, 69.0, 70.0]);
        let flat = curve(&[(0.0, 3.0)], 50.0);
        check_against_reference(&flat, 4.0, &[4.0, 5.0, 6.0, 48.0, 49.9]);
    }

    #[test]
    fn matches_reference_when_no_crossing_exists() {
        // Low values near the end: the line outruns the domain and the
        // window extends to wcet.
        let f = curve(&[(0.0, 0.1), (90.0, 5.0), (95.0, 0.1)], 100.0);
        check_against_reference(&f, 30.0, &[30.0, 59.0, 80.0, 99.0]);
    }

    #[test]
    fn interleaved_cursors_on_one_thread_keep_their_own_windows() {
        // One run first, so the thread's spare deque holds capacity. Then
        // `a` takes the spare while `b` starts on a fresh deque, and `c`
        // takes the deque `a` handed back while `b` is still mid-run.
        let f = curve(&[(0.0, 1.0), (25.0, 6.0), (35.0, 2.0), (70.0, 0.5)], 120.0);
        let g = curve(&[(0.0, 4.0), (10.0, 0.5), (50.0, 3.0), (90.0, 1.0)], 100.0);
        check_against_reference(&f, 11.0, &[11.0, 16.0, 21.0, 40.0, 77.0, 119.0]);
        let mut a = CurveCursor::new(&f);
        let mut b = CurveCursor::new(&g);
        for (pa, pb) in [(0.5, 0.0), (24.9, 5.0), (25.0, 12.0), (69.0, 48.0)] {
            assert_matches_queries(&f, 7.0, pa, a.window(pa, 7.0));
            assert_matches_queries(&g, 9.0, pb, b.window(pb, 9.0));
        }
        drop(a);
        let mut c = CurveCursor::new(&f);
        for (pc, pb) in [(3.0, 55.0), (30.0, 91.0), (110.0, 99.5)] {
            assert_matches_queries(&f, 11.0, pc, c.window(pc, 11.0));
            assert_matches_queries(&g, 9.0, pb, b.window(pb, 9.0));
        }
    }
}
