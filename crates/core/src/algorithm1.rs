//! Algorithm 1 of the paper: progression-aware cumulative preemption-delay
//! upper bound under floating non-preemptive region scheduling.
//!
//! The analysis walks through the execution of a task `τi` in windows of
//! wall-clock length `Qi` (the task's non-preemptive region length). Within
//! the window starting at progress `prog`:
//!
//! 1. `p∩` — the first point where `fi` meets the anti-diagonal line
//!    `D(p) = prog + Qi − p` — limits the progress range a preemption in this
//!    window must be drawn from (later points would be re-considered by a
//!    following window);
//! 2. `delaymax = max {fi(p) : p ∈ [prog, p∩]}` is charged to the window;
//! 3. the task is guaranteed `Qi − delaymax` units of progress, so the next
//!    window starts at `pnext = prog + Qi − delaymax`.
//!
//! The sum of the per-window `delaymax` values upper-bounds the cumulative
//! preemption delay of **any** run (Theorem 1), so `C′ = C + total_delay` is a
//! safe inflated WCET (Eq. 5).

use crate::cursor::CurveCursor;
use crate::curve::DelayCurve;
use crate::error::AnalysisError;

/// Default cap on analysis iterations (windows); a real analysis needs about
/// `C / (Q − delay)` windows, so hitting this indicates a near-divergent
/// parameterisation rather than a legitimate workload.
pub const DEFAULT_MAX_WINDOWS: usize = 10_000_000;

/// One analysed window of Algorithm 1 (one iteration of the main loop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRecord {
    /// Zero-based window index (`k` in the paper's proof notation).
    pub index: usize,
    /// Progress at the start of the window (`prog(k)`).
    pub progress: f64,
    /// `prog + Q`, the wall-clock end of the window in progress coordinates.
    pub window_end: f64,
    /// The crossing point `p∩` with the line `D(p) = prog + Q − p`, clamped to
    /// the curve domain.
    pub p_cross: f64,
    /// The progress point `pmax` achieving the window's delay maximum.
    pub p_max: f64,
    /// The delay charged to this window (`delaymax = fi(pmax)`).
    pub delay: f64,
    /// Progress at which the next window starts (`prog + Q − delaymax`).
    pub next_progress: f64,
}

/// Result of a converged Algorithm 1 run.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayBound {
    /// Upper bound on the cumulative preemption delay (`total_delay`).
    pub total_delay: f64,
    /// Number of windows analysed — an upper bound on the number of
    /// preemptions charged.
    pub windows: usize,
    /// The non-preemptive region length the bound was computed for.
    pub q: f64,
    /// The task WCET in isolation (the curve's domain end).
    pub wcet: f64,
}

impl DelayBound {
    /// The inflated WCET `C′ = C + total_delay` (Eq. 5 of the paper).
    ///
    /// ```
    /// use fnpr_core::{algorithm1, DelayCurve};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let f = DelayCurve::constant(2.0, 10.0)?;
    /// let bound = algorithm1(&f, 4.0)?.expect_converged();
    /// assert_eq!(bound.inflated_wcet(), 16.0);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn inflated_wcet(&self) -> f64 {
        self.wcet + self.total_delay
    }
}

/// Outcome of a delay-bound analysis: either a finite bound or a certificate
/// that the parameterisation admits no finite bound.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundOutcome {
    /// A finite upper bound was computed.
    Converged(DelayBound),
    /// Some window's `delaymax` consumed the entire region (`delay ≥ Q`):
    /// the analysed worst case makes no progress, i.e. the bound is `+∞`.
    Divergent {
        /// Progress at which the analysis got stuck.
        at_progress: f64,
        /// The window delay that consumed the region.
        window_delay: f64,
        /// The region length.
        q: f64,
    },
}

impl BoundOutcome {
    /// Returns the converged bound.
    ///
    /// # Panics
    ///
    /// Panics if the outcome is [`BoundOutcome::Divergent`]. Use this in tests
    /// and examples where convergence is known; production code should match.
    #[must_use]
    #[track_caller]
    pub fn expect_converged(self) -> DelayBound {
        match self {
            BoundOutcome::Converged(bound) => bound,
            BoundOutcome::Divergent {
                at_progress,
                window_delay,
                q,
            } => panic!(
                "analysis divergent at progress {at_progress}: window delay \
                 {window_delay} >= Q = {q}"
            ),
        }
    }

    /// The total delay as an `Option` (`None` when divergent).
    #[must_use]
    pub fn total_delay(&self) -> Option<f64> {
        match self {
            BoundOutcome::Converged(bound) => Some(bound.total_delay),
            BoundOutcome::Divergent { .. } => None,
        }
    }

    /// Returns `true` if the analysis converged to a finite bound.
    #[must_use]
    pub fn is_converged(&self) -> bool {
        matches!(self, BoundOutcome::Converged(_))
    }
}

/// Runs Algorithm 1 and returns only the aggregate outcome (fast path: no
/// per-window records are kept).
///
/// `curve` is the task's preemption-delay function `fi` over `[0, C)`; `q` is
/// the task's non-preemptive region length `Qi`.
///
/// # Errors
///
/// * [`AnalysisError::InvalidQ`] if `q` is not finite and strictly positive;
/// * [`AnalysisError::IterationLimit`] if more than [`DEFAULT_MAX_WINDOWS`]
///   windows are needed (use [`algorithm1_with_limit`] to raise the cap).
///
/// # Examples
///
/// ```
/// use fnpr_core::{algorithm1, DelayCurve};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Constant delay 2 over C = 10, Q = 4: windows at progress 4, 6 and 8,
/// // each charging 2 -> total 6 (the Eq. 4 baseline charges 10).
/// let f = DelayCurve::constant(2.0, 10.0)?;
/// let bound = algorithm1(&f, 4.0)?.expect_converged();
/// assert_eq!(bound.total_delay, 6.0);
/// assert_eq!(bound.windows, 3);
/// # Ok(())
/// # }
/// ```
pub fn algorithm1(curve: &DelayCurve, q: f64) -> Result<BoundOutcome, AnalysisError> {
    algorithm1_with_limit(curve, q, DEFAULT_MAX_WINDOWS)
}

/// [`algorithm1`] with an explicit window budget.
///
/// # Errors
///
/// As [`algorithm1`], with the supplied `limit` instead of the default.
pub fn algorithm1_with_limit(
    curve: &DelayCurve,
    q: f64,
    limit: usize,
) -> Result<BoundOutcome, AnalysisError> {
    run_from(curve, q, q, limit, |_record| {})
}

/// Bounds the *remaining* cumulative preemption delay of a job that has
/// already progressed `start_progress` units.
///
/// Useful for runtime admission and mode-change analysis: once a job is
/// known to have reached a given progress, the delay still ahead of it is
/// bounded by running the window iteration from that point. Conservatively,
/// the next preemption may happen immediately at `start_progress` (the job
/// may resume with an expired region), so the first window starts there
/// rather than `Q` later; consequently
/// `remaining(q) ≤ total` and `remaining(0) ≥ total` (one extra immediate
/// preemption allowed compared to [`algorithm1`], whose first window starts
/// at `Q`).
///
/// # Errors
///
/// As [`algorithm1`], plus [`AnalysisError::InvalidDelay`] if
/// `start_progress` is negative or not finite.
///
/// # Examples
///
/// ```
/// use fnpr_core::{algorithm1_from, DelayCurve};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fi = DelayCurve::constant(2.0, 10.0)?;
/// // A job observed at progress 8 can suffer at most one more preemption.
/// let remaining = algorithm1_from(&fi, 4.0, 8.0)?.expect_converged();
/// assert_eq!(remaining.total_delay, 2.0);
/// # Ok(())
/// # }
/// ```
pub fn algorithm1_from(
    curve: &DelayCurve,
    q: f64,
    start_progress: f64,
) -> Result<BoundOutcome, AnalysisError> {
    if !(start_progress.is_finite() && start_progress >= 0.0) {
        return Err(AnalysisError::InvalidDelay {
            delay: start_progress,
        });
    }
    run_from(curve, q, start_progress, DEFAULT_MAX_WINDOWS, |_| {})
}

/// Runs Algorithm 1 keeping a full per-window trace.
///
/// The trace makes the analysis auditable: each [`WindowRecord`] shows the
/// crossing point, the charged delay and the progress guarantee, matching the
/// sketch in the paper's Figure 3. Prefer [`algorithm1`] when only the total
/// is needed; traces of near-divergent runs can be large.
///
/// # Errors
///
/// As [`algorithm1`].
pub fn algorithm1_trace(
    curve: &DelayCurve,
    q: f64,
) -> Result<(BoundOutcome, Vec<WindowRecord>), AnalysisError> {
    let mut records = Vec::new();
    let outcome = run_from(curve, q, q, DEFAULT_MAX_WINDOWS, |record| {
        records.push(record)
    })?;
    Ok((outcome, records))
}

/// The one Algorithm 1 loop: lines 1–15 with a record sink, fused into
/// one amortized-linear scan by [`CurveCursor`]. The window iteration
/// starts at an arbitrary first preemption candidate (`q` for the plain
/// analysis, lines 1–4: the first `Q` units of progress are
/// preemption-free). [`crate::algorithm1_capped`] streams the records into
/// a bounded heap instead of collecting them.
pub(crate) fn run_from<S: FnMut(WindowRecord)>(
    curve: &DelayCurve,
    q: f64,
    first_candidate: f64,
    limit: usize,
    mut sink: S,
) -> Result<BoundOutcome, AnalysisError> {
    if !(q.is_finite() && q > 0.0) {
        return Err(AnalysisError::InvalidQ { q });
    }
    let wcet = curve.domain_end();
    let mut cursor = CurveCursor::new(curve);
    let mut total_delay = 0.0f64;
    let mut next_progress = first_candidate;
    let mut windows = 0usize;
    // Line 5: iterate while the next progression point is inside the task.
    while next_progress < wcet {
        if windows >= limit {
            fnpr_obs::counter!("core.alg1.limit_exceeded").incr();
            note_alg1_run(windows);
            return Err(AnalysisError::IterationLimit { limit });
        }
        // Line 6.
        let progress = next_progress;
        // Lines 7-12 in one forward scan: the crossing point with
        // D(p) = progress + q - p (clamped to the curve domain — no
        // preemption can target progress beyond task completion), the
        // window maximum over [progress, p_cross] and its earliest witness.
        let scan = cursor.window(progress, q);
        let (p_cross, delay, p_max) = (scan.p_cross, scan.delay, scan.p_max);
        if delay >= q {
            // The charged delay consumes the whole region: progress stalls
            // and the worst-case cumulative delay is unbounded.
            sink(WindowRecord {
                index: windows,
                progress,
                window_end: progress + q,
                p_cross,
                p_max,
                delay,
                next_progress: progress + q - delay,
            });
            fnpr_obs::counter!("core.alg1.divergent").incr();
            note_alg1_run(windows);
            return Ok(BoundOutcome::Divergent {
                at_progress: progress,
                window_delay: delay,
                q,
            });
        }
        // Lines 13-14.
        next_progress = progress + q - delay;
        total_delay += delay;
        sink(WindowRecord {
            index: windows,
            progress,
            window_end: progress + q,
            p_cross,
            p_max,
            delay,
            next_progress,
        });
        windows += 1;
    }
    note_alg1_run(windows);
    Ok(BoundOutcome::Converged(DelayBound {
        total_delay,
        windows,
        q,
        wcet,
    }))
}

/// Telemetry flush for one Algorithm 1 run: a single counter update per
/// run (never per window), so the kernel's hot loop stays untouched and
/// the disabled path costs two untaken branches per *run*.
fn note_alg1_run(windows: usize) {
    fnpr_obs::counter!("core.alg1.runs").incr();
    fnpr_obs::counter!("core.alg1.windows").add(windows as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::DelayCurve;

    #[test]
    fn constant_curve_hand_computed() {
        // Worked example (also in the module docs): C=10, Q=4, f == 2.
        // Windows at progress 4, 6, 8; each crossing at prog + 2, delay 2.
        let f = DelayCurve::constant(2.0, 10.0).unwrap();
        let (outcome, trace) = algorithm1_trace(&f, 4.0).unwrap();
        let bound = outcome.expect_converged();
        assert_eq!(bound.total_delay, 6.0);
        assert_eq!(bound.windows, 3);
        assert_eq!(bound.inflated_wcet(), 16.0);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].progress, 4.0);
        assert_eq!(trace[0].p_cross, 6.0);
        assert_eq!(trace[0].delay, 2.0);
        assert_eq!(trace[0].next_progress, 6.0);
        assert_eq!(trace[1].progress, 6.0);
        assert_eq!(trace[2].progress, 8.0);
        assert_eq!(trace[2].p_cross, 10.0); // clamped to the domain end
    }

    #[test]
    fn no_preemption_when_q_at_least_wcet() {
        let f = DelayCurve::constant(5.0, 10.0).unwrap();
        let bound = algorithm1(&f, 10.0).unwrap().expect_converged();
        assert_eq!(bound.total_delay, 0.0);
        assert_eq!(bound.windows, 0);
        let bound = algorithm1(&f, 25.0).unwrap().expect_converged();
        assert_eq!(bound.total_delay, 0.0);
    }

    #[test]
    fn zero_curve_pays_nothing() {
        let f = DelayCurve::constant(0.0, 100.0).unwrap();
        let bound = algorithm1(&f, 7.0).unwrap().expect_converged();
        assert_eq!(bound.total_delay, 0.0);
        // Still walks the windows (a preemption may occur, it just costs 0).
        assert!(bound.windows > 0);
    }

    #[test]
    fn divergent_when_delay_consumes_region() {
        let f = DelayCurve::constant(5.0, 100.0).unwrap();
        match algorithm1(&f, 5.0).unwrap() {
            BoundOutcome::Divergent {
                at_progress,
                window_delay,
                q,
            } => {
                assert_eq!(at_progress, 5.0);
                assert_eq!(window_delay, 5.0);
                assert_eq!(q, 5.0);
            }
            BoundOutcome::Converged(_) => panic!("expected divergence"),
        }
        assert!(algorithm1(&f, 4.0).unwrap().total_delay().is_none());
        assert!(algorithm1(&f, 5.1).unwrap().is_converged());
    }

    #[test]
    fn localized_delay_only_charged_near_hotspot() {
        // Delay 9 only on [40, 50); zero elsewhere. C = 100, Q = 20.
        // Windows: 20 (covers 20..40? crossing), ...
        let f =
            DelayCurve::from_breakpoints([(0.0, 0.0), (40.0, 9.0), (50.0, 0.0)], 100.0).unwrap();
        let bound = algorithm1(&f, 20.0).unwrap().expect_converged();
        // Window starting at 20: line D(p)=40-p; at p=40 the curve jumps to 9
        // >= 0 = D(40): crossing exactly at 40 -> max over [20,40] = 9.
        // Next progress 20+20-9 = 31, charge 9.
        // Window at 31: crossing of D(p)=51-p with f: inside [40,50) need
        // p >= 51-9=42: p_cross=42, max over [31,42] = 9, next = 42, charge 9.
        // Window at 42: crossing: inside [42,50): p >= 62-9=53 no; [50,62):
        // value 0: p=62? beyond? p_cross=62 (line hits 0 at 62 < 100);
        // max over [42,62] = 9, next = 53, charge 9.
        // Window at 53: f==0 from 53 on; crossing at 73, max 0, next 73.
        // Windows 73, 93: zero. Total = 27.
        assert_eq!(bound.total_delay, 27.0);
        assert_eq!(bound.windows, 6);
    }

    #[test]
    fn trace_matches_fast_path() {
        let f = DelayCurve::from_breakpoints(
            [(0.0, 1.0), (25.0, 6.0), (35.0, 2.0), (70.0, 0.5)],
            120.0,
        )
        .unwrap();
        let fast = algorithm1(&f, 11.0).unwrap().expect_converged();
        let (outcome, trace) = algorithm1_trace(&f, 11.0).unwrap();
        let traced = outcome.expect_converged();
        assert_eq!(fast, traced);
        assert_eq!(trace.len(), fast.windows);
        let sum: f64 = trace.iter().map(|w| w.delay).sum();
        assert!((sum - fast.total_delay).abs() < 1e-12);
        // Windows chain: each next_progress is the next window's progress.
        for pair in trace.windows(2) {
            assert_eq!(pair[0].next_progress, pair[1].progress);
        }
    }

    #[test]
    fn rejects_invalid_q() {
        let f = DelayCurve::constant(1.0, 10.0).unwrap();
        assert!(matches!(
            algorithm1(&f, 0.0),
            Err(AnalysisError::InvalidQ { .. })
        ));
        assert!(matches!(
            algorithm1(&f, -2.0),
            Err(AnalysisError::InvalidQ { .. })
        ));
        assert!(matches!(
            algorithm1(&f, f64::NAN),
            Err(AnalysisError::InvalidQ { .. })
        ));
    }

    #[test]
    fn iteration_limit_is_enforced() {
        // Q barely above the constant delay: ~ C / (Q - d) = 1e5 windows.
        let f = DelayCurve::constant(1.0, 100_000.0).unwrap();
        assert!(matches!(
            algorithm1_with_limit(&f, 2.0, 10),
            Err(AnalysisError::IterationLimit { limit: 10 })
        ));
        assert!(algorithm1_with_limit(&f, 2.0, 200_000).is_ok());
    }

    #[test]
    fn monotone_in_q() {
        // Larger Q should never increase the bound for a constant curve
        // (the paper notes non-monotonicity can appear for shaped curves —
        // that is exercised in the property tests).
        let f = DelayCurve::constant(3.0, 1000.0).unwrap();
        let mut last = f64::INFINITY;
        for q in [4.0, 5.0, 8.0, 16.0, 50.0, 400.0, 1000.0] {
            let total = algorithm1(&f, q).unwrap().expect_converged().total_delay;
            assert!(
                total <= last + 1e-9,
                "constant-curve bound increased: q={q}, {total} > {last}"
            );
            last = total;
        }
    }

    #[test]
    fn remaining_delay_from_progress() {
        let f = DelayCurve::constant(2.0, 10.0).unwrap();
        // From q itself this is exactly the plain analysis.
        let plain = algorithm1(&f, 4.0).unwrap().expect_converged();
        let from_q = algorithm1_from(&f, 4.0, 4.0).unwrap().expect_converged();
        assert_eq!(plain.total_delay, from_q.total_delay);
        // From later progress only the remaining windows are charged:
        // 8 -> window at 8 (delay 2), next 10: total 2.
        let late = algorithm1_from(&f, 4.0, 8.0).unwrap().expect_converged();
        assert_eq!(late.total_delay, 2.0);
        // Past the end: nothing remains.
        let done = algorithm1_from(&f, 4.0, 10.0).unwrap().expect_converged();
        assert_eq!(done.total_delay, 0.0);
        // From zero, an immediate preemption is allowed: windows at 0, 2,
        // 4, 6, 8 -> 5 charges of 2.
        let zero = algorithm1_from(&f, 4.0, 0.0).unwrap().expect_converged();
        assert_eq!(zero.total_delay, 10.0);
        assert!(zero.total_delay >= plain.total_delay);
    }

    #[test]
    fn remaining_delay_is_monotone_in_progress() {
        let f =
            DelayCurve::from_breakpoints([(0.0, 1.0), (30.0, 6.0), (60.0, 2.0)], 120.0).unwrap();
        let mut last = f64::INFINITY;
        for start in [0.0, 10.0, 25.0, 40.0, 70.0, 100.0, 120.0] {
            let remaining = algorithm1_from(&f, 9.0, start)
                .unwrap()
                .expect_converged()
                .total_delay;
            assert!(
                remaining <= last + 1e-9,
                "remaining delay grew: {remaining} at start {start} > {last}"
            );
            last = remaining;
        }
    }

    #[test]
    fn remaining_rejects_bad_start() {
        let f = DelayCurve::constant(1.0, 10.0).unwrap();
        assert!(algorithm1_from(&f, 4.0, -1.0).is_err());
        assert!(algorithm1_from(&f, 4.0, f64::NAN).is_err());
    }

    #[test]
    fn expect_converged_panics_on_divergence() {
        let f = DelayCurve::constant(5.0, 100.0).unwrap();
        let outcome = algorithm1(&f, 3.0).unwrap();
        let result = std::panic::catch_unwind(|| outcome.expect_converged());
        assert!(result.is_err());
    }
}
