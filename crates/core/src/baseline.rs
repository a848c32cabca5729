//! The state-of-the-art baseline bound (Eq. 4 of the paper).
//!
//! Prior preemption-delay-aware analyses charge every possible preemption the
//! *global* maximum delay, ignoring where in its code the task is. Under
//! floating non-preemptive regions a task of WCET `C` and region length `Q`
//! can be preempted at most `⌈C′/Q⌉` times, where `C′` is the *inflated*
//! execution time — which itself depends on the number of preemptions. Eq. 4
//! therefore iterates, response-time-analysis style:
//!
//! ```text
//! C′(0) = C
//! C′(k) = C + ⌈C′(k−1)/Q⌉ · max_t fi(t)
//! ```
//!
//! until a fixpoint. The fixpoint minus `C` is the baseline's cumulative
//! delay bound; it is what the single "State of the Art" curve of the paper's
//! Figure 5 plots, identical for every benchmark function because it only
//! looks at `C`, `Q` and `max fi`.

use crate::algorithm1::{BoundOutcome, DelayBound};
use crate::curve::DelayCurve;
use crate::error::AnalysisError;

/// Default iteration cap for the Eq. 4 fixpoint.
pub const DEFAULT_MAX_ITERATIONS: usize = 1_000_000;

/// Computes the Eq. 4 state-of-the-art bound from raw parameters.
///
/// `wcet` is `C`, `q` the region length, `max_delay` is `max_t fi(t)`.
/// Returns the same [`BoundOutcome`] shape as [`algorithm1`] so the two
/// analyses are directly comparable; in the converged case
/// `total_delay = C′ − C` and `windows = ⌈C′/Q⌉`.
///
/// Divergence is reported when the iteration grows without bound, which
/// happens exactly when the per-window delay cannot be amortised
/// (`max_delay ≥ q` once the ceiling is accounted for).
///
/// # Errors
///
/// * [`AnalysisError::InvalidQ`] / [`AnalysisError::InvalidWcet`] /
///   [`AnalysisError::InvalidDelay`] on malformed parameters;
/// * [`AnalysisError::IterationLimit`] if no fixpoint within the cap.
///
/// # Examples
///
/// ```
/// use fnpr_core::eq4_bound;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // C=10, Q=4, max delay 2: fixpoint C' = 20 (5 preemptions x 2).
/// let bound = eq4_bound(10.0, 4.0, 2.0)?.expect_converged();
/// assert_eq!(bound.total_delay, 10.0);
/// assert_eq!(bound.inflated_wcet(), 20.0);
/// # Ok(())
/// # }
/// ```
///
/// [`algorithm1`]: crate::algorithm1
pub fn eq4_bound(wcet: f64, q: f64, max_delay: f64) -> Result<BoundOutcome, AnalysisError> {
    eq4_bound_with_limit(wcet, q, max_delay, DEFAULT_MAX_ITERATIONS)
}

/// [`eq4_bound`] with an explicit iteration budget.
///
/// # Errors
///
/// As [`eq4_bound`], with the supplied `limit` instead of the default.
pub fn eq4_bound_with_limit(
    wcet: f64,
    q: f64,
    max_delay: f64,
    limit: usize,
) -> Result<BoundOutcome, AnalysisError> {
    if !(q.is_finite() && q > 0.0) {
        return Err(AnalysisError::InvalidQ { q });
    }
    if !(wcet.is_finite() && wcet > 0.0) {
        return Err(AnalysisError::InvalidWcet { wcet });
    }
    if !(max_delay.is_finite() && max_delay >= 0.0) {
        return Err(AnalysisError::InvalidDelay { delay: max_delay });
    }
    // A zero per-preemption delay converges immediately to C.
    if max_delay == 0.0 {
        let preemptions = preemption_count(wcet, q);
        note_eq4_run(0);
        return Ok(BoundOutcome::Converged(DelayBound {
            total_delay: 0.0,
            windows: preemptions as usize,
            q,
            wcet,
        }));
    }
    // Necessary convergence condition: one window of length q must amortise
    // one charge of max_delay, i.e. max_delay < q. With max_delay >= q the
    // series grows at least geometrically.
    if max_delay >= q {
        fnpr_obs::counter!("core.eq4.divergent").incr();
        note_eq4_run(0);
        return Ok(BoundOutcome::Divergent {
            at_progress: wcet,
            window_delay: max_delay,
            q,
        });
    }
    let mut current = wcet;
    for index in 0..limit {
        let preemptions = preemption_count(current, q);
        let next = wcet + preemptions as f64 * max_delay;
        if next == current {
            note_eq4_run(index + 1);
            return Ok(BoundOutcome::Converged(DelayBound {
                total_delay: current - wcet,
                windows: preemptions as usize,
                q,
                wcet,
            }));
        }
        current = next;
    }
    fnpr_obs::counter!("core.eq4.limit_exceeded").incr();
    note_eq4_run(limit);
    Err(AnalysisError::IterationLimit { limit })
}

/// Convenience wrapper taking the maximum straight from a [`DelayCurve`],
/// mirroring how the paper instantiates the baseline in Section VI.
///
/// # Errors
///
/// As [`eq4_bound`].
pub fn eq4_bound_for_curve(curve: &DelayCurve, q: f64) -> Result<BoundOutcome, AnalysisError> {
    eq4_bound(curve.domain_end(), q, curve.max_value())
}

/// Telemetry flush for one Eq. 4 fixpoint run: a single counter update
/// per run, never per iteration.
fn note_eq4_run(iterations: usize) {
    fnpr_obs::counter!("core.eq4.runs").incr();
    fnpr_obs::counter!("core.eq4.iterations").add(iterations as u64);
}

/// `⌈x/q⌉` as used by Eq. 4, robust against the representation noise of
/// floating-point division (an exact multiple must not round up).
fn preemption_count(x: f64, q: f64) -> u64 {
    let ratio = x / q;
    let ceil = ratio.ceil();
    // If x is within one ulp of an exact multiple, treat it as exact.
    if ceil - ratio > 0.0 && (ratio - (ceil - 1.0)) * q <= f64::EPSILON * x.abs() {
        (ceil - 1.0) as u64
    } else {
        ceil as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::algorithm1;

    #[test]
    fn hand_computed_fixpoint() {
        // C=10, Q=4, d=2: C'(1)=10+3*2=16, C'(2)=10+4*2=18, C'(3)=10+ceil(18/4)*2
        // = 10+5*2=20, C'(4)=10+5*2=20 fixpoint.
        let bound = eq4_bound(10.0, 4.0, 2.0).unwrap().expect_converged();
        assert_eq!(bound.total_delay, 10.0);
        assert_eq!(bound.windows, 5);
    }

    #[test]
    fn zero_delay_converges_to_wcet() {
        let bound = eq4_bound(100.0, 7.0, 0.0).unwrap().expect_converged();
        assert_eq!(bound.total_delay, 0.0);
        assert_eq!(bound.inflated_wcet(), 100.0);
    }

    #[test]
    fn divergent_when_delay_at_least_q() {
        assert!(!eq4_bound(100.0, 5.0, 5.0).unwrap().is_converged());
        assert!(!eq4_bound(100.0, 5.0, 7.0).unwrap().is_converged());
        assert!(eq4_bound(100.0, 5.0, 4.9).unwrap().is_converged());
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(eq4_bound(0.0, 5.0, 1.0).is_err());
        assert!(eq4_bound(10.0, 0.0, 1.0).is_err());
        assert!(eq4_bound(10.0, 5.0, -1.0).is_err());
        assert!(eq4_bound(f64::NAN, 5.0, 1.0).is_err());
    }

    #[test]
    fn algorithm1_dominates_eq4_on_shaped_curves() {
        // The key claim: Algorithm 1 is never worse than Eq. 4 (it uses
        // strictly more information). Checked here on a few fixed shapes;
        // property tests cover random curves.
        let shapes: Vec<DelayCurve> = vec![
            DelayCurve::constant(3.0, 500.0).unwrap(),
            DelayCurve::from_breakpoints([(0.0, 8.0), (100.0, 1.0)], 500.0).unwrap(),
            DelayCurve::from_breakpoints(
                [(0.0, 0.0), (200.0, 9.5), (240.0, 0.5), (400.0, 4.0)],
                500.0,
            )
            .unwrap(),
        ];
        for curve in &shapes {
            for q in [10.0, 25.0, 60.0, 125.0, 400.0] {
                let alg1 = algorithm1(curve, q).unwrap();
                let eq4 = eq4_bound_for_curve(curve, q).unwrap();
                match (alg1.total_delay(), eq4.total_delay()) {
                    (Some(a), Some(b)) => assert!(
                        a <= b + 1e-9,
                        "Algorithm 1 ({a}) exceeded Eq. 4 ({b}) at q={q}"
                    ),
                    // If Eq. 4 converges, Algorithm 1 must too.
                    (None, Some(b)) => {
                        panic!("Algorithm 1 divergent but Eq. 4 bound {b} exists at q={q}")
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn baseline_is_shape_insensitive() {
        // Same C, same max value, different shapes: identical Eq. 4 bound
        // (this is why Figure 5 has a single State-of-the-Art curve).
        let narrow =
            DelayCurve::from_breakpoints([(0.0, 0.0), (1990.0, 10.0), (2010.0, 0.0)], 4000.0)
                .unwrap();
        let wide = DelayCurve::constant(10.0, 4000.0).unwrap();
        for q in [20.0, 100.0, 500.0] {
            let a = eq4_bound_for_curve(&narrow, q).unwrap().total_delay();
            let b = eq4_bound_for_curve(&wide, q).unwrap().total_delay();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn preemption_count_handles_exact_multiples() {
        assert_eq!(preemption_count(20.0, 4.0), 5);
        assert_eq!(preemption_count(20.1, 4.0), 6);
        assert_eq!(preemption_count(4000.0, 2000.0), 2);
        assert_eq!(preemption_count(0.3, 0.1), 3);
    }
}
