//! Sensitivity analysis: how much preemption delay can a system absorb?
//!
//! Design-space exploration tool on top of the Eq. 5 inflation: scale every
//! task's delay curve by a common factor `s` and bisect for the largest `s`
//! the schedulability test still accepts. A factor of `1.0` means the
//! system tolerates exactly its analysed CRPD; factors above 1 quantify
//! head-room (e.g. for cache-size reduction studies), below 1 the shortfall.

use fnpr_core::DelayCurve;

use crate::error::SchedError;
use crate::inflate::{fp_schedulable_with_delay, DelayMethod};
use crate::task::{Task, TaskSet};

/// Result of the delay-scale bisection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayTolerance {
    /// Largest accepted scale factor found (within `precision`).
    pub max_scale: f64,
    /// The search precision used.
    pub precision: f64,
    /// `true` if even scale 0 (no delay) is rejected — the base system is
    /// unschedulable regardless of preemption costs.
    pub base_infeasible: bool,
}

/// Scales every task's delay curve by `factor`.
///
/// # Errors
///
/// [`SchedError::InvalidTask`] when `factor` is negative or not finite, or
/// a scaled value overflows `f64`; propagates task reconstruction errors.
pub fn scale_delay_curves(tasks: &TaskSet, factor: f64) -> Result<TaskSet, SchedError> {
    let scaled: Result<Vec<Task>, SchedError> = tasks
        .iter()
        .map(|t| match t.delay_curve() {
            Some(curve) => {
                let scaled: DelayCurve =
                    curve.scaled(factor).map_err(|_| SchedError::InvalidTask {
                        what: "curve scale",
                        value: factor,
                    })?;
                Ok(t.clone().with_delay_curve(scaled))
            }
            None => Ok(t.clone()),
        })
        .collect();
    TaskSet::new(scaled?)
}

/// Bisects for the largest delay-curve scale the fixed-priority
/// floating-NPR test accepts under the given method.
///
/// The search space is `[0, upper]`; `upper` should comfortably exceed any
/// plausible tolerance (the region lengths bound it: once the scaled
/// maximum reaches `Q`, every bound diverges). Each probe is
/// [`scale_delay_curves`] followed by [`fp_schedulable_with_delay`].
///
/// # Errors
///
/// Propagates [`SchedError`] from the underlying analyses (missing `Qi` or
/// curves, malformed tasks), including [`SchedError::InvalidTask`] from
/// [`scale_delay_curves`] when a probed scale overflows a curve.
///
/// # Examples
///
/// ```
/// use fnpr_core::DelayCurve;
/// use fnpr_sched::{delay_tolerance, DelayMethod, Task, TaskSet};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::new(vec![
///     Task::new(2.0, 10.0)?
///         .with_q(1.0)?
///         .with_delay_curve(DelayCurve::constant(0.2, 2.0)?),
///     Task::new(3.0, 20.0)?
///         .with_q(1.0)?
///         .with_delay_curve(DelayCurve::constant(0.2, 3.0)?),
/// ])?;
/// let tolerance = delay_tolerance(&ts, DelayMethod::Algorithm1, 8.0, 0.01)?;
/// assert!(!tolerance.base_infeasible);
/// assert!(tolerance.max_scale > 1.0); // head-room beyond the analysed CRPD
/// # Ok(())
/// # }
/// ```
pub fn delay_tolerance(
    tasks: &TaskSet,
    method: DelayMethod,
    upper: f64,
    precision: f64,
) -> Result<DelayTolerance, SchedError> {
    if !(upper.is_finite() && upper > 0.0 && precision.is_finite() && precision > 0.0) {
        return Err(SchedError::InvalidTask {
            what: "bisection parameters",
            value: upper.min(precision),
        });
    }
    let accepts = |scale: f64| -> Result<bool, SchedError> {
        fp_schedulable_with_delay(&scale_delay_curves(tasks, scale)?, method)
    };
    if !accepts(0.0)? {
        return Ok(DelayTolerance {
            max_scale: 0.0,
            precision,
            base_infeasible: true,
        });
    }
    let mut lo = 0.0;
    let mut hi = upper;
    if accepts(hi)? {
        return Ok(DelayTolerance {
            max_scale: hi,
            precision,
            base_infeasible: false,
        });
    }
    while hi - lo > precision {
        let mid = 0.5 * (lo + hi);
        if accepts(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(DelayTolerance {
        max_scale: lo,
        precision,
        base_infeasible: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnpr_core::DelayCurve;

    fn set(delay: f64) -> TaskSet {
        TaskSet::new(vec![
            Task::new(2.0, 10.0)
                .unwrap()
                .with_q(1.0)
                .unwrap()
                .with_delay_curve(DelayCurve::constant(delay, 2.0).unwrap()),
            Task::new(4.0, 12.0)
                .unwrap()
                .with_q(1.0)
                .unwrap()
                .with_delay_curve(DelayCurve::constant(delay, 4.0).unwrap()),
        ])
        .unwrap()
    }

    #[test]
    fn bisection_brackets_the_boundary() {
        let ts = set(0.1);
        let t = delay_tolerance(&ts, DelayMethod::Algorithm1, 20.0, 0.01).unwrap();
        assert!(!t.base_infeasible);
        assert!(t.max_scale > 0.0);
        // Accepted at the found scale, rejected just above (within 2x
        // precision to avoid boundary jitter).
        let at = scale_delay_curves(&ts, t.max_scale).unwrap();
        assert!(fp_schedulable_with_delay(&at, DelayMethod::Algorithm1).unwrap());
        let above = scale_delay_curves(&ts, t.max_scale + 3.0 * t.precision).unwrap();
        assert!(!fp_schedulable_with_delay(&above, DelayMethod::Algorithm1).unwrap());
    }

    #[test]
    fn eq4_tolerates_less_than_algorithm1() {
        let ts = set(0.1);
        let alg1 = delay_tolerance(&ts, DelayMethod::Algorithm1, 20.0, 0.01).unwrap();
        let eq4 = delay_tolerance(&ts, DelayMethod::Eq4, 20.0, 0.01).unwrap();
        assert!(alg1.max_scale >= eq4.max_scale - 0.02);
    }

    #[test]
    fn infeasible_base_is_flagged() {
        // WCETs alone overload the system.
        let ts = TaskSet::new(vec![
            Task::new(8.0, 10.0)
                .unwrap()
                .with_q(1.0)
                .unwrap()
                .with_delay_curve(DelayCurve::constant(0.1, 8.0).unwrap()),
            Task::new(5.0, 12.0)
                .unwrap()
                .with_q(1.0)
                .unwrap()
                .with_delay_curve(DelayCurve::constant(0.1, 5.0).unwrap()),
        ])
        .unwrap();
        let t = delay_tolerance(&ts, DelayMethod::Algorithm1, 10.0, 0.01).unwrap();
        assert!(t.base_infeasible);
        assert_eq!(t.max_scale, 0.0);
    }

    #[test]
    fn saturates_at_upper_when_everything_fits() {
        // Tiny utilisation: even large scales fit (until divergence, which
        // the bisection treats as rejection — keep upper modest).
        let ts = TaskSet::new(vec![Task::new(0.5, 100.0)
            .unwrap()
            .with_q(0.4)
            .unwrap()
            .with_delay_curve(DelayCurve::constant(0.01, 0.5).unwrap())])
        .unwrap();
        let t = delay_tolerance(&ts, DelayMethod::Algorithm1, 2.0, 0.01).unwrap();
        assert_eq!(t.max_scale, 2.0);
    }

    #[test]
    fn rejects_bad_parameters() {
        let ts = set(0.1);
        assert!(delay_tolerance(&ts, DelayMethod::Algorithm1, 0.0, 0.01).is_err());
        assert!(delay_tolerance(&ts, DelayMethod::Algorithm1, 1.0, f64::NAN).is_err());
    }

    /// `max_scale` bits and `base_infeasible` flags over a fixed grid, as
    /// computed by the lazy-scale-view, warm-started bisection this path
    /// replaced: every probe, and so every branch, must decide the same.
    #[test]
    fn bisection_matches_recorded_results() {
        let methods = [
            DelayMethod::Eq4,
            DelayMethod::Algorithm1,
            DelayMethod::Algorithm1Capped,
        ];
        let searches = [(20.0, 0.01), (4.0, 0.001), (0.5, 0.05)];
        // Per delay: for each method, the `max_scale` bits for each search.
        // No set in the grid is infeasible at scale 0.
        let expected: [(f64, [[u64; 3]; 3]); 4] = [
            (
                0.05,
                [
                    [0x401d100000000000, 0x4010000000000000, 0x3fe0000000000000],
                    [0x4024000000000000, 0x4010000000000000, 0x3fe0000000000000],
                    [0x4033fd8000000000, 0x4010000000000000, 0x3fe0000000000000],
                ],
            ),
            (
                0.1,
                [
                    [0x400d100000000000, 0x400d160000000000, 0x3fe0000000000000],
                    [0x4014000000000000, 0x4010000000000000, 0x3fe0000000000000],
                    [0x4023fb0000000000, 0x4010000000000000, 0x3fe0000000000000],
                ],
            ),
            (
                0.3,
                [
                    [0x3ff3600000000000, 0x3ff3640000000000, 0x3fe0000000000000],
                    [0x3ffa900000000000, 0x3ffaa80000000000, 0x3fe0000000000000],
                    [0x400aa40000000000, 0x400aaa0000000000, 0x3fe0000000000000],
                ],
            ),
            (
                0.6,
                [
                    [0x3fe3600000000000, 0x3fe3600000000000, 0x3fe0000000000000],
                    [0x3fea900000000000, 0x3feaa80000000000, 0x3fe0000000000000],
                    [0x3ffa900000000000, 0x3ffaa80000000000, 0x3fe0000000000000],
                ],
            ),
        ];
        for (delay, per_method) in expected {
            let tasks = set(delay);
            for (method, bits) in methods.into_iter().zip(per_method) {
                for ((upper, precision), bits) in searches.into_iter().zip(bits) {
                    let t = delay_tolerance(&tasks, method, upper, precision).unwrap();
                    assert_eq!(
                        t.max_scale.to_bits(),
                        bits,
                        "delay {delay} {method:?} upper {upper} precision {precision}: {}",
                        t.max_scale
                    );
                    assert!(!t.base_infeasible);
                    assert_eq!(t.precision, precision);
                }
            }
        }
    }
}
