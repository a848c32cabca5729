//! Sensitivity analysis: how much preemption delay can a system absorb?
//!
//! Design-space exploration tool on top of the Eq. 5 inflation: scale every
//! task's delay curve by a common factor `s` and bisect for the largest `s`
//! the schedulability test still accepts. A factor of `1.0` means the
//! system tolerates exactly its analysed CRPD; factors above 1 quantify
//! head-room (e.g. for cache-size reduction studies), below 1 the shortfall.

use fnpr_core::DelayCurve;
use serde::{Deserialize, Serialize};

use crate::error::SchedError;
use crate::inflate::{fp_rta_with_delay_scaled, DelayMethod};
use crate::task::{Task, TaskSet};

/// Result of the delay-scale bisection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
/// Propagates task reconstruction errors ([`SchedError::InvalidTask`]).
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
/// maximum reaches `Q`, every bound diverges).
///
/// # Errors
///
/// Propagates [`SchedError`] from the underlying analyses (missing `Qi` or
/// curves, malformed tasks).
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
    // Probe through the lazy scale view: no scaled-curve materialization
    // (clone + revalidate) per bisection step per task, decision-identical
    // to `scale_delay_curves` + `fp_schedulable_with_delay` (the lazy and
    // eager bound kernels are bit-identical; property-tested in fnpr-core
    // and `tests/properties.rs`).
    //
    // Each *accepted* probe additionally hands its response-time fixpoints
    // to the next probe as warm starts: inflated WCETs grow with the scale,
    // so the accepted times lower-bound every later probe's fixpoints and
    // the RTA resumes mid-climb instead of restarting from `Ci + Bi` —
    // decision-identical to the cold path by construction
    // (`response_time_analysis_warm` re-verifies warm rejections cold).
    let mut warm: Option<Vec<f64>> = None;
    let accepts = |scale: f64, warm: &mut Option<Vec<f64>>| -> Result<bool, SchedError> {
        let Some(rta) = fp_rta_with_delay_scaled(tasks, method, scale, warm.as_deref())? else {
            return Ok(false); // some inflation diverged
        };
        if !rta.schedulable() {
            return Ok(false);
        }
        *warm = Some(
            rta.response_times
                .iter()
                .map(|r| r.expect("schedulable RTA has a time per task"))
                .collect(),
        );
        Ok(true)
    };
    if !accepts(0.0, &mut warm)? {
        return Ok(DelayTolerance {
            max_scale: 0.0,
            precision,
            base_infeasible: true,
        });
    }
    let mut lo = 0.0;
    let mut hi = upper;
    if accepts(hi, &mut warm)? {
        return Ok(DelayTolerance {
            max_scale: hi,
            precision,
            base_infeasible: false,
        });
    }
    while hi - lo > precision {
        let mid = 0.5 * (lo + hi);
        if accepts(mid, &mut warm)? {
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
    use crate::inflate::fp_schedulable_with_delay;
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

    /// The warm-started bisection is decision-identical to a cold one: a
    /// reference bisection that re-runs the full RTA from scratch per probe
    /// must find the exact same `max_scale` (bitwise — the probes and the
    /// branch sequence are the same) for every method.
    #[test]
    fn warm_started_bisection_matches_the_cold_path() {
        fn cold_tolerance(
            tasks: &TaskSet,
            method: DelayMethod,
            upper: f64,
            precision: f64,
        ) -> DelayTolerance {
            let accepts = |scale: f64| {
                fp_rta_with_delay_scaled(tasks, method, scale, None)
                    .unwrap()
                    .is_some_and(|rta| rta.schedulable())
            };
            if !accepts(0.0) {
                return DelayTolerance {
                    max_scale: 0.0,
                    precision,
                    base_infeasible: true,
                };
            }
            let (mut lo, mut hi) = (0.0, upper);
            if accepts(hi) {
                return DelayTolerance {
                    max_scale: hi,
                    precision,
                    base_infeasible: false,
                };
            }
            while hi - lo > precision {
                let mid = 0.5 * (lo + hi);
                if accepts(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            DelayTolerance {
                max_scale: lo,
                precision,
                base_infeasible: false,
            }
        }

        let sets = [set(0.05), set(0.1), set(0.3), set(0.6)];
        for tasks in &sets {
            for method in [
                DelayMethod::Eq4,
                DelayMethod::Algorithm1,
                DelayMethod::Algorithm1Capped,
            ] {
                for (upper, precision) in [(20.0, 0.01), (4.0, 0.001), (0.5, 0.05)] {
                    let warm = delay_tolerance(tasks, method, upper, precision).unwrap();
                    let cold = cold_tolerance(tasks, method, upper, precision);
                    assert_eq!(
                        warm.max_scale.to_bits(),
                        cold.max_scale.to_bits(),
                        "{method:?} upper {upper} precision {precision}"
                    );
                    assert_eq!(warm.base_infeasible, cold.base_infeasible);
                }
            }
        }
    }
}
