//! EDF demand-bound analysis (processor demand criterion).
//!
//! `dbf(t) = Σ_i max(0, ⌊(t − Di)/Ti⌋ + 1) · Ci` bounds the execution demand
//! of jobs released and due within any window of length `t`; EDF feasibility
//! on a unit-speed processor is `dbf(t) ≤ t` for all `t` in the finite
//! testing set of absolute deadlines up to the demand horizon. The *slack*
//! `t − dbf(t)` is the quantity Bertogna & Baruah's non-preemptive-region
//! bound ([`crate::max_npr_lengths_edf`]) minimises over.

use std::cell::Cell;

use crate::error::SchedError;
use crate::task::TaskSet;
use crate::util::floor_div;

thread_local! {
    /// The testing-point buffer of this thread's EDF tests, kept between
    /// calls so each test refills it instead of growing a fresh vector.
    static POINTS: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// Cap on the number of testing points (guards degenerate period ratios).
pub const MAX_TESTING_POINTS: usize = 5_000_000;

/// The demand-bound function `dbf(t)` of the task set.
#[must_use]
pub fn dbf(tasks: &TaskSet, t: f64) -> f64 {
    tasks
        .iter()
        .map(|task| {
            let jobs = floor_div(t - task.deadline(), task.period()) + 1.0;
            if jobs > 0.0 {
                jobs * task.wcet()
            } else {
                0.0
            }
        })
        .sum()
}

/// Slack of the schedule at `t`: `t − dbf(t)`.
#[must_use]
pub fn slack(tasks: &TaskSet, t: f64) -> f64 {
    t - dbf(tasks, t)
}

/// The horizon up to which `dbf(t) ≤ t` must be checked: beyond
/// `L = max(Dmax, Σ Ui·(Ti − Di) / (1 − U))` the demand can no longer catch
/// up with time (for `U < 1`).
///
/// # Errors
///
/// Returns [`SchedError::Overutilized`] when `U > 1` (no finite horizon).
pub fn demand_horizon(tasks: &TaskSet) -> Result<f64, SchedError> {
    let u = tasks.utilization();
    if u > 1.0 {
        return Err(SchedError::Overutilized { utilization: u });
    }
    let d_max = tasks.iter().map(|t| t.deadline()).fold(0.0f64, f64::max);
    if u == 1.0 {
        // Degenerate: fall back to a hyperperiod-ish bound.
        let span: f64 = tasks.iter().map(|t| t.period()).fold(0.0, f64::max);
        return Ok(d_max.max(2.0 * span * tasks.len() as f64));
    }
    let la: f64 = tasks
        .iter()
        .map(|t| t.utilization() * (t.period() - t.deadline()))
        .sum::<f64>()
        / (1.0 - u);
    Ok(d_max.max(la))
}

/// All testing points (absolute deadlines `Di + k·Ti`) up to `horizon`,
/// sorted and deduplicated.
///
/// # Errors
///
/// Returns [`SchedError::IterationLimit`] if the testing set would exceed
/// [`MAX_TESTING_POINTS`].
pub fn testing_points(tasks: &TaskSet, horizon: f64) -> Result<Vec<f64>, SchedError> {
    let mut points = Vec::new();
    fill_testing_points(tasks, horizon, &mut points)?;
    Ok(points)
}

/// Replaces the contents of `points` with [`testing_points`]`(tasks,
/// horizon)`.
fn fill_testing_points(
    tasks: &TaskSet,
    horizon: f64,
    points: &mut Vec<f64>,
) -> Result<(), SchedError> {
    points.clear();
    for task in tasks.iter() {
        let mut d = task.deadline();
        while d <= horizon {
            points.push(d);
            if points.len() > MAX_TESTING_POINTS {
                return Err(SchedError::IterationLimit {
                    limit: MAX_TESTING_POINTS,
                });
            }
            d += task.period();
        }
    }
    // Every point is a positive deadline sum, whose bit patterns order as
    // the values do; equal values have equal bits, so the unstable sort
    // and `dedup` leave exactly what a stable `total_cmp` sort would.
    points.sort_unstable_by_key(|p| p.to_bits());
    points.dedup();
    Ok(())
}

/// Runs `f` on [`testing_points`]`(tasks, horizon)`, held in this thread's
/// reused buffer.
pub(crate) fn with_testing_points<R>(
    tasks: &TaskSet,
    horizon: f64,
    f: impl FnOnce(&[f64]) -> R,
) -> Result<R, SchedError> {
    let mut points = POINTS.try_with(Cell::take).unwrap_or_default();
    let result = fill_testing_points(tasks, horizon, &mut points).map(|()| f(&points));
    // During thread teardown the slot may be gone: drop the buffer then.
    let _ = POINTS.try_with(|slot| slot.set(points));
    result
}

/// The processor demand criterion: EDF schedulability of the task set
/// (fully preemptive, no preemption overhead).
///
/// # Errors
///
/// Propagates [`SchedError::Overutilized`] / [`SchedError::IterationLimit`]
/// from the horizon and testing-point computation.
///
/// # Examples
///
/// ```
/// use fnpr_sched::{edf_schedulable, Task, TaskSet};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::new(vec![
///     Task::new(1.0, 4.0)?.with_deadline(3.0)?,
///     Task::new(2.0, 6.0)?,
/// ])?;
/// assert!(edf_schedulable(&ts)?);
/// # Ok(())
/// # }
/// ```
pub fn edf_schedulable(tasks: &TaskSet) -> Result<bool, SchedError> {
    let horizon = match demand_horizon(tasks) {
        Ok(h) => h,
        Err(SchedError::Overutilized { .. }) => return Ok(false),
        Err(other) => return Err(other),
    };
    with_testing_points(tasks, horizon, |points| {
        !points.iter().any(|&t| dbf(tasks, t) > t + 1e-9)
    })
}

/// EDF schedulability under floating non-preemptive regions: at every
/// testing point the demand plus the largest region of a *longer-deadline*
/// task (the only ones that can block) must fit.
///
/// Tasks without a `Qi` block nothing.
///
/// # Errors
///
/// As [`edf_schedulable`].
pub fn edf_schedulable_with_npr(tasks: &TaskSet) -> Result<bool, SchedError> {
    let horizon = match demand_horizon(tasks) {
        Ok(h) => h,
        Err(SchedError::Overutilized { .. }) => return Ok(false),
        Err(other) => return Err(other),
    };
    with_testing_points(tasks, horizon, |points| {
        !points.iter().any(|&t| {
            let blocking = tasks
                .iter()
                .filter(|task| task.deadline() > t)
                .filter_map(|task| task.q())
                .fold(0.0f64, f64::max);
            dbf(tasks, t) + blocking > t + 1e-9
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;

    fn ts(specs: &[(f64, f64, f64)]) -> TaskSet {
        TaskSet::new(
            specs
                .iter()
                .map(|&(c, t, d)| Task::new(c, t).unwrap().with_deadline(d).unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn dbf_step_values() {
        let tasks = ts(&[(1.0, 4.0, 4.0)]);
        assert_eq!(dbf(&tasks, 0.0), 0.0);
        assert_eq!(dbf(&tasks, 3.9), 0.0);
        assert_eq!(dbf(&tasks, 4.0), 1.0);
        assert_eq!(dbf(&tasks, 7.9), 1.0);
        assert_eq!(dbf(&tasks, 8.0), 2.0);
        assert_eq!(slack(&tasks, 8.0), 6.0);
    }

    #[test]
    fn dbf_with_constrained_deadline() {
        let tasks = ts(&[(2.0, 10.0, 6.0)]);
        assert_eq!(dbf(&tasks, 5.9), 0.0);
        assert_eq!(dbf(&tasks, 6.0), 2.0);
        assert_eq!(dbf(&tasks, 16.0), 4.0);
    }

    #[test]
    fn implicit_deadline_full_utilization_is_schedulable() {
        let tasks = ts(&[(2.0, 4.0, 4.0), (2.0, 4.0, 4.0)]);
        assert_eq!(tasks.utilization(), 1.0);
        assert!(edf_schedulable(&tasks).unwrap());
    }

    #[test]
    fn overutilized_is_unschedulable() {
        let tasks = ts(&[(3.0, 4.0, 4.0), (2.0, 4.0, 4.0)]);
        assert!(!edf_schedulable(&tasks).unwrap());
    }

    #[test]
    fn tight_constrained_deadlines_fail() {
        // Two tasks due at 2 with 1.5 units each: dbf(2) = 3 > 2.
        let tasks = ts(&[(1.5, 10.0, 2.0), (1.5, 10.0, 2.0)]);
        assert!(!edf_schedulable(&tasks).unwrap());
    }

    #[test]
    fn testing_points_sorted_unique() {
        let tasks = ts(&[(1.0, 4.0, 4.0), (1.0, 6.0, 6.0)]);
        let points = testing_points(&tasks, 24.0).unwrap();
        assert!(points.windows(2).all(|w| w[0] < w[1]));
        assert!(points.contains(&4.0));
        assert!(points.contains(&6.0));
        assert!(points.contains(&12.0)); // shared by both: deduplicated
        assert_eq!(points.iter().filter(|&&p| p == 12.0).count(), 1);
    }

    #[test]
    fn npr_blocking_breaks_tight_sets() {
        // Schedulable preemptively, but a long NPR of the 10-deadline task
        // blocks the 2-deadline task.
        let tight = Task::new(1.0, 10.0).unwrap().with_deadline(2.0).unwrap();
        let heavy = Task::new(4.0, 10.0)
            .unwrap()
            .with_deadline(10.0)
            .unwrap()
            .with_q(3.0)
            .unwrap();
        let tasks = TaskSet::new(vec![tight.clone(), heavy.clone()]).unwrap();
        assert!(edf_schedulable(&tasks).unwrap());
        assert!(!edf_schedulable_with_npr(&tasks).unwrap());
        // A short region fits: dbf(2) = 1, blocking 1 <= 2.
        let heavy_ok = heavy.with_q(1.0).unwrap();
        let tasks = TaskSet::new(vec![tight, heavy_ok]).unwrap();
        assert!(edf_schedulable_with_npr(&tasks).unwrap());
    }
}
