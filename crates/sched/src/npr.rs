//! Maximum non-preemptive region lengths (`Qi` determination).
//!
//! The paper assumes `Qi` given, citing Bertogna & Baruah [2] for EDF and
//! Yao, Buttazzo & Bertogna [11] for fixed priority. A usable library has to
//! close that loop, so both are implemented here:
//!
//! * **EDF** ([`max_npr_lengths_edf`]): `Qj ≤ min {t − dbf(t) : t ∈ TP,
//!   t < Dj}` — a region of `τj` can block any job with an earlier absolute
//!   deadline, so it must fit in the minimum slack before `Dj`.
//! * **Fixed priority** ([`max_npr_lengths_fp`]): each task `τi` has a
//!   *blocking tolerance* `βi = max {t − Wi(t) : t ∈ TPi}` with
//!   `Wi(t) = Ci + Σ_{j<i} ⌈t/Tj⌉·Cj`; a lower-priority region blocks every
//!   higher-priority task, so `Qi ≤ min {βj : j higher priority}`.
//!
//! Unconstrained tasks (shortest deadline / highest priority) get
//! `f64::INFINITY`; callers typically cap at the task's own WCET.

use crate::edf::{demand_horizon, slack, with_testing_points};
use crate::error::SchedError;
use crate::task::TaskSet;
use crate::util::ceil_div;

/// Per-task maximum region lengths plus the provenance needed to audit them.
#[derive(Debug, Clone, PartialEq)]
pub struct NprBounds {
    /// Maximum admissible `Qi` per task, in the task set's index order.
    /// `f64::INFINITY` when nothing constrains the task;
    /// a non-positive value means the set is infeasible even fully
    /// preemptively.
    pub q_max: Vec<f64>,
}

impl NprBounds {
    /// `true` when every bound is strictly positive (a floating-NPR system
    /// can be configured at all).
    #[must_use]
    pub fn feasible(&self) -> bool {
        self.q_max.iter().all(|&q| q > 0.0)
    }

    /// The bounds capped at each task's WCET (a region longer than the task
    /// itself is meaningless).
    #[must_use]
    pub fn capped_at_wcet(&self, tasks: &TaskSet) -> Vec<f64> {
        self.q_max
            .iter()
            .zip(tasks.iter())
            .map(|(&q, t)| q.min(t.wcet()))
            .collect()
    }
}

/// Maximum region lengths under EDF (Bertogna & Baruah style).
///
/// # Errors
///
/// * [`SchedError::Overutilized`] when `U > 1`;
/// * [`SchedError::IterationLimit`] if the testing set explodes.
///
/// # Examples
///
/// ```
/// use fnpr_sched::{max_npr_lengths_edf, Task, TaskSet};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::new(vec![
///     Task::new(1.0, 4.0)?,  // D = 4
///     Task::new(2.0, 12.0)?, // D = 12
/// ])?;
/// let bounds = max_npr_lengths_edf(&ts)?;
/// // τ2's region must fit in the minimum slack before D = 12:
/// // slack(4) = 4 - 1 = 3, slack(8) = 8 - 2 = 6 -> Q2 <= 3.
/// assert_eq!(bounds.q_max[1], 3.0);
/// assert!(bounds.q_max[0].is_infinite());
/// # Ok(())
/// # }
/// ```
pub fn max_npr_lengths_edf(tasks: &TaskSet) -> Result<NprBounds, SchedError> {
    let horizon = demand_horizon(tasks)?;
    with_testing_points(tasks, horizon, |points| {
        // Slack does not depend on the task: one sweep over the points
        // below the largest deadline gives every prefix minimum, and a
        // task's bound is the minimum over the points below its own
        // deadline.
        let d_max = tasks.iter().map(|t| t.deadline()).fold(0.0f64, f64::max);
        let mut prefix_min = vec![f64::INFINITY];
        let mut running = f64::INFINITY;
        for &t in points.iter().take_while(|&&t| t < d_max) {
            running = running.min(slack(tasks, t));
            prefix_min.push(running);
        }
        let q_max = tasks
            .iter()
            .map(|task| prefix_min[points.partition_point(|&t| t < task.deadline())])
            .collect();
        NprBounds { q_max }
    })
}

/// Blocking tolerance `βi` of every task under fixed-priority scheduling
/// (index 0 = highest priority): the largest blocking `τi` tolerates while
/// still meeting its deadline.
///
/// A negative tolerance means `τi` misses its deadline even unblocked.
#[must_use]
pub fn blocking_tolerances_fp(tasks: &TaskSet) -> Vec<f64> {
    (0..tasks.len())
        .map(|i| {
            let ti = tasks.task(i);
            let tolerance_at = |t: f64| {
                let mut w = ti.wcet();
                for j in 0..i {
                    let tj = tasks.task(j);
                    w += ceil_div(t, tj.period()) * tj.wcet();
                }
                t - w
            };
            // Testing points: Di, plus the multiples of higher-priority
            // periods below it. A maximum does not depend on the order in
            // which they are visited, nor on visiting one twice.
            let mut best = tolerance_at(ti.deadline());
            for j in 0..i {
                let tj = tasks.task(j);
                let mut at = tj.period();
                while at < ti.deadline() {
                    best = best.max(tolerance_at(at));
                    at += tj.period();
                }
            }
            best
        })
        .collect()
}

/// Maximum region lengths under fixed priority (Yao et al. style):
/// `Qi ≤ min {βj : j < i}`, infinity for the highest-priority task.
#[must_use]
pub fn max_npr_lengths_fp(tasks: &TaskSet) -> NprBounds {
    let beta = blocking_tolerances_fp(tasks);
    let mut q_max = Vec::with_capacity(tasks.len());
    let mut running_min = f64::INFINITY;
    for &b in &beta {
        q_max.push(running_min);
        running_min = running_min.min(b);
    }
    NprBounds { q_max }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edf::edf_schedulable_with_npr;
    use crate::rta::rta_floating_npr;
    use crate::task::Task;

    fn ts(specs: &[(f64, f64)]) -> TaskSet {
        TaskSet::new(
            specs
                .iter()
                .map(|&(c, t)| Task::new(c, t).unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn edf_bounds_hand_computed() {
        let tasks = ts(&[(1.0, 4.0), (2.0, 12.0)]);
        let bounds = max_npr_lengths_edf(&tasks).unwrap();
        assert!(bounds.q_max[0].is_infinite());
        // Testing points before 12: slack(4) = 3, slack(8) = 6 -> min 3.
        assert_eq!(bounds.q_max[1], 3.0);
        assert!(bounds.feasible());
        let capped = bounds.capped_at_wcet(&tasks);
        assert_eq!(capped, vec![1.0, 2.0]);
    }

    #[test]
    fn edf_bounds_keep_system_schedulable() {
        // Assign each task its maximum admissible region (capped at WCET):
        // the NPR-aware EDF test must still pass.
        let tasks = ts(&[(1.0, 5.0), (2.0, 8.0), (3.0, 20.0)]);
        let bounds = max_npr_lengths_edf(&tasks).unwrap();
        assert!(bounds.feasible());
        let qs = bounds.capped_at_wcet(&tasks);
        let with_q = TaskSet::new(
            tasks
                .iter()
                .zip(&qs)
                .map(|(t, &q)| t.clone().with_q(q).unwrap())
                .collect(),
        )
        .unwrap();
        assert!(edf_schedulable_with_npr(&with_q).unwrap());
    }

    #[test]
    fn fp_tolerances_hand_computed() {
        // τ1 = (1,4): β1 = max over {4}: 4 - 1 = 3.
        // τ2 = (2,6): points {4, 6}: t=4: 4 - (2 + 1) = 1; t=6: 6 - (2+2) = 2.
        let tasks = ts(&[(1.0, 4.0), (2.0, 6.0)]);
        let beta = blocking_tolerances_fp(&tasks);
        assert_eq!(beta, vec![3.0, 2.0]);
        let bounds = max_npr_lengths_fp(&tasks);
        assert!(bounds.q_max[0].is_infinite());
        assert_eq!(bounds.q_max[1], 3.0);
    }

    #[test]
    fn fp_bounds_keep_system_schedulable() {
        let tasks = ts(&[(1.0, 4.0), (2.0, 6.0), (2.0, 14.0)]);
        let bounds = max_npr_lengths_fp(&tasks);
        assert!(bounds.feasible());
        let qs = bounds.capped_at_wcet(&tasks);
        let with_q = TaskSet::new(
            tasks
                .iter()
                .zip(&qs)
                .map(|(t, &q)| t.clone().with_q(q).unwrap())
                .collect(),
        )
        .unwrap();
        assert!(rta_floating_npr(&with_q).unwrap().schedulable());
    }

    #[test]
    fn infeasible_set_reports_negative_tolerance() {
        let tasks = ts(&[(3.0, 5.0), (3.0, 6.0)]); // U > 1 at level 2
        let beta = blocking_tolerances_fp(&tasks);
        assert!(beta[1] < 0.0);
        let bounds = max_npr_lengths_fp(&tasks);
        assert!(bounds.q_max[1].is_infinite() || bounds.q_max[1] > 0.0);
        // The third task (if any) would be constrained by the negative β.
    }

    #[test]
    fn overutilized_edf_is_an_error() {
        let tasks = ts(&[(3.0, 4.0), (2.0, 4.0)]);
        assert!(matches!(
            max_npr_lengths_edf(&tasks),
            Err(SchedError::Overutilized { .. })
        ));
    }
}
