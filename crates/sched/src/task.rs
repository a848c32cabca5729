//! The sporadic task model of the paper's Section III.

use fnpr_core::DelayCurve;
use serde::{Deserialize, Serialize};

use crate::error::SchedError;

/// A sporadic task `τi = (Ci, Ti, Di)` with the floating-NPR extensions:
/// the region length `Qi` and the preemption-delay function `fi`.
///
/// `Task` is passive data with validated construction; use the chained
/// `with_*` methods to attach the optional floating-NPR attributes.
///
/// # Examples
///
/// ```
/// use fnpr_core::DelayCurve;
/// use fnpr_sched::Task;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fi = DelayCurve::from_breakpoints([(0.0, 3.0), (20.0, 1.0)], 40.0)?;
/// let task = Task::new(40.0, 200.0)?
///     .with_deadline(120.0)?
///     .with_q(10.0)?
///     .with_delay_curve(fi);
/// assert_eq!(task.utilization(), 0.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    wcet: f64,
    period: f64,
    deadline: f64,
    q: Option<f64>,
    delay_curve: Option<DelayCurve>,
}

impl Task {
    /// Creates an implicit-deadline task (`D = T`).
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidTask`] if `wcet` or `period` is not
    /// finite and strictly positive, or `wcet > period`.
    pub fn new(wcet: f64, period: f64) -> Result<Self, SchedError> {
        if !(wcet.is_finite() && wcet > 0.0) {
            return Err(SchedError::InvalidTask {
                what: "wcet",
                value: wcet,
            });
        }
        if !(period.is_finite() && period > 0.0) {
            return Err(SchedError::InvalidTask {
                what: "period",
                value: period,
            });
        }
        if wcet > period {
            return Err(SchedError::InvalidTask {
                what: "wcet > period",
                value: wcet,
            });
        }
        Ok(Self {
            wcet,
            period,
            deadline: period,
            q: None,
            delay_curve: None,
        })
    }

    /// Sets a constrained deadline (`D ≤ T`).
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidTask`] if the deadline is not finite, is
    /// not positive, is below the WCET or exceeds the period.
    pub fn with_deadline(mut self, deadline: f64) -> Result<Self, SchedError> {
        if !(deadline.is_finite() && deadline >= self.wcet && deadline <= self.period) {
            return Err(SchedError::InvalidTask {
                what: "deadline",
                value: deadline,
            });
        }
        self.deadline = deadline;
        Ok(self)
    }

    /// Sets the non-preemptive region length `Qi`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidTask`] if `q` is not finite and strictly
    /// positive.
    pub fn with_q(mut self, q: f64) -> Result<Self, SchedError> {
        if !(q.is_finite() && q > 0.0) {
            return Err(SchedError::InvalidTask {
                what: "q",
                value: q,
            });
        }
        self.q = Some(q);
        Ok(self)
    }

    /// Attaches the preemption-delay function `fi`.
    ///
    /// The curve's domain end is the task's *execution* profile; it need not
    /// equal `wcet` exactly (e.g. a curve derived from a CFG whose WCET is
    /// tighter), but analyses use the curve's own domain.
    #[must_use]
    pub fn with_delay_curve(mut self, curve: DelayCurve) -> Self {
        self.delay_curve = Some(curve);
        self
    }

    /// Worst-case execution time `Ci` (in isolation, no preemption delay).
    #[must_use]
    pub fn wcet(&self) -> f64 {
        self.wcet
    }

    /// Minimum inter-arrival time `Ti`.
    #[must_use]
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Relative deadline `Di`.
    #[must_use]
    pub fn deadline(&self) -> f64 {
        self.deadline
    }

    /// Non-preemptive region length `Qi`, if set.
    #[must_use]
    pub fn q(&self) -> Option<f64> {
        self.q
    }

    /// Preemption-delay function `fi`, if set.
    #[must_use]
    pub fn delay_curve(&self) -> Option<&DelayCurve> {
        self.delay_curve.as_ref()
    }

    /// Utilisation `Ci / Ti`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.wcet / self.period
    }

    /// Returns a copy with a different WCET (used by inflation passes).
    ///
    /// Unlike [`Task::new`], the inflated WCET may exceed the deadline or
    /// even the period: that makes the task *unschedulable*, not invalid,
    /// and the schedulability tests report it as such.
    ///
    /// The copy carries timing only: `Ci`, `Ti`, `Di` and `Qi`, without the
    /// delay curve. An inflated WCET already contains the preemption delay,
    /// so a delay-aware inflation of the copy fails with
    /// [`SchedError::MissingCurve`] instead of charging the delay twice; the
    /// tests run on inflated copies read no curve.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidTask`] if `wcet` is not finite and
    /// strictly positive.
    pub fn with_wcet(&self, wcet: f64) -> Result<Self, SchedError> {
        if !(wcet.is_finite() && wcet > 0.0) {
            return Err(SchedError::InvalidTask {
                what: "wcet",
                value: wcet,
            });
        }
        Ok(Self {
            wcet,
            period: self.period,
            deadline: self.deadline,
            q: self.q,
            delay_curve: None,
        })
    }
}

/// An ordered collection of tasks.
///
/// Index order is *priority order for fixed-priority analyses* (task 0 has
/// the highest priority); EDF analyses ignore the order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// Creates a validated task set.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::EmptyTaskSet`] on empty input.
    pub fn new(tasks: Vec<Task>) -> Result<Self, SchedError> {
        if tasks.is_empty() {
            return Err(SchedError::EmptyTaskSet);
        }
        Ok(Self { tasks })
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Always `false` (construction rejects empty sets); kept for pairing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn task(&self, index: usize) -> &Task {
        &self.tasks[index]
    }

    /// Iterates over the tasks in index (priority) order.
    pub fn iter(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter()
    }

    /// Total utilisation `Σ Ci/Ti`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.tasks.iter().map(Task::utilization).sum()
    }

    /// Replaces every task's WCET (used by inflation passes). Like
    /// [`Task::with_wcet`], the copy carries timing only: its tasks keep
    /// `Qi` but no delay curve, because the new WCETs are meant to contain
    /// the delay already.
    ///
    /// # Errors
    ///
    /// As [`Task::with_wcet`]; also fails if the lengths differ.
    pub fn with_wcets(&self, wcets: &[f64]) -> Result<TaskSet, SchedError> {
        if wcets.len() != self.tasks.len() {
            return Err(SchedError::InvalidTask {
                what: "wcets length",
                value: wcets.len() as f64,
            });
        }
        let tasks = self
            .tasks
            .iter()
            .zip(wcets)
            .map(|(t, &c)| t.with_wcet(c))
            .collect::<Result<Vec<_>, _>>()?;
        TaskSet::new(tasks)
    }
}

impl FromIterator<Task> for TaskSet {
    /// Collects tasks; panics are avoided by allowing empty here and letting
    /// analyses reject empty sets (FromIterator cannot fail).
    fn from_iter<I: IntoIterator<Item = Task>>(iter: I) -> Self {
        Self {
            tasks: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_validation() {
        assert!(Task::new(1.0, 10.0).is_ok());
        assert!(Task::new(0.0, 10.0).is_err());
        assert!(Task::new(-1.0, 10.0).is_err());
        assert!(Task::new(11.0, 10.0).is_err());
        assert!(Task::new(1.0, f64::NAN).is_err());
        let t = Task::new(2.0, 10.0).unwrap();
        assert!(t.clone().with_deadline(5.0).is_ok());
        assert!(t.clone().with_deadline(1.0).is_err()); // below wcet
        assert!(t.clone().with_deadline(11.0).is_err()); // above period
        assert!(t.clone().with_q(0.0).is_err());
        assert!(t.with_q(3.0).is_ok());
    }

    #[test]
    fn task_accessors() {
        let fi = DelayCurve::constant(1.0, 2.0).unwrap();
        let t = Task::new(2.0, 10.0)
            .unwrap()
            .with_deadline(8.0)
            .unwrap()
            .with_q(4.0)
            .unwrap()
            .with_delay_curve(fi.clone());
        assert_eq!(t.wcet(), 2.0);
        assert_eq!(t.period(), 10.0);
        assert_eq!(t.deadline(), 8.0);
        assert_eq!(t.q(), Some(4.0));
        assert_eq!(t.delay_curve(), Some(&fi));
        assert_eq!(t.utilization(), 0.2);
    }

    #[test]
    fn taskset_basics() {
        assert!(matches!(
            TaskSet::new(vec![]),
            Err(SchedError::EmptyTaskSet)
        ));
        let ts = TaskSet::new(vec![
            Task::new(1.0, 4.0).unwrap(),
            Task::new(2.0, 8.0).unwrap(),
        ])
        .unwrap();
        assert_eq!(ts.len(), 2);
        assert!(!ts.is_empty());
        assert_eq!(ts.utilization(), 0.5);
        assert_eq!(ts.iter().count(), 2);
    }

    #[test]
    fn deadlines_and_periods_keep_index_order() {
        let ts = TaskSet::new(vec![
            Task::new(1.0, 20.0).unwrap().with_deadline(12.0).unwrap(),
            Task::new(1.0, 10.0).unwrap().with_deadline(9.0).unwrap(),
        ])
        .unwrap();
        let deadlines: Vec<f64> = ts.iter().map(Task::deadline).collect();
        assert_eq!(deadlines, [12.0, 9.0]);
        let periods: Vec<f64> = ts.iter().map(Task::period).collect();
        assert_eq!(periods, [20.0, 10.0]);
    }

    #[test]
    fn wcet_replacement() {
        let ts = TaskSet::new(vec![
            Task::new(1.0, 4.0).unwrap(),
            Task::new(2.0, 8.0).unwrap(),
        ])
        .unwrap();
        let inflated = ts.with_wcets(&[1.5, 3.0]).unwrap();
        assert_eq!(inflated.task(0).wcet(), 1.5);
        assert_eq!(inflated.task(1).wcet(), 3.0);
        assert!(ts.with_wcets(&[1.0]).is_err());
        assert!(ts.with_wcets(&[1.0, f64::NAN]).is_err());
        // Inflation past the deadline is allowed (just unschedulable)...
        let heavy = ts.with_wcets(&[5.0, 9.0]).unwrap();
        assert_eq!(heavy.task(0).wcet(), 5.0);
    }

    #[test]
    fn from_iterator_collects() {
        let ts: TaskSet = vec![Task::new(1.0, 4.0).unwrap()].into_iter().collect();
        assert_eq!(ts.len(), 1);
    }
}
