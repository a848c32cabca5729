//! Priority assignment: Audsley's optimal algorithm under floating-NPR
//! blocking.
//!
//! Deadline-monotonic ordering is optimal for constrained deadlines without
//! blocking, but lower-priority non-preemptive regions break that
//! optimality. Audsley's algorithm remains applicable because a task's
//! schedulability at a priority level depends only on the *set* (not the
//! order) of higher-priority tasks — which determines the interference —
//! and the *set* of lower-priority tasks — which determines the blocking
//! `max Qj`. Levels are assigned bottom-up: at each level, any task that is
//! schedulable there (given all still-unassigned tasks above it) can take
//! it; if none can, no fixed-priority ordering works for this test.

use crate::error::SchedError;
use crate::task::{Task, TaskSet};
use crate::util::ceil_div;

/// Outcome of Audsley's assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum Assignment {
    /// A feasible priority order was found: original task indices from
    /// highest to lowest priority.
    Feasible(Vec<usize>),
    /// No fixed-priority order passes the floating-NPR RTA test.
    Infeasible,
}

impl Assignment {
    /// The order, if feasible.
    #[must_use]
    pub fn order(&self) -> Option<&[usize]> {
        match self {
            Assignment::Feasible(order) => Some(order),
            Assignment::Infeasible => None,
        }
    }
}

/// Response-time feasibility of `task` at the lowest level of `above`
/// (interference from every task in `above`, blocking `blocking`).
fn feasible_at_level(task: &Task, above: &[&Task], blocking: f64) -> bool {
    let mut r = task.wcet() + blocking;
    for _ in 0..100_000 {
        if r > task.deadline() + 1e-9 {
            return false;
        }
        let mut next = task.wcet() + blocking;
        for hp in above {
            next += ceil_div(r, hp.period()) * hp.wcet();
        }
        if next == r {
            return true;
        }
        r = next;
    }
    false
}

/// Runs Audsley's algorithm under floating-NPR blocking and returns a
/// feasible priority order (original indices, highest priority first), or
/// [`Assignment::Infeasible`].
///
/// Tasks without a `Qi` contribute no blocking.
///
/// # Errors
///
/// Returns [`SchedError::EmptyTaskSet`] via the task-set contract only;
/// present for future extension (the algorithm itself is total).
///
/// # Examples
///
/// ```
/// use fnpr_sched::{audsley_floating_npr, Task, TaskSet};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::new(vec![
///     Task::new(1.0, 4.0)?,
///     Task::new(2.0, 6.0)?.with_q(1.0)?,
/// ])?;
/// let assignment = audsley_floating_npr(&ts)?;
/// assert!(assignment.order().is_some());
/// # Ok(())
/// # }
/// ```
pub fn audsley_floating_npr(tasks: &TaskSet) -> Result<Assignment, SchedError> {
    let n = tasks.len();
    let mut unassigned: Vec<usize> = (0..n).collect();
    // Filled lowest priority first, reversed at the end.
    let mut bottom_up: Vec<usize> = Vec::with_capacity(n);
    let mut assigned_lower: Vec<usize> = Vec::new();
    while !unassigned.is_empty() {
        // Blocking at this level: regions of the already-assigned (lower)
        // tasks.
        let blocking = assigned_lower
            .iter()
            .filter_map(|&j| tasks.task(j).q())
            .fold(0.0f64, f64::max);
        let mut chosen: Option<usize> = None;
        for (k, &candidate) in unassigned.iter().enumerate() {
            let above: Vec<&Task> = unassigned
                .iter()
                .filter(|&&x| x != candidate)
                .map(|&x| tasks.task(x))
                .collect();
            if feasible_at_level(tasks.task(candidate), &above, blocking) {
                chosen = Some(k);
                break;
            }
        }
        match chosen {
            Some(k) => {
                let candidate = unassigned.remove(k);
                bottom_up.push(candidate);
                assigned_lower.push(candidate);
            }
            None => return Ok(Assignment::Infeasible),
        }
    }
    bottom_up.reverse();
    Ok(Assignment::Feasible(bottom_up))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rta::rta_floating_npr;

    fn reorder(tasks: &TaskSet, order: &[usize]) -> TaskSet {
        TaskSet::new(order.iter().map(|&i| tasks.task(i).clone()).collect()).unwrap()
    }

    #[test]
    fn schedulable_set_gets_an_order_that_passes_rta() {
        let ts = TaskSet::new(vec![
            Task::new(2.0, 12.0).unwrap().with_q(1.0).unwrap(),
            Task::new(1.0, 4.0).unwrap().with_q(0.5).unwrap(),
            Task::new(2.0, 9.0).unwrap().with_q(1.0).unwrap(),
        ])
        .unwrap();
        let assignment = audsley_floating_npr(&ts).unwrap();
        let order = assignment.order().expect("feasible").to_vec();
        let reordered = reorder(&ts, &order);
        assert!(rta_floating_npr(&reordered).unwrap().schedulable());
    }

    #[test]
    fn overloaded_set_is_infeasible() {
        let ts = TaskSet::new(vec![
            Task::new(4.0, 5.0).unwrap(),
            Task::new(4.0, 5.0).unwrap(),
        ])
        .unwrap();
        assert_eq!(audsley_floating_npr(&ts).unwrap(), Assignment::Infeasible);
    }

    #[test]
    fn recovers_sets_where_input_order_fails() {
        // Input order (low-period task last) fails RTA, but the
        // rate-monotonic-ish order Audsley finds passes.
        let ts = TaskSet::new(vec![
            Task::new(5.0, 20.0).unwrap(),
            Task::new(1.0, 4.0).unwrap().with_deadline(2.0).unwrap(),
        ])
        .unwrap();
        // As given: τ0 at top, τ1 below: τ1's response = 1 + 5 = 6 > 2.
        assert!(!rta_floating_npr(&ts).unwrap().schedulable());
        let assignment = audsley_floating_npr(&ts).unwrap();
        let order = assignment.order().expect("feasible");
        assert_eq!(order, &[1, 0]); // short-deadline task first
        assert!(rta_floating_npr(&reorder(&ts, order))
            .unwrap()
            .schedulable());
    }

    #[test]
    fn blocking_is_respected_during_assignment() {
        // A long lower-priority region makes the tight task infeasible at
        // any level above it... unless the tight task sits at the bottom?
        // No: at the bottom it suffers full interference. Audsley must
        // place the tight task on top *and* account for the region of the
        // heavy one below.
        let tight = Task::new(1.0, 10.0).unwrap().with_deadline(2.0).unwrap();
        let heavy = Task::new(6.0, 20.0).unwrap().with_q(0.8).unwrap();
        let ts = TaskSet::new(vec![heavy, tight]).unwrap();
        let assignment = audsley_floating_npr(&ts).unwrap();
        let order = assignment.order().expect("feasible");
        // Tight task (original index 1) must take the top level; its
        // response there is 1 + 0.8 blocking = 1.8 <= 2.
        assert_eq!(order[0], 1);
        assert!(rta_floating_npr(&reorder(&ts, order))
            .unwrap()
            .schedulable());
    }

    #[test]
    fn blocking_can_make_everything_infeasible() {
        // Same tight task, but the heavy region exceeds its slack.
        let tight = Task::new(1.0, 10.0).unwrap().with_deadline(2.0).unwrap();
        let heavy = Task::new(6.0, 8.0).unwrap().with_q(1.5).unwrap();
        let ts = TaskSet::new(vec![heavy, tight]).unwrap();
        // Top level for tight: 1 + 1.5 = 2.5 > 2; bottom level: 1 + 6
        // interference > 2. Heavy cannot sit below tight either way around
        // the levels work out infeasible.
        assert_eq!(audsley_floating_npr(&ts).unwrap(), Assignment::Infeasible);
    }

    #[test]
    fn single_task_is_trivially_feasible() {
        let ts = TaskSet::new(vec![Task::new(1.0, 5.0).unwrap()]).unwrap();
        let assignment = audsley_floating_npr(&ts).unwrap();
        assert_eq!(assignment.order(), Some(&[0usize][..]));
    }
}
