//! Fixed-priority response-time analysis with blocking.
//!
//! Standard RTA (Joseph & Pandya / Audsley) extended with a blocking term
//! for limited-preemption scheduling: under floating non-preemptive regions
//! a task `τi` can be blocked by at most one lower-priority region, of
//! length `max {Qj : j lower priority than i}`.
//!
//! The CRPD-aware flavour of the paper plugs in *inflated* WCETs (Eq. 5:
//! `C′ = C + total_delay` with the delay bound from Algorithm 1 or Eq. 4)
//! and then runs this analysis unchanged — see [`crate::inflate`].

use crate::error::SchedError;
use crate::task::TaskSet;
use crate::util::ceil_div;

/// Iteration cap for the response-time fixpoint.
pub const DEFAULT_MAX_ITERATIONS: usize = 100_000;

/// Absolute tolerance for deadline comparisons. Blocking terms computed
/// from tolerances (`Q = D − C`) are tight by construction; without a
/// tolerance a one-ulp rounding in `C + Q` would flip `R = D` into a
/// spurious deadline miss.
const TIME_TOLERANCE: f64 = 1e-9;

/// Response-time analysis result for one task set.
#[derive(Debug, Clone, PartialEq)]
pub struct RtaResult {
    /// Worst-case response time per task (index order), `None` when the
    /// fixpoint exceeded the deadline (the iteration stops there — the task
    /// is unschedulable and the exact response time is not needed).
    pub response_times: Vec<Option<f64>>,
}

impl RtaResult {
    /// `true` when every task met its deadline.
    #[must_use]
    pub fn schedulable(&self) -> bool {
        self.response_times.iter().all(Option::is_some)
    }
}

/// Runs RTA on `tasks` (index 0 = highest priority) with per-task blocking
/// terms `blocking[i]` (use zeros for fully-preemptive scheduling).
///
/// The fixpoint for task `i` is
///
/// ```text
/// R = Ci + Bi + Σ_{j < i} ⌈R / Tj⌉ · Cj
/// ```
///
/// iterated from `Ci + Bi` until stable or past the deadline.
///
/// # Errors
///
/// * [`SchedError::InvalidTask`] if `blocking` has the wrong length or a
///   negative/non-finite entry;
/// * [`SchedError::IterationLimit`] if a fixpoint fails to stabilise.
///
/// # Examples
///
/// ```
/// use fnpr_sched::{response_time_analysis, Task, TaskSet};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The classic example: C=(1,2,3), T=(4,6,13), rate-monotonic order.
/// let ts = TaskSet::new(vec![
///     Task::new(1.0, 4.0)?,
///     Task::new(2.0, 6.0)?,
///     Task::new(3.0, 13.0)?,
/// ])?;
/// let rta = response_time_analysis(&ts, &[0.0, 0.0, 0.0])?;
/// assert!(rta.schedulable());
/// assert_eq!(rta.response_times[0], Some(1.0));
/// assert_eq!(rta.response_times[1], Some(3.0));
/// // τ3 converges through 3 → 6 → 7 → 9 → 10 → 10.
/// assert_eq!(rta.response_times[2], Some(10.0));
/// # Ok(())
/// # }
/// ```
pub fn response_time_analysis(tasks: &TaskSet, blocking: &[f64]) -> Result<RtaResult, SchedError> {
    let what = "blocking";
    if blocking.len() != tasks.len() {
        return Err(SchedError::InvalidTask {
            what,
            value: blocking.len() as f64,
        });
    }
    for &v in blocking {
        if !(v.is_finite() && v >= 0.0) {
            return Err(SchedError::InvalidTask { what, value: v });
        }
    }
    let mut response_times = Vec::with_capacity(tasks.len());
    for (i, &block_term) in blocking.iter().enumerate() {
        response_times.push(fixpoint(tasks, i, block_term)?);
    }
    Ok(RtaResult { response_times })
}

/// Iterates task `i`'s response-time recurrence from `Ci + Bi` until a
/// fixpoint or past the deadline. `Ok(None)` is a deadline miss; the
/// iteration limit is an error only while still under the deadline.
fn fixpoint(tasks: &TaskSet, i: usize, block_term: f64) -> Result<Option<f64>, SchedError> {
    let ti = tasks.task(i);
    let mut r = ti.wcet() + block_term;
    fnpr_obs::counter!("sched.rta.fixpoints").incr();
    for _ in 0..DEFAULT_MAX_ITERATIONS {
        fnpr_obs::counter!("sched.rta.iterations").incr();
        if r > ti.deadline() + TIME_TOLERANCE {
            return Ok(None);
        }
        let mut next = ti.wcet() + block_term;
        for j in 0..i {
            let tj = tasks.task(j);
            next += ceil_div(r, tj.period()) * tj.wcet();
        }
        if next <= r {
            // `next == r` is the fixpoint; `next < r` cannot happen for a
            // monotone map climbing from below its least fixpoint, and is
            // accepted defensively.
            return Ok(Some(r));
        }
        r = next;
    }
    if r <= ti.deadline() {
        Err(SchedError::IterationLimit {
            limit: DEFAULT_MAX_ITERATIONS,
        })
    } else {
        // Exhausted inside the deadline's tolerance band: a miss.
        Ok(None)
    }
}

/// Blocking terms for floating-NPR fixed-priority scheduling: task `i` can
/// be blocked by the longest region of any lower-priority task.
///
/// Tasks without a `Qi` contribute no blocking (they run fully
/// preemptively).
#[must_use]
pub fn floating_npr_blocking(tasks: &TaskSet) -> Vec<f64> {
    (0..tasks.len())
        .map(|i| {
            (i + 1..tasks.len())
                .filter_map(|j| tasks.task(j).q())
                .fold(0.0, f64::max)
        })
        .collect()
}

/// Convenience: RTA under floating-NPR blocking.
///
/// # Errors
///
/// As [`response_time_analysis`].
pub fn rta_floating_npr(tasks: &TaskSet) -> Result<RtaResult, SchedError> {
    let blocking = floating_npr_blocking(tasks);
    response_time_analysis(tasks, &blocking)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn textbook_example() {
        let tasks = ts(&[(1.0, 4.0), (2.0, 6.0), (3.0, 13.0)]);
        let rta = response_time_analysis(&tasks, &[0.0; 3]).unwrap();
        assert_eq!(rta.response_times, vec![Some(1.0), Some(3.0), Some(10.0)]);
        assert!(rta.schedulable());
        assert_eq!(rta.response_times.iter().flatten().count(), 3);
    }

    #[test]
    fn unschedulable_task_detected() {
        // τ2 cannot fit: C=3, D=T=5 with τ1 (3,5) interference.
        let tasks = ts(&[(3.0, 5.0), (3.0, 5.0)]);
        let rta = response_time_analysis(&tasks, &[0.0, 0.0]).unwrap();
        assert_eq!(rta.response_times[0], Some(3.0));
        assert_eq!(rta.response_times[1], None);
        assert!(!rta.schedulable());
        assert_eq!(rta.response_times.iter().flatten().count(), 1);
    }

    #[test]
    fn blocking_increases_response() {
        let tasks = ts(&[(1.0, 4.0), (2.0, 6.0)]);
        let free = response_time_analysis(&tasks, &[0.0, 0.0]).unwrap();
        let blocked = response_time_analysis(&tasks, &[1.0, 0.0]).unwrap();
        assert!(blocked.response_times[0].unwrap() > free.response_times[0].unwrap());
    }

    #[test]
    fn blocking_can_break_schedulability() {
        let tasks = ts(&[(2.0, 4.0), (1.0, 6.0)]);
        assert!(response_time_analysis(&tasks, &[0.0, 0.0])
            .unwrap()
            .schedulable());
        let rta = response_time_analysis(&tasks, &[2.5, 0.0]).unwrap();
        assert_eq!(rta.response_times[0], None); // 2 + 2.5 > 4
    }

    #[test]
    fn floating_npr_blocking_takes_lower_priority_max() {
        let tasks = TaskSet::new(vec![
            Task::new(1.0, 10.0).unwrap(),
            Task::new(1.0, 20.0).unwrap().with_q(3.0).unwrap(),
            Task::new(1.0, 40.0).unwrap().with_q(7.0).unwrap(),
        ])
        .unwrap();
        assert_eq!(floating_npr_blocking(&tasks), vec![7.0, 7.0, 0.0]);
        let rta = rta_floating_npr(&tasks).unwrap();
        assert!(rta.schedulable());
        assert_eq!(rta.response_times[0], Some(8.0)); // 1 + 7 blocking
    }

    #[test]
    fn exact_multiple_interference() {
        // R hits an exact multiple of a period: ceil must not round up the
        // noise (1.2/0.4 etc.).
        let tasks = ts(&[(0.4, 2.0), (0.8, 4.0)]);
        let rta = response_time_analysis(&tasks, &[0.0, 0.0]).unwrap();
        let r = rta.response_times[1].expect("schedulable");
        assert!((r - 1.2).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_blocking() {
        let tasks = ts(&[(1.0, 4.0)]);
        assert!(response_time_analysis(&tasks, &[]).is_err());
        assert!(response_time_analysis(&tasks, &[-1.0]).is_err());
        assert!(response_time_analysis(&tasks, &[f64::NAN]).is_err());
    }
}
