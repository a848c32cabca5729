//! CRPD-aware schedulability: inflate WCETs with a delay bound, then test.
//!
//! This is Eq. 5 of the paper put to work: `C′i = Ci + total_delay`, where
//! the total delay comes from either the paper's Algorithm 1 or the Eq. 4
//! state of the art, followed by the standard floating-NPR schedulability
//! tests (fixed-priority RTA with blocking, or the EDF demand test with
//! blocking). Because Algorithm 1 never exceeds Eq. 4, every task set
//! accepted under Eq. 4 inflation is also accepted under Algorithm 1
//! inflation — the acceptance-ratio experiment quantifies the gap.

use fnpr_core::{algorithm1, algorithm1_capped, eq4_bound_for_curve};
use serde::{Deserialize, Serialize};

use crate::edf::edf_schedulable_with_npr;
use crate::error::SchedError;
use crate::rta::rta_floating_npr;
use crate::task::TaskSet;
use crate::util::floor_div;

/// Per-task preemption caps under fixed priority: a job of task `i` can
/// only be preempted by releases of higher-priority tasks while it is
/// alive, and a job alive for at most `Di` sees at most
/// `Σ_{j<i} (⌊Di/Tj⌋ + 1)` such releases. For unschedulable tasks the cap is
/// irrelevant (the test fails anyway), so using the deadline instead of the
/// response time is safe.
#[must_use]
pub fn preemption_caps(tasks: &TaskSet) -> Vec<usize> {
    (0..tasks.len())
        .map(|i| {
            let di = tasks.task(i).deadline();
            (0..i)
                .map(|j| floor_div(di, tasks.task(j).period()) as usize + 1)
                .sum()
        })
        .collect()
}

/// Per-task preemption caps under EDF: a job of task `i` can be preempted
/// by a release of *any* other task whose absolute deadline lands earlier,
/// so every other task's releases within the job's lifetime count:
/// `Σ_{j≠i} (⌊Di/Tj⌋ + 1)`.
#[must_use]
pub fn preemption_caps_edf(tasks: &TaskSet) -> Vec<usize> {
    (0..tasks.len())
        .map(|i| {
            let di = tasks.task(i).deadline();
            (0..tasks.len())
                .filter(|&j| j != i)
                .map(|j| floor_div(di, tasks.task(j).period()) as usize + 1)
                .sum()
        })
        .collect()
}

/// Which cumulative-preemption-delay bound inflates the WCETs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DelayMethod {
    /// No inflation (preemption delay ignored — optimistic baseline).
    None,
    /// The Eq. 4 state-of-the-art bound (`⌈C′/Q⌉ × max fi`, iterated).
    Eq4,
    /// The paper's Algorithm 1 (progression-aware windows).
    Algorithm1,
    /// Algorithm 1 charging only each task's largest window charges, up to
    /// the number of releases that can preempt one of its jobs (the paper's
    /// future-work item (ii), implemented as
    /// [`fnpr_core::algorithm1_capped`]). The fixed-priority paths
    /// ([`inflate_wcets`], [`fp_schedulable_with_delay`]) count
    /// higher-priority releases ([`preemption_caps`]) and so require tasks
    /// in fixed-priority order; the EDF and global paths count every other
    /// task's releases ([`preemption_caps_edf`]), where order does not
    /// matter.
    Algorithm1Capped,
}

/// Per-task inflation outcome: the inflated WCET, or `None` when the bound
/// diverges (the task cannot amortise its worst-case delay within `Q`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Inflation {
    /// Inflated WCETs in task-set order (`None` = divergent).
    pub wcets: Vec<Option<f64>>,
    /// The method used.
    pub method: DelayMethod,
}

impl Inflation {
    /// The finite WCET vector, if every task converged.
    #[must_use]
    pub fn finite_wcets(&self) -> Option<Vec<f64>> {
        self.wcets.iter().copied().collect()
    }

    /// Total inflation added across the task set (`Σ (C′ − C)`); `None` when
    /// any task diverged.
    #[must_use]
    pub fn total_overhead(&self, tasks: &TaskSet) -> Option<f64> {
        let mut sum = 0.0;
        for (w, t) in self.wcets.iter().zip(tasks.iter()) {
            sum += (*w)? - t.wcet();
        }
        Some(sum)
    }
}

/// Computes the inflated WCETs of every task under the chosen method, with
/// [`DelayMethod::Algorithm1Capped`] capped by [`preemption_caps`].
///
/// Every task needs a `Qi` and (for the delay-aware methods) a delay curve;
/// the curve's own domain is used as the execution profile and the
/// difference `C′ − C_curve` is added on top of the task's declared WCET, so
/// curves tighter than the declared WCET remain sound.
///
/// # Errors
///
/// * [`SchedError::MissingQ`] / [`SchedError::MissingCurve`] when a task
///   lacks the needed attributes;
/// * [`SchedError::Analysis`] when a bound computation itself errors.
///
/// # Examples
///
/// ```
/// use fnpr_core::DelayCurve;
/// use fnpr_sched::{inflate_wcets, DelayMethod, Task, TaskSet};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fi = DelayCurve::from_breakpoints([(0.0, 2.0), (10.0, 0.0)], 20.0)?;
/// let ts = TaskSet::new(vec![
///     Task::new(20.0, 100.0)?.with_q(8.0)?.with_delay_curve(fi),
/// ])?;
/// let alg1 = inflate_wcets(&ts, DelayMethod::Algorithm1)?;
/// let eq4 = inflate_wcets(&ts, DelayMethod::Eq4)?;
/// assert!(alg1.wcets[0].unwrap() <= eq4.wcets[0].unwrap());
/// # Ok(())
/// # }
/// ```
pub fn inflate_wcets(tasks: &TaskSet, method: DelayMethod) -> Result<Inflation, SchedError> {
    inflate(tasks, method, preemption_caps)
}

/// The single inflation path: each task's bound is one fnpr-core call on
/// its own curve and `Qi` ([`eq4_bound_for_curve`], [`algorithm1`] or
/// [`algorithm1_capped`]). The cap rule `caps` is evaluated only for
/// [`DelayMethod::Algorithm1Capped`].
fn inflate(
    tasks: &TaskSet,
    method: DelayMethod,
    caps: fn(&TaskSet) -> Vec<usize>,
) -> Result<Inflation, SchedError> {
    let caps = match method {
        DelayMethod::Algorithm1Capped => caps(tasks),
        _ => Vec::new(),
    };
    if matches!(method, DelayMethod::Algorithm1Capped) && caps.len() != tasks.len() {
        return Err(SchedError::InvalidTask {
            what: "caps length",
            value: caps.len() as f64,
        });
    }
    let mut wcets = Vec::with_capacity(tasks.len());
    for (index, task) in tasks.iter().enumerate() {
        if matches!(method, DelayMethod::None) {
            wcets.push(Some(task.wcet()));
            continue;
        }
        let q = task.q().ok_or(SchedError::MissingQ { index })?;
        let curve = task
            .delay_curve()
            .ok_or(SchedError::MissingCurve { index })?;
        let total = match method {
            DelayMethod::None => unreachable!("handled above"),
            DelayMethod::Eq4 => eq4_bound_for_curve(curve, q)?.total_delay(),
            DelayMethod::Algorithm1 => algorithm1(curve, q)?.total_delay(),
            DelayMethod::Algorithm1Capped => {
                algorithm1_capped(curve, q, caps[index])?.map(|b| b.total_delay)
            }
        };
        wcets.push(total.map(|delay| task.wcet() + delay));
    }
    Ok(Inflation { wcets, method })
}

/// The Eq. 5-inflated copy of the task set: `C′i = Ci + delay bound`, or
/// `None` when any task's bound diverges (the set is unschedulable under
/// that method). `caps` is the preemption-cap rule for
/// [`DelayMethod::Algorithm1Capped`] — [`preemption_caps`] under fixed
/// priority, [`preemption_caps_edf`] under EDF or global scheduling — and is
/// not evaluated for the other methods.
///
/// This is the reusable half of [`fp_schedulable_with_delay`] and
/// [`edf_schedulable_with_delay`]: multicore analyses inflate once and then
/// run their own (per-core or global) test on the result. The bounds read
/// each curve as stored; [`crate::delay_tolerance`] scales the curves
/// first, with [`crate::scale_delay_curves`].
///
/// The copy carries timing only (see [`crate::TaskSet::with_wcets`]): each
/// task keeps `Qi` and drops its delay curve, because the tests run on it
/// (RTA, the EDF demand test, the global density and BCL tests) read only
/// `C′`, `T`, `D` and `Qi`. Inflating the copy again with a delay-aware
/// method is therefore a [`SchedError::MissingCurve`] error instead of a
/// second charge of the same delay.
///
/// # Errors
///
/// As [`inflate_wcets`], plus [`SchedError::InvalidTask`] when `caps`
/// returns a cap count other than the task count.
pub fn inflated_taskset(
    tasks: &TaskSet,
    method: DelayMethod,
    caps: fn(&TaskSet) -> Vec<usize>,
) -> Result<Option<TaskSet>, SchedError> {
    match inflate(tasks, method, caps)?.finite_wcets() {
        Some(wcets) => tasks.with_wcets(&wcets).map(Some),
        None => Ok(None),
    }
}

/// Fixed-priority floating-NPR schedulability with delay-inflated WCETs
/// (tasks in priority order; [`DelayMethod::Algorithm1Capped`] uses
/// [`preemption_caps`]).
///
/// Returns `false` when any inflation diverges.
///
/// # Errors
///
/// As [`inflate_wcets`] and the underlying RTA.
pub fn fp_schedulable_with_delay(tasks: &TaskSet, method: DelayMethod) -> Result<bool, SchedError> {
    let Some(inflated) = inflated_taskset(tasks, method, preemption_caps)? else {
        return Ok(false);
    };
    Ok(rta_floating_npr(&inflated)?.schedulable())
}

/// EDF floating-NPR schedulability with delay-inflated WCETs
/// ([`DelayMethod::Algorithm1Capped`] uses [`preemption_caps_edf`]: under
/// EDF every other task's releases can preempt, not just the
/// higher-indexed ones).
///
/// Returns `false` when any inflation diverges.
///
/// # Errors
///
/// As [`inflate_wcets`] and the underlying demand test.
pub fn edf_schedulable_with_delay(
    tasks: &TaskSet,
    method: DelayMethod,
) -> Result<bool, SchedError> {
    let Some(inflated) = inflated_taskset(tasks, method, preemption_caps_edf)? else {
        return Ok(false);
    };
    edf_schedulable_with_npr(&inflated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;
    use fnpr_core::DelayCurve;

    fn curved_task(c: f64, t: f64, q: f64, delay: f64) -> Task {
        let curve = DelayCurve::constant(delay, c).unwrap();
        Task::new(c, t)
            .unwrap()
            .with_q(q)
            .unwrap()
            .with_delay_curve(curve)
    }

    #[test]
    fn method_none_is_identity() {
        let ts = TaskSet::new(vec![Task::new(2.0, 10.0).unwrap()]).unwrap();
        let inf = inflate_wcets(&ts, DelayMethod::None).unwrap();
        assert_eq!(inf.wcets, vec![Some(2.0)]);
        assert!(inf.wcets.iter().all(Option::is_some));
        assert_eq!(inf.total_overhead(&ts), Some(0.0));
    }

    #[test]
    fn missing_attributes_are_errors() {
        let no_q = TaskSet::new(vec![Task::new(2.0, 10.0).unwrap()]).unwrap();
        assert!(matches!(
            inflate_wcets(&no_q, DelayMethod::Eq4),
            Err(SchedError::MissingQ { index: 0 })
        ));
        let no_curve =
            TaskSet::new(vec![Task::new(2.0, 10.0).unwrap().with_q(1.0).unwrap()]).unwrap();
        assert!(matches!(
            inflate_wcets(&no_curve, DelayMethod::Algorithm1),
            Err(SchedError::MissingCurve { index: 0 })
        ));
    }

    #[test]
    fn inflated_copies_carry_timing_only() {
        let ts = TaskSet::new(vec![
            curved_task(10.0, 50.0, 4.0, 2.0),
            curved_task(20.0, 100.0, 8.0, 3.0),
        ])
        .unwrap();
        for (method, caps) in [
            (
                DelayMethod::Eq4,
                preemption_caps as fn(&TaskSet) -> Vec<usize>,
            ),
            (DelayMethod::Algorithm1, preemption_caps),
            (DelayMethod::Algorithm1Capped, preemption_caps_edf),
        ] {
            let inflated = inflated_taskset(&ts, method, caps)
                .unwrap()
                .expect("converges");
            for (copy, task) in inflated.iter().zip(ts.iter()) {
                assert!(copy.delay_curve().is_none(), "{method:?}");
                assert_eq!(copy.q(), task.q());
                assert_eq!(copy.period(), task.period());
                assert_eq!(copy.deadline(), task.deadline());
            }
            // The delay is already in C′: inflating again cannot charge it
            // a second time.
            for again in [
                DelayMethod::Eq4,
                DelayMethod::Algorithm1,
                DelayMethod::Algorithm1Capped,
            ] {
                assert!(matches!(
                    inflated_taskset(&inflated, again, caps),
                    Err(SchedError::MissingCurve { index: 0 })
                ));
            }
            let none = inflated_taskset(&inflated, DelayMethod::None, caps).unwrap();
            assert_eq!(none, Some(inflated));
        }
    }

    #[test]
    fn algorithm1_never_exceeds_eq4() {
        let ts = TaskSet::new(vec![
            curved_task(10.0, 50.0, 4.0, 2.0),
            curved_task(20.0, 100.0, 8.0, 3.0),
        ])
        .unwrap();
        let alg1 = inflate_wcets(&ts, DelayMethod::Algorithm1).unwrap();
        let eq4 = inflate_wcets(&ts, DelayMethod::Eq4).unwrap();
        for (a, e) in alg1.wcets.iter().zip(&eq4.wcets) {
            assert!(a.unwrap() <= e.unwrap() + 1e-9);
        }
        assert!(alg1.total_overhead(&ts).unwrap() <= eq4.total_overhead(&ts).unwrap());
    }

    #[test]
    fn divergent_inflation_is_unschedulable() {
        // Delay 5 >= Q 4: both methods diverge.
        let ts = TaskSet::new(vec![curved_task(10.0, 100.0, 4.0, 5.0)]).unwrap();
        let inf = inflate_wcets(&ts, DelayMethod::Eq4).unwrap();
        assert_eq!(inf.wcets, vec![None]);
        assert!(!inf.wcets.iter().all(Option::is_some));
        assert_eq!(inf.total_overhead(&ts), None);
        assert!(!fp_schedulable_with_delay(&ts, DelayMethod::Eq4).unwrap());
        assert!(!edf_schedulable_with_delay(&ts, DelayMethod::Algorithm1).unwrap());
    }

    #[test]
    fn acceptance_gap_exists() {
        // A set schedulable under Algorithm 1 inflation but not under Eq. 4:
        // shaped curve (expensive only early), tight deadlines.
        let curve = DelayCurve::from_breakpoints([(0.0, 3.0), (6.0, 0.0)], 30.0).unwrap();
        let heavy = Task::new(30.0, 60.0)
            .unwrap()
            .with_deadline(50.0)
            .unwrap()
            .with_q(4.0)
            .unwrap()
            .with_delay_curve(curve);
        let light = Task::new(4.0, 30.0)
            .unwrap()
            .with_q(4.0)
            .unwrap()
            .with_delay_curve(DelayCurve::constant(0.0, 4.0).unwrap());
        let ts = TaskSet::new(vec![light, heavy]).unwrap();
        let alg1 = fp_schedulable_with_delay(&ts, DelayMethod::Algorithm1).unwrap();
        let eq4 = fp_schedulable_with_delay(&ts, DelayMethod::Eq4).unwrap();
        assert!(alg1, "Algorithm 1 inflation should accept this set");
        assert!(!eq4, "Eq. 4 inflation should reject this set");
    }

    #[test]
    fn preemption_caps_count_higher_priority_releases() {
        let ts = TaskSet::new(vec![
            Task::new(1.0, 10.0).unwrap(),
            Task::new(2.0, 25.0).unwrap(),
            Task::new(3.0, 100.0).unwrap().with_deadline(50.0).unwrap(),
        ])
        .unwrap();
        // τ0: nothing above it. τ1: floor(25/10)+1 = 3. τ2: floor(50/10)+1
        // + floor(50/25)+1 = 6 + 3 = 9.
        assert_eq!(preemption_caps(&ts), vec![0, 3, 9]);
    }

    #[test]
    fn edf_caps_count_every_other_task() {
        let ts = TaskSet::new(vec![
            Task::new(1.0, 10.0).unwrap(),
            Task::new(2.0, 25.0).unwrap(),
        ])
        .unwrap();
        // τ0 (D=10): floor(10/25)+1 = 1 from τ1. τ1 (D=25): floor(25/10)+1
        // = 3 from τ0.
        assert_eq!(preemption_caps_edf(&ts), vec![1, 3]);
        // FP caps give τ0 zero (nothing above it).
        assert_eq!(preemption_caps(&ts), vec![0, 3]);
    }

    #[test]
    fn edf_capped_acceptance_dominates_plain() {
        let ts = TaskSet::new(vec![
            curved_task(2.0, 20.0, 1.0, 0.5),
            curved_task(8.0, 50.0, 3.0, 2.0),
        ])
        .unwrap();
        let plain = edf_schedulable_with_delay(&ts, DelayMethod::Algorithm1).unwrap();
        let capped = edf_schedulable_with_delay(&ts, DelayMethod::Algorithm1Capped).unwrap();
        if plain {
            assert!(capped, "EDF capped must accept whatever plain accepts");
        }
        // And a cap rule must return one cap per task.
        assert!(inflated_taskset(&ts, DelayMethod::Algorithm1Capped, |_| vec![1]).is_err());
    }

    #[test]
    fn edf_capped_charges_every_other_task() {
        // τ0 pays 3.5 per window. The fixed-priority rule leaves it
        // uninflated (nothing above it: cap 0); under EDF τ1's releases
        // preempt it too (cap ⌊20/20⌋ + 1 = 2), so it pays 2 × 3.5. τ1's
        // curve is flat zero, so it is never inflated.
        let ts = TaskSet::new(vec![
            curved_task(10.0, 20.0, 4.0, 3.5),
            curved_task(9.0, 20.0, 4.0, 0.0),
        ])
        .unwrap();
        assert_eq!(preemption_caps(&ts)[0], 0);
        assert_eq!(preemption_caps_edf(&ts)[0], 2);
        let method = DelayMethod::Algorithm1Capped;
        let fp_capped = inflated_taskset(&ts, method, preemption_caps)
            .unwrap()
            .expect("converges");
        assert_eq!(fp_capped.task(0).wcet(), 10.0);
        // Demand at t = 20: 10 + 9 fits; 17 + 9 does not.
        assert!(edf_schedulable_with_npr(&fp_capped).unwrap());
        assert!(!edf_schedulable_with_delay(&ts, method).unwrap());
    }

    #[test]
    fn capped_never_exceeds_plain_algorithm1() {
        let ts = TaskSet::new(vec![
            curved_task(5.0, 200.0, 2.0, 1.0),
            curved_task(40.0, 400.0, 6.0, 3.0),
        ])
        .unwrap();
        let plain = inflate_wcets(&ts, DelayMethod::Algorithm1).unwrap();
        let capped = inflate_wcets(&ts, DelayMethod::Algorithm1Capped).unwrap();
        for (c, p) in capped.wcets.iter().zip(&plain.wcets) {
            assert!(c.unwrap() <= p.unwrap() + 1e-9);
        }
        // The highest-priority task has cap 0: no inflation at all.
        assert_eq!(capped.wcets[0], Some(5.0));
    }

    #[test]
    fn capped_acceptance_dominates_plain() {
        // Any set accepted under plain Algorithm 1 is accepted under the
        // capped variant too.
        let ts = TaskSet::new(vec![
            curved_task(2.0, 20.0, 1.0, 0.5),
            curved_task(8.0, 50.0, 3.0, 2.0),
            curved_task(10.0, 120.0, 4.0, 2.5),
        ])
        .unwrap();
        let plain = fp_schedulable_with_delay(&ts, DelayMethod::Algorithm1).unwrap();
        let capped = fp_schedulable_with_delay(&ts, DelayMethod::Algorithm1Capped).unwrap();
        if plain {
            assert!(capped);
        }
    }

    #[test]
    fn fp_and_edf_paths_agree_on_easy_sets() {
        let ts = TaskSet::new(vec![
            curved_task(1.0, 20.0, 0.5, 0.2),
            curved_task(2.0, 40.0, 0.5, 0.2),
        ])
        .unwrap();
        assert!(fp_schedulable_with_delay(&ts, DelayMethod::Algorithm1).unwrap());
        assert!(edf_schedulable_with_delay(&ts, DelayMethod::Algorithm1).unwrap());
        assert!(fp_schedulable_with_delay(&ts, DelayMethod::None).unwrap());
    }
}
