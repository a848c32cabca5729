//! Global multiprocessor schedulability with floating-NPR blocking and
//! Eq. 5 WCET inflation.
//!
//! Two sufficient-test families are reproduced, both extended with a
//! lower-priority non-preemptive-region blocking term and both fed
//! delay-*inflated* WCETs (`C′ = C + bound`) before the test runs — the
//! same composition the paper uses on one core:
//!
//! * the **density bound** of Goossens–Funk–Baruah ([`global_edf_density`]):
//!   `Σ δi ≤ m − (m−1)·δmax` with `δi = (C′i + Bi)/min(Di, Ti)`;
//! * the **BCL workload test** of Bertogna, Cirinei & Lipari
//!   ([`global_edf_bcl`] / [`global_fp_bcl`], see arXiv:1101.1718 for the
//!   survey shape): task `i` passes if the interfering workload of every
//!   other (EDF) or every higher-priority (FP) task, clipped to the slack,
//!   leaves `m` cores enough room:
//!   `Σj min(Wj(Di), Di − C′i − Bi) < m · (Di − C′i − Bi)`.
//!
//! The blocking term `Bi` is the largest region length of any
//! longer-deadline (EDF) / lower-priority (FP) task — a job is dispatched
//! as soon as one core stops being held by a lower-priority region, so a
//! single maximal region is a sound, deliberately simple bound (tighter
//! `m`-th-largest variants exist; see the crate docs for what is
//! implemented vs. cited).
//!
//! Both tests are monotone in every WCET, so the paper's dominance chain
//! (Algorithm 1 inflation accepts whatever Eq. 4 inflation accepts)
//! carries over to the multiprocessor setting — property-tested in the
//! crate's test suite.

use fnpr_sched::{inflated_taskset, preemption_caps_edf, DelayMethod, SchedError, Task, TaskSet};
use fnpr_synth::Policy;

/// Time-comparison tolerance mirroring the uniprocessor tests.
const TIME_TOLERANCE: f64 = 1e-9;

/// Largest region length among tasks that can block `i`: longer-deadline
/// tasks under EDF, lower-priority (higher-index) tasks under FP. Tasks
/// without a `Qi` block nothing.
fn blocking_term(tasks: &TaskSet, i: usize, policy: Policy) -> f64 {
    let di = tasks.task(i).deadline();
    tasks
        .iter()
        .enumerate()
        .filter(|&(j, task)| match policy {
            Policy::FixedPriority => j > i,
            Policy::Edf => task.deadline() > di,
        })
        .filter_map(|(_, task)| task.q())
        .fold(0.0, f64::max)
}

/// The density bound on `m` identical cores, with per-task NPR blocking
/// folded into each density: `Σ (C′i + Bi)/min(Di,Ti) ≤ m − (m−1)·δmax`.
/// Deadline ordering is irrelevant (an EDF-family test).
///
/// # Panics
///
/// Panics if `m == 0`.
#[must_use]
pub fn global_edf_density(tasks: &TaskSet, m: usize) -> bool {
    assert!(m >= 1, "need at least one core");
    fnpr_obs::counter!("multicore.global.tests").incr();
    let density = |i: usize, task: &Task| {
        (task.wcet() + blocking_term(tasks, i, Policy::Edf)) / task.deadline().min(task.period())
    };
    let mut sum = 0.0;
    let mut max = 0.0f64;
    for (i, task) in tasks.iter().enumerate() {
        let d = density(i, task);
        sum += d;
        max = max.max(d);
    }
    sum <= m as f64 - (m as f64 - 1.0) * max + TIME_TOLERANCE
}

/// BCL interfering-workload bound of task `j` in a window of length `l`:
/// `Nj·Cj + min(Cj, l + Dj − Cj − Nj·Tj)` with
/// `Nj = ⌊(l + Dj − Cj)/Tj⌋` — the densest legal packing of `τj`'s jobs
/// into the window.
fn bcl_workload(task: &Task, l: f64) -> f64 {
    let slack_shift = l + task.deadline() - task.wcet();
    if slack_shift < 0.0 {
        return 0.0;
    }
    let n = (slack_shift / task.period()).floor();
    n * task.wcet() + task.wcet().min(slack_shift - n * task.period())
}

/// The BCL condition for one task: interference clipped to the slack must
/// leave room on `m` cores. `interferers` selects which other tasks count.
fn bcl_task_passes<'a>(
    task: &Task,
    blocking: f64,
    m: usize,
    interferers: impl Iterator<Item = &'a Task>,
) -> bool {
    let slack = task.deadline() - task.wcet() - blocking;
    if slack < -TIME_TOLERANCE {
        return false;
    }
    let slack = slack.max(0.0);
    let total: f64 = interferers
        .map(|other| bcl_workload(other, task.deadline()).min(slack))
        .sum();
    // BCL's condition is *strictly* less-than; ties (e.g. zero slack with
    // zero clipped interference on an always-running task) break toward
    // reject, keeping the sufficient test sound under float noise.
    total < m as f64 * slack - TIME_TOLERANCE
}

/// The BCL global-EDF test with NPR blocking: every task must pass against
/// the interfering workload of every *other* task.
///
/// # Panics
///
/// Panics if `m == 0`.
#[must_use]
pub fn global_edf_bcl(tasks: &TaskSet, m: usize) -> bool {
    assert!(m >= 1, "need at least one core");
    (0..tasks.len()).all(|i| {
        bcl_task_passes(
            tasks.task(i),
            blocking_term(tasks, i, Policy::Edf),
            m,
            tasks
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, t)| t),
        )
    })
}

/// The BCL global-FP test with NPR blocking (tasks in priority order):
/// only higher-priority tasks interfere; lower-priority regions block.
///
/// # Panics
///
/// Panics if `m == 0`.
#[must_use]
pub fn global_fp_bcl(tasks: &TaskSet, m: usize) -> bool {
    assert!(m >= 1, "need at least one core");
    (0..tasks.len()).all(|i| {
        bcl_task_passes(
            tasks.task(i),
            blocking_term(tasks, i, Policy::FixedPriority),
            m,
            tasks.iter().take(i),
        )
    })
}

/// Global floating-NPR schedulability on `m` cores with Eq. 5-inflated
/// WCETs: the task set passes if the density bound (EDF only) *or* the BCL
/// workload test accepts the inflated set. Returns `false` when any task's
/// delay bound diverges.
///
/// [`DelayMethod::Algorithm1Capped`] uses the every-other-task preemption
/// cap ([`preemption_caps_edf`]), which over-counts (hence stays sound)
/// under global FP too.
///
/// # Errors
///
/// As [`inflated_taskset`]; tasks missing `Qi`/curves error for the
/// delay-aware methods.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn global_schedulable_with_delay(
    tasks: &TaskSet,
    m: usize,
    policy: Policy,
    method: DelayMethod,
) -> Result<bool, SchedError> {
    assert!(m >= 1, "need at least one core");
    let Some(inflated) = inflated_taskset(tasks, method, preemption_caps_edf)? else {
        return Ok(false);
    };
    Ok(match policy {
        Policy::Edf => global_edf_density(&inflated, m) || global_edf_bcl(&inflated, m),
        Policy::FixedPriority => global_fp_bcl(&inflated, m),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnpr_core::DelayCurve;

    fn ts(specs: &[(f64, f64)]) -> TaskSet {
        TaskSet::new(
            specs
                .iter()
                .map(|&(c, t)| Task::new(c, t).unwrap())
                .collect(),
        )
        .unwrap()
    }

    fn equipped(specs: &[(f64, f64, f64, f64)]) -> TaskSet {
        TaskSet::new(
            specs
                .iter()
                .map(|&(c, t, q, d)| {
                    Task::new(c, t)
                        .unwrap()
                        .with_q(q)
                        .unwrap()
                        .with_delay_curve(DelayCurve::constant(d, c).unwrap())
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn density_bound_hand_computed() {
        // Two tasks of density 0.5: sum 1.0, max 0.5. m=1: 1.0 <= 1 - 0 ✓.
        // m=2: 1.0 <= 2 - 0.5 ✓. A third 0.9-density task pushes the sum to
        // 1.9 > 2 - 1·0.9 = 1.1 on two cores.
        let light = ts(&[(5.0, 10.0), (5.0, 10.0)]);
        assert!(global_edf_density(&light, 1));
        assert!(global_edf_density(&light, 2));
        let heavy = ts(&[(5.0, 10.0), (5.0, 10.0), (9.0, 10.0)]);
        assert!(!global_edf_density(&heavy, 2));
        // The density bound is famously weak around heavy tasks — even 4
        // cores fail it (1.9 > 4 - 3·0.9) — which is exactly why the
        // composite test also consults BCL, and BCL accepts at m = 3.
        assert!(!global_edf_density(&heavy, 4));
        assert!(global_edf_bcl(&heavy, 3));
    }

    #[test]
    fn bcl_workload_hand_computed() {
        // C=2, T=D=10, window 10: N = floor((10+10-2)/10) = 1;
        // W = 2 + min(2, 18 - 10) = 4.
        let task = Task::new(2.0, 10.0).unwrap();
        assert!((bcl_workload(&task, 10.0) - 4.0).abs() < 1e-12);
        // A zero-length window still sees the carry-in contribution
        // min(C, D - C): N = 0 and W = min(5, 10 - 5) = 5.
        assert_eq!(bcl_workload(&Task::new(5.0, 10.0).unwrap(), 0.0), 5.0);
    }

    #[test]
    fn bcl_accepts_light_sets_and_rejects_overload() {
        let light = ts(&[(1.0, 10.0), (1.0, 10.0), (1.0, 10.0)]);
        assert!(global_edf_bcl(&light, 2));
        assert!(global_fp_bcl(&light, 2));
        // Three always-running tasks cannot share two cores.
        let heavy = ts(&[(10.0, 10.0), (10.0, 10.0), (10.0, 10.0)]);
        assert!(!global_edf_bcl(&heavy, 2));
        assert!(!global_fp_bcl(&heavy, 2));
    }

    #[test]
    fn blocking_reduces_acceptance() {
        // Same WCETs; attaching a long region to the low-priority task
        // must never help, and here it breaks the tight high-priority one.
        let free = ts(&[(4.0, 8.0), (4.0, 8.0), (6.0, 24.0)]);
        assert!(global_fp_bcl(&free, 2));
        let blocked = TaskSet::new(vec![
            Task::new(4.0, 8.0).unwrap(),
            Task::new(4.0, 8.0).unwrap(),
            Task::new(6.0, 24.0).unwrap().with_q(5.0).unwrap(),
        ])
        .unwrap();
        assert!(!global_fp_bcl(&blocked, 2));
    }

    #[test]
    fn more_cores_accept_more() {
        let tasks = ts(&[(4.0, 10.0), (4.0, 10.0), (4.0, 10.0), (4.0, 10.0)]);
        let accepted: Vec<bool> = (1..=4)
            .map(|m| global_edf_density(&tasks, m) || global_edf_bcl(&tasks, m))
            .collect();
        for pair in accepted.windows(2) {
            assert!(!pair[0] || pair[1], "larger m lost a set: {accepted:?}");
        }
        assert!(accepted[3], "four cores fit four 0.4 tasks");
    }

    #[test]
    fn inflation_dominance_carries_to_global_tests() {
        let tasks = equipped(&[
            (2.0, 12.0, 1.0, 0.4),
            (3.0, 15.0, 1.2, 0.5),
            (5.0, 24.0, 2.0, 0.8),
            (6.0, 30.0, 2.4, 0.9),
        ]);
        for policy in [Policy::FixedPriority, Policy::Edf] {
            for m in [2usize, 3] {
                let none =
                    global_schedulable_with_delay(&tasks, m, policy, DelayMethod::None).unwrap();
                let alg1 =
                    global_schedulable_with_delay(&tasks, m, policy, DelayMethod::Algorithm1)
                        .unwrap();
                let eq4 =
                    global_schedulable_with_delay(&tasks, m, policy, DelayMethod::Eq4).unwrap();
                let capped =
                    global_schedulable_with_delay(&tasks, m, policy, DelayMethod::Algorithm1Capped)
                        .unwrap();
                // eq4 ⊆ alg1 ⊆ capped ⊆ none.
                assert!(!eq4 || alg1, "{policy:?} m={m}");
                assert!(!alg1 || capped, "{policy:?} m={m}");
                assert!(!capped || none, "{policy:?} m={m}");
            }
        }
    }

    #[test]
    fn divergent_inflation_rejects() {
        // Delay 5 >= Q 4: every delay-aware bound diverges.
        let tasks = equipped(&[(10.0, 100.0, 4.0, 5.0)]);
        assert!(!global_schedulable_with_delay(&tasks, 2, Policy::Edf, DelayMethod::Eq4).unwrap());
        assert!(global_schedulable_with_delay(&tasks, 2, Policy::Edf, DelayMethod::None).unwrap());
    }
}
