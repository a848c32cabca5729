//! The NPR-length bounds and the delay-inflated tests against the programs
//! they replaced.
//!
//! [`max_npr_lengths_edf`] evaluates the slack once per testing point and
//! reads each task's bound as a prefix minimum; the reference folds the
//! slack over the points below each task's deadline, task by task.
//! [`blocking_tolerances_fp`] takes its maximum over the testing points as
//! it generates them; the reference collects them per task, sorts and
//! deduplicates them first. Both pairs must agree bit for bit, errors
//! included.
//!
//! The inflated copies behind [`fp_schedulable_with_delay`] and
//! [`edf_schedulable_with_delay`] carry timing only. For every method, their
//! verdicts must equal the same tests run on a copy that still carries the
//! delay curves.
//!
//! Periods come from a harmonic menu or a real range, so testing points
//! coincide (the duplicates the reference removed) as well as interleave.

use fnpr_core::DelayCurve;
use fnpr_sched::{
    blocking_tolerances_fp, ceil_div, demand_horizon, edf_schedulable_with_delay,
    edf_schedulable_with_npr, fp_schedulable_with_delay, inflated_taskset, max_npr_lengths_edf,
    max_npr_lengths_fp, preemption_caps, preemption_caps_edf, rta_floating_npr, slack,
    testing_points, DelayMethod, SchedError, Task, TaskSet,
};
use proptest::prelude::*;

mod reference {
    use super::*;

    /// One slack fold per task over the testing points below its deadline.
    pub fn max_npr_lengths_edf(tasks: &TaskSet) -> Result<Vec<f64>, SchedError> {
        let horizon = demand_horizon(tasks)?;
        let points = testing_points(tasks, horizon)?;
        Ok(tasks
            .iter()
            .map(|task| {
                points
                    .iter()
                    .take_while(|&&t| t < task.deadline())
                    .map(|&t| slack(tasks, t))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect())
    }

    /// Per task: collect `Di` and the higher-priority period multiples
    /// below it, sort, deduplicate, then take the maximum of `t − Wi(t)`.
    pub fn blocking_tolerances_fp(tasks: &TaskSet) -> Vec<f64> {
        (0..tasks.len())
            .map(|i| {
                let ti = tasks.task(i);
                let mut points: Vec<f64> = vec![ti.deadline()];
                for j in 0..i {
                    let tj = tasks.task(j);
                    let mut at = tj.period();
                    while at < ti.deadline() {
                        points.push(at);
                        at += tj.period();
                    }
                }
                points.sort_by(f64::total_cmp);
                points.dedup();
                points
                    .iter()
                    .map(|&t| {
                        let mut w = ti.wcet();
                        for j in 0..i {
                            let tj = tasks.task(j);
                            w += ceil_div(t, tj.period()) * tj.wcet();
                        }
                        t - w
                    })
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect()
    }
}

const HARMONIC: [f64; 9] = [4.0, 5.0, 8.0, 10.0, 20.0, 25.0, 40.0, 50.0, 100.0];

/// A task set with constrained deadlines (`C ≤ D ≤ T`) and total
/// utilisation `total`, in arbitrary index order; each task also gets a
/// region length and a step delay curve below it.
fn arb_taskset() -> impl Strategy<Value = TaskSet> {
    let task = (
        0usize..HARMONIC.len() + 1,
        5.0f64..200.0,
        0.05f64..1.0,
        0.0f64..1.0,
        (0.1f64..1.0, 0.0f64..0.95, 1usize..6),
    );
    (prop::collection::vec(task, 1..7), 0.1f64..1.05).prop_map(|(specs, total)| {
        let weight: f64 = specs.iter().map(|s| s.2).sum();
        let tasks = specs
            .iter()
            .map(|&(menu, real, share, dfrac, (qfrac, delay, pieces))| {
                let period = HARMONIC.get(menu).copied().unwrap_or(real);
                let wcet = (share / weight * total).min(0.95) * period;
                let deadline = wcet + dfrac * (period - wcet);
                let q = wcet * qfrac;
                let points = (0..pieces).map(|k| {
                    let value = q * delay * ((k * 7 + 3) % 5) as f64 / 4.0;
                    (wcet * k as f64 / pieces as f64, value)
                });
                let curve = DelayCurve::from_breakpoints(points, wcet).expect("valid curve");
                Task::new(wcet, period)
                    .and_then(|t| t.with_deadline(deadline))
                    .and_then(|t| t.with_q(q))
                    .expect("valid task")
                    .with_delay_curve(curve)
            })
            .collect();
        TaskSet::new(tasks).expect("non-empty")
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `inflated` with `tasks`' delay curves put back.
fn with_curves_of(inflated: &TaskSet, tasks: &TaskSet) -> TaskSet {
    inflated
        .iter()
        .zip(tasks.iter())
        .map(|(copy, task)| {
            let curve = task.delay_curve().expect("equipped").clone();
            copy.clone().with_delay_curve(curve)
        })
        .collect()
}

const METHODS: [DelayMethod; 4] = [
    DelayMethod::None,
    DelayMethod::Eq4,
    DelayMethod::Algorithm1,
    DelayMethod::Algorithm1Capped,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn edf_bounds_match_the_per_task_fold(tasks in arb_taskset()) {
        let fast = max_npr_lengths_edf(&tasks).map(|b| bits(&b.q_max));
        let slow = reference::max_npr_lengths_edf(&tasks).map(|q| bits(&q));
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn fp_tolerances_match_the_sorted_points(tasks in arb_taskset()) {
        let beta = blocking_tolerances_fp(&tasks);
        prop_assert_eq!(bits(&beta), bits(&reference::blocking_tolerances_fp(&tasks)));
        // The FP bounds are the running minimum of these tolerances.
        let mut running = f64::INFINITY;
        for (q, b) in max_npr_lengths_fp(&tasks).q_max.iter().zip(&beta) {
            prop_assert_eq!(q.to_bits(), running.to_bits());
            running = running.min(*b);
        }
    }

    #[test]
    fn verdicts_match_tests_on_curve_carrying_copies(tasks in arb_taskset()) {
        for method in METHODS {
            let fp = inflated_taskset(&tasks, method, preemption_caps)
                .and_then(|copy| match copy {
                    Some(copy) => Ok(rta_floating_npr(&with_curves_of(&copy, &tasks))?
                        .schedulable()),
                    None => Ok(false),
                });
            prop_assert_eq!(fp_schedulable_with_delay(&tasks, method), fp, "{:?}", method);
            let edf = inflated_taskset(&tasks, method, preemption_caps_edf)
                .and_then(|copy| match copy {
                    Some(copy) => edf_schedulable_with_npr(&with_curves_of(&copy, &tasks)),
                    None => Ok(false),
                });
            prop_assert_eq!(edf_schedulable_with_delay(&tasks, method), edf, "{:?}", method);
        }
    }
}

/// Fixed points: coinciding harmonic deadlines and an over-utilised set.
#[test]
fn hand_picked_sets_match() {
    let set = |specs: &[(f64, f64, f64)]| -> TaskSet {
        specs
            .iter()
            .map(|&(c, t, d)| Task::new(c, t).unwrap().with_deadline(d).unwrap())
            .collect()
    };
    for tasks in [
        set(&[(1.0, 4.0, 4.0), (2.0, 12.0, 12.0)]),
        set(&[(1.0, 10.0, 2.0), (2.5, 10.0, 3.0)]),
        set(&[
            (1.0, 5.0, 5.0),
            (2.0, 10.0, 10.0),
            (3.0, 20.0, 20.0),
            (1.0, 20.0, 15.0),
        ]),
        set(&[(3.0, 5.0, 5.0), (3.0, 6.0, 6.0)]),
    ] {
        let fast = max_npr_lengths_edf(&tasks).map(|b| bits(&b.q_max));
        let slow = reference::max_npr_lengths_edf(&tasks).map(|q| bits(&q));
        assert_eq!(fast, slow);
        assert_eq!(
            bits(&blocking_tolerances_fp(&tasks)),
            bits(&reference::blocking_tolerances_fp(&tasks))
        );
    }
}
