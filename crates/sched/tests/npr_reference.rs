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
//! The EDF tests ([`edf_schedulable`], [`edf_schedulable_with_npr`] and
//! [`max_npr_lengths_edf`]) fill one testing-point buffer per thread and
//! sort it by bit pattern with an unstable sort; the reference builds a
//! fresh `Vec` per call and sorts it with a stable `total_cmp` sort. They
//! must agree on every call of a sequence: a refilled buffer holds nothing
//! from the call before, whether that call had more points, fewer points,
//! or returned early.
//!
//! The inflated copies behind [`fp_schedulable_with_delay`] and
//! [`edf_schedulable_with_delay`] carry timing only. For every method, their
//! verdicts must equal the same tests run on a copy that still carries the
//! delay curves.
//!
//! Periods come from a harmonic menu or a real range, so testing points
//! coincide (the duplicates the reference removed) as well as interleave.
//! Deadlines are constrained, so the demand horizon grows with the
//! utilisation, and the copies each delay method inflates have horizons
//! (and testing sets) of different lengths.

use fnpr_core::DelayCurve;
use fnpr_sched::{
    blocking_tolerances_fp, ceil_div, dbf, demand_horizon, edf_schedulable,
    edf_schedulable_with_delay, edf_schedulable_with_npr, fp_schedulable_with_delay,
    inflated_taskset, max_npr_lengths_edf, max_npr_lengths_fp, preemption_caps,
    preemption_caps_edf, rta_floating_npr, slack, testing_points, DelayMethod, SchedError, Task,
    TaskSet, MAX_TESTING_POINTS,
};
use proptest::prelude::*;

mod reference {
    use super::*;

    /// A fresh vector per call, stably sorted by `total_cmp`.
    pub fn testing_points(tasks: &TaskSet, horizon: f64) -> Result<Vec<f64>, SchedError> {
        let mut points = Vec::new();
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
        points.sort_by(f64::total_cmp);
        points.dedup();
        Ok(points)
    }

    /// `None` when the set is over-utilised (both tests then say `false`).
    fn points(tasks: &TaskSet) -> Result<Option<Vec<f64>>, SchedError> {
        match demand_horizon(tasks) {
            Ok(horizon) => testing_points(tasks, horizon).map(Some),
            Err(SchedError::Overutilized { .. }) => Ok(None),
            Err(other) => Err(other),
        }
    }

    pub fn edf_schedulable(tasks: &TaskSet) -> Result<bool, SchedError> {
        let Some(points) = points(tasks)? else {
            return Ok(false);
        };
        for t in points {
            if dbf(tasks, t) > t + 1e-9 {
                return Ok(false);
            }
        }
        Ok(true)
    }

    pub fn edf_schedulable_with_npr(tasks: &TaskSet) -> Result<bool, SchedError> {
        let Some(points) = points(tasks)? else {
            return Ok(false);
        };
        for t in points {
            let blocking = tasks
                .iter()
                .filter(|task| task.deadline() > t)
                .filter_map(|task| task.q())
                .fold(0.0f64, f64::max);
            if dbf(tasks, t) + blocking > t + 1e-9 {
                return Ok(false);
            }
        }
        Ok(true)
    }

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

/// Every EDF entry point on `tasks` against the reference, with
/// `testing_points` also at `scale` times the demand horizon.
fn check_edf_tests(tasks: &TaskSet, scale: f64) {
    if let Ok(horizon) = demand_horizon(tasks) {
        let horizon = horizon * scale;
        assert_eq!(
            testing_points(tasks, horizon).map(|p| bits(&p)),
            reference::testing_points(tasks, horizon).map(|p| bits(&p))
        );
    }
    assert_eq!(
        edf_schedulable_with_npr(tasks),
        reference::edf_schedulable_with_npr(tasks)
    );
    assert_eq!(edf_schedulable(tasks), reference::edf_schedulable(tasks));
    assert_eq!(
        max_npr_lengths_edf(tasks).map(|b| bits(&b.q_max)),
        reference::max_npr_lengths_edf(tasks).map(|q| bits(&q))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn edf_bounds_match_the_per_task_fold(tasks in arb_taskset()) {
        let fast = max_npr_lengths_edf(&tasks).map(|b| bits(&b.q_max));
        let slow = reference::max_npr_lengths_edf(&tasks).map(|q| bits(&q));
        prop_assert_eq!(fast, slow);
    }

    /// Two sets in a row, each as given and as inflated by every delay
    /// method: ten call rounds on one thread whose horizons differ, many
    /// of them after a verdict that stopped at an early testing point.
    #[test]
    fn edf_tests_match_fresh_sorted_points(
        first in arb_taskset(),
        second in arb_taskset(),
        scale in 0.0f64..2.0,
    ) {
        for tasks in [&first, &second] {
            check_edf_tests(tasks, scale);
            for method in METHODS {
                if let Ok(Some(copy)) = inflated_taskset(tasks, method, preemption_caps_edf) {
                    check_edf_tests(&copy, scale);
                }
            }
        }
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

fn set(specs: &[(f64, f64, f64)]) -> TaskSet {
    specs
        .iter()
        .map(|&(c, t, d)| Task::new(c, t).unwrap().with_deadline(d).unwrap())
        .collect()
}

/// Fixed points: coinciding harmonic deadlines and an over-utilised set.
#[test]
fn hand_picked_sets_match() {
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

/// A call right after one that failed while filling the buffer, and one
/// right after a verdict decided at the first testing point.
#[test]
fn edf_calls_after_an_early_return_see_only_their_own_points() {
    // U = 0.99 with a constrained deadline: the horizon (~2.5e8) holds
    // more than MAX_TESTING_POINTS deadlines of the period-1 task.
    let huge = set(&[(0.5, 1.0, 1.0), (4.9e6, 1.0e7, 4.9e6)]);
    // dbf(2) = 3 > 2: the first testing point decides.
    let tight = set(&[(1.5, 10.0, 2.0), (1.5, 10.0, 2.0), (1.0, 50.0, 50.0)]);
    let small = set(&[(1.0, 4.0, 3.0), (2.0, 12.0, 12.0), (1.0, 20.0, 15.0)]);
    let limit = SchedError::IterationLimit {
        limit: MAX_TESTING_POINTS,
    };
    assert_eq!(max_npr_lengths_edf(&huge), Err(limit.clone()));
    check_edf_tests(&small, 1.0);
    assert_eq!(edf_schedulable_with_npr(&huge), Err(limit));
    check_edf_tests(&small, 0.5);
    assert_eq!(edf_schedulable_with_npr(&tight), Ok(false));
    check_edf_tests(&small, 1.0);
    assert_eq!(edf_schedulable(&tight), Ok(false));
    check_edf_tests(&small, 1.5);
}
