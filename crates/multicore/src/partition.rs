//! Partitioned multiprocessor scheduling: bin-pack a task set onto `m`
//! cores, then run the existing *uniprocessor* floating-NPR tests per core.
//!
//! Packing follows the classic decreasing-utilisation discipline: tasks are
//! considered from heaviest to lightest, and each is placed on a core where
//! the per-core admission test (uniprocessor schedulability under the
//! chosen policy) still passes. The [`Heuristic`] picks *which* admitting
//! core: the first one, the most loaded one (best fit), or the least
//! loaded one (worst fit). Within a core, tasks keep the original set's
//! index order, so fixed-priority analyses see a valid priority order.

use fnpr_sched::{
    edf_schedulable_with_delay, edf_schedulable_with_npr, fp_schedulable_with_delay,
    rta_floating_npr, DelayMethod, SchedError, Task, TaskSet,
};
use fnpr_synth::Policy;
use serde::{Deserialize, Serialize};

/// Which admitting core receives each task during packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Heuristic {
    /// Lowest-indexed core that admits the task.
    FirstFit,
    /// Admitting core with the *lowest* current utilisation (spreads load).
    WorstFit,
    /// Admitting core with the *highest* current utilisation (packs tight).
    BestFit,
}

impl Heuristic {
    /// All three heuristics, for sweeps.
    pub const ALL: [Heuristic; 3] = [Heuristic::FirstFit, Heuristic::WorstFit, Heuristic::BestFit];
}

/// A successful assignment of every task to a core.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// `assignment[i]` = core of task `i` (original index order).
    pub assignment: Vec<usize>,
    /// Core count the partition was built for.
    pub cores: usize,
}

impl Partition {
    /// Task indices on `core`, ascending (= priority order for FP).
    #[must_use]
    pub fn tasks_on(&self, core: usize) -> Vec<usize> {
        (0..self.assignment.len())
            .filter(|&i| self.assignment[i] == core)
            .collect()
    }

    /// The sub-task-set of `core` (original relative order preserved);
    /// `None` when the core is empty.
    #[must_use]
    pub fn core_taskset(&self, tasks: &TaskSet, core: usize) -> Option<TaskSet> {
        let subset: Vec<Task> = self
            .tasks_on(core)
            .into_iter()
            .map(|i| tasks.task(i).clone())
            .collect();
        TaskSet::new(subset).ok()
    }
}

/// Bin-packs `tasks` onto `m` cores with a caller-supplied admission test:
/// `admit(core, candidate)` is asked whether the core would still be
/// schedulable with the candidate sub-task-set (original index order).
/// Returns `None` when some task fits on no core.
///
/// # Errors
///
/// Propagates admission-test failures.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn partition_with<F>(
    tasks: &TaskSet,
    m: usize,
    heuristic: Heuristic,
    mut admit: F,
) -> Result<Option<Partition>, SchedError>
where
    F: FnMut(usize, &TaskSet) -> Result<bool, SchedError>,
{
    assert!(m >= 1, "need at least one core");
    fnpr_obs::counter!("multicore.partition.attempts").incr();
    // Heaviest-first ordering (ties broken by index for determinism).
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by(|&a, &b| {
        tasks
            .task(b)
            .utilization()
            .total_cmp(&tasks.task(a).utilization())
            .then(a.cmp(&b))
    });

    let mut per_core: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut core_util = vec![0.0f64; m];
    for &task in &order {
        let mut admitted: Vec<usize> = Vec::new();
        for (core, members) in per_core.iter().enumerate() {
            let mut candidate = members.clone();
            candidate.push(task);
            candidate.sort_unstable();
            let subset: Vec<Task> = candidate.iter().map(|&i| tasks.task(i).clone()).collect();
            let candidate_set = TaskSet::new(subset)?;
            if admit(core, &candidate_set)? {
                if heuristic == Heuristic::FirstFit {
                    admitted.push(core);
                    break;
                }
                admitted.push(core);
            }
        }
        let chosen = match heuristic {
            Heuristic::FirstFit => admitted.first().copied(),
            Heuristic::WorstFit => {
                admitted.iter().copied().reduce(
                    |a, b| {
                        if core_util[b] < core_util[a] {
                            b
                        } else {
                            a
                        }
                    },
                )
            }
            Heuristic::BestFit => {
                admitted.iter().copied().reduce(
                    |a, b| {
                        if core_util[b] > core_util[a] {
                            b
                        } else {
                            a
                        }
                    },
                )
            }
        };
        let Some(core) = chosen else {
            return Ok(None);
        };
        per_core[core].push(task);
        per_core[core].sort_unstable();
        core_util[core] += tasks.task(task).utilization();
    }

    let mut assignment = vec![0usize; tasks.len()];
    for (core, members) in per_core.iter().enumerate() {
        for &task in members {
            assignment[task] = core;
        }
    }
    Ok(Some(Partition {
        assignment,
        cores: m,
    }))
}

/// Partitions under the policy's plain (no preemption delay) floating-NPR
/// admission test: fixed-priority RTA with region blocking or the
/// NPR-aware EDF demand test per core (both reduce to the classic tests
/// when tasks carry no `Qi`).
///
/// # Errors
///
/// Propagates per-core test failures.
pub fn partition_taskset(
    tasks: &TaskSet,
    m: usize,
    heuristic: Heuristic,
    policy: Policy,
) -> Result<Option<Partition>, SchedError> {
    partition_with(tasks, m, heuristic, |_, candidate| match policy {
        Policy::FixedPriority => Ok(rta_floating_npr(candidate)?.schedulable()),
        Policy::Edf => edf_schedulable_with_npr(candidate),
    })
}

/// Partitioned floating-NPR schedulability with Eq. 5 WCET inflation
/// applied per core: every core's sub-task-set (tasks equipped with `Qi`
/// and delay curves) must pass the uniprocessor delay-aware test.
///
/// # Errors
///
/// As the per-core tests; tasks missing `Qi`/curves error for delay-aware
/// methods.
pub fn partitioned_schedulable_with_delay(
    tasks: &TaskSet,
    partition: &Partition,
    policy: Policy,
    method: DelayMethod,
) -> Result<bool, SchedError> {
    for core in 0..partition.cores {
        let Some(subset) = partition.core_taskset(tasks, core) else {
            continue; // empty core
        };
        let ok = match policy {
            Policy::FixedPriority => fp_schedulable_with_delay(&subset, method)?,
            Policy::Edf => edf_schedulable_with_delay(&subset, method)?,
        };
        if !ok {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn partition_respects_admission() {
        // Four half-utilisation tasks fit on 2 cores but not 1.
        let tasks = ts(&[(5.0, 10.0), (10.0, 20.0), (20.0, 40.0), (40.0, 80.0)]);
        for heuristic in Heuristic::ALL {
            let p = partition_taskset(&tasks, 2, heuristic, Policy::Edf)
                .unwrap()
                .unwrap_or_else(|| panic!("2 cores fit U=2.0 under {heuristic:?}"));
            assert_eq!(p.assignment.len(), 4);
            assert!(p.assignment.iter().all(|&c| c < 2));
            let mut us = [0.0; 2];
            for (i, &core) in p.assignment.iter().enumerate() {
                us[core] += tasks.task(i).utilization();
            }
            assert!((us.iter().sum::<f64>() - 2.0).abs() < 1e-9);
            // Each core is EDF-feasible.
            assert!(us.iter().all(|&u| u <= 1.0 + 1e-9));
        }
        assert!(
            partition_taskset(&tasks, 1, Heuristic::FirstFit, Policy::Edf)
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn worst_fit_spreads_and_best_fit_packs() {
        // Task utilisations 0.5, 0.25, 0.2 on two cores. Heaviest first:
        // 0.5 -> core 0. Worst fit then keeps feeding the emptier core 1
        // (0.25, then 0.2 since 0.25 < 0.5); best fit packs everything
        // that fits onto the fullest admitting core.
        let tasks = ts(&[(5.0, 10.0), (5.0, 20.0), (5.0, 25.0)]);
        let worst = partition_taskset(&tasks, 2, Heuristic::WorstFit, Policy::Edf)
            .unwrap()
            .unwrap();
        assert_eq!(worst.assignment, vec![0, 1, 1]);
        // All three fit on one core (0.95 <= 1), so best fit and first
        // fit both pile onto core 0.
        let best = partition_taskset(&tasks, 2, Heuristic::BestFit, Policy::Edf)
            .unwrap()
            .unwrap();
        assert_eq!(best.assignment, vec![0, 0, 0]);
        let first = partition_taskset(&tasks, 2, Heuristic::FirstFit, Policy::Edf)
            .unwrap()
            .unwrap();
        assert_eq!(first.assignment, vec![0, 0, 0]);
    }

    #[test]
    fn core_tasksets_preserve_priority_order() {
        let tasks = ts(&[(1.0, 4.0), (2.0, 6.0), (3.0, 13.0), (8.0, 16.0)]);
        let p = partition_taskset(&tasks, 2, Heuristic::WorstFit, Policy::FixedPriority)
            .unwrap()
            .unwrap();
        for core in 0..2 {
            let members = p.tasks_on(core);
            assert!(members.windows(2).all(|w| w[0] < w[1]));
            if let Some(subset) = p.core_taskset(&tasks, core) {
                // Index order = ascending period here (RM order preserved).
                let periods: Vec<f64> = subset.iter().map(Task::period).collect();
                assert!(periods.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    #[test]
    fn empty_core_is_allowed() {
        let tasks = ts(&[(1.0, 10.0)]);
        let p = partition_taskset(&tasks, 4, Heuristic::FirstFit, Policy::Edf)
            .unwrap()
            .unwrap();
        assert_eq!(p.core_taskset(&tasks, 3), None);
        assert_eq!(p.tasks_on(0), vec![0]);
    }

    #[test]
    fn delay_aware_partitioned_test_runs_per_core() {
        use fnpr_core::DelayCurve;
        let equipped = TaskSet::new(vec![
            Task::new(2.0, 10.0)
                .unwrap()
                .with_q(1.0)
                .unwrap()
                .with_delay_curve(DelayCurve::constant(0.3, 2.0).unwrap()),
            Task::new(4.0, 20.0)
                .unwrap()
                .with_q(1.5)
                .unwrap()
                .with_delay_curve(DelayCurve::constant(0.4, 4.0).unwrap()),
        ])
        .unwrap();
        let p = partition_taskset(&equipped, 2, Heuristic::WorstFit, Policy::FixedPriority)
            .unwrap()
            .unwrap();
        for method in [DelayMethod::None, DelayMethod::Eq4, DelayMethod::Algorithm1] {
            assert!(partitioned_schedulable_with_delay(
                &equipped,
                &p,
                Policy::FixedPriority,
                method
            )
            .unwrap());
        }
    }
}
