//! Partitioning and the per-core verdicts against the programs they
//! replaced.
//!
//! * [`partition_with`] refills one candidate buffer per attempt. The
//!   reference clones the core's member list and every candidate task for
//!   each (task, core) attempt. Both must ask `admit` the same questions in
//!   the same order, with equal candidate sets, and return the same
//!   partition or error.
//! * [`cores_schedulable_with_delay`] tests the per-core sets equipment
//!   built. The campaign used to reassemble them into one set in original
//!   index order and call [`partitioned_schedulable_with_delay`], which cuts
//!   them out again. Both must give the same verdict for every method,
//!   policy and heuristic.

use fnpr_multicore::{
    cores_schedulable_with_delay, partition_taskset, partition_with,
    partitioned_schedulable_with_delay, Heuristic, Partition,
};
use fnpr_sched::{
    edf_schedulable_with_npr, rta_floating_npr, DelayMethod, SchedError, Task, TaskSet,
};
use fnpr_synth::{
    random_taskset_multicore, with_npr_and_curves, with_npr_and_curves_global, Policy,
    TaskSetParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The clone-per-attempt packing.
fn reference_partition_with<F>(
    tasks: &TaskSet,
    m: usize,
    heuristic: Heuristic,
    mut admit: F,
) -> Result<Option<Partition>, SchedError>
where
    F: FnMut(usize, &TaskSet) -> Result<bool, SchedError>,
{
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
            if admit(core, &TaskSet::new(subset)?)? {
                admitted.push(core);
                if heuristic == Heuristic::FirstFit {
                    break;
                }
            }
        }
        let pick = |better: fn(f64, f64) -> bool| {
            admitted.iter().copied().reduce(|a, b| {
                if better(core_util[b], core_util[a]) {
                    b
                } else {
                    a
                }
            })
        };
        let chosen = match heuristic {
            Heuristic::FirstFit => admitted.first().copied(),
            Heuristic::WorstFit => pick(|b, a| b < a),
            Heuristic::BestFit => pick(|b, a| b > a),
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

/// A random multicore base set of `n` tasks at total utilisation `total`.
fn base_set(seed: u64, n: usize, total: f64) -> Option<TaskSet> {
    let params = TaskSetParams {
        n,
        utilization: total,
        period_range: (10.0, 200.0),
        deadline_factor: (0.8, 1.0),
    };
    random_taskset_multicore(&mut StdRng::seed_from_u64(seed), &params).ok()?
}

/// Every (core, candidate) question an admission closure was asked, with
/// the outcome it returned: the real test under `policy`, except that the
/// call numbered `fail_at` errors.
fn logged_admission(
    policy: Policy,
    fail_at: usize,
    log: &mut Vec<(usize, TaskSet)>,
) -> impl FnMut(usize, &TaskSet) -> Result<bool, SchedError> + '_ {
    move |core, candidate| {
        log.push((core, candidate.clone()));
        if log.len() == fail_at {
            return Err(SchedError::EmptyTaskSet);
        }
        match policy {
            Policy::FixedPriority => Ok(rta_floating_npr(candidate)?.schedulable()),
            Policy::Edf => edf_schedulable_with_npr(candidate),
        }
    }
}

#[test]
fn partition_asks_the_reference_questions() {
    let (mut calls, mut packed, mut unpacked, mut failed) = (0, 0, 0, 0);
    for seed in 0..40u64 {
        for m in [1usize, 2, 3, 4] {
            let Some(base) = base_set(seed, 3 * m, 0.7 * m as f64) else {
                continue;
            };
            // Curves and regions ride along in every clone.
            let equipped =
                with_npr_and_curves_global(&mut StdRng::seed_from_u64(seed + 1), &base, 0.5, 0.4)
                    .expect("global equipment");
            for tasks in [&base, &equipped] {
                for policy in [Policy::FixedPriority, Policy::Edf] {
                    for heuristic in Heuristic::ALL {
                        // No failure, then a failure at the seventh call.
                        for fail_at in [0, 7] {
                            let (mut fast_log, mut slow_log) = (Vec::new(), Vec::new());
                            let fast = partition_with(
                                tasks,
                                m,
                                heuristic,
                                logged_admission(policy, fail_at, &mut fast_log),
                            );
                            let slow = reference_partition_with(
                                tasks,
                                m,
                                heuristic,
                                logged_admission(policy, fail_at, &mut slow_log),
                            );
                            assert_eq!(fast_log, slow_log, "{policy:?} {heuristic:?} m={m}");
                            assert_eq!(fast, slow, "{policy:?} {heuristic:?} m={m}");
                            calls += fast_log.len();
                            match fast {
                                Ok(Some(_)) => packed += 1,
                                Ok(None) => unpacked += 1,
                                Err(_) => failed += 1,
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(calls > 10_000, "only {calls} admission calls");
    assert!(packed > 200 && unpacked > 200 && failed > 200);
}

/// The whole equipped set in original index order, from the per-core sets.
fn reassemble(tasks: usize, partition: &Partition, per_core: &[TaskSet]) -> TaskSet {
    let mut slots: Vec<Option<Task>> = vec![None; tasks];
    let mut core_sets = per_core.iter();
    for core in 0..partition.cores {
        let members = partition.tasks_on(core);
        if members.is_empty() {
            continue;
        }
        let equipped = core_sets.next().expect("one set per non-empty core");
        assert_eq!(members.len(), equipped.len());
        for (&slot, task) in members.iter().zip(equipped.iter()) {
            slots[slot] = Some(task.clone());
        }
    }
    TaskSet::new(slots.into_iter().map(|t| t.expect("filled")).collect()).unwrap()
}

#[test]
fn per_core_verdicts_match_the_reassembled_set() {
    let methods = [
        DelayMethod::None,
        DelayMethod::Eq4,
        DelayMethod::Algorithm1,
        DelayMethod::Algorithm1Capped,
    ];
    let (mut accepted, mut rejected) = (0, 0);
    for seed in 0..60u64 {
        for m in [2usize, 3, 4] {
            for u in [0.4, 0.6, 0.8] {
                let Some(base) = base_set(seed, 2 * m, u * m as f64) else {
                    continue;
                };
                for policy in [Policy::FixedPriority, Policy::Edf] {
                    for heuristic in Heuristic::ALL {
                        let Some(partition) =
                            partition_taskset(&base, m, heuristic, policy).unwrap()
                        else {
                            continue;
                        };
                        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
                        let per_core: Option<Vec<TaskSet>> = (0..m)
                            .filter_map(|core| partition.core_taskset(&base, core))
                            .map(|subset| {
                                with_npr_and_curves(&mut rng, &subset, policy, 0.8, 0.6)
                                    .ok()
                                    .flatten()
                            })
                            .collect();
                        let Some(per_core) = per_core else {
                            continue;
                        };
                        let full = reassemble(base.len(), &partition, &per_core);
                        for method in methods {
                            let split = cores_schedulable_with_delay(&per_core, policy, method);
                            let whole = partitioned_schedulable_with_delay(
                                &full, &partition, policy, method,
                            );
                            assert_eq!(split, whole, "{policy:?} {heuristic:?} {method:?}");
                            match split {
                                Ok(true) => accepted += 1,
                                _ => rejected += 1,
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(accepted > 500 && rejected > 500, "{accepted} / {rejected}");
}
