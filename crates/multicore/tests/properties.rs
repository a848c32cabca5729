//! Cross-cutting properties of the multiprocessor substrate:
//!
//! * the partitioned-vs-global cross-check on a known-feasible fixture
//!   (both roads accept it, and the m-core simulation meets every deadline
//!   while respecting the Algorithm 1 delay bound);
//! * randomized dominance properties: Eq. 4 inflation never accepts a set
//!   Algorithm 1 inflation rejects, under either road.

use fnpr_core::DelayCurve;
use fnpr_multicore::{
    global_edf_density, global_schedulable_with_delay, partition_taskset,
    partitioned_schedulable_with_delay, Heuristic,
};
use fnpr_sched::{inflated_taskset, preemption_caps, DelayMethod, Task, TaskSet};
use fnpr_sim::{check_against_algorithm1, simulate, PriorityPolicy, Scenario, SimConfig};
use fnpr_synth::{random_taskset_multicore, with_npr_and_curves_global, Policy, TaskSetParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A hand-built fixture that is comfortably feasible on two cores: four
/// tasks, total utilisation 1.0, short regions, gentle curves (delay peaks
/// are 10% of each region, so Eq. 5 inflation stays small).
fn feasible_fixture() -> TaskSet {
    let task = |c: f64, t: f64, q: f64, d: f64| {
        Task::new(c, t)
            .unwrap()
            .with_q(q)
            .unwrap()
            .with_delay_curve(DelayCurve::constant(d, c).unwrap())
    };
    TaskSet::new(vec![
        task(2.0, 10.0, 0.6, 0.06),
        task(4.0, 20.0, 0.8, 0.08),
        task(12.0, 40.0, 1.0, 0.1),
        task(24.0, 80.0, 1.2, 0.12),
    ])
    .unwrap()
}

#[test]
fn partitioned_and_global_agree_on_the_feasible_fixture() {
    let tasks = feasible_fixture();
    for policy in [Policy::FixedPriority, Policy::Edf] {
        // Every packing heuristic finds a partition that passes its own
        // admission test (method `None` re-runs exactly that test).
        for heuristic in Heuristic::ALL {
            let partition = partition_taskset(&tasks, 2, heuristic, policy)
                .unwrap()
                .unwrap_or_else(|| panic!("{heuristic:?}/{policy:?} must fit the fixture"));
            assert!(partitioned_schedulable_with_delay(
                &tasks,
                &partition,
                policy,
                DelayMethod::None
            )
            .unwrap());
        }
        // The load-spreading partition leaves headroom for every
        // inflation method (first/best fit may pack a core to the brim,
        // where Eq. 4 inflation legitimately no longer fits).
        let spread = partition_taskset(&tasks, 2, Heuristic::WorstFit, policy)
            .unwrap()
            .expect("worst fit fits the fixture");
        for method in [
            DelayMethod::None,
            DelayMethod::Eq4,
            DelayMethod::Algorithm1,
            DelayMethod::Algorithm1Capped,
        ] {
            assert!(
                partitioned_schedulable_with_delay(&tasks, &spread, policy, method).unwrap(),
                "partitioned WorstFit/{policy:?}/{method:?} rejected the fixture"
            );
        }
        // The global tests agree.
        for method in [DelayMethod::None, DelayMethod::Eq4, DelayMethod::Algorithm1] {
            assert!(
                global_schedulable_with_delay(&tasks, 2, policy, method).unwrap(),
                "global {policy:?}/{method:?} rejected the fixture"
            );
        }
    }
}

#[test]
fn feasible_fixture_simulates_cleanly_on_two_cores() {
    let tasks = feasible_fixture();
    let mut rng = StdRng::seed_from_u64(2012);
    let scenario = Scenario::sporadic(&tasks, 0.4, 400.0, &mut rng);
    let fp = SimConfig {
        cores: 2,
        ..SimConfig::floating_npr_fp(1e9)
    };
    for config in [
        fp,
        SimConfig {
            policy: PriorityPolicy::Edf,
            ..fp
        },
    ] {
        let result = simulate(&scenario, &config);
        assert!(
            result.all_deadlines_met(),
            "the analytically accepted fixture missed a deadline in simulation"
        );
        // Theorem 1 per job: observed cumulative delay within the bound.
        for (i, task) in tasks.iter().enumerate() {
            let check = check_against_algorithm1(
                &result,
                i,
                task.delay_curve().unwrap(),
                task.q().unwrap(),
            )
            .unwrap();
            assert!(check.holds, "task {i} exceeded its Algorithm 1 bound");
        }
    }
}

#[test]
fn overloaded_set_is_rejected_by_both_roads() {
    // Three always-running tasks on two cores.
    let tasks = TaskSet::new(vec![
        Task::new(10.0, 10.0).unwrap(),
        Task::new(10.0, 10.0).unwrap(),
        Task::new(10.0, 10.0).unwrap(),
    ])
    .unwrap();
    for policy in [Policy::FixedPriority, Policy::Edf] {
        for heuristic in Heuristic::ALL {
            assert!(partition_taskset(&tasks, 2, heuristic, policy)
                .unwrap()
                .is_none());
        }
        assert!(!global_schedulable_with_delay(&tasks, 2, policy, DelayMethod::None).unwrap());
    }
}

/// Equips a random multicore base set with global-style regions and curves.
#[test]
fn global_capped_charges_every_other_task() {
    // τ0 pays 3.5 per window. The fixed-priority cap rule leaves it
    // uninflated (nothing above it); the every-other-task rule the global
    // tests use charges it twice (⌊20/20⌋ + 1 releases of τ1). One core's
    // density bound fits 10 + 9 but not 17 + 9.
    let task = |c: f64, delay: f64| {
        Task::new(c, 20.0)
            .unwrap()
            .with_q(4.0)
            .unwrap()
            .with_delay_curve(DelayCurve::constant(delay, c).unwrap())
    };
    let tasks = TaskSet::new(vec![task(10.0, 3.5), task(9.0, 0.0)]).unwrap();
    let method = DelayMethod::Algorithm1Capped;
    let fp_capped = inflated_taskset(&tasks, method, preemption_caps)
        .unwrap()
        .expect("converges");
    assert!(global_edf_density(&fp_capped, 1));
    assert!(!global_schedulable_with_delay(&tasks, 1, Policy::Edf, method).unwrap());
}

fn random_equipped(seed: u64, m: usize, u_per_core: f64) -> Option<TaskSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = TaskSetParams {
        n: m * 3,
        utilization: m as f64 * u_per_core,
        period_range: (10.0, 200.0),
        deadline_factor: (1.0, 1.0),
    };
    let base = random_taskset_multicore(&mut rng, &params).ok()??;
    with_npr_and_curves_global(&mut rng, &base, 0.6, 0.5).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Global tests: the inflation dominance chain of the paper
    /// (eq4 ⊆ alg1 ⊆ capped ⊆ none) holds on random equipped sets.
    #[test]
    fn global_dominance_chain(seed in 0u64..10_000, m in 2usize..5, u in 0.2f64..0.7) {
        let Some(tasks) = random_equipped(seed, m, u) else { return; };
        for policy in [Policy::FixedPriority, Policy::Edf] {
            let verdicts = [
                DelayMethod::Eq4,
                DelayMethod::Algorithm1,
                DelayMethod::Algorithm1Capped,
                DelayMethod::None,
            ]
            .map(|method| global_schedulable_with_delay(&tasks, m, policy, method).unwrap());
            for pair in verdicts.windows(2) {
                prop_assert!(!pair[0] || pair[1], "dominance broken: {verdicts:?} ({policy:?})");
            }
        }
    }

    /// Partitioned tests: with the partition fixed (it is method-blind),
    /// the same dominance chain holds per heuristic.
    #[test]
    fn partitioned_dominance_chain(seed in 0u64..10_000, m in 2usize..4, u in 0.2f64..0.6) {
        let Some(tasks) = random_equipped(seed, m, u) else { return; };
        for policy in [Policy::FixedPriority, Policy::Edf] {
            for heuristic in Heuristic::ALL {
                let Some(partition) = partition_taskset(&tasks, m, heuristic, policy).unwrap()
                else { continue; };
                let verdicts = [
                    DelayMethod::Eq4,
                    DelayMethod::Algorithm1,
                    DelayMethod::Algorithm1Capped,
                    DelayMethod::None,
                ]
                .map(|method| {
                    partitioned_schedulable_with_delay(&tasks, &partition, policy, method)
                        .unwrap()
                });
                for pair in verdicts.windows(2) {
                    prop_assert!(
                        !pair[0] || pair[1],
                        "dominance broken: {verdicts:?} ({policy:?}, {heuristic:?})"
                    );
                }
            }
        }
    }
}
