//! Property-based validation of the simulator against the analyses.
//!
//! The headline property is the empirical side of **Theorem 1**: for random
//! delay curves, random region lengths and random higher-priority
//! interference patterns, no simulated job ever pays more cumulative
//! preemption delay than Algorithm 1's bound. A second property drives the
//! *exact adversary* of `fnpr-core` through the simulator and checks the
//! run realises the planned delay — i.e. the worst case is achievable, not
//! just bounded.

use fnpr_core::{algorithm1, algorithm1_capped, exact_worst_case, naive_bound, DelayCurve};
use fnpr_sim::{
    check_against_algorithm1, per_task_metrics, simulate, PreemptionMode, PriorityPolicy, Scenario,
    SimConfig, SimTask,
};
use proptest::prelude::*;

fn arb_curve() -> impl Strategy<Value = DelayCurve> {
    prop::collection::vec((5.0f64..40.0, 0.0f64..6.0), 1..10).prop_map(|pieces| {
        let mut points = Vec::with_capacity(pieces.len());
        let mut at = 0.0;
        for &(len, value) in &pieces {
            points.push((at, value));
            at += len;
        }
        DelayCurve::from_breakpoints(points, at).expect("valid curve")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Theorem 1, empirically: random sporadic interference never makes the
    /// victim pay more than Algorithm 1's bound.
    #[test]
    fn random_interference_respects_algorithm1(
        curve in arb_curve(),
        q_slack in 0.5f64..10.0,
        spike_cost in 0.01f64..2.0,
        min_gap in 0.1f64..5.0,
        gap_spread in 0.1f64..20.0,
        seed in 0u64..1_000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let q = curve.max_value() + q_slack;
        let mut rng = StdRng::seed_from_u64(seed);
        let horizon = curve.domain_end() * 4.0 + 200.0;
        let scenario = Scenario::random_interference(
            curve.domain_end(),
            q,
            &curve,
            spike_cost,
            min_gap,
            min_gap + gap_spread,
            horizon,
            &mut rng,
        );
        let result = simulate(&scenario, &SimConfig::floating_npr_fp(horizon));
        let check = check_against_algorithm1(&result, 1, &curve, q).unwrap();
        prop_assert!(
            check.holds,
            "observed {} > bound {:?}",
            check.observed_max,
            check.bound
        );
        // The victim finishes (the interference is finite).
        let victim = result.of_task(1).next().expect("victim simulated");
        prop_assert!(victim.completion.is_some());
    }

    /// The exact adversary is realisable: simulating its plan produces
    /// exactly the planned cumulative delay, which dominates the naive
    /// bound and respects Algorithm 1.
    #[test]
    fn exact_adversary_is_realisable(
        curve in arb_curve(),
        q_slack in 0.5f64..10.0,
        spike_cost in 0.01f64..1.0,
    ) {
        let q = curve.max_value() + q_slack;
        let exact = exact_worst_case(&curve, q)
            .unwrap()
            .expect("finite: q > max f");
        let points: Vec<f64> = exact.preemptions.iter().map(|&(p, _)| p).collect();
        prop_assume!(!points.is_empty());
        // Epsilon small enough not to push the last point past the end.
        let margin = curve.domain_end() - points.last().unwrap();
        let epsilon = (1e-7f64).min(margin / (2.0 * points.len() as f64));
        prop_assume!(epsilon > 0.0);
        let plan = Scenario::adversary(
            curve.domain_end(),
            q,
            &curve,
            &points,
            spike_cost,
            epsilon,
        );
        let result = simulate(&plan.scenario, &SimConfig::floating_npr_fp(1e9));
        let victim = result.of_task(1).next().expect("victim simulated");
        prop_assert!(
            (victim.cumulative_delay - plan.expected_delay).abs() < 1e-6,
            "simulated {} != planned {}",
            victim.cumulative_delay,
            plan.expected_delay
        );
        prop_assert_eq!(victim.preemptions as usize, points.len());
        // Plan delay sandwiched: naive <= plan <= algorithm1 (the epsilon
        // shift may move a sample across a breakpoint, so compare the plan,
        // not the un-shifted exact total).
        let alg1 = algorithm1(&curve, q).unwrap().expect_converged().total_delay;
        prop_assert!(plan.expected_delay <= alg1 + 1e-6);
        let naive = naive_bound(&curve, q).unwrap().total_delay;
        // The un-shifted exact dominates naive (Figure 2's lesson).
        prop_assert!(naive <= exact.total_delay + 1e-9);
    }

    /// Collation: under floating NPR the victim never suffers more
    /// preemptions than under fully-preemptive scheduling, and at least as
    /// much useful deferral (delay totals never higher).
    #[test]
    fn floating_npr_never_worse_than_preemptive(
        curve in arb_curve(),
        q_slack in 0.5f64..10.0,
        spike_cost in 0.01f64..2.0,
        seed in 0u64..1_000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let q = curve.max_value() + q_slack;
        let horizon = curve.domain_end() * 4.0 + 200.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = Scenario::random_interference(
            curve.domain_end(), q, &curve, spike_cost, 0.5, 10.0, horizon, &mut rng,
        );
        let npr = simulate(&scenario, &SimConfig::floating_npr_fp(horizon));
        let preemptive = simulate(&scenario, &SimConfig::preemptive_fp(horizon));
        let npr_m = &per_task_metrics(&npr, 2)[1];
        let pre_m = &per_task_metrics(&preemptive, 2)[1];
        prop_assert!(
            npr_m.preemptions <= pre_m.preemptions,
            "floating NPR suffered more preemptions ({} > {})",
            npr_m.preemptions,
            pre_m.preemptions
        );
    }

    /// Conservation: total useful work equals the sum of execution times;
    /// completion times are consistent with work + delay.
    #[test]
    fn work_conservation(
        curve in arb_curve(),
        q_slack in 0.5f64..8.0,
        seed in 0u64..500,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let q = curve.max_value() + q_slack;
        let horizon = curve.domain_end() * 3.0 + 100.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = Scenario::random_interference(
            curve.domain_end(), q, &curve, 0.5, 1.0, 8.0, horizon, &mut rng,
        );
        let result = simulate(&scenario, &SimConfig::floating_npr_fp(horizon));
        for job in &result.jobs {
            if let (Some(start), Some(completion)) = (job.start, job.completion) {
                // A job occupies the CPU for exec + delay, possibly spread
                // over a longer wall interval.
                let busy = job.exec_time + job.cumulative_delay;
                prop_assert!(
                    completion - start >= busy - 1e-6,
                    "job finished faster than its own work: {} < {}",
                    completion - start,
                    busy
                );
            }
        }
    }

    /// The arrival-capped refinement (future work (ii)): a run with `n`
    /// preemptions pays at most the sum of the `n` largest window charges.
    #[test]
    fn capped_bound_covers_runs_with_few_preemptions(
        curve in arb_curve(),
        q_slack in 0.5f64..10.0,
        spike_cost in 0.01f64..2.0,
        min_gap in 0.5f64..10.0,
        gap_spread in 1.0f64..40.0,
        seed in 0u64..1_000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let q = curve.max_value() + q_slack;
        let mut rng = StdRng::seed_from_u64(seed);
        let horizon = curve.domain_end() * 4.0 + 200.0;
        let scenario = Scenario::random_interference(
            curve.domain_end(),
            q,
            &curve,
            spike_cost,
            min_gap,
            min_gap + gap_spread,
            horizon,
            &mut rng,
        );
        let result = simulate(&scenario, &SimConfig::floating_npr_fp(horizon));
        let victim = result.of_task(1).next().expect("victim simulated");
        let n = victim.preemptions as usize;
        let capped = algorithm1_capped(&curve, q, n)
            .unwrap()
            .expect("q > max f: convergent");
        prop_assert!(
            victim.cumulative_delay <= capped.total_delay + 1e-6,
            "run with {} preemptions paid {} > capped bound {}",
            n,
            victim.cumulative_delay,
            capped.total_delay
        );
    }

    /// Robustness: jobs running below their WCET under sporadic (minimum
    /// inter-arrival respected) interference still never exceed the
    /// Algorithm 1 bound computed for the full WCET curve.
    #[test]
    fn shorter_jobs_still_respect_bound(
        curve in arb_curve(),
        q_slack in 0.5f64..10.0,
        scale in 0.3f64..1.0,
        seed in 0u64..500,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let q = curve.max_value() + q_slack;
        let mut rng = StdRng::seed_from_u64(seed);
        let horizon = curve.domain_end() * 4.0 + 200.0;
        let mut scenario = Scenario::random_interference(
            curve.domain_end(), q, &curve, 0.5, 1.0, 15.0, horizon, &mut rng,
        );
        // Shrink the victim's execution requirement: it completes earlier
        // and sees a prefix of the preemption pattern.
        scenario.tasks[1].exec_time *= scale;
        let result = simulate(&scenario, &SimConfig::floating_npr_fp(horizon));
        let check = check_against_algorithm1(&result, 1, &curve, q).unwrap();
        prop_assert!(
            check.holds,
            "short job paid {} > bound {:?}",
            check.observed_max,
            check.bound
        );
    }

    /// Non-preemptive runs never pay preemption delay, and the victim's
    /// response is minimal among the three modes (it is never interrupted).
    #[test]
    fn non_preemptive_pays_nothing(
        curve in arb_curve(),
        q_slack in 0.5f64..10.0,
        seed in 0u64..500,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let q = curve.max_value() + q_slack;
        let horizon = curve.domain_end() * 4.0 + 200.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = Scenario::random_interference(
            curve.domain_end(), q, &curve, 0.5, 1.0, 10.0, horizon, &mut rng,
        );
        let np_config = SimConfig {
            cores: 1,
            policy: PriorityPolicy::FixedPriority,
            mode: PreemptionMode::NonPreemptive,
            horizon,
            collect_trace: false,
        };
        let np = simulate(&scenario, &np_config);
        let npr = simulate(&scenario, &SimConfig::floating_npr_fp(horizon));
        let victim_np = np.of_task(1).next().expect("ran");
        let victim_npr = npr.of_task(1).next().expect("ran");
        prop_assert_eq!(victim_np.preemptions, 0);
        prop_assert_eq!(victim_np.cumulative_delay, 0.0);
        // Released at 0 and never interrupted: response == exec time.
        prop_assert!((victim_np.response().unwrap() - victim_np.exec_time).abs() < 1e-9);
        prop_assert!(
            victim_npr.response().unwrap() >= victim_np.response().unwrap() - 1e-9
        );
    }

    /// EDF with all-equal deadlines degenerates to FP order on ties.
    #[test]
    fn edf_tie_break_is_deterministic(exec in 1.0f64..5.0) {
        let t = |e: f64| SimTask {
            exec_time: e,
            deadline: 100.0,
            q: None,
            delay_curve: None,
        };
        let scenario = Scenario {
            tasks: vec![t(exec), t(exec)],
            releases: vec![(0, 0.0), (1, 0.0)],
        };
        let config = SimConfig {
            cores: 1,
            policy: PriorityPolicy::Edf,
            mode: PreemptionMode::Preemptive,
            horizon: 1000.0,
            collect_trace: false,
        };
        let result = simulate(&scenario, &config);
        let c0 = result.of_task(0).next().unwrap().completion.unwrap();
        let c1 = result.of_task(1).next().unwrap().completion.unwrap();
        prop_assert!(c0 < c1, "task 0 should win the deadline tie");
    }
}
