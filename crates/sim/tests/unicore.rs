//! Single-core scheduling semantics through [`simulate`]: the paper's
//! unicore model at the default `cores = 1`, plus the Figure 2 adversary
//! run exactly as the `fig2_runtime` binary prints it.

use fnpr_core::{exact_worst_case, DelayCurve};
use fnpr_sim::{
    render_timeline, simulate, PreemptionMode, PriorityPolicy, Scenario, SimConfig, SimTask,
    TraceEvent,
};

fn task(exec: f64, q: Option<f64>, curve: Option<DelayCurve>) -> SimTask {
    SimTask {
        exec_time: exec,
        deadline: f64::INFINITY,
        q,
        delay_curve: curve,
    }
}

fn fp(mode: PreemptionMode) -> SimConfig {
    SimConfig {
        cores: 1,
        policy: PriorityPolicy::FixedPriority,
        mode,
        horizon: 1_000.0,
        collect_trace: true,
    }
}

#[test]
fn single_job_runs_to_completion() {
    let s = Scenario {
        tasks: vec![task(10.0, None, None)],
        releases: vec![(0, 0.0)],
    };
    let r = simulate(&s, &fp(PreemptionMode::Preemptive));
    assert_eq!(r.jobs.len(), 1);
    assert_eq!(r.jobs[0].completion, Some(10.0));
    assert_eq!(r.jobs[0].preemptions, 0);
    assert_eq!(r.jobs[0].cumulative_delay, 0.0);
    assert_eq!(r.jobs[0].response(), Some(10.0));
}

#[test]
fn preemptive_mode_preempts_immediately() {
    // Victim (low prio) starts at 0; spike at 3 preempts instantly.
    let curve = DelayCurve::constant(2.0, 10.0).unwrap();
    let s = Scenario {
        tasks: vec![task(1.0, None, None), task(10.0, None, Some(curve))],
        releases: vec![(1, 0.0), (0, 3.0)],
    };
    let r = simulate(&s, &fp(PreemptionMode::Preemptive));
    let victim = &r.jobs[0]; // release-sorted: victim released first
    assert_eq!(victim.task, 1);
    assert_eq!(victim.preemptions, 1);
    assert_eq!(victim.cumulative_delay, 2.0);
    // Timeline: victim 0..3 (progress 3), spike 3..4, victim pays 2 and
    // finishes remaining 7: 4 + 2 + 7 = 13.
    assert_eq!(victim.completion, Some(13.0));
    let spike = &r.jobs[1];
    assert_eq!(spike.completion, Some(4.0));
}

#[test]
fn non_preemptive_mode_never_preempts() {
    let curve = DelayCurve::constant(2.0, 10.0).unwrap();
    let s = Scenario {
        tasks: vec![task(1.0, None, None), task(10.0, None, Some(curve))],
        releases: vec![(1, 0.0), (0, 3.0)],
    };
    let r = simulate(&s, &fp(PreemptionMode::NonPreemptive));
    let victim = &r.jobs[0];
    assert_eq!(victim.preemptions, 0);
    assert_eq!(victim.completion, Some(10.0));
    let spike = &r.jobs[1];
    assert_eq!(spike.completion, Some(11.0)); // waits for the victim
}

#[test]
fn floating_npr_defers_preemption_by_q() {
    // Victim q=4: spike released at 3 -> region until 7, preemption at
    // progress 7 (not 3).
    let curve = DelayCurve::constant(2.0, 10.0).unwrap();
    let s = Scenario {
        tasks: vec![task(1.0, None, None), task(10.0, Some(4.0), Some(curve))],
        releases: vec![(1, 0.0), (0, 3.0)],
    };
    let r = simulate(&s, &fp(PreemptionMode::FloatingNpr));
    let victim = &r.jobs[0];
    assert_eq!(victim.preemptions, 1);
    assert_eq!(victim.cumulative_delay, 2.0);
    // Timeline: victim 0..7 (progress 7), spike 7..8, victim pays 2,
    // remaining 3: completes 8 + 2 + 3 = 13.
    assert_eq!(victim.completion, Some(13.0));
    // The trace shows the region.
    assert!(r
        .trace
        .iter()
        .any(|e| matches!(e, TraceEvent::NprStarted { until, .. } if *until == 7.0)));
    // The preemption progress is 7.
    assert!(r
        .trace
        .iter()
        .any(|e| matches!(e, TraceEvent::Preempted { progress, .. } if *progress == 7.0)));
}

#[test]
fn releases_during_active_region_are_collated() {
    // Two spikes released at 3 and 5, region 3..7: a single preemption
    // at 7 services both.
    let curve = DelayCurve::constant(2.0, 20.0).unwrap();
    let s = Scenario {
        tasks: vec![task(1.0, None, None), task(20.0, Some(4.0), Some(curve))],
        releases: vec![(1, 0.0), (0, 3.0), (0, 5.0)],
    };
    let r = simulate(&s, &fp(PreemptionMode::FloatingNpr));
    let victim = &r.jobs[0];
    assert_eq!(victim.preemptions, 1, "collation failed");
    assert_eq!(victim.cumulative_delay, 2.0);
    // victim 0..7; spikes 7..8, 8..9; victim resumes, pays 2 and the
    // remaining 13: 9 + 2 + 13 = 24.
    assert_eq!(victim.completion, Some(24.0));
}

#[test]
fn region_dies_with_completing_job() {
    // Victim has only 2 left when the spike arrives; region would end at
    // 6 but the victim completes at 5; the spike runs right away.
    let curve = DelayCurve::constant(2.0, 5.0).unwrap();
    let s = Scenario {
        tasks: vec![task(1.0, None, None), task(5.0, Some(3.0), Some(curve))],
        releases: vec![(1, 0.0), (0, 3.0)],
    };
    let r = simulate(&s, &fp(PreemptionMode::FloatingNpr));
    let victim = &r.jobs[0];
    assert_eq!(victim.preemptions, 0);
    assert_eq!(victim.completion, Some(5.0));
    let spike = &r.jobs[1];
    assert_eq!(spike.completion, Some(6.0));
}

#[test]
fn lower_priority_release_never_triggers_region() {
    // A *lower* priority release while the high-priority job runs does
    // nothing.
    let s = Scenario {
        tasks: vec![task(10.0, Some(2.0), None), task(1.0, None, None)],
        releases: vec![(0, 0.0), (1, 3.0)],
    };
    let r = simulate(&s, &fp(PreemptionMode::FloatingNpr));
    assert_eq!(r.jobs[0].completion, Some(10.0));
    assert_eq!(r.jobs[0].preemptions, 0);
    assert_eq!(r.jobs[1].completion, Some(11.0));
    assert!(!r
        .trace
        .iter()
        .any(|e| matches!(e, TraceEvent::NprStarted { .. })));
}

#[test]
fn edf_orders_by_absolute_deadline() {
    // Task 0 (would win under FP) has a later absolute deadline than
    // task 1: EDF runs task 1 first.
    let mut t0 = task(2.0, None, None);
    t0.deadline = 100.0;
    let mut t1 = task(2.0, None, None);
    t1.deadline = 10.0;
    let s = Scenario {
        tasks: vec![t0, t1],
        releases: vec![(0, 0.0), (1, 0.0)],
    };
    let config = SimConfig {
        cores: 1,
        policy: PriorityPolicy::Edf,
        mode: PreemptionMode::Preemptive,
        horizon: 1000.0,
        collect_trace: false,
    };
    let r = simulate(&s, &config);
    let t1_completion = r.of_task(1).next().unwrap().completion.unwrap();
    let t0_completion = r.of_task(0).next().unwrap().completion.unwrap();
    assert!(t1_completion < t0_completion);
}

#[test]
fn edf_floating_npr_defers_by_running_tasks_region() {
    // EDF priorities: the later-released job has the earlier absolute
    // deadline and would preempt; the running task's region defers it.
    let mut victim = task(
        10.0,
        Some(4.0),
        Some(DelayCurve::constant(1.0, 10.0).unwrap()),
    );
    victim.deadline = 100.0;
    let mut urgent = task(1.0, None, None);
    urgent.deadline = 5.0; // released at 3 -> absolute 8 < 100
    let s = Scenario {
        tasks: vec![victim, urgent],
        releases: vec![(0, 0.0), (1, 3.0)],
    };
    let config = SimConfig {
        cores: 1,
        policy: PriorityPolicy::Edf,
        mode: PreemptionMode::FloatingNpr,
        horizon: 1000.0,
        collect_trace: true,
    };
    let r = simulate(&s, &config);
    let victim_rec = r.of_task(0).next().unwrap();
    assert_eq!(victim_rec.preemptions, 1);
    // Region 3..7; urgent runs 7..8; victim pays 1, finishes 8+1+3=12.
    assert_eq!(victim_rec.completion, Some(12.0));
    let urgent_rec = r.of_task(1).next().unwrap();
    assert_eq!(urgent_rec.completion, Some(8.0));
    assert!(urgent_rec.deadline_met());
}

#[test]
fn same_task_jobs_run_fifo() {
    // Two queued jobs of one task must complete in release order, even
    // after the ready queue has been reshuffled by a preemption.
    let s = Scenario {
        tasks: vec![task(1.0, None, None), task(6.0, None, None)],
        releases: vec![(1, 0.0), (1, 1.0), (0, 2.0)],
    };
    let r = simulate(&s, &fp(PreemptionMode::Preemptive));
    let completions: Vec<(f64, f64)> = r
        .of_task(1)
        .map(|j| (j.release, j.completion.unwrap()))
        .collect();
    assert_eq!(completions.len(), 2);
    assert!(completions[0].0 < completions[1].0);
    assert!(
        completions[0].1 < completions[1].1,
        "same-task jobs completed out of release order: {completions:?}"
    );
}

#[test]
fn deadline_miss_is_reported() {
    let mut t = task(10.0, None, None);
    t.deadline = 5.0;
    let s = Scenario {
        tasks: vec![t],
        releases: vec![(0, 0.0)],
    };
    let r = simulate(&s, &fp(PreemptionMode::Preemptive));
    assert!(!r.jobs[0].deadline_met());
    assert!(!r.all_deadlines_met());
}

#[test]
fn horizon_truncates_releases() {
    let s = Scenario {
        tasks: vec![task(1.0, None, None)],
        releases: vec![(0, 0.0), (0, 5.0), (0, 2000.0)],
    };
    let r = simulate(&s, &fp(PreemptionMode::Preemptive));
    assert_eq!(r.jobs.len(), 2);
}

/// Figure 2: the exact adversary's schedule for a flat curve (`f = 3`,
/// `C = 40`, `Q = 8`) fits seven preemptions, each `Q − f = 5` of progress
/// after the last, where the naive point selection promises four.
#[test]
fn figure2_adversary_run_is_pinned() {
    let curve = DelayCurve::constant(3.0, 40.0).unwrap();
    let q = 8.0;
    let exact = exact_worst_case(&curve, q).unwrap().expect("q > max fi");
    let points: Vec<f64> = exact.preemptions.iter().map(|&(p, _)| p).collect();
    let plan = Scenario::adversary(curve.domain_end(), q, &curve, &points, 0.5, 1e-7);
    let result = simulate(
        &plan.scenario,
        &SimConfig::floating_npr_fp(1e9).with_trace(),
    );
    let preemptions: Vec<String> = result
        .trace
        .iter()
        .filter_map(|event| match *event {
            TraceEvent::Preempted {
                at,
                task: 1,
                progress,
                delay,
                ..
            } => Some(format!(
                "t={at:>7.2}  progress={progress:>6.2}  +{delay:.2}"
            )),
            _ => None,
        })
        .collect();
    assert_eq!(
        preemptions,
        [
            "t=   8.00  progress=  8.00  +3.00",
            "t=  16.50  progress= 13.00  +3.00",
            "t=  25.00  progress= 18.00  +3.00",
            "t=  33.50  progress= 23.00  +3.00",
            "t=  42.00  progress= 28.00  +3.00",
            "t=  50.50  progress= 33.00  +3.00",
            "t=  59.00  progress= 38.00  +3.00",
        ]
    );
    let victim = result.of_task(1).next().expect("victim ran");
    let horizon = victim.completion.unwrap_or(100.0) * 1.05;
    assert_eq!(
        render_timeline(&result, 2, horizon, 76),
        concat!(
            "task 0 |........#|........#|........|........#|........|........#|........|.........\n",
            "task 1 |########!#########!#########!########!#########!########!#########!#####|...\n",
            "        0                                                                          68\n",
        )
    );
}
