//! Simulation scenarios: tasks, release patterns and builders.

use fnpr_core::DelayCurve;
use fnpr_sched::TaskSet;
use rand::Rng;

/// A task as the simulator sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTask {
    /// Execution requirement of each job (useful work, excluding preemption
    /// delay).
    pub exec_time: f64,
    /// Relative deadline (for EDF ordering and miss detection).
    pub deadline: f64,
    /// Floating non-preemptive region length; `None` means the task is
    /// preempted immediately under [`PreemptionMode::FloatingNpr`].
    ///
    /// [`PreemptionMode::FloatingNpr`]: crate::PreemptionMode::FloatingNpr
    pub q: Option<f64>,
    /// Preemption-delay function; `None` means preemptions are free.
    pub delay_curve: Option<DelayCurve>,
}

/// A complete scenario: tasks plus an explicit, time-sorted release list.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The tasks, index = fixed priority (0 highest).
    pub tasks: Vec<SimTask>,
    /// `(task index, release time)` pairs, sorted by time.
    pub releases: Vec<(usize, f64)>,
}

/// Output of [`Scenario::adversary`]: the scenario plus the exact delay the
/// constructed run pays, for equality assertions in tests.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryPlan {
    /// The runnable scenario (task 0 = spike, task 1 = victim).
    pub scenario: Scenario,
    /// The cumulative preemption delay the victim pays in this run.
    pub expected_delay: f64,
    /// The epsilon-shifted progress points at which preemptions land.
    pub points: Vec<f64>,
}

impl Scenario {
    /// Builds a periodic scenario from a task set: task `i` releases at
    /// `phase[i] + k·T_i` for all `k` with release `< horizon`.
    ///
    /// Tasks keep their index order (fixed-priority order), and their `Qi`
    /// and delay curves carry over.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is non-empty and shorter than the task set.
    #[must_use]
    pub fn periodic(tasks: &TaskSet, phases: &[f64], horizon: f64) -> Self {
        assert!(
            phases.is_empty() || phases.len() >= tasks.len(),
            "phase vector shorter than task set"
        );
        let sim_tasks = tasks
            .iter()
            .map(|t| SimTask {
                exec_time: t.wcet(),
                deadline: t.deadline(),
                q: t.q(),
                delay_curve: t.delay_curve().cloned(),
            })
            .collect();
        let mut releases = Vec::new();
        for (i, t) in tasks.iter().enumerate() {
            let phase = phases.get(i).copied().unwrap_or(0.0);
            let mut at = phase;
            while at < horizon {
                releases.push((i, at));
                at += t.period();
            }
        }
        releases.sort_by(|a, b| a.1.total_cmp(&b.1));
        Self {
            tasks: sim_tasks,
            releases,
        }
    }

    /// Builds a *sporadic* scenario: task `i` releases with gaps drawn
    /// uniformly from `[T_i, (1 + spread) · T_i)` — the minimum inter-arrival
    /// time is respected, so every fixed-priority/EDF analysis for the
    /// periodic task set remains a valid bound on these runs.
    ///
    /// # Panics
    ///
    /// Panics if `spread` is negative or not finite.
    #[must_use]
    pub fn sporadic<R: Rng>(tasks: &TaskSet, spread: f64, horizon: f64, rng: &mut R) -> Self {
        assert!(spread.is_finite() && spread >= 0.0, "bad spread");
        let sim_tasks = tasks
            .iter()
            .map(|t| SimTask {
                exec_time: t.wcet(),
                deadline: t.deadline(),
                q: t.q(),
                delay_curve: t.delay_curve().cloned(),
            })
            .collect();
        let mut releases = Vec::new();
        for (i, t) in tasks.iter().enumerate() {
            let mut at = rng.gen_range(0.0..t.period());
            while at < horizon {
                releases.push((i, at));
                at += t.period() * (1.0 + rng.gen_range(0.0..=spread));
            }
        }
        releases.sort_by(|a, b| a.1.total_cmp(&b.1));
        Self {
            tasks: sim_tasks,
            releases,
        }
    }

    /// Returns a copy with every job's execution requirement scaled by a
    /// per-release factor drawn uniformly from `[lo, hi] ⊆ (0, 1]` — jobs
    /// usually run *below* their WCET; the analyses must still cover such
    /// runs.
    ///
    /// Scaling is modelled per task (all jobs of a task share the drawn
    /// factor, keeping the delay curve's progress axis meaningful).
    ///
    /// # Panics
    ///
    /// Panics if the range is not within `(0, 1]` or `lo > hi`.
    #[must_use]
    pub fn with_execution_scale<R: Rng>(mut self, lo: f64, hi: f64, rng: &mut R) -> Self {
        assert!(0.0 < lo && lo <= hi && hi <= 1.0, "bad scale range");
        for task in &mut self.tasks {
            task.exec_time *= rng.gen_range(lo..=hi);
        }
        self
    }

    /// The single-victim adversary scenario used to validate Theorem 1
    /// constructively (and to reproduce the Figure 2 demonstration):
    ///
    /// * task 1 (low priority) is the *victim*: execution time `C`, region
    ///   length `q`, delay function `curve`; released at time 0;
    /// * task 0 (high priority) is a *spike* of execution time
    ///   `spike_cost`, released so that the victim is preempted when its
    ///   execution clock (progress + serviced delay) reaches
    ///   `x_k ≈ p_k + Σ_{j<k} f(p_j)` for each requested progress point
    ///   `p_k` — i.e. the release fires `q` before the preemption, while the
    ///   victim is running.
    ///
    /// Tight chains (`p_{k+1} = p_k + q − f(p_k)`, exactly what
    /// `fnpr_core::exact_worst_case` produces) would place a release at the
    /// very instant the victim resumes; the dispatcher would then pick the
    /// spike instead of letting the victim open a region. Each release is
    /// therefore shifted `epsilon` later, preempting at `p_k + k·epsilon`;
    /// the returned [`AdversaryPlan::expected_delay`] accounts for the
    /// shifted sampling, so it is exact even if a shift crosses a curve
    /// breakpoint.
    ///
    /// # Panics
    ///
    /// Panics if a requested point lies outside `[q, C)` or violates the
    /// spacing constraint (malformed adversary input), or if `epsilon` is
    /// too large for the requested points to stay feasible.
    #[must_use]
    pub fn adversary(
        exec_time: f64,
        q: f64,
        curve: &DelayCurve,
        preemption_points: &[f64],
        spike_cost: f64,
        epsilon: f64,
    ) -> AdversaryPlan {
        assert!(epsilon > 0.0 && epsilon.is_finite(), "bad epsilon");
        let victim = SimTask {
            exec_time,
            deadline: f64::INFINITY,
            q: Some(q),
            delay_curve: Some(curve.clone()),
        };
        let spike = SimTask {
            exec_time: spike_cost,
            deadline: f64::INFINITY,
            q: None,
            delay_curve: None,
        };
        let mut releases = vec![(1usize, 0.0)];
        let mut exec_clock_offset = 0.0; // Σ f(p'_j) for j before current
        let mut wall_extra = 0.0; // Σ spike costs completed before release k
        let mut previous: Option<(f64, f64)> = None;
        let mut expected_delay = 0.0;
        let mut shifted_points = Vec::with_capacity(preemption_points.len());
        for (k, &p) in preemption_points.iter().enumerate() {
            let p = p + (k + 1) as f64 * epsilon;
            assert!(p >= q - 1e-9, "first preemption before q: {p} < {q}");
            assert!(p < exec_time, "preemption past completion: {p}");
            if let Some((pp, pd)) = previous {
                assert!(
                    p >= pp + q - pd - 1e-9,
                    "spacing violated: {p} < {pp} + {q} - {pd}"
                );
            }
            // Victim execution clock at the preemption: progress + delays
            // serviced so far.
            let x = p + exec_clock_offset;
            // The triggering release happens q earlier on the victim's
            // execution clock; convert to wall time by adding the spike
            // executions that happened before that instant.
            let release_wall = (x - q) + wall_extra;
            releases.push((0, release_wall));
            let d = curve.value_at(p);
            expected_delay += d;
            exec_clock_offset += d;
            wall_extra += spike_cost;
            previous = Some((p, d));
            shifted_points.push(p);
        }
        releases.sort_by(|a, b| a.1.total_cmp(&b.1));
        AdversaryPlan {
            scenario: Scenario {
                tasks: vec![spike, victim],
                releases,
            },
            expected_delay,
            points: shifted_points,
        }
    }

    /// Random sporadic interference for one victim task: spikes released
    /// with i.i.d. uniform gaps in `[min_gap, max_gap)`.
    #[must_use]
    #[allow(clippy::too_many_arguments)] // flat parameter list mirrors the experiment grids
    pub fn random_interference<R: Rng>(
        exec_time: f64,
        q: f64,
        curve: &DelayCurve,
        spike_cost: f64,
        min_gap: f64,
        max_gap: f64,
        horizon: f64,
        rng: &mut R,
    ) -> Self {
        let victim = SimTask {
            exec_time,
            deadline: f64::INFINITY,
            q: Some(q),
            delay_curve: Some(curve.clone()),
        };
        let spike = SimTask {
            exec_time: spike_cost,
            deadline: f64::INFINITY,
            q: None,
            delay_curve: None,
        };
        let mut releases = vec![(1usize, 0.0)];
        let mut at = rng.gen_range(0.0..max_gap);
        while at < horizon {
            releases.push((0, at));
            at += rng.gen_range(min_gap..max_gap);
        }
        releases.sort_by(|a, b| a.1.total_cmp(&b.1));
        Self {
            tasks: vec![spike, victim],
            releases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnpr_sched::{Task, TaskSet};

    #[test]
    fn periodic_release_pattern() {
        let ts = TaskSet::new(vec![
            Task::new(1.0, 4.0).unwrap(),
            Task::new(2.0, 6.0).unwrap(),
        ])
        .unwrap();
        let s = Scenario::periodic(&ts, &[], 12.0);
        let of_task = |i: usize| -> Vec<f64> {
            s.releases
                .iter()
                .filter(|&&(t, _)| t == i)
                .map(|&(_, at)| at)
                .collect()
        };
        assert_eq!(of_task(0), vec![0.0, 4.0, 8.0]);
        assert_eq!(of_task(1), vec![0.0, 6.0]);
        // Sorted by time overall.
        assert!(s.releases.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn periodic_with_phases() {
        let ts = TaskSet::new(vec![Task::new(1.0, 5.0).unwrap()]).unwrap();
        let s = Scenario::periodic(&ts, &[2.0], 12.0);
        let times: Vec<f64> = s.releases.iter().map(|&(_, at)| at).collect();
        assert_eq!(times, vec![2.0, 7.0]);
    }

    #[test]
    fn sporadic_respects_minimum_gaps() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let ts = TaskSet::new(vec![
            Task::new(1.0, 10.0).unwrap(),
            Task::new(2.0, 25.0).unwrap(),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let s = Scenario::sporadic(&ts, 0.5, 300.0, &mut rng);
        for task in 0..2 {
            let times: Vec<f64> = s
                .releases
                .iter()
                .filter(|&&(t, _)| t == task)
                .map(|&(_, at)| at)
                .collect();
            let period = ts.task(task).period();
            for pair in times.windows(2) {
                let gap = pair[1] - pair[0];
                assert!(gap >= period - 1e-9, "gap {gap} below period {period}");
                assert!(gap <= period * 1.5 + 1e-9);
            }
        }
    }

    #[test]
    fn execution_scale_shrinks_jobs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let ts = TaskSet::new(vec![Task::new(10.0, 100.0).unwrap()]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let s = Scenario::periodic(&ts, &[], 200.0).with_execution_scale(0.4, 0.8, &mut rng);
        assert!(s.tasks[0].exec_time >= 4.0 && s.tasks[0].exec_time <= 8.0);
    }

    #[test]
    fn adversary_release_times_constant_curve() {
        // f == 2, C = 10, q = 4, points 4, 6, 8 (the worked example).
        let curve = DelayCurve::constant(2.0, 10.0).unwrap();
        let eps = 1e-6;
        let plan = Scenario::adversary(10.0, 4.0, &curve, &[4.0, 6.0, 8.0], 0.5, eps);
        assert!((plan.expected_delay - 6.0).abs() < 1e-9);
        // x_1 = 4+ε: release ~ε; x_2 = 6+2ε+2: release ~4.5+2ε;
        // x_3 = 8+3ε+4: release ~9+3ε.
        let spikes: Vec<f64> = plan
            .scenario
            .releases
            .iter()
            .filter(|&&(t, _)| t == 0)
            .map(|&(_, at)| at)
            .collect();
        assert_eq!(spikes.len(), 3);
        assert!((spikes[0] - eps).abs() < 1e-9);
        assert!((spikes[1] - (4.5 + 2.0 * eps)).abs() < 1e-9);
        assert!((spikes[2] - (9.0 + 3.0 * eps)).abs() < 1e-9);
        // Shifted points recorded.
        assert!((plan.points[0] - (4.0 + eps)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "spacing violated")]
    fn adversary_rejects_infeasible_points() {
        let curve = DelayCurve::constant(2.0, 10.0).unwrap();
        // 5 < 4 + 4 - 2 = 6: too close.
        let _ = Scenario::adversary(10.0, 4.0, &curve, &[4.0, 5.0], 0.1, 1e-6);
    }
}
