//! Aggregate metrics over simulation results.

use crate::multi::SimResult;

/// Aggregates for one task across a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskMetrics {
    /// Task index.
    pub task: usize,
    /// Number of jobs released.
    pub jobs: usize,
    /// Number of completed jobs.
    pub completed: usize,
    /// Number of deadline misses (unfinished jobs count as misses).
    pub misses: usize,
    /// Total preemptions across all jobs.
    pub preemptions: u64,
    /// Total migrations across all jobs (0 when `cores = 1`).
    pub migrations: u64,
    /// Total preemption delay charged.
    pub total_delay: f64,
    /// Maximum cumulative delay of any single job.
    pub max_job_delay: f64,
    /// Maximum observed response time (`None` if no job completed).
    pub max_response: Option<f64>,
}

/// Computes per-task metrics for every task index present in the result.
#[must_use]
pub fn per_task_metrics(result: &SimResult, task_count: usize) -> Vec<TaskMetrics> {
    (0..task_count)
        .map(|task| {
            let mut m = TaskMetrics {
                task,
                jobs: 0,
                completed: 0,
                misses: 0,
                preemptions: 0,
                migrations: 0,
                total_delay: 0.0,
                max_job_delay: 0.0,
                max_response: None,
            };
            for job in result.of_task(task) {
                m.jobs += 1;
                m.preemptions += u64::from(job.preemptions);
                m.migrations += u64::from(job.migrations);
                m.total_delay += job.cumulative_delay;
                m.max_job_delay = m.max_job_delay.max(job.cumulative_delay);
                match job.response() {
                    Some(r) => {
                        m.completed += 1;
                        m.max_response = Some(m.max_response.map_or(r, |x: f64| x.max(r)));
                        if !job.deadline_met() {
                            m.misses += 1;
                        }
                    }
                    None => m.misses += 1,
                }
            }
            m
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::simulate;
    use crate::policy::SimConfig;
    use crate::scenario::{Scenario, SimTask};
    use fnpr_core::DelayCurve;

    #[test]
    fn misses_and_unfinished_jobs_count() {
        // Task 1 has an impossible deadline; two jobs released.
        let s = Scenario {
            tasks: vec![SimTask {
                exec_time: 3.0,
                deadline: 1.0, // always missed
                q: None,
                delay_curve: None,
            }],
            releases: vec![(0, 0.0), (0, 10.0)],
        };
        let r = simulate(&s, &SimConfig::floating_npr_fp(1000.0));
        let m = &per_task_metrics(&r, 1)[0];
        assert_eq!(m.jobs, 2);
        assert_eq!(m.completed, 2);
        assert_eq!(m.misses, 2);
        assert_eq!(m.max_response, Some(3.0));
    }

    #[test]
    fn task_without_jobs_has_empty_metrics() {
        let s = Scenario {
            tasks: vec![
                SimTask {
                    exec_time: 1.0,
                    deadline: 10.0,
                    q: None,
                    delay_curve: None,
                },
                SimTask {
                    exec_time: 1.0,
                    deadline: 10.0,
                    q: None,
                    delay_curve: None,
                },
            ],
            releases: vec![(0, 0.0)], // task 1 never releases
        };
        let r = simulate(&s, &SimConfig::floating_npr_fp(100.0));
        let m = &per_task_metrics(&r, 2)[1];
        assert_eq!(m.jobs, 0);
        assert_eq!(m.max_response, None);
        assert_eq!(m.misses, 0);
    }

    #[test]
    fn metrics_aggregate_correctly() {
        let curve = DelayCurve::constant(2.0, 10.0).unwrap();
        let s = Scenario {
            tasks: vec![
                SimTask {
                    exec_time: 1.0,
                    deadline: 100.0,
                    q: None,
                    delay_curve: None,
                },
                SimTask {
                    exec_time: 10.0,
                    deadline: 100.0,
                    q: Some(4.0),
                    delay_curve: Some(curve),
                },
            ],
            releases: vec![(1, 0.0), (0, 3.0)],
        };
        let r = simulate(&s, &SimConfig::floating_npr_fp(1000.0));
        let per_task = per_task_metrics(&r, 2);
        assert_eq!(per_task[0].jobs, 1);
        assert_eq!(per_task[0].preemptions, 0);
        assert_eq!(per_task[1].preemptions, 1);
        assert_eq!(per_task[1].total_delay, 2.0);
        assert_eq!(per_task[1].max_job_delay, 2.0);
        assert_eq!(per_task[1].misses, 0);
    }
}
