//! Per-job simulation state and the exported records.

use crate::scenario::SimTask;

/// Mutable job state inside the engine.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JobState {
    /// Dense id in release order.
    pub id: usize,
    /// Owning task index.
    pub task: usize,
    /// Release time.
    pub release: f64,
    /// Absolute deadline (`release + D`).
    pub abs_deadline: f64,
    /// Useful work required.
    pub exec_time: f64,
    /// Useful work performed so far.
    pub progress: f64,
    /// Preemption delay charged but not yet serviced.
    pub pending_delay: f64,
    /// Total preemption delay charged.
    pub cumulative_delay: f64,
    /// Number of preemptions suffered.
    pub preemptions: u32,
    /// First dispatch time.
    pub start: Option<f64>,
    /// Completion time.
    pub completion: Option<f64>,
    /// Core the job last ran on.
    pub last_core: Option<usize>,
    /// Times the job resumed on a different core than it last ran on.
    pub migrations: u32,
}

impl JobState {
    pub(crate) fn new(id: usize, task: usize, release: f64, spec: &SimTask) -> Self {
        Self {
            id,
            task,
            release,
            abs_deadline: release + spec.deadline,
            exec_time: spec.exec_time,
            progress: 0.0,
            pending_delay: 0.0,
            cumulative_delay: 0.0,
            preemptions: 0,
            start: None,
            completion: None,
            last_core: None,
            migrations: 0,
        }
    }

    /// Outstanding processor time: pending delay first, then useful work.
    pub(crate) fn remaining(&self) -> f64 {
        self.pending_delay + (self.exec_time - self.progress)
    }

    /// Consumes `dt` of processor time: services delay, then progresses.
    pub(crate) fn advance(&mut self, dt: f64) {
        let serviced = dt.min(self.pending_delay);
        self.pending_delay -= serviced;
        self.progress += dt - serviced;
    }

    /// Charges one preemption of `delay` units.
    pub(crate) fn charge_preemption(&mut self, delay: f64) {
        self.pending_delay += delay;
        self.cumulative_delay += delay;
        self.preemptions += 1;
    }

    /// Marks completion, snapping the state exactly.
    pub(crate) fn finish(&mut self, at: f64) {
        self.progress = self.exec_time;
        self.pending_delay = 0.0;
        self.completion = Some(at);
    }

    /// Snapshot for the result set.
    pub(crate) fn record(&self) -> JobRecord {
        JobRecord {
            id: self.id,
            task: self.task,
            release: self.release,
            abs_deadline: self.abs_deadline,
            exec_time: self.exec_time,
            start: self.start,
            completion: self.completion,
            preemptions: self.preemptions,
            cumulative_delay: self.cumulative_delay,
            migrations: self.migrations,
        }
    }
}

/// Immutable per-job outcome exported by the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    /// Dense id in release order.
    pub id: usize,
    /// Owning task index.
    pub task: usize,
    /// Release time.
    pub release: f64,
    /// Absolute deadline.
    pub abs_deadline: f64,
    /// Useful work required.
    pub exec_time: f64,
    /// First dispatch time (`None` if never ran).
    pub start: Option<f64>,
    /// Completion time (`None` if unfinished at horizon drain).
    pub completion: Option<f64>,
    /// Preemptions suffered.
    pub preemptions: u32,
    /// Total preemption delay charged.
    pub cumulative_delay: f64,
    /// Times the job resumed on a different core than it last ran on (0
    /// when `cores = 1`).
    pub migrations: u32,
}

impl JobRecord {
    /// Response time (`completion − release`), when completed.
    #[must_use]
    pub fn response(&self) -> Option<f64> {
        self.completion.map(|c| c - self.release)
    }

    /// `true` when the job completed by its absolute deadline.
    #[must_use]
    pub fn deadline_met(&self) -> bool {
        match self.completion {
            Some(c) => c <= self.abs_deadline + 1e-9,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(exec: f64) -> SimTask {
        SimTask {
            exec_time: exec,
            deadline: 10.0,
            q: None,
            delay_curve: None,
        }
    }

    #[test]
    fn advance_services_delay_first() {
        let mut job = JobState::new(0, 0, 0.0, &spec(10.0));
        job.charge_preemption(3.0);
        assert_eq!(job.remaining(), 13.0);
        job.advance(2.0);
        assert_eq!(job.pending_delay, 1.0);
        assert_eq!(job.progress, 0.0);
        job.advance(4.0);
        assert_eq!(job.pending_delay, 0.0);
        assert_eq!(job.progress, 3.0);
        assert_eq!(job.cumulative_delay, 3.0);
        assert_eq!(job.preemptions, 1);
    }

    #[test]
    fn record_round_trip() {
        let mut job = JobState::new(3, 1, 5.0, &spec(2.0));
        job.start = Some(6.0);
        job.finish(9.0);
        let rec = job.record();
        assert_eq!(rec.response(), Some(4.0));
        assert!(rec.deadline_met()); // 9 <= 5 + 10
        assert_eq!(rec.task, 1);
        assert_eq!(rec.id, 3);
    }

    #[test]
    fn missed_deadline_and_unfinished() {
        let mut job = JobState::new(0, 0, 0.0, &spec(2.0));
        assert!(!job.record().deadline_met()); // never finished
        job.finish(100.0);
        assert!(!job.record().deadline_met()); // too late
    }
}
