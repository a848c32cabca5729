//! Simulation event traces.

/// One scheduler event (recorded when tracing is enabled).
///
/// Within one instant, events follow the engine's processing order:
/// completions, then every release of that instant, then region expiries,
/// then the dispatches, regions and preemptions these trigger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A job arrived in the ready queue.
    Released {
        /// Event time.
        at: f64,
        /// Job id.
        job: usize,
        /// Owning task.
        task: usize,
    },
    /// A job got a core.
    Dispatched {
        /// Event time.
        at: f64,
        /// Job id.
        job: usize,
        /// Owning task.
        task: usize,
        /// Core the job now runs on.
        core: usize,
        /// `true` when the job last ran on a different core.
        migrated: bool,
    },
    /// A floating non-preemptive region opened for a running job.
    NprStarted {
        /// Event time (the triggering release).
        at: f64,
        /// The protected (running) job.
        job: usize,
        /// Core the region protects.
        core: usize,
        /// When the region expires.
        until: f64,
    },
    /// A region expired (a preemption check follows).
    NprExpired {
        /// Event time.
        at: f64,
        /// Core whose region expired.
        core: usize,
    },
    /// A running job was preempted and charged a delay.
    Preempted {
        /// Event time.
        at: f64,
        /// Job id.
        job: usize,
        /// Owning task.
        task: usize,
        /// Core the job lost.
        core: usize,
        /// Progress at the preemption (the `t` of `fi(t)`).
        progress: f64,
        /// The charged delay.
        delay: f64,
    },
    /// A job finished.
    Completed {
        /// Event time.
        at: f64,
        /// Job id.
        job: usize,
        /// Owning task.
        task: usize,
        /// Core the job completed on.
        core: usize,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    #[must_use]
    pub fn at(&self) -> f64 {
        match *self {
            TraceEvent::Released { at, .. }
            | TraceEvent::Dispatched { at, .. }
            | TraceEvent::NprStarted { at, .. }
            | TraceEvent::NprExpired { at, .. }
            | TraceEvent::Preempted { at, .. }
            | TraceEvent::Completed { at, .. } => at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_are_accessible() {
        let events = [
            TraceEvent::Released {
                at: 1.0,
                job: 0,
                task: 0,
            },
            TraceEvent::NprExpired { at: 2.5, core: 0 },
            TraceEvent::Completed {
                at: 9.0,
                job: 0,
                task: 0,
                core: 0,
            },
        ];
        let times: Vec<f64> = events.iter().map(TraceEvent::at).collect();
        assert_eq!(times, vec![1.0, 2.5, 9.0]);
    }
}
