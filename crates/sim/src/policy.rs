//! Scheduling policy configuration.

/// How job priorities are ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorityPolicy {
    /// Fixed task priorities: lower task index = higher priority.
    FixedPriority,
    /// Earliest deadline first: earlier absolute deadline = higher priority
    /// (ties broken by task index, then release time).
    Edf,
}

/// How preemptions are handled — the three categories of the paper's
/// introduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptionMode {
    /// Fully preemptive: the highest-priority ready job always gets the
    /// processor immediately.
    Preemptive,
    /// Non-preemptive: a dispatched job runs to completion.
    NonPreemptive,
    /// Floating non-preemptive regions: a higher-priority release while a
    /// lower-priority job runs opens a region of the *running* task's `Q`;
    /// at expiry the highest-priority ready job is dispatched. Releases
    /// during an active region neither extend nor restart it.
    FloatingNpr,
}

/// Full simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of identical cores (`m >= 1`) under global dispatching; the
    /// constructors set 1, the paper's unicore model.
    pub cores: usize,
    /// Priority ordering.
    pub policy: PriorityPolicy,
    /// Preemption handling.
    pub mode: PreemptionMode,
    /// Simulation horizon: releases beyond it are ignored, and the run stops
    /// once the queue drains after it.
    pub horizon: f64,
    /// Record a full event trace (costs memory on long runs).
    pub collect_trace: bool,
}

impl SimConfig {
    /// Floating-NPR fixed-priority configuration (the paper's setting).
    #[must_use]
    pub fn floating_npr_fp(horizon: f64) -> Self {
        Self {
            cores: 1,
            policy: PriorityPolicy::FixedPriority,
            mode: PreemptionMode::FloatingNpr,
            horizon,
            collect_trace: false,
        }
    }

    /// Fully preemptive fixed-priority configuration.
    #[must_use]
    pub fn preemptive_fp(horizon: f64) -> Self {
        Self {
            cores: 1,
            policy: PriorityPolicy::FixedPriority,
            mode: PreemptionMode::Preemptive,
            horizon,
            collect_trace: false,
        }
    }

    /// Enables trace collection, builder-style.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.collect_trace = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_fields() {
        let c = SimConfig::floating_npr_fp(100.0);
        assert_eq!(c.cores, 1);
        assert_eq!(c.mode, PreemptionMode::FloatingNpr);
        assert_eq!(c.policy, PriorityPolicy::FixedPriority);
        assert_eq!(c.horizon, 100.0);
        assert!(!c.collect_trace);
        assert!(c.with_trace().collect_trace);
        let p = SimConfig::preemptive_fp(50.0);
        assert_eq!(p.mode, PreemptionMode::Preemptive);
    }
}
