//! The discrete-event scheduler: `m` identical cores under global
//! fixed-priority or global EDF dispatching, fully preemptive,
//! non-preemptive or with floating non-preemptive regions. One core is the
//! paper's unicore model.
//!
//! Semantics (the paper's Section III, extended to `m` cores):
//!
//! * a job's *execution clock* advances only while it holds a core;
//!   outstanding preemption delay is serviced before useful progress
//!   resumes;
//! * a preemption of job `J` at progress `p` charges `fJ(p)` extra execution
//!   (added to `J`'s outstanding delay at the preemption instant);
//! * the dispatcher keeps the `m` highest-eligibility ready jobs running;
//!   an idle core always takes the best ready job (migrating it if it last
//!   ran elsewhere — migrations are counted per job and traced);
//! * preemption pressure is an *invariant*, re-established after every
//!   event: under [`PreemptionMode::Preemptive`], while a ready job
//!   outranks the lowest-eligibility running job that job is preempted;
//!   under [`PreemptionMode::FloatingNpr`], every ready job outranking a
//!   running job has a preemption scheduled — an already-active region
//!   covers one waiter (best first; further waiters are collated into the
//!   active regions), and each uncovered waiter arms a region of the
//!   running task's `Q` on the lowest-eligibility region-free core it
//!   outranks (a task without a `Q` is preempted at once instead);
//! * a region lives `Q` of its job's execution clock (equivalently wall
//!   clock, since the job runs throughout) and dies if the job completes
//!   first; at expiry the core's job is preempted only if some ready job
//!   outranks it, and the freed core goes to the globally best ready job
//!   (which may differ from the waiter that armed the region);
//! * event ordering within one instant: completions, then releases, then
//!   region expiries. A release coinciding with a dispatch is seen by the
//!   dispatcher (the worst-case "release at the exact start" of the paper
//!   is approached by releases strictly inside the running interval).
//!
//! Because a region only arms while its job runs, lives `Q` of that job's
//! execution clock, and dies at preemption or completion, every job's
//! delay progression satisfies the same spacing as on one core — so the
//! paper's Theorem 1 bound applies per job at any core count, and
//! [`crate::check_against_algorithm1`] validates it empirically.

use crate::job::{JobRecord, JobState};
use crate::policy::{PreemptionMode, PriorityPolicy, SimConfig};
use crate::scenario::Scenario;
use crate::trace::TraceEvent;

/// Hard cap on processed events (defensive against degenerate scenarios).
const MAX_EVENTS: usize = 50_000_000;

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// One record per job, in release order.
    pub jobs: Vec<JobRecord>,
    /// Event trace (empty unless [`SimConfig::collect_trace`] was set).
    pub trace: Vec<TraceEvent>,
}

impl SimResult {
    /// Records of one task's jobs.
    pub fn of_task(&self, task: usize) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(move |j| j.task == task)
    }

    /// `true` when every job completed by its deadline.
    #[must_use]
    pub fn all_deadlines_met(&self) -> bool {
        self.jobs
            .iter()
            .all(|j| j.completion.is_some() && j.deadline_met())
    }

    /// Total migrations across all jobs.
    #[must_use]
    pub fn total_migrations(&self) -> u64 {
        self.jobs.iter().map(|j| u64::from(j.migrations)).sum()
    }
}

/// Runs a scenario on `config.cores` identical cores.
///
/// # Panics
///
/// Panics if `cores == 0`, the scenario references a task index out of
/// range, a release time is not finite, or the event cap is exceeded (all
/// indicate malformed generated input rather than recoverable conditions).
#[must_use]
pub fn simulate(scenario: &Scenario, config: &SimConfig) -> SimResult {
    assert!(config.cores >= 1, "need at least one core");
    let mut jobs: Vec<JobState> = Vec::with_capacity(scenario.releases.len());
    for &(task, at) in &scenario.releases {
        assert!(task < scenario.tasks.len(), "release for unknown task");
        assert!(at.is_finite() && at >= 0.0, "bad release time {at}");
        if at < config.horizon {
            jobs.push(JobState::new(jobs.len(), task, at, &scenario.tasks[task]));
        }
    }
    // Release order (already sorted by scenario contract; enforce anyway).
    if !jobs.is_sorted_by(|a, b| a.release.total_cmp(&b.release).is_le()) {
        jobs.sort_by(|a, b| a.release.total_cmp(&b.release));
        for (k, job) in jobs.iter_mut().enumerate() {
            job.id = k;
        }
    }

    // One loop for every core count. A single core lives in an inline
    // array, so the compiler sees the core count and drops the per-core
    // loops: the unicore model runs as fast as a loop written for it.
    let (jobs, trace) = if config.cores == 1 {
        Engine::new(scenario, config, jobs, [Core::IDLE]).run()
    } else {
        Engine::new(scenario, config, jobs, vec![Core::IDLE; config.cores]).run()
    };
    SimResult {
        jobs: jobs.iter().map(JobState::record).collect(),
        trace,
    }
}

/// One core's state.
#[derive(Clone, Copy)]
struct Core {
    /// The running job.
    job: Option<usize>,
    /// Expiry of the running job's floating region, while one is active.
    npr_expiry: Option<f64>,
    /// When the running job completes, as computed for the current event.
    completion: f64,
}

impl Core {
    const IDLE: Self = Self {
        job: None,
        npr_expiry: None,
        completion: f64::INFINITY,
    };
}

struct Engine<'a, C> {
    scenario: &'a Scenario,
    config: &'a SimConfig,
    jobs: Vec<JobState>,
    /// Released jobs without a core, in increasing eligibility: the best
    /// job is last.
    ready: Vec<usize>,
    /// One entry per core: `[Core; 1]` or `Vec<Core>`.
    cores: C,
    next_release: usize, // index into jobs (release-sorted)
    now: f64,
    trace: Vec<TraceEvent>,
}

impl<'a, C: AsRef<[Core]> + AsMut<[Core]>> Engine<'a, C> {
    fn new(scenario: &'a Scenario, config: &'a SimConfig, jobs: Vec<JobState>, cores: C) -> Self {
        Self {
            scenario,
            config,
            jobs,
            ready: Vec::new(),
            cores,
            next_release: 0,
            now: 0.0,
            trace: Vec::new(),
        }
    }

    /// Runs to the drained end and returns the jobs and the trace.
    fn run(mut self) -> (Vec<JobState>, Vec<TraceEvent>) {
        self.ingest_releases();
        for _ in 1..MAX_EVENTS {
            if !self.ready.is_empty() {
                self.fill_idle_cores();
                match self.config.mode {
                    PreemptionMode::Preemptive => self.enforce_preemptive(),
                    PreemptionMode::FloatingNpr => self.arm_regions(),
                    PreemptionMode::NonPreemptive => {}
                }
            }
            // Candidate event times, all >= now and never NaN (plain
            // comparisons keep the minimum off `f64::min`'s NaN path).
            let now = self.now;
            let mut busy = false;
            let mut next_completion = f64::INFINITY;
            let mut next_expiry = f64::INFINITY;
            for core in self.cores.as_mut() {
                if let Some(job) = core.job {
                    busy = true;
                    core.completion = now + self.jobs[job].remaining();
                    if core.completion < next_completion {
                        next_completion = core.completion;
                    }
                }
                if let Some(expiry) = core.npr_expiry {
                    if expiry < next_expiry {
                        next_expiry = expiry;
                    }
                }
            }
            let release_t = self
                .jobs
                .get(self.next_release)
                .map_or(f64::INFINITY, |j| j.release);
            if !busy {
                if release_t == f64::INFINITY {
                    return (self.jobs, self.trace); // drained
                }
                self.now = release_t;
                self.ingest_releases();
                continue;
            }
            let mut t = next_completion;
            if release_t < t {
                t = release_t;
            }
            if next_expiry < t {
                t = next_expiry;
            }
            debug_assert!(t.is_finite() && t >= now, "no next event");
            for core in self.cores.as_ref() {
                if let Some(job) = core.job {
                    self.jobs[job].advance(t - now);
                }
            }
            self.now = t;
            // Completions first (exact comparison: the same f64 values as
            // the minimum candidates above), then releases, then expiries.
            for core in 0..self.cores.as_ref().len() {
                let state = self.cores.as_ref()[core];
                if state.job.is_some() && state.completion <= t {
                    self.complete(core);
                }
            }
            self.ingest_releases();
            for core in 0..self.cores.as_ref().len() {
                if self.cores.as_ref()[core].npr_expiry.is_some_and(|e| e <= t) {
                    self.cores.as_mut()[core].npr_expiry = None;
                    self.trace(TraceEvent::NprExpired { at: t, core });
                    self.preempt_if_outranked(core);
                }
            }
        }
        panic!("event cap exceeded");
    }

    /// Moves all jobs released at or before `now` into the ready queue.
    /// Preemption pressure is not applied here: both preemptive dispatch
    /// and floating-NPR region arming are *invariants* re-established
    /// after every ingest+dispatch step ([`Self::enforce_preemptive`] /
    /// [`Self::arm_regions`]) — per-release reactions miss revisions
    /// within one instant, e.g. an idle core absorbing one of two
    /// same-instant releases while the other goes unserved, or a freed
    /// core going to a higher-priority *waiter* instead of the release
    /// that looked absorbed.
    fn ingest_releases(&mut self) {
        while let Some(job) = self.jobs.get(self.next_release) {
            if job.release > self.now {
                return;
            }
            let (at, task) = (job.release, job.task);
            let id = self.next_release;
            self.next_release += 1;
            self.trace(TraceEvent::Released { at, job: id, task });
            self.make_ready(id);
        }
    }

    /// Fully-preemptive dispatching as an invariant: while the best ready
    /// job outranks the lowest-eligibility running job, that job is
    /// preempted and the freed core refilled with the best ready job.
    fn enforce_preemptive(&mut self) {
        while let Some(&best) = self.ready.last() {
            let Some(core) = self.victim_core(best, false) else {
                return;
            };
            self.preempt(core);
            self.fill_idle_cores();
        }
    }

    /// Floating-NPR pressure as an invariant: every ready job that still
    /// outranks a running job must have a preemption *scheduled* for it —
    /// either an already-active region (whose expiry will free a core for
    /// the then-best waiter; one region covers one waiter, best first) or
    /// a region armed now on the lowest-eligibility region-free core it
    /// outranks. Waiters beyond the available victims are collated into
    /// the active regions. A victim task without a `Q` is preempted
    /// immediately ("no region length: behave preemptively").
    fn arm_regions(&mut self) {
        'restart: loop {
            let (mut covered, mut free) = (0, 0);
            for core in self.cores.as_ref() {
                if core.npr_expiry.is_some() {
                    covered += 1;
                } else if core.job.is_some() {
                    free += 1;
                }
            }
            // Waiters best first; the first `covered` are served by the
            // active regions, and only region-free running cores can take
            // a new one.
            for rank in (0..self.ready.len()).rev().skip(covered) {
                if free == 0 {
                    return;
                }
                // No region-free outranked core: every lower-ranked waiter
                // outranks a subset of what this one does, so stop.
                let Some(core) = self.victim_core(self.ready[rank], true) else {
                    return;
                };
                let Some(victim) = self.cores.as_ref()[core].job else {
                    return;
                };
                match self.scenario.tasks[self.jobs[victim].task].q {
                    Some(q) => {
                        let until = self.now + q;
                        self.cores.as_mut()[core].npr_expiry = Some(until);
                        free -= 1;
                        self.trace(TraceEvent::NprStarted {
                            at: self.now,
                            job: victim,
                            core,
                            until,
                        });
                    }
                    None => {
                        self.preempt(core);
                        self.fill_idle_cores();
                        continue 'restart;
                    }
                }
            }
            return;
        }
    }

    /// The core whose running job is the lowest-eligibility one that `id`
    /// outranks; with `region_free` set, cores with an active region are
    /// excluded (their preemption is already scheduled).
    fn victim_core(&self, id: usize, region_free: bool) -> Option<usize> {
        let mut victim: Option<(usize, usize)> = None; // (core, job)
        for (core, state) in self.cores.as_ref().iter().enumerate() {
            if region_free && state.npr_expiry.is_some() {
                continue;
            }
            let Some(running) = state.job else {
                continue;
            };
            if self.outranks(id, running)
                && victim.is_none_or(|(_, lowest)| self.outranks(lowest, running))
            {
                victim = Some((core, running));
            }
        }
        victim.map(|(core, _)| core)
    }

    /// Job `a` strictly outranks job `b` (total order; ties broken by task
    /// index, then release order, so same-task jobs run FIFO even after the
    /// ready queue has been shuffled by preemptions).
    fn outranks(&self, a: usize, b: usize) -> bool {
        let (ja, jb) = (&self.jobs[a], &self.jobs[b]);
        match self.config.policy {
            PriorityPolicy::FixedPriority => (ja.task, ja.id) < (jb.task, jb.id),
            PriorityPolicy::Edf => {
                (ja.abs_deadline, ja.task, ja.id) < (jb.abs_deadline, jb.task, jb.id)
            }
        }
    }

    /// Queues `job` behind every ready job that outranks it.
    fn make_ready(&mut self, job: usize) {
        let mut at = self.ready.len();
        self.ready.push(job);
        while at > 0 && self.outranks(self.ready[at - 1], job) {
            self.ready[at] = self.ready[at - 1];
            at -= 1;
        }
        self.ready[at] = job;
    }

    /// Dispatches the best ready jobs onto idle cores, preferring each
    /// job's previous core (counting a migration when it lands elsewhere).
    fn fill_idle_cores(&mut self) {
        while let Some(idle) = self.cores.as_ref().iter().position(|c| c.job.is_none()) {
            let Some(job) = self.ready.pop() else {
                return;
            };
            let last_core = self.jobs[job].last_core;
            let core = match last_core {
                Some(c) if self.cores.as_ref()[c].job.is_none() => c,
                _ => idle,
            };
            let migrated = last_core.is_some_and(|c| c != core);
            let state = &mut self.jobs[job];
            if migrated {
                state.migrations += 1;
                fnpr_obs::counter!("sim.migrations").incr();
            }
            fnpr_obs::counter!("sim.dispatches").incr();
            state.last_core = Some(core);
            state.start.get_or_insert(self.now);
            let task = state.task;
            debug_assert!(
                self.cores.as_ref()[core].npr_expiry.is_none(),
                "stale region"
            );
            self.cores.as_mut()[core].job = Some(job);
            self.trace(TraceEvent::Dispatched {
                at: self.now,
                job,
                task,
                core,
                migrated,
            });
        }
    }

    /// Takes `core`'s job off it; a region dies with its job.
    fn vacate(&mut self, core: usize) -> Option<usize> {
        let state = &mut self.cores.as_mut()[core];
        state.npr_expiry = None;
        state.job.take()
    }

    fn complete(&mut self, core: usize) {
        let Some(job) = self.vacate(core) else {
            return;
        };
        self.jobs[job].finish(self.now);
        self.trace(TraceEvent::Completed {
            at: self.now,
            job,
            task: self.jobs[job].task,
            core,
        });
    }

    /// Preempts `core`'s job if some ready job outranks it.
    fn preempt_if_outranked(&mut self, core: usize) {
        let Some(running) = self.cores.as_ref()[core].job else {
            return;
        };
        if self
            .ready
            .last()
            .is_some_and(|&best| self.outranks(best, running))
        {
            self.preempt(core);
        }
    }

    /// Charges the preemption delay and returns `core`'s job to the ready
    /// queue.
    fn preempt(&mut self, core: usize) {
        let Some(job) = self.vacate(core) else {
            return;
        };
        let task = self.jobs[job].task;
        let progress = self.jobs[job].progress;
        let delay = self.scenario.tasks[task]
            .delay_curve
            .as_ref()
            .map_or(0.0, |curve| curve.value_at(progress));
        self.jobs[job].charge_preemption(delay);
        fnpr_obs::counter!("sim.preemptions").incr();
        self.trace(TraceEvent::Preempted {
            at: self.now,
            job,
            task,
            core,
            progress,
            delay,
        });
        self.make_ready(job);
    }

    fn trace(&mut self, event: TraceEvent) {
        if self.config.collect_trace {
            self.trace.push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SimTask;
    use fnpr_core::DelayCurve;

    fn task(exec: f64, q: Option<f64>, curve: Option<DelayCurve>) -> SimTask {
        SimTask {
            exec_time: exec,
            deadline: f64::INFINITY,
            q,
            delay_curve: curve,
        }
    }

    fn fnpr(cores: usize) -> SimConfig {
        SimConfig {
            cores,
            ..SimConfig::floating_npr_fp(1_000.0).with_trace()
        }
    }

    #[test]
    fn two_jobs_run_in_parallel_on_two_cores() {
        let s = Scenario {
            tasks: vec![task(10.0, None, None), task(10.0, None, None)],
            releases: vec![(0, 0.0), (1, 0.0)],
        };
        let r = simulate(&s, &fnpr(2));
        assert_eq!(r.jobs.len(), 2);
        for job in &r.jobs {
            assert_eq!(job.completion, Some(10.0));
            assert_eq!(job.preemptions, 0);
            assert_eq!(job.migrations, 0);
        }
        assert_eq!(r.total_migrations(), 0);
    }

    #[test]
    fn release_with_idle_core_never_arms_a_region() {
        // One busy core, one idle: the spike takes the idle core instantly.
        let curve = DelayCurve::constant(2.0, 10.0).unwrap();
        let s = Scenario {
            tasks: vec![task(1.0, None, None), task(10.0, Some(4.0), Some(curve))],
            releases: vec![(1, 0.0), (0, 3.0)],
        };
        let r = simulate(&s, &fnpr(2));
        let victim = &r.jobs[0];
        assert_eq!(victim.preemptions, 0);
        assert_eq!(victim.completion, Some(10.0));
        let spike = &r.jobs[1];
        assert_eq!(spike.completion, Some(4.0));
        assert!(!r
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::NprStarted { .. })));
    }

    #[test]
    fn saturated_cores_defer_preemption_by_q() {
        // Both cores busy; the spike at 3 outranks both and must wait for
        // the lowest-eligibility victim's region (task 2, q = 4): region
        // 3..7, preemption at 7.
        let curve = DelayCurve::constant(2.0, 20.0).unwrap();
        let s = Scenario {
            tasks: vec![
                task(1.0, None, None),
                task(20.0, Some(9.0), Some(curve.clone())),
                task(20.0, Some(4.0), Some(curve)),
            ],
            releases: vec![(1, 0.0), (2, 0.0), (0, 3.0)],
        };
        let r = simulate(&s, &fnpr(2));
        let victim = r.of_task(2).next().unwrap();
        assert_eq!(victim.preemptions, 1);
        assert_eq!(victim.cumulative_delay, 2.0);
        // Victim runs 0..7, spike 7..8, victim resumes: 8 + 2 + 13 = 23.
        assert_eq!(victim.completion, Some(23.0));
        // The higher-eligibility running job is untouched.
        let other = r.of_task(1).next().unwrap();
        assert_eq!(other.preemptions, 0);
        assert_eq!(other.completion, Some(20.0));
        assert!(r
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::NprStarted { until, .. } if *until == 7.0)));
    }

    #[test]
    fn batch_release_beyond_idle_capacity_still_arms_a_region() {
        // One idle core, TWO same-instant releases: the first is absorbed
        // by the idle core, but the second must still arm the victim's
        // region — otherwise it waits unbounded by Q (priority inversion).
        let curve = DelayCurve::constant(0.5, 20.0).unwrap();
        let s = Scenario {
            tasks: vec![
                task(10.0, None, None),             // H1
                task(1.0, None, None),              // H2
                task(20.0, Some(1.0), Some(curve)), // victim L, q = 1
            ],
            releases: vec![(2, 0.0), (0, 3.0), (1, 3.0)],
        };
        let r = simulate(&s, &fnpr(2));
        // H1 takes the idle core at 3; the region for H2 runs 3..4; H2
        // preempts L at 4 and completes at 5.
        assert_eq!(r.of_task(0).next().unwrap().completion, Some(13.0));
        assert_eq!(r.of_task(1).next().unwrap().completion, Some(5.0));
        let victim = r.of_task(2).next().unwrap();
        assert_eq!(victim.preemptions, 1);
        assert_eq!(victim.cumulative_delay, 0.5);
        // victim: 4 done + H2 on its core 4..5 + 0.5 delay + 16 left.
        assert_eq!(victim.completion, Some(21.5));
        assert!(r
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::NprStarted { until, .. } if *until == 4.0)));
    }

    #[test]
    fn waiting_job_is_covered_by_an_active_region_not_a_second_one() {
        // H arrives at 5 while both cores are busy and arms the victim's
        // region (5..7). S completes at 6 and M arrives at the same
        // instant; the freed core goes to the better waiter H, and M is
        // *collated* into the active region (no second region) — its
        // expiry at 7 then serves M.
        let curve = DelayCurve::constant(0.5, 30.0).unwrap();
        let s = Scenario {
            tasks: vec![
                task(4.0, None, None),              // H
                task(4.0, None, None),              // M
                task(6.0, None, None),              // S
                task(30.0, Some(2.0), Some(curve)), // victim L, q = 2
            ],
            releases: vec![(2, 0.0), (3, 0.0), (0, 5.0), (1, 6.0)],
        };
        let r = simulate(&s, &fnpr(2));
        // Exactly one region was armed (at 5, until 7).
        let regions: Vec<f64> = r
            .trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::NprStarted { until, .. } => Some(*until),
                _ => None,
            })
            .collect();
        assert_eq!(regions, vec![7.0]);
        // H took S's core at 6; M preempted L at the region expiry.
        assert_eq!(r.of_task(0).next().unwrap().completion, Some(10.0));
        assert_eq!(r.of_task(1).next().unwrap().completion, Some(11.0));
        let victim = r.of_task(3).next().unwrap();
        assert_eq!(victim.preemptions, 1);
        // L (7 done) migrates to the core H frees at 10, pays its 0.5
        // delay and finishes the remaining 23: 10 + 0.5 + 23 = 33.5.
        assert_eq!(victim.migrations, 1);
        assert_eq!(victim.completion, Some(33.5));
    }

    #[test]
    fn migration_is_counted_and_traced() {
        // t=0: short (task 2) takes core 0, victim (task 3) core 1. t=1:
        // spike + filler arrive and, being the two best jobs, displace
        // both. Spike finishes at 3 -> short resumes on core *1* (its old
        // core 0 is held by the filler until 4): one migration. Filler
        // finishes at 4 -> victim resumes on core *0*: another migration.
        let s = Scenario {
            tasks: vec![
                task(2.0, None, None),  // spike (highest priority)
                task(3.0, None, None),  // filler
                task(4.0, None, None),  // short
                task(10.0, None, None), // victim (lowest priority)
            ],
            releases: vec![(2, 0.0), (3, 0.0), (0, 1.0), (1, 1.0)],
        };
        let config = SimConfig {
            cores: 2,
            policy: PriorityPolicy::FixedPriority,
            mode: PreemptionMode::Preemptive,
            horizon: 1_000.0,
            collect_trace: true,
        };
        let r = simulate(&s, &config);
        let of = |t: usize| r.of_task(t).next().unwrap();
        assert_eq!(of(0).completion, Some(3.0));
        assert_eq!(of(1).completion, Some(4.0));
        assert_eq!(of(2).completion, Some(6.0)); // 1 done + resumes 3..6
        assert_eq!(of(3).completion, Some(13.0)); // 1 done + resumes 4..13
        assert_eq!(of(2).preemptions, 1);
        assert_eq!(of(3).preemptions, 1);
        assert_eq!(of(2).migrations, 1);
        assert_eq!(of(3).migrations, 1);
        assert_eq!(r.total_migrations(), 2);
        assert_eq!(
            r.trace
                .iter()
                .filter(|e| matches!(e, TraceEvent::Dispatched { migrated: true, .. }))
                .count(),
            2
        );
    }

    #[test]
    fn edf_dispatches_m_earliest_deadlines() {
        // Three ready jobs, two cores: the two earliest deadlines run.
        let mut a = task(4.0, None, None);
        a.deadline = 30.0;
        let mut b = task(4.0, None, None);
        b.deadline = 10.0;
        let mut c = task(4.0, None, None);
        c.deadline = 20.0;
        let s = Scenario {
            tasks: vec![a, b, c],
            releases: vec![(0, 0.0), (1, 0.0), (2, 0.0)],
        };
        let config = SimConfig {
            cores: 2,
            policy: PriorityPolicy::Edf,
            ..SimConfig::floating_npr_fp(1_000.0)
        };
        let r = simulate(&s, &config);
        let done = |t: usize| r.of_task(t).next().unwrap().completion.unwrap();
        assert_eq!(done(1), 4.0);
        assert_eq!(done(2), 4.0);
        assert_eq!(done(0), 8.0); // waited for a core
        assert!(r.all_deadlines_met());
    }

    #[test]
    fn more_cores_than_jobs_is_fine() {
        let s = Scenario {
            tasks: vec![task(5.0, None, None)],
            releases: vec![(0, 0.0), (0, 7.0)],
        };
        let r = simulate(&s, &fnpr(8));
        assert_eq!(r.jobs.len(), 2);
        assert!(r.jobs.iter().all(|j| j.completion.is_some()));
    }

    #[test]
    fn horizon_truncates_releases() {
        let s = Scenario {
            tasks: vec![task(1.0, None, None)],
            releases: vec![(0, 0.0), (0, 5.0), (0, 2000.0)],
        };
        let r = simulate(&s, &fnpr(2));
        assert_eq!(r.jobs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let s = Scenario {
            tasks: vec![task(1.0, None, None)],
            releases: vec![(0, 0.0)],
        };
        let _ = simulate(&s, &fnpr(0));
    }
}
