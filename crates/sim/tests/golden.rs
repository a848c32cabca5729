//! Golden digests of the simulator's output.
//!
//! A fixed-seed corpus runs under {FP, EDF} × {preemptive,
//! non-preemptive, floating NPR} × `cores` ∈ {1, 2, 4}, and every job
//! record and every trace is folded into an FNV-1a digest per (corpus
//! family, core count). The constants pin the schedule bit for bit: any
//! change to dispatch order, preemption instants, charged delays or
//! migration accounting moves a digest.
//!
//! Traces are hashed in a canonical order — sorted by (time, kind, job),
//! then by the remaining fields — so the digest covers the multiset of
//! events and their timestamps, not the order in which events that share
//! an instant were recorded.
//!
//! The corpus has three families:
//!
//! * 2-task `Scenario::random_interference` victims, drawn with the
//!   soundness workload's default ranges (the campaign's simulator
//!   traffic);
//! * sporadic sets built from `fnpr_sched::Task`, some with execution
//!   scaling, some tasks without a region length or a delay curve;
//! * synchronous periodic sets with integer periods, so that releases
//!   coincide.

use fnpr_core::DelayCurve;
use fnpr_sched::{Task, TaskSet};
use fnpr_sim::{
    simulate, JobRecord, PreemptionMode, PriorityPolicy, Scenario, SimConfig, TraceEvent,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const POLICIES: [PriorityPolicy; 2] = [PriorityPolicy::FixedPriority, PriorityPolicy::Edf];
const MODES: [PreemptionMode; 3] = [
    PreemptionMode::Preemptive,
    PreemptionMode::NonPreemptive,
    PreemptionMode::FloatingNpr,
];
const CORES: [usize; 3] = [1, 2, 4];

/// One trace event flattened to (time, kind, job, remaining fields); `job`
/// is `u64::MAX` for events that name no job.
type Flat = (f64, u8, u64, Vec<u64>);

/// Runs one scenario and returns its job records and flattened trace.
fn run(
    scenario: &Scenario,
    policy: PriorityPolicy,
    mode: PreemptionMode,
    cores: usize,
    trace: bool,
) -> (Vec<JobRecord>, Vec<Flat>) {
    let config = SimConfig {
        cores,
        policy,
        mode,
        horizon: 1e9,
        collect_trace: trace,
    };
    let result = simulate(scenario, &config);
    let events = result.trace.iter().map(flatten).collect();
    (result.jobs, events)
}

fn flatten(event: &TraceEvent) -> Flat {
    let id = |j: usize| j as u64;
    match *event {
        TraceEvent::Released { at, job, task } => (at, 0, id(job), vec![id(task)]),
        TraceEvent::Dispatched {
            at,
            job,
            task,
            core,
            migrated,
        } => (
            at,
            1,
            id(job),
            vec![id(task), id(core), u64::from(migrated)],
        ),
        TraceEvent::NprStarted {
            at,
            job,
            core,
            until,
        } => (at, 2, id(job), vec![id(core), until.to_bits()]),
        TraceEvent::NprExpired { at, core } => (at, 3, u64::MAX, vec![id(core)]),
        TraceEvent::Preempted {
            at,
            job,
            task,
            core,
            progress,
            delay,
        } => (
            at,
            4,
            id(job),
            vec![id(task), id(core), progress.to_bits(), delay.to_bits()],
        ),
        TraceEvent::Completed {
            at,
            job,
            task,
            core,
        } => (at, 5, id(job), vec![id(task), id(core)]),
    }
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn opt(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.word(1);
                self.word(x.to_bits());
            }
            None => self.word(0),
        }
    }
}

fn hash_jobs(h: &mut Fnv, jobs: &[JobRecord]) {
    h.word(jobs.len() as u64);
    for j in jobs {
        h.word(j.id as u64);
        h.word(j.task as u64);
        h.word(j.release.to_bits());
        h.word(j.abs_deadline.to_bits());
        h.word(j.exec_time.to_bits());
        h.opt(j.start);
        h.opt(j.completion);
        h.word(u64::from(j.preemptions));
        h.word(j.cumulative_delay.to_bits());
        h.word(u64::from(j.migrations));
    }
}

fn hash_trace(h: &mut Fnv, mut events: Vec<Flat>) {
    events.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
            .then_with(|| a.3.cmp(&b.3))
    });
    h.word(events.len() as u64);
    for (at, kind, job, rest) in events {
        h.word(at.to_bits());
        h.word(u64::from(kind));
        h.word(job);
        for w in rest {
            h.word(w);
        }
    }
}

/// A random step curve of `segments` equal pieces over `[0, c]`.
fn step_curve(rng: &mut StdRng, c: f64, segments: usize, max_value: f64) -> DelayCurve {
    let points: Vec<(f64, f64)> = (0..segments)
        .map(|k| {
            let start = c * (k as f64) / (segments as f64);
            (start, rng.gen_range(0.0..=max_value))
        })
        .collect();
    DelayCurve::from_breakpoints(points, c).expect("valid step curve")
}

/// Soundness-workload victims: `C` in [50, 400), 2–11 segments, peak in
/// [1, 8), `Q` = peak + [0.5, 10), spikes of [0.1, 2) every [1, 2Q) up to
/// `4C`.
fn interference_corpus(count: u64) -> Vec<Scenario> {
    (0..count)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(0x5eed_0001 + k);
            let c = rng.gen_range(50.0..400.0);
            let segments = rng.gen_range(2..12);
            let max_value = rng.gen_range(1.0..8.0);
            let curve = step_curve(&mut rng, c, segments, max_value);
            let q = curve.max_value() + rng.gen_range(0.5..10.0);
            let spike = rng.gen_range(0.1..2.0);
            Scenario::random_interference(c, q, &curve, spike, 1.0, q * 2.0, c * 4.0, &mut rng)
        })
        .collect()
}

/// Sporadic sets of 3–6 tasks at total utilisation 0.5–2.5, so that one
/// core is often overloaded and four are often idle.
fn sporadic_corpus(count: u64) -> Vec<Scenario> {
    (0..count)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(0x5eed_0002 + k);
            let n: usize = rng.gen_range(3..7);
            let total: f64 = rng.gen_range(0.5..2.5);
            let tasks: Vec<Task> = (0..n)
                .map(|_| {
                    let period: f64 = rng.gen_range(10.0..120.0);
                    let wcet = (period * total / n as f64).min(period * 0.9);
                    let mut task = Task::new(wcet, period).expect("valid task");
                    if rng.gen_range(0.0..1.0) < 0.8 {
                        let q = wcet * rng.gen_range(0.1..0.6);
                        task = task.with_q(q).expect("valid q");
                        if rng.gen_range(0.0..1.0) < 0.85 {
                            let segments = rng.gen_range(1..6);
                            let curve = step_curve(&mut rng, wcet, segments, q * 0.8);
                            task = task.with_delay_curve(curve);
                        }
                    }
                    task
                })
                .collect();
            let set = TaskSet::new(tasks).expect("valid set");
            let horizon = set.iter().map(Task::period).fold(0.0f64, f64::max) * 4.0;
            let scenario = Scenario::sporadic(&set, 0.5, horizon, &mut rng);
            if k % 2 == 0 {
                scenario.with_execution_scale(0.3, 1.0, &mut rng)
            } else {
                scenario
            }
        })
        .collect()
}

/// Synchronous periodic sets of 2–5 tasks with integer periods and
/// parameters, so that releases, completions and region expiries coincide.
fn periodic_corpus(count: u64) -> Vec<Scenario> {
    (0..count)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(0x5eed_0003 + k);
            let n = rng.gen_range(2..6);
            let tasks: Vec<Task> = (0..n)
                .map(|_| {
                    let period = f64::from(rng.gen_range(4u32..25));
                    let wcet = f64::from(rng.gen_range(1u32..=(period as u32 / 2)));
                    let mut task = Task::new(wcet, period).expect("valid task");
                    if rng.gen_range(0.0..1.0) < 0.8 {
                        let q = f64::from(rng.gen_range(1u32..=(wcet as u32)));
                        let delay = f64::from(rng.gen_range(0u32..=2)) * 0.5;
                        task = task
                            .with_q(q)
                            .expect("valid q")
                            .with_delay_curve(DelayCurve::constant(delay, wcet).expect("curve"));
                    }
                    task
                })
                .collect();
            let set = TaskSet::new(tasks).expect("valid set");
            Scenario::periodic(&set, &[], 96.0)
        })
        .collect()
}

/// (jobs digest, trace digest) of `corpus` at `cores`, over every policy
/// and mode. Also checks that tracing does not change the schedule.
fn digest(corpus: &[Scenario], cores: usize) -> (u64, u64) {
    let mut jobs_hash = Fnv::new();
    let mut trace_hash = Fnv::new();
    for scenario in corpus {
        for policy in POLICIES {
            for mode in MODES {
                let (jobs, _) = run(scenario, policy, mode, cores, false);
                let (traced_jobs, events) = run(scenario, policy, mode, cores, true);
                assert_eq!(jobs, traced_jobs, "tracing changed the schedule");
                hash_jobs(&mut jobs_hash, &jobs);
                hash_trace(&mut trace_hash, events);
            }
        }
    }
    (jobs_hash.0, trace_hash.0)
}

fn check_family(name: &str, corpus: &[Scenario], expected: [(u64, u64); 3]) {
    let got: Vec<(usize, u64, u64)> = CORES
        .iter()
        .map(|&cores| {
            let (jobs, trace) = digest(corpus, cores);
            (cores, jobs, trace)
        })
        .collect();
    for (&(cores, jobs, trace), &(want_jobs, want_trace)) in got.iter().zip(&expected) {
        assert_eq!(
            (jobs, trace),
            (want_jobs, want_trace),
            "{name} digests moved at {cores} core(s): got {got:#018x?}"
        );
    }
}

#[test]
fn interference_victims_match_golden_digests() {
    check_family(
        "interference",
        &interference_corpus(120),
        [
            (0xd330_6bf9_c744_dbf9, 0xb00f_681e_e63f_516d),
            (0x9aa6_ccc2_03c4_15c9, 0x96fb_25a3_9872_9085),
            (0x44cb_217d_ef5d_4aa5, 0x8565_23c7_c74d_4b39),
        ],
    );
}

#[test]
fn sporadic_sets_match_golden_digests() {
    check_family(
        "sporadic",
        &sporadic_corpus(60),
        [
            (0xa835_0c2e_3f20_f0cf, 0x56d3_e482_1e37_0561),
            (0x9625_5e38_eae1_8dc7, 0xda12_99f1_9127_0d8b),
            (0x7510_b45c_d21c_9be9, 0x783b_26f1_0c7d_9209),
        ],
    );
}

#[test]
fn synchronous_periodic_sets_match_golden_digests() {
    check_family(
        "periodic",
        &periodic_corpus(60),
        [
            (0xe8cb_7861_14e5_86aa, 0xc869_98f6_fad5_23f0),
            (0x5206_b8d4_4fb4_d48b, 0x8476_cad8_d212_d870),
            (0x6bcb_a1ce_d094_09e8, 0x3334_296c_78e4_ba7c),
        ],
    );
}
