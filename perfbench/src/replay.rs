//! The 1-thread replay behind the traced pass.
//!
//! For every grid point this makes the same paper-level calls the
//! workload module makes, in the same order and from the same RNG streams,
//! each wrapped in a [`Tracer`] span charged to the layer that owns the
//! function. Results the campaign engine memoizes are cached here too (in
//! plain maps keyed by the same generation coordinates), so the replay
//! does the work of a 1-thread run once and only once; the program's own
//! work counters after a replay must match a 1-thread run of the same
//! seed (see `README.md` for the tolerance).
//!
//! The stream tags below mirror the private domain tags of the workload
//! modules in `fnpr-campaign`; the derivations go through the public
//! stream-seed helpers (`exec::stream_seed`, `exec::stream_key128`,
//! `spec::policy_tag`, `spec::allocation_tag` and the structural hasher).

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;

use fnpr_cache::CacheConfig;
use fnpr_campaign::exec::{stream_key128, stream_seed};
use fnpr_campaign::spec::{
    allocation_tag, policy_tag, AcceptanceParams, Allocation, CfgParams, MulticoreParams,
    SoundnessParams, Workload as Params,
};
use fnpr_campaign::Campaign;
use fnpr_cfg::ast::CompiledProgram;
use fnpr_core::{algorithm1, eq4_bound_for_curve, exact_worst_case, naive_bound, StructuralHasher};
use fnpr_multicore::{
    global_schedulable_with_delay, partition_taskset, partitioned_schedulable_with_delay, Partition,
};
use fnpr_pipeline::{program_access_map, PreparedProgram, TaskAnalysis};
use fnpr_sched::{
    edf_schedulable_with_delay, fp_schedulable_with_delay, inflate_wcets, DelayMethod, Task,
    TaskSet,
};
use fnpr_sim::{
    check_against_algorithm1, check_multicore_against_algorithm1, simulate, simulate_multicore,
    MultiSimConfig, PreemptionMode, PriorityPolicy, Scenario, SimConfig,
};
use fnpr_synth::{
    random_program, random_step_curve, random_taskset, random_taskset_multicore,
    with_npr_and_curves, with_npr_and_curves_global, Policy, ProgramGenParams, TaskSetParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spans::Tracer;

/// Acceptance: base task sets, curve equipment.
const ACCEPTANCE_TASKSET: u64 = 0x5441_534b;
const ACCEPTANCE_EQUIP: u64 = 0x4551_5550;
/// Soundness: one stream per trial.
const SOUNDNESS_TRIAL: u64 = 0x5452_4941;
/// `[cfg]`: program generation.
const CFG_PROGRAM: u64 = 0x4347_5047;
/// Multicore: base task sets, equipment, simulation.
const MULTICORE_TASKSET: u64 = 0x4d43_5453;
const MULTICORE_EQUIP: u64 = 0x4d43_4551;
const MULTICORE_SIM: u64 = 0x4d43_5349;

/// Prefixes of the program counters that count paper-level work (not
/// engine framing): after a replay these must match a 1-thread run.
pub const WORK_PREFIXES: [&str; 8] = [
    "synth.",
    "sched.",
    "core.",
    "cfg.",
    "cache.",
    "pipeline.",
    "multicore.",
    "sim.",
];

/// What a replay did besides its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Grid points replayed.
    pub points: u64,
    /// Calls into `fnpr-synth` generators.
    pub synth_calls: u64,
    /// Of those, the calls that produced a usable value.
    pub synth_generated: u64,
    /// Distinct (program, cache geometry) pairs analysed (`[cfg]` only).
    pub program_geometry_pairs: u64,
}

/// Replays every grid point of `campaign` on the calling thread.
///
/// # Errors
///
/// A description of the first call that failed where the workload module
/// would have failed the point.
pub fn replay(campaign: &Campaign, tr: &mut Tracer) -> Result<ReplayStats, String> {
    let mut stats = ReplayStats::default();
    let seed = campaign.seed;
    match &campaign.workload {
        Params::Acceptance(p) => acceptance(p, seed, tr, &mut stats),
        Params::Soundness(p) => soundness(p, seed, tr, &mut stats)?,
        Params::Cfg(p) => cfg(p, seed, tr, &mut stats)?,
        Params::Multicore(p) => multicore(p, seed, tr, &mut stats)?,
    }
    Ok(stats)
}

/// One timed generator call, tallied as generated when it yields a value.
fn synth<T>(
    tr: &mut Tracer,
    stats: &mut ReplayStats,
    name: &'static str,
    f: impl FnOnce() -> Option<T>,
) -> Option<T> {
    let out = tr.call(name, "synth", f);
    stats.synth_calls += 1;
    if out.is_some() {
        stats.synth_generated += 1;
    }
    out
}

/// The base-task-set key of the acceptance and multicore workloads (its
/// low word seeds the generator).
fn taskset_key(
    tag: u64,
    seed: u64,
    params: &TaskSetParams,
    instance: usize,
    attempt: usize,
) -> u128 {
    StructuralHasher::new(tag)
        .word(seed)
        .word(params.n as u64)
        .f64(params.utilization)
        .f64(params.period_range.0)
        .f64(params.period_range.1)
        .f64(params.deadline_factor.0)
        .f64(params.deadline_factor.1)
        .word(instance as u64)
        .word(attempt as u64)
        .finish128()
}

fn acceptance(p: &AcceptanceParams, seed: u64, tr: &mut Tracer, stats: &mut ReplayStats) {
    let mut bases: BTreeMap<u128, Option<TaskSet>> = BTreeMap::new();
    for &policy in &p.policies {
        for &utilization in &p.utilizations {
            tr.point(stats.points, |tr| {
                acceptance_point(p, seed, policy, utilization, &mut bases, tr, stats);
            });
            stats.points += 1;
        }
    }
}

fn acceptance_point(
    p: &AcceptanceParams,
    seed: u64,
    policy: Policy,
    utilization: f64,
    bases: &mut BTreeMap<u128, Option<TaskSet>>,
    tr: &mut Tracer,
    stats: &mut ReplayStats,
) {
    let ts_params = TaskSetParams {
        utilization,
        ..p.taskset
    };
    for instance in 0..p.sets_per_point {
        let mut equipped = None;
        for attempt in 0..p.max_attempts_factor {
            let key = taskset_key(ACCEPTANCE_TASKSET, seed, &ts_params, instance, attempt);
            let base = bases.entry(key).or_insert_with(|| {
                synth(tr, stats, "synth.random_taskset", || {
                    let mut rng = StdRng::seed_from_u64(key as u64);
                    random_taskset(&mut rng, &ts_params).ok()
                })
            });
            let Some(base) = base else {
                continue;
            };
            equipped = synth(tr, stats, "synth.with_npr_and_curves", || {
                let mut rng = StdRng::seed_from_u64(stream_seed(
                    ACCEPTANCE_EQUIP,
                    seed,
                    &[
                        utilization.to_bits(),
                        instance as u64,
                        attempt as u64,
                        policy_tag(policy),
                    ],
                ));
                with_npr_and_curves(&mut rng, base, policy, p.q_scale, p.delay_frac)
                    .ok()
                    .flatten()
            });
            if equipped.is_some() {
                break;
            }
        }
        let Some(tasks) = equipped else {
            continue;
        };
        for &method in &p.methods {
            black_box(match policy {
                Policy::FixedPriority => {
                    tr.call("sched.fp_schedulable_with_delay", "sched", || {
                        fp_schedulable_with_delay(&tasks, method)
                    })
                }
                Policy::Edf => tr.call("sched.edf_schedulable_with_delay", "sched", || {
                    edf_schedulable_with_delay(&tasks, method)
                }),
            })
            .ok();
        }
        // The per-set pessimism gap: Eq. 4 runs only when Algorithm 1's
        // inflation has a finite total.
        let alg1 = tr.call("sched.inflate_wcets", "sched", || {
            inflate_wcets(&tasks, DelayMethod::Algorithm1)
        });
        if alg1.ok().and_then(|i| i.total_overhead(&tasks)).is_some() {
            black_box(tr.call("sched.inflate_wcets", "sched", || {
                inflate_wcets(&tasks, DelayMethod::Eq4)
            }))
            .ok();
        }
    }
}

fn soundness(
    p: &SoundnessParams,
    seed: u64,
    tr: &mut Tracer,
    stats: &mut ReplayStats,
) -> Result<(), String> {
    let mut bounded: BTreeSet<(u128, u64)> = BTreeSet::new();
    for trial in 0..p.trials {
        tr.point(stats.points, |tr| {
            soundness_trial(p, seed, trial, &mut bounded, tr, stats)
        })?;
        stats.points += 1;
    }
    Ok(())
}

fn soundness_trial(
    p: &SoundnessParams,
    seed: u64,
    trial: usize,
    bounded: &mut BTreeSet<(u128, u64)>,
    tr: &mut Tracer,
    stats: &mut ReplayStats,
) -> Result<(), String> {
    // The trial's parameter draws are input generation too.
    let (mut rng, c, curve, q) = synth(tr, stats, "synth.random_step_curve", || {
        let mut rng = StdRng::seed_from_u64(stream_seed(SOUNDNESS_TRIAL, seed, &[trial as u64]));
        let c = rng.gen_range(p.c_range.0..p.c_range.1);
        let segments = rng.gen_range(p.segments.0..p.segments.1) as usize;
        let max_value = rng.gen_range(p.max_value_range.0..p.max_value_range.1);
        let curve = random_step_curve(&mut rng, c, segments, max_value).ok()?;
        let q = curve.max_value() + rng.gen_range(p.q_slack_range.0..p.q_slack_range.1);
        Some((rng, c, curve, q))
    })
    .ok_or_else(|| format!("trial {trial}: bad curve"))?;
    let curve_key = tr.call("core.structural_hash128", "core", || {
        curve.structural_hash128()
    });
    if bounded.insert((curve_key, q.to_bits())) {
        black_box(tr.call("core.algorithm1", "core", || algorithm1(&curve, q))).ok();
        black_box(tr.call("core.eq4_bound_for_curve", "core", || {
            eq4_bound_for_curve(&curve, q)
        }))
        .ok();
        black_box(tr.call("core.naive_bound", "core", || naive_bound(&curve, q))).ok();
        black_box(tr.call("core.exact_worst_case", "core", || {
            exact_worst_case(&curve, q)
        }))
        .ok();
    }
    if p.simulate {
        let scenario = tr.call("sim.random_interference", "sim", || {
            let spike = rng.gen_range(0.1..2.0);
            Scenario::random_interference(c, q, &curve, spike, 1.0, q * 2.0, c * 4.0, &mut rng)
        });
        let result = tr.call("sim.simulate", "sim", || {
            simulate(&scenario, &SimConfig::floating_npr_fp(1e9))
        });
        // The simulator's scenario and result are freed inside its span.
        tr.call("sim.check_against_algorithm1", "sim", || {
            let checked = check_against_algorithm1(&result, 1, &curve, q);
            drop((scenario, result));
            checked
        })
        .map_err(|e| format!("trial {trial}: {e:?}"))?;
    }
    Ok(())
}

/// The `[cfg]` program key (its low word seeds the generator).
fn program_key(seed: u64, g: &ProgramGenParams, instance: usize) -> u128 {
    stream_key128(
        CFG_PROGRAM,
        seed,
        &[
            g.max_depth as u64,
            g.max_sequence as u64,
            g.cost_range.0.to_bits(),
            g.cost_range.1.to_bits(),
            g.max_loop_iterations,
            g.branch_probability.to_bits(),
            g.loop_probability.to_bits(),
            g.block_bytes,
            g.footprint_lines,
            g.accesses_per_block.0 as u64,
            g.accesses_per_block.1 as u64,
            instance as u64,
        ],
    )
}

/// The `[cfg]` caches: prepared programs by key, derived curves by
/// (program key, geometry), bounded `(curve, Q)` pairs.
#[derive(Default)]
struct CfgCaches {
    programs: BTreeMap<u128, Option<(CompiledProgram, PreparedProgram)>>,
    curves: BTreeMap<(u128, [u64; 4]), Option<TaskAnalysis>>,
    bounded: BTreeSet<(u128, u64)>,
}

fn cfg(p: &CfgParams, seed: u64, tr: &mut Tracer, stats: &mut ReplayStats) -> Result<(), String> {
    let mut caches = CfgCaches::default();
    for &depth in &p.depths {
        for &loop_iterations in &p.loop_iterations {
            for &footprint in &p.footprints {
                let gen = ProgramGenParams {
                    max_depth: depth,
                    max_loop_iterations: loop_iterations,
                    footprint_lines: footprint,
                    ..p.program
                };
                for &sets in &p.sets {
                    for &ways in &p.associativity {
                        for &line in &p.line_bytes {
                            for &reload in &p.reload_costs {
                                let cache = CacheConfig::new(sets, ways, line, reload)
                                    .map_err(|e| format!("cache geometry: {e}"))?;
                                let geometry = [sets as u64, ways as u64, line, reload.to_bits()];
                                for &q_scale in &p.q_scales {
                                    tr.point(stats.points, |tr| {
                                        cfg_point(
                                            p,
                                            seed,
                                            &gen,
                                            &cache,
                                            geometry,
                                            q_scale,
                                            &mut caches,
                                            tr,
                                            stats,
                                        )
                                    })?;
                                    stats.points += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn cfg_point(
    p: &CfgParams,
    seed: u64,
    gen: &ProgramGenParams,
    cache: &CacheConfig,
    geometry: [u64; 4],
    q_scale: f64,
    caches: &mut CfgCaches,
    tr: &mut Tracer,
    stats: &mut ReplayStats,
) -> Result<(), String> {
    for instance in 0..p.programs_per_point {
        let key = program_key(seed, gen, instance);
        let program = caches.programs.entry(key).or_insert_with(|| {
            let mut rng = StdRng::seed_from_u64(key as u64);
            let compiled = synth(tr, stats, "synth.random_program", || {
                random_program(&mut rng, gen).ok().map(|g| g.compiled)
            })?;
            let prepared = tr
                .call("pipeline.prepare", "pipeline", || {
                    PreparedProgram::new(&compiled.cfg, &compiled.loop_bounds)
                })
                .ok()?;
            Some((compiled, prepared))
        });
        let Some((compiled, prepared)) = program else {
            return Err(format!("program generation failed (instance {instance})"));
        };
        let analysis = caches.curves.entry((key, geometry)).or_insert_with(|| {
            stats.program_geometry_pairs += 1;
            let accesses = tr.call("pipeline.program_access_map", "pipeline", || {
                program_access_map(compiled, cache)
            });
            tr.call("pipeline.analyze", "pipeline", || {
                prepared.analyze(&accesses, cache)
            })
            .ok()
        });
        let Some(analysis) = analysis else {
            return Err(format!("pipeline failed (instance {instance})"));
        };
        let q = q_scale * analysis.timing.wcet;
        if caches
            .bounded
            .insert((analysis.curve.structural_hash128(), q.to_bits()))
        {
            let curve = &analysis.curve;
            black_box(tr.call("core.algorithm1", "core", || algorithm1(curve, q)))
                .map_err(|e| format!("algorithm1 (q {q}): {e}"))?;
            black_box(tr.call("core.eq4_bound_for_curve", "core", || {
                eq4_bound_for_curve(curve, q)
            }))
            .map_err(|e| format!("eq4 (q {q}): {e}"))?;
        }
    }
    Ok(())
}

/// One multicore grid point's coordinates.
#[derive(Clone, Copy)]
struct McPoint {
    m: usize,
    policy: Policy,
    allocation: Allocation,
    utilization: f64,
}

fn multicore(
    p: &MulticoreParams,
    seed: u64,
    tr: &mut Tracer,
    stats: &mut ReplayStats,
) -> Result<(), String> {
    let mut bases: BTreeMap<u128, Option<TaskSet>> = BTreeMap::new();
    for &m in &p.cores {
        for &policy in &p.policies {
            for &allocation in &p.allocations {
                for &utilization in &p.utilizations {
                    let point = McPoint {
                        m,
                        policy,
                        allocation,
                        utilization,
                    };
                    tr.point(stats.points, |tr| {
                        multicore_point(p, seed, point, &mut bases, tr, stats)
                    })?;
                    stats.points += 1;
                }
            }
        }
    }
    Ok(())
}

fn multicore_point(
    p: &MulticoreParams,
    seed: u64,
    point: McPoint,
    bases: &mut BTreeMap<u128, Option<TaskSet>>,
    tr: &mut Tracer,
    stats: &mut ReplayStats,
) -> Result<(), String> {
    let ts_params = TaskSetParams {
        n: point.m * p.tasks_per_core,
        utilization: point.m as f64 * point.utilization,
        ..p.taskset
    };
    let coords = [point.m as u64, point.utilization.to_bits()];
    for instance in 0..p.sets_per_point {
        let mut found = None;
        for attempt in 0..p.max_attempts_factor {
            let key = taskset_key(MULTICORE_TASKSET, seed, &ts_params, instance, attempt);
            let base = bases.entry(key).or_insert_with(|| {
                synth(tr, stats, "synth.random_taskset_multicore", || {
                    let mut rng = StdRng::seed_from_u64(key as u64);
                    random_taskset_multicore(&mut rng, &ts_params)
                        .ok()
                        .flatten()
                })
            });
            if let Some(base) = base {
                found = Some((base.clone(), attempt));
                break;
            }
        }
        let Some((base, attempt)) = found else {
            continue;
        };
        let equip_seed = stream_seed(
            MULTICORE_EQUIP,
            seed,
            &[
                coords[0],
                coords[1],
                instance as u64,
                attempt as u64,
                allocation_tag(point.allocation),
                policy_tag(point.policy),
            ],
        );
        let equipped = multicore_evaluate(p, point, &base, equip_seed, tr, stats)?;
        if p.simulate && instance < p.sim_per_point {
            let sim_seed = stream_seed(
                MULTICORE_SIM,
                seed,
                &[
                    coords[0],
                    coords[1],
                    instance as u64,
                    allocation_tag(point.allocation),
                    policy_tag(point.policy),
                ],
            );
            multicore_simulate(p, point, &equipped, sim_seed, tr)?;
        }
    }
    Ok(())
}

/// Equips and tests one instance; returns the equipped sets the simulator
/// runs (one global set, or one per non-empty core; empty when packing or
/// equipment failed).
fn multicore_evaluate(
    p: &MulticoreParams,
    point: McPoint,
    base: &TaskSet,
    equip_seed: u64,
    tr: &mut Tracer,
    stats: &mut ReplayStats,
) -> Result<Vec<TaskSet>, String> {
    let mut rng = StdRng::seed_from_u64(equip_seed);
    let Some(heuristic) = point.allocation.heuristic() else {
        let equipped = synth(tr, stats, "synth.with_npr_and_curves_global", || {
            with_npr_and_curves_global(&mut rng, base, p.q_scale, p.delay_frac).ok()
        })
        .ok_or("global equip failed")?;
        for &method in &p.methods {
            tr.call(
                "multicore.global_schedulable_with_delay",
                "multicore",
                || global_schedulable_with_delay(&equipped, point.m, point.policy, method),
            )
            .map_err(|e| format!("global test: {e}"))?;
        }
        return Ok(vec![equipped]);
    };
    let partition = tr
        .call("multicore.partition_taskset", "multicore", || {
            partition_taskset(base, point.m, heuristic, point.policy)
        })
        .map_err(|e| format!("partitioning: {e}"))?;
    let Some(partition) = partition else {
        return Ok(Vec::new());
    };
    let mut per_core: Vec<TaskSet> = Vec::new();
    for core in 0..partition.cores {
        let subset = tr.call("multicore.core_taskset", "multicore", || {
            partition.core_taskset(base, core)
        });
        let Some(subset) = subset else {
            continue;
        };
        let equipped = synth(tr, stats, "synth.with_npr_and_curves", || {
            with_npr_and_curves(&mut rng, &subset, point.policy, p.q_scale, p.delay_frac)
                .ok()
                .flatten()
        });
        match equipped {
            Some(set) => per_core.push(set),
            None => return Ok(Vec::new()),
        }
    }
    // Reassemble the full equipped set in original index order (input
    // assembly for the partitioned test, so charged to its layer).
    let full = tr.call("multicore.reassemble", "multicore", || {
        reassemble(base.len(), &partition, &per_core)
    })?;
    for &method in &p.methods {
        tr.call(
            "multicore.partitioned_schedulable_with_delay",
            "multicore",
            || partitioned_schedulable_with_delay(&full, &partition, point.policy, method),
        )
        .map_err(|e| format!("partitioned test: {e}"))?;
    }
    Ok(per_core)
}

/// The full equipped set from the per-core sets, in original index order.
fn reassemble(
    tasks: usize,
    partition: &Partition,
    per_core: &[TaskSet],
) -> Result<TaskSet, String> {
    let mut slots: Vec<Option<Task>> = vec![None; tasks];
    let mut core_sets = per_core.iter();
    for core in 0..partition.cores {
        let members = partition.tasks_on(core);
        if members.is_empty() {
            continue;
        }
        let equipped = core_sets.next().ok_or("fewer equipped sets than cores")?;
        for (&slot, task) in members.iter().zip(equipped.iter()) {
            if let Some(s) = slots.get_mut(slot) {
                *s = Some(task.clone());
            }
        }
    }
    let tasks: Option<Vec<Task>> = slots.into_iter().collect();
    TaskSet::new(tasks.ok_or("unfilled task slot")?).map_err(|e| format!("reassembly: {e}"))
}

fn multicore_simulate(
    p: &MulticoreParams,
    point: McPoint,
    equipped: &[TaskSet],
    sim_seed: u64,
    tr: &mut Tracer,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(sim_seed);
    let policy = match point.policy {
        Policy::FixedPriority => PriorityPolicy::FixedPriority,
        Policy::Edf => PriorityPolicy::Edf,
    };
    let cores = match point.allocation {
        Allocation::Global => point.m,
        _ => 1,
    };
    for tasks in equipped {
        let max_period = tasks.iter().map(Task::period).fold(0.0f64, f64::max);
        let horizon = max_period * p.sim_horizon_factor;
        let scenario = tr.call("sim.sporadic", "sim", || {
            Scenario::sporadic(tasks, 0.5, horizon, &mut rng)
        });
        let config = MultiSimConfig {
            cores,
            policy,
            mode: PreemptionMode::FloatingNpr,
            horizon: f64::INFINITY,
            collect_trace: false,
        };
        let result = tr.call("sim.simulate_multicore", "sim", || {
            simulate_multicore(&scenario, &config)
        });
        for (i, task) in tasks.iter().enumerate() {
            let (Some(q), Some(curve)) = (task.q(), task.delay_curve()) else {
                continue;
            };
            tr.call("sim.check_multicore_against_algorithm1", "sim", || {
                check_multicore_against_algorithm1(&result, i, curve, q)
            })
            .map_err(|e| format!("sim check: {e:?}"))?;
        }
    }
    Ok(())
}
