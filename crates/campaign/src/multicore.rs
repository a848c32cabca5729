//! The multicore workload: acceptance ratios of partitioned and global
//! multiprocessor floating-NPR schedulability under each WCET-inflation
//! method, swept over an (m × utilization × allocation × policy) grid,
//! with m-core simulator soundness checks on sampled instances.
//!
//! Determinism follows the engine contract: every RNG stream is a pure
//! function of the campaign seed and the grid coordinates, never of the
//! claiming thread. Base task sets are keyed *without* the policy and
//! allocation, so every (policy × allocation) pair at the same
//! (m, utilization) analyses the same sets — and the [`Memo`] layer
//! generates each exactly once per process.

use std::num::NonZeroUsize;

use fnpr_multicore::{
    global_schedulable_with_delay, partition_taskset, partitioned_schedulable_with_delay,
};
use fnpr_sched::{Task, TaskSet};
use fnpr_sim::{
    check_against_algorithm1, simulate, PreemptionMode, PriorityPolicy, Scenario, SimConfig,
};
use fnpr_synth::{
    random_taskset_multicore, with_npr_and_curves, with_npr_and_curves_global, Policy,
    TaskSetParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::CampaignError;
use crate::exec::{parallel_map, stream_seed};
use crate::memo::{Memo, ScenarioHasher};
use crate::report::MulticorePoint;
use crate::spec::{
    allocation_label, allocation_tag, method_tag, policy_tag, Allocation, MulticoreParams,
};
use crate::store::{ResultStore, StoreTable};

/// Domain tags for RNG stream / memo key derivation.
const TAG_TASKSET: u64 = 0x4d43_5453; // "MCTS"
const TAG_EQUIP: u64 = 0x4d43_4551; // "MCEQ"
const TAG_SIM: u64 = 0x4d43_5349; // "MCSI"
const TAG_POINT: u64 = 0x4d43_5054; // "MCPT"

/// Shared state across shards of one `run` call.
pub struct MulticoreEngine {
    /// Base task sets keyed by their full generation coordinates (policy-
    /// and allocation-free, so the whole grid row shares them).
    pub taskset_memo: Memo<Option<TaskSet>>,
}

impl MulticoreEngine {
    /// A fresh engine with empty memo tables.
    #[must_use]
    pub fn new() -> Self {
        Self {
            taskset_memo: Memo::named("taskset"),
        }
    }
}

impl Default for MulticoreEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// One grid point's coordinates.
#[derive(Clone, Copy)]
struct Point {
    m: usize,
    policy: Policy,
    allocation: Allocation,
    utilization: f64,
}

/// Runs the full grid on `threads` workers. Point order (and therefore
/// report order) is cores-major, then policies, allocations, utilizations.
///
/// # Errors
///
/// Propagates the first shard failure.
pub fn run(
    params: &MulticoreParams,
    campaign_seed: u64,
    threads: NonZeroUsize,
    engine: &MulticoreEngine,
    store: Option<&ResultStore>,
) -> Result<Vec<MulticorePoint>, CampaignError> {
    let grid = grid(params);
    parallel_map(grid.len(), threads, NonZeroUsize::MIN, |i| {
        compute_grid_point(params, campaign_seed, grid[i], engine, store)
    })
}

/// The flat shard list: cores-major, then policies, allocations,
/// utilizations.
fn grid(params: &MulticoreParams) -> Vec<Point> {
    let mut grid = Vec::new();
    for &m in &params.cores {
        for &policy in &params.policies {
            for &allocation in &params.allocations {
                for &utilization in &params.utilizations {
                    grid.push(Point {
                        m,
                        policy,
                        allocation,
                        utilization,
                    });
                }
            }
        }
    }
    grid
}

fn compute_grid_point(
    params: &MulticoreParams,
    campaign_seed: u64,
    point: Point,
    engine: &MulticoreEngine,
    store: Option<&ResultStore>,
) -> Result<MulticorePoint, CampaignError> {
    let compute = || run_point(params, campaign_seed, point, engine);
    match store {
        Some(s) => s.get_or_compute(
            StoreTable::MulticorePoints,
            point_key(params, campaign_seed, point),
            compute,
        ),
        None => compute(),
    }
}

/// Content address of one finished grid point: campaign seed, every
/// parameter the point's result depends on, and the point coordinates —
/// never the axis *lists* (cores/policies/allocations/utilizations), so
/// grid extensions restore shared points. The `methods` list shapes the
/// accepted/ratio vectors and stays in, length-prefixed.
fn point_key(params: &MulticoreParams, campaign_seed: u64, point: Point) -> u128 {
    let mut h = ScenarioHasher::new(TAG_POINT)
        .word(campaign_seed)
        .word(params.sets_per_point as u64)
        .word(params.max_attempts_factor as u64)
        .word(params.tasks_per_core as u64)
        .f64(params.q_scale)
        .f64(params.delay_frac)
        .word(u64::from(params.simulate))
        .word(params.sim_per_point as u64)
        .f64(params.sim_horizon_factor)
        .f64(params.taskset.period_range.0)
        .f64(params.taskset.period_range.1)
        .f64(params.taskset.deadline_factor.0)
        .f64(params.taskset.deadline_factor.1)
        .word(params.methods.len() as u64);
    for &m in &params.methods {
        h = h.word(method_tag(m));
    }
    h.word(point.m as u64)
        .word(policy_tag(point.policy))
        .word(allocation_tag(point.allocation))
        .f64(point.utilization)
        .finish128()
}

fn run_point(
    params: &MulticoreParams,
    campaign_seed: u64,
    point: Point,
    engine: &MulticoreEngine,
) -> Result<MulticorePoint, CampaignError> {
    let mut out = MulticorePoint {
        m: point.m,
        policy: crate::spec::policy_label(point.policy).to_string(),
        allocation: allocation_label(point.allocation).to_string(),
        utilization: point.utilization,
        generated: 0,
        attempts: 0,
        accepted: vec![0; params.methods.len()],
        ratios: Vec::new(),
        sim_checks: 0,
        sim_violations: 0,
        sim_jobs: 0,
        sim_migrations: 0,
        migrations_mean: 0.0,
    };
    let ts_params = TaskSetParams {
        n: point.m * params.tasks_per_core,
        utilization: point.m as f64 * point.utilization,
        ..params.taskset
    };

    for instance in 0..params.sets_per_point {
        let Some((base, attempt)) = generate_instance(
            params,
            campaign_seed,
            &ts_params,
            instance,
            engine,
            &mut out.attempts,
        ) else {
            continue;
        };
        out.generated += 1;
        // One equipment stream per (coords, allocation, policy); shared by
        // every method so the dominance chain stays meaningful.
        let equip_seed = stream_seed(
            TAG_EQUIP,
            campaign_seed,
            &[
                point.m as u64,
                point.utilization.to_bits(),
                instance as u64,
                attempt as u64,
                allocation_tag(point.allocation),
                policy_tag(point.policy),
            ],
        );
        let evaluation = evaluate_instance(params, point, &base, equip_seed)?;
        for (k, &ok) in evaluation.accepted.iter().enumerate() {
            if ok {
                out.accepted[k] += 1;
            }
        }
        if params.simulate && instance < params.sim_per_point {
            let sim_seed = stream_seed(
                TAG_SIM,
                campaign_seed,
                &[
                    point.m as u64,
                    point.utilization.to_bits(),
                    instance as u64,
                    allocation_tag(point.allocation),
                    policy_tag(point.policy),
                ],
            );
            simulate_instance(params, point, &evaluation, sim_seed, &mut out)?;
        }
    }

    out.ratios = out
        .accepted
        .iter()
        .map(|&a| {
            if out.generated == 0 {
                0.0
            } else {
                a as f64 / out.generated as f64
            }
        })
        .collect();
    if out.sim_jobs > 0 {
        out.migrations_mean = out.sim_migrations as f64 / out.sim_jobs as f64;
    }
    Ok(out)
}

/// Draws one base multiprocessor task set, resampling up to the attempt
/// budget; returns the set and the successful attempt index (part of the
/// downstream stream coordinates).
fn generate_instance(
    params: &MulticoreParams,
    campaign_seed: u64,
    ts_params: &TaskSetParams,
    instance: usize,
    engine: &MulticoreEngine,
    attempts: &mut usize,
) -> Option<(TaskSet, usize)> {
    for attempt in 0..params.max_attempts_factor {
        *attempts += 1;
        let key = taskset_key(campaign_seed, ts_params, instance, attempt);
        let base = engine.taskset_memo.get_or_insert_with(key, || {
            // Seed from the key's low word: the pre-widening 64-bit hash,
            // so generation streams (and aggregates) are unchanged.
            let mut rng = StdRng::seed_from_u64(key as u64);
            random_taskset_multicore(&mut rng, ts_params).ok().flatten()
        });
        if let Some(base) = base {
            return Some((base, attempt));
        }
    }
    None
}

/// Everything one instance's analysis produced (shared with the simulator
/// step so nothing is recomputed).
struct Evaluation {
    /// Per-method verdicts, aligned with `params.methods`.
    accepted: Vec<bool>,
    /// The equipped task set(s): one global set, or one per non-empty core
    /// (empty when no feasible packing/equipment exists — nothing to
    /// simulate).
    equipped: Vec<TaskSet>,
}

fn evaluate_instance(
    params: &MulticoreParams,
    point: Point,
    base: &TaskSet,
    equip_seed: u64,
) -> Result<Evaluation, CampaignError> {
    let mut rng = StdRng::seed_from_u64(equip_seed);
    match point.allocation.heuristic() {
        None => {
            // Global: equipment always succeeds (Q = q_scale × C).
            let equipped =
                with_npr_and_curves_global(&mut rng, base, params.q_scale, params.delay_frac)
                    .map_err(|e| CampaignError::Analysis(format!("global equip: {e}")))?;
            let accepted = params
                .methods
                .iter()
                .map(|&method| {
                    global_schedulable_with_delay(&equipped, point.m, point.policy, method)
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| CampaignError::Analysis(format!("global test: {e}")))?;
            Ok(Evaluation {
                accepted,
                equipped: vec![equipped],
            })
        }
        Some(heuristic) => {
            let partition = partition_taskset(base, point.m, heuristic, point.policy)
                .map_err(|e| CampaignError::Analysis(format!("partitioning: {e}")))?;
            let Some(partition) = partition else {
                // No feasible packing: every method rejects.
                return Ok(Evaluation {
                    accepted: vec![false; params.methods.len()],
                    equipped: Vec::new(),
                });
            };
            // Equip each core against its own admissible bounds. A core
            // with no slack can fail equipment; delay-aware methods then
            // reject while `None` (= the admission test itself) accepts.
            let mut per_core: Vec<TaskSet> = Vec::new();
            let mut equip_ok = true;
            for core in 0..partition.cores {
                let Some(subset) = partition.core_taskset(base, core) else {
                    continue;
                };
                match with_npr_and_curves(
                    &mut rng,
                    &subset,
                    point.policy,
                    params.q_scale,
                    params.delay_frac,
                ) {
                    Ok(Some(equipped)) => per_core.push(equipped),
                    Ok(None) | Err(_) => {
                        equip_ok = false;
                        break;
                    }
                }
            }
            if !equip_ok {
                let accepted = params
                    .methods
                    .iter()
                    .map(|&m| matches!(m, fnpr_sched::DelayMethod::None))
                    .collect();
                return Ok(Evaluation {
                    accepted,
                    equipped: Vec::new(),
                });
            }
            // Reassemble the full equipped set in original index order so
            // the partition's index mapping stays valid.
            let mut slots: Vec<Option<Task>> = vec![None; base.len()];
            let mut core_sets = per_core.iter();
            for core in 0..partition.cores {
                let members = partition.tasks_on(core);
                if members.is_empty() {
                    continue;
                }
                let equipped = core_sets.next().expect("one set per non-empty core");
                for (slot, task) in members.iter().zip(equipped.iter()) {
                    slots[*slot] = Some(task.clone());
                }
            }
            let full = TaskSet::new(
                slots
                    .into_iter()
                    .map(|t| t.expect("all slots filled"))
                    .collect(),
            )
            .map_err(|e| CampaignError::Analysis(format!("reassembly: {e}")))?;
            let accepted = params
                .methods
                .iter()
                .map(|&method| {
                    partitioned_schedulable_with_delay(&full, &partition, point.policy, method)
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| CampaignError::Analysis(format!("partitioned test: {e}")))?;
            Ok(Evaluation {
                accepted,
                equipped: per_core,
            })
        }
    }
}

/// Runs the m-core (global) or per-core (partitioned) simulator on one
/// instance's equipped sets and checks every curve-bearing task's observed
/// cumulative delay against its Algorithm 1 bound — the multicore
/// extension of the paper's Theorem 1 soundness experiment.
fn simulate_instance(
    params: &MulticoreParams,
    point: Point,
    evaluation: &Evaluation,
    sim_seed: u64,
    out: &mut MulticorePoint,
) -> Result<(), CampaignError> {
    let mut rng = StdRng::seed_from_u64(sim_seed);
    let policy = match point.policy {
        Policy::FixedPriority => PriorityPolicy::FixedPriority,
        Policy::Edf => PriorityPolicy::Edf,
    };
    // Global allocation simulates all m cores at once; partitioned
    // allocations simulate each core's subset on its own core.
    let runs: Vec<(usize, &TaskSet)> = match point.allocation {
        Allocation::Global => evaluation.equipped.iter().map(|t| (point.m, t)).collect(),
        _ => evaluation.equipped.iter().map(|t| (1, t)).collect(),
    };
    for (cores, tasks) in runs {
        let max_period = tasks.iter().map(Task::period).fold(0.0f64, f64::max);
        let horizon = max_period * params.sim_horizon_factor;
        let scenario = Scenario::sporadic(tasks, 0.5, horizon, &mut rng);
        let config = SimConfig {
            cores,
            policy,
            mode: PreemptionMode::FloatingNpr,
            horizon: f64::INFINITY,
            collect_trace: false,
        };
        let result = simulate(&scenario, &config);
        out.sim_jobs += result.jobs.len();
        out.sim_migrations += result.total_migrations();
        for (i, task) in tasks.iter().enumerate() {
            let (Some(q), Some(curve)) = (task.q(), task.delay_curve()) else {
                continue;
            };
            let check = check_against_algorithm1(&result, i, curve, q)
                .map_err(|e| CampaignError::Analysis(format!("sim check: {e:?}")))?;
            out.sim_checks += 1;
            if !check.holds {
                out.sim_violations += 1;
            }
        }
    }
    Ok(())
}

/// Memo key (its low word doubling as the RNG seed) for a base task set: a
/// pure function of campaign seed + generation parameters + instance
/// coordinates. Policy and allocation are deliberately absent so the whole
/// grid row shares base sets.
fn taskset_key(
    campaign_seed: u64,
    params: &TaskSetParams,
    instance: usize,
    attempt: usize,
) -> u128 {
    ScenarioHasher::new(TAG_TASKSET)
        .word(campaign_seed)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, Workload};

    fn threads(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    fn small_params() -> MulticoreParams {
        let spec = CampaignSpec::parse(
            r#"
workload = "multicore"
[multicore]
sets_per_point = 5
max_attempts_factor = 20
cores = [2]
tasks_per_core = 2
utilizations = { values = [0.4] }
sim_per_point = 2
"#,
        )
        .unwrap();
        match spec.validate().unwrap().workload {
            Workload::Multicore(m) => m,
            _ => unreachable!(),
        }
    }

    #[test]
    fn points_cover_the_grid_in_order() {
        let params = small_params();
        let engine = MulticoreEngine::new();
        let points = run(&params, 7, threads(2), &engine, None).unwrap();
        // 1 core count x 2 policies x 4 allocations x 1 utilization.
        assert_eq!(points.len(), 8);
        assert_eq!(points[0].policy, "fp");
        assert_eq!(points[0].allocation, "first_fit");
        assert_eq!(points[3].allocation, "global");
        assert_eq!(points[4].policy, "edf");
        for p in &points {
            assert_eq!(p.m, 2);
            assert!(p.generated > 0, "no sets generated at U=0.4");
            assert_eq!(p.accepted.len(), 4);
            assert_eq!(p.ratios.len(), 4);
            assert!(p.attempts >= p.generated);
        }
    }

    #[test]
    fn simulator_never_beats_the_bound_and_counts_migrations() {
        let params = small_params();
        let engine = MulticoreEngine::new();
        let points = run(&params, 11, threads(4), &engine, None).unwrap();
        let mut checks = 0;
        for p in &points {
            assert_eq!(p.sim_violations, 0, "Theorem 1 violated on {p:?}");
            checks += p.sim_checks;
            if p.allocation != "global" {
                assert_eq!(
                    p.sim_migrations, 0,
                    "partitioned runs cannot migrate: {p:?}"
                );
            }
        }
        assert!(checks > 0, "no simulator checks ran");
    }

    #[test]
    fn grid_rows_share_base_task_sets_via_memo() {
        let params = small_params();
        let engine = MulticoreEngine::new();
        let _ = run(&params, 7, threads(1), &engine, None).unwrap();
        let stats = engine.taskset_memo.stats();
        assert!(
            stats.hits > 0,
            "policies/allocations should reuse base sets (hits {}, misses {})",
            stats.hits,
            stats.misses
        );
    }

    #[test]
    fn dominance_holds_on_the_small_grid() {
        let params = small_params();
        let engine = MulticoreEngine::new();
        let points = run(&params, 7, threads(2), &engine, None).unwrap();
        for p in &points {
            // accepted = [none, eq4, alg1, capped].
            assert!(p.accepted[1] <= p.accepted[2], "Eq.4 beat Algorithm 1");
            assert!(p.accepted[2] <= p.accepted[3], "Algorithm 1 beat capped");
            assert!(p.accepted[3] <= p.accepted[0], "capped beat no-delay");
        }
    }
}
