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

use fnpr_multicore::{
    cores_schedulable_with_delay, global_schedulable_with_delay, partition_taskset,
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

use crate::acceptance::AcceptanceEngine;
use crate::error::CampaignError;
use crate::exec::stream_seed;
use crate::memo::{hash_list, MemoStats, ScenarioHasher};
use crate::report::{acceptance_ratios, chain_violations, MulticorePoint, Summary};
use crate::spec::{
    allocation_label, allocation_tag, method_tag, policy_label, policy_tag, Allocation,
    MulticoreParams,
};
use crate::store::StoreTable;
use crate::GridWorkload;

/// Domain tags for RNG stream / memo key derivation.
const TAG_TASKSET: u64 = 0x4d43_5453; // "MCTS"
const TAG_EQUIP: u64 = 0x4d43_4551; // "MCEQ"
const TAG_SIM: u64 = 0x4d43_5349; // "MCSI"
const TAG_POINT: u64 = 0x4d43_5054; // "MCPT"

/// The memo tables one multicore run shares across its points: the same
/// base task-set table as an acceptance run, keyed under this workload's
/// own domain tag.
pub type MulticoreEngine = AcceptanceEngine;

/// One grid point's coordinates: core count, policy, allocation and
/// per-core utilization.
type Point = (usize, Policy, Allocation, f64);

/// Point order (and therefore report order) is cores-major, then
/// policies, allocations, utilizations. The point key keeps the `methods`
/// list, which shapes the accepted/ratio vectors.
impl GridWorkload for MulticoreParams {
    type Point = Point;
    type Output = MulticorePoint;
    type Memos = MulticoreEngine;
    const TABLE: StoreTable = StoreTable::MulticorePoints;
    const KEY_TAG: u64 = TAG_POINT;

    fn grid(&self) -> Vec<Point> {
        let mut grid = Vec::new();
        for &m in &self.cores {
            for &policy in &self.policies {
                for &allocation in &self.allocations {
                    for &utilization in &self.utilizations {
                        grid.push((m, policy, allocation, utilization));
                    }
                }
            }
        }
        grid
    }

    fn template(&self, h: ScenarioHasher) -> ScenarioHasher {
        h.word(self.sets_per_point as u64)
            .word(self.max_attempts_factor as u64)
            .word(self.tasks_per_core as u64)
            .f64(self.q_scale)
            .f64(self.delay_frac)
            .word(u64::from(self.simulate))
            .word(self.sim_per_point as u64)
            .f64(self.sim_horizon_factor)
            .f64(self.taskset.period_range.0)
            .f64(self.taskset.period_range.1)
            .f64(self.taskset.deadline_factor.0)
            .f64(self.taskset.deadline_factor.1)
    }

    fn point_key(&self, (m, policy, allocation, u): Point, h: ScenarioHasher) -> ScenarioHasher {
        hash_list(h, &self.methods, |h, method| h.word(method_tag(method)))
            .word(m as u64)
            .word(policy_tag(policy))
            .word(allocation_tag(allocation))
            .f64(u)
    }

    fn compute(
        &self,
        seed: u64,
        point: Point,
        engine: &MulticoreEngine,
    ) -> Result<MulticorePoint, CampaignError> {
        let (m, policy, allocation, utilization) = point;
        let mut out = MulticorePoint {
            m,
            policy: policy_label(policy).to_string(),
            allocation: allocation_label(allocation).to_string(),
            utilization,
            generated: 0,
            attempts: 0,
            accepted: vec![0; self.methods.len()],
            ratios: Vec::new(),
            sim_checks: 0,
            sim_violations: 0,
            sim_jobs: 0,
            sim_migrations: 0,
            migrations_mean: 0.0,
        };
        let ts_params = TaskSetParams {
            n: m * self.tasks_per_core,
            utilization: m as f64 * utilization,
            ..self.taskset
        };

        for instance in 0..self.sets_per_point {
            let Some((base, attempt)) =
                generate_instance(self, seed, &ts_params, instance, engine, &mut out.attempts)
            else {
                continue;
            };
            out.generated += 1;
            // One equipment stream per (coords, allocation, policy); shared
            // by every method so the dominance chain stays meaningful.
            let equip_seed = stream_seed(
                TAG_EQUIP,
                seed,
                &[
                    m as u64,
                    utilization.to_bits(),
                    instance as u64,
                    attempt as u64,
                    allocation_tag(allocation),
                    policy_tag(policy),
                ],
            );
            let evaluation = evaluate_instance(self, point, &base, equip_seed)?;
            for (k, &ok) in evaluation.accepted.iter().enumerate() {
                if ok {
                    out.accepted[k] += 1;
                }
            }
            if self.simulate && instance < self.sim_per_point {
                let sim_seed = stream_seed(
                    TAG_SIM,
                    seed,
                    &[
                        m as u64,
                        utilization.to_bits(),
                        instance as u64,
                        allocation_tag(allocation),
                        policy_tag(policy),
                    ],
                );
                simulate_instance(self, point, &evaluation, sim_seed, &mut out)?;
            }
        }

        out.ratios = acceptance_ratios(&out.accepted, out.generated);
        if out.sim_jobs > 0 {
            out.migrations_mean = out.sim_migrations as f64 / out.sim_jobs as f64;
        }
        Ok(out)
    }

    fn memo_stats(engine: &MulticoreEngine) -> MemoStats {
        engine.taskset_memo.stats()
    }

    fn fold(&self, points: &[MulticorePoint], summary: &mut Summary) {
        for p in points {
            summary.instances += p.generated;
            summary.dominance_violations += chain_violations(&self.methods, &p.accepted);
            summary.sim_violations += p.sim_violations;
        }
    }
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
        let base = engine.base_taskset(
            TAG_TASKSET,
            campaign_seed,
            ts_params,
            (instance, attempt),
            |rng, p| random_taskset_multicore(rng, p).ok().flatten(),
        );
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
    (m, policy, allocation, _): Point,
    base: &TaskSet,
    equip_seed: u64,
) -> Result<Evaluation, CampaignError> {
    let mut rng = StdRng::seed_from_u64(equip_seed);
    match allocation.heuristic() {
        None => {
            // Global: equipment always succeeds (Q = q_scale × C).
            let equipped =
                with_npr_and_curves_global(&mut rng, base, params.q_scale, params.delay_frac)
                    .map_err(|e| CampaignError::Analysis(format!("global equip: {e}")))?;
            let accepted = params
                .methods
                .iter()
                .map(|&method| global_schedulable_with_delay(&equipped, m, policy, method))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| CampaignError::Analysis(format!("global test: {e}")))?;
            Ok(Evaluation {
                accepted,
                equipped: vec![equipped],
            })
        }
        Some(heuristic) => {
            let partition = partition_taskset(base, m, heuristic, policy)
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
                    policy,
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
            // Each core's equipped set is the sub-task-set the partitioned
            // test would cut from the whole equipped set: test them as is.
            let accepted = params
                .methods
                .iter()
                .map(|&method| cores_schedulable_with_delay(&per_core, policy, method))
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
    (m, policy, allocation, _): Point,
    evaluation: &Evaluation,
    sim_seed: u64,
    out: &mut MulticorePoint,
) -> Result<(), CampaignError> {
    let mut rng = StdRng::seed_from_u64(sim_seed);
    let policy = match policy {
        Policy::FixedPriority => PriorityPolicy::FixedPriority,
        Policy::Edf => PriorityPolicy::Edf,
    };
    // Global allocation simulates all m cores at once; partitioned
    // allocations simulate each core's subset on its own core.
    let runs: Vec<(usize, &TaskSet)> = match allocation {
        Allocation::Global => evaluation.equipped.iter().map(|t| (m, t)).collect(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, Workload};
    use std::num::NonZeroUsize;

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
        let engine = MulticoreEngine::default();
        let points =
            crate::run_grid(&params, 7, threads(2), &engine, None, &Default::default()).unwrap();
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
        let engine = MulticoreEngine::default();
        let points =
            crate::run_grid(&params, 11, threads(4), &engine, None, &Default::default()).unwrap();
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
        let engine = MulticoreEngine::default();
        let _ =
            crate::run_grid(&params, 7, threads(1), &engine, None, &Default::default()).unwrap();
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
        let engine = MulticoreEngine::default();
        let points =
            crate::run_grid(&params, 7, threads(2), &engine, None, &Default::default()).unwrap();
        for p in &points {
            // accepted = [none, eq4, alg1, capped].
            assert!(p.accepted[1] <= p.accepted[2], "Eq.4 beat Algorithm 1");
            assert!(p.accepted[2] <= p.accepted[3], "Algorithm 1 beat capped");
            assert!(p.accepted[3] <= p.accepted[0], "capped beat no-delay");
        }
    }
}
