//! The acceptance-ratio workload: how many random task sets pass the
//! floating-NPR schedulability test under each WCET-inflation method,
//! swept over a (policy × utilization) grid.
//!
//! This is the engine-backed generalization of the one-off
//! `acceptance_ratio` binary. Every task set's RNG stream is derived from
//! `(campaign seed, utilization, instance, attempt)` — deliberately *not*
//! from the policy — so the fixed-priority and EDF rows of the grid analyse
//! the *same* base task sets, and the [`Memo`] layer computes each base set
//! once per process.

use std::num::NonZeroUsize;

use fnpr_sched::{
    edf_schedulable_with_delay, fp_schedulable_with_delay, inflate_wcets, DelayMethod, TaskSet,
};
use fnpr_synth::{random_taskset, with_npr_and_curves, Policy, TaskSetParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::CampaignError;
use crate::exec::{parallel_map, stream_seed};
use crate::memo::{Memo, ScenarioHasher};
use crate::report::AcceptancePoint;
use crate::spec::{method_tag, policy_label, policy_tag, AcceptanceParams};
use crate::store::{ResultStore, StoreTable};

/// Domain tags for RNG stream / memo key derivation.
const TAG_TASKSET: u64 = 0x5441_534b; // "TASK"
const TAG_EQUIP: u64 = 0x4551_5550; // "EQUP"
const TAG_POINT: u64 = 0x4143_5054; // "ACPT"

/// Shared state across shards of one `run` call.
pub struct AcceptanceEngine {
    /// Base task sets keyed by their full generation coordinates.
    pub taskset_memo: Memo<Option<TaskSet>>,
}

impl AcceptanceEngine {
    /// A fresh engine with empty memo tables.
    #[must_use]
    pub fn new() -> Self {
        Self {
            taskset_memo: Memo::named("taskset"),
        }
    }
}

impl Default for AcceptanceEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs the full grid on `threads` workers. Point order (and therefore
/// report order) is policies-major, utilizations-minor, matching the
/// original binary's sweep.
///
/// # Errors
///
/// Propagates the first shard failure.
pub fn run(
    params: &AcceptanceParams,
    campaign_seed: u64,
    threads: NonZeroUsize,
    engine: &AcceptanceEngine,
    store: Option<&ResultStore>,
) -> Result<Vec<AcceptancePoint>, CampaignError> {
    let grid = grid(params);
    parallel_map(grid.len(), threads, NonZeroUsize::MIN, |i| {
        compute_grid_point(params, campaign_seed, grid[i], engine, store)
    })
}

/// The grid in report order, shard index = position.
fn grid(params: &AcceptanceParams) -> Vec<(Policy, f64)> {
    params
        .policies
        .iter()
        .flat_map(|&p| params.utilizations.iter().map(move |&u| (p, u)))
        .collect()
}

/// One grid point through the store's counted read-through path.
fn compute_grid_point(
    params: &AcceptanceParams,
    campaign_seed: u64,
    (policy, utilization): (Policy, f64),
    engine: &AcceptanceEngine,
    store: Option<&ResultStore>,
) -> Result<AcceptancePoint, CampaignError> {
    let compute = || run_point(params, campaign_seed, policy, utilization, engine);
    match store {
        Some(store) => store.get_or_compute(
            StoreTable::AcceptancePoints,
            point_key(params, campaign_seed, policy, utilization),
            compute,
        ),
        None => compute(),
    }
}

/// Content address of one finished grid point: campaign seed, every
/// parameter the point's result depends on, and the point coordinates —
/// deliberately **not** the `policies`/`utilizations` axis lists, so grid
/// *extensions* (more utilizations, an added policy) restore the points
/// they share with previous runs. The `methods` list stays in (it shapes
/// the accepted/ratio vectors), length-prefixed like every variable-length
/// hash section.
fn point_key(
    params: &AcceptanceParams,
    campaign_seed: u64,
    policy: Policy,
    utilization: f64,
) -> u128 {
    let mut h = ScenarioHasher::new(TAG_POINT)
        .word(campaign_seed)
        .word(params.sets_per_point as u64)
        .word(params.max_attempts_factor as u64)
        .f64(params.q_scale)
        .f64(params.delay_frac)
        .word(params.taskset.n as u64)
        .f64(params.taskset.period_range.0)
        .f64(params.taskset.period_range.1)
        .f64(params.taskset.deadline_factor.0)
        .f64(params.taskset.deadline_factor.1)
        .word(params.methods.len() as u64);
    for &m in &params.methods {
        h = h.word(method_tag(m));
    }
    h.word(policy_tag(policy)).f64(utilization).finish128()
}

/// Runs one grid point: `sets_per_point` instances, each with its own
/// resampling budget, accumulated in instance order.
fn run_point(
    params: &AcceptanceParams,
    campaign_seed: u64,
    policy: Policy,
    utilization: f64,
    engine: &AcceptanceEngine,
) -> Result<AcceptancePoint, CampaignError> {
    let mut accepted = vec![0usize; params.methods.len()];
    let mut generated = 0usize;
    let mut attempts = 0usize;
    let mut gap_sum = 0.0;
    let mut gap_count = 0usize;
    let mut gap_max: f64 = 0.0;

    for instance in 0..params.sets_per_point {
        let Some(tasks) = generate_instance(
            params,
            campaign_seed,
            policy,
            utilization,
            instance,
            engine,
            &mut attempts,
        ) else {
            continue;
        };
        generated += 1;
        for (k, &method) in params.methods.iter().enumerate() {
            let ok = match policy {
                Policy::FixedPriority => fp_schedulable_with_delay(&tasks, method).unwrap_or(false),
                Policy::Edf => edf_schedulable_with_delay(&tasks, method).unwrap_or(false),
            };
            if ok {
                accepted[k] += 1;
            }
        }
        if let Some(gap) = pessimism_gap(&tasks) {
            gap_sum += gap;
            gap_count += 1;
            gap_max = gap_max.max(gap);
        }
    }

    let ratios = accepted
        .iter()
        .map(|&a| {
            if generated == 0 {
                0.0
            } else {
                a as f64 / generated as f64
            }
        })
        .collect();
    Ok(AcceptancePoint {
        policy: policy_label(policy).to_string(),
        utilization,
        generated,
        attempts,
        accepted,
        ratios,
        pessimism_gap_mean: if gap_count == 0 {
            0.0
        } else {
            gap_sum / gap_count as f64
        },
        pessimism_gap_max: gap_max,
        pessimism_gap_count: gap_count,
    })
}

/// Draws one feasible, curve-equipped task set, resampling up to the
/// attempt budget. Returns `None` when the budget runs out (common at high
/// utilization — exactly the effect the acceptance ratio measures around).
fn generate_instance(
    params: &AcceptanceParams,
    campaign_seed: u64,
    policy: Policy,
    utilization: f64,
    instance: usize,
    engine: &AcceptanceEngine,
    attempts: &mut usize,
) -> Option<TaskSet> {
    let ts_params = TaskSetParams {
        utilization,
        ..params.taskset
    };
    for attempt in 0..params.max_attempts_factor {
        *attempts += 1;
        let key = taskset_key(campaign_seed, &ts_params, instance, attempt);
        let base = engine.taskset_memo.get_or_insert_with(key, || {
            // The RNG stream seed is the key's low word — exactly the
            // pre-widening 64-bit hash, so generation streams (and with
            // them every aggregate) are unchanged by the 128-bit keys.
            let mut rng = StdRng::seed_from_u64(key as u64);
            random_taskset(&mut rng, &ts_params).ok()
        });
        let Some(base) = base else { continue };
        // Curve equipment *does* depend on the policy (the admissible `Qi`
        // bounds differ), so it gets its own stream including the policy.
        let mut equip_rng = StdRng::seed_from_u64(stream_seed(
            TAG_EQUIP,
            campaign_seed,
            &[
                utilization.to_bits(),
                instance as u64,
                attempt as u64,
                policy_tag(policy),
            ],
        ));
        if let Ok(Some(tasks)) = with_npr_and_curves(
            &mut equip_rng,
            &base,
            policy,
            params.q_scale,
            params.delay_frac,
        ) {
            return Some(tasks);
        }
    }
    None
}

/// Memo key (its low word doubling as the RNG seed) for a base task set: a
/// pure function of campaign seed + generation parameters + instance
/// coordinates. Policy is deliberately absent so FP and EDF share base
/// sets.
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

/// Eq. 4 total inflation overhead ÷ Algorithm 1 total inflation overhead
/// for one equipped task set — the per-set pessimism gap the paper's
/// Figure 5 narrative is about. `None` when either diverges or Algorithm 1
/// finds no measurable overhead.
fn pessimism_gap(tasks: &TaskSet) -> Option<f64> {
    let alg1 = inflate_wcets(tasks, DelayMethod::Algorithm1)
        .ok()?
        .total_overhead(tasks)?;
    let eq4 = inflate_wcets(tasks, DelayMethod::Eq4)
        .ok()?
        .total_overhead(tasks)?;
    (alg1 > 1e-12).then(|| eq4 / alg1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, Workload};

    fn threads(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    fn small_params() -> AcceptanceParams {
        let spec = CampaignSpec::parse(
            r#"
workload = "acceptance"
[acceptance]
sets_per_point = 6
max_attempts_factor = 20
utilizations = { values = [0.5] }
"#,
        )
        .unwrap();
        match spec.validate().unwrap().workload {
            Workload::Acceptance(a) => a,
            _ => unreachable!(),
        }
    }

    #[test]
    fn points_cover_the_grid_in_order() {
        let params = small_params();
        let engine = AcceptanceEngine::new();
        let points = run(&params, 7, threads(2), &engine, None).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].policy, "fp");
        assert_eq!(points[1].policy, "edf");
        for p in &points {
            assert!(p.generated > 0, "no sets generated at U=0.5");
            assert_eq!(p.accepted.len(), 4);
            assert!(p.attempts >= p.generated);
        }
    }

    #[test]
    fn policies_share_base_task_sets_via_memo() {
        let params = small_params();
        let engine = AcceptanceEngine::new();
        let _ = run(&params, 7, threads(1), &engine, None).unwrap();
        let stats = engine.taskset_memo.stats();
        assert!(
            stats.hits > 0,
            "EDF grid points should reuse FP base sets (hits {}, misses {})",
            stats.hits,
            stats.misses
        );
    }

    #[test]
    fn dominance_holds_on_the_small_grid() {
        let params = small_params();
        let engine = AcceptanceEngine::new();
        let points = run(&params, 7, threads(2), &engine, None).unwrap();
        for p in &points {
            // accepted = [none, eq4, alg1, capped]
            assert!(p.accepted[1] <= p.accepted[2], "Eq.4 beat Algorithm 1");
            assert!(p.accepted[2] <= p.accepted[0], "Algorithm 1 beat no-delay");
            assert!(
                p.accepted[2] <= p.accepted[3],
                "Algorithm 1 beat its capped variant"
            );
            assert!(p.pessimism_gap_max >= p.pessimism_gap_mean);
        }
    }
}
