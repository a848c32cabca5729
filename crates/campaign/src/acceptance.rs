//! The acceptance-ratio workload: how many random task sets pass the
//! floating-NPR schedulability test under each WCET-inflation method,
//! swept over a (policy × utilization) grid.
//!
//! `fnpr-campaign example-spec` prints a template of it (the study the
//! paper motivates). Every task set's RNG stream is derived from
//! `(campaign seed, utilization, instance, attempt)` — deliberately *not*
//! from the policy — so the fixed-priority and EDF rows of the grid analyse
//! the *same* base task sets, and the [`Memo`] layer computes each base set
//! once per process.

use fnpr_sched::{
    edf_schedulable_with_delay, fp_schedulable_with_delay, inflate_wcets, DelayMethod, TaskSet,
};
use fnpr_synth::{random_taskset, with_npr_and_curves, Policy, TaskSetParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::CampaignError;
use crate::exec::stream_seed;
use crate::memo::{hash_list, Memo, MemoStats, ScenarioHasher};
use crate::report::{acceptance_ratios, chain_violations, AcceptancePoint, Summary};
use crate::spec::{method_tag, policy_label, policy_tag, AcceptanceParams};
use crate::store::StoreTable;
use crate::GridWorkload;

/// Domain tags for RNG stream / memo key derivation.
const TAG_TASKSET: u64 = 0x5441_534b; // "TASK"
const TAG_EQUIP: u64 = 0x4551_5550; // "EQUP"
const TAG_POINT: u64 = 0x4143_5054; // "ACPT"

/// The memo tables one acceptance (or multicore) run shares across its
/// points.
pub struct AcceptanceEngine {
    /// Base task sets keyed by their full generation coordinates.
    pub taskset_memo: Memo<Option<TaskSet>>,
}

impl Default for AcceptanceEngine {
    fn default() -> Self {
        Self {
            taskset_memo: Memo::named("taskset"),
        }
    }
}

impl AcceptanceEngine {
    /// The base task set of one `(instance, attempt)` draw, generated once
    /// per process. Its memo key is a pure function of the workload's
    /// domain `tag`, the campaign seed, the generation parameters and the
    /// draw coordinates; policy (and allocation) are deliberately absent,
    /// so every policy of a grid row shares base sets. `generate` draws
    /// from a stream seeded with the key's low word — exactly the
    /// pre-widening 64-bit hash, so generation streams (and with them
    /// every aggregate) are unchanged by the 128-bit keys.
    pub(crate) fn base_taskset(
        &self,
        tag: u64,
        campaign_seed: u64,
        params: &TaskSetParams,
        (instance, attempt): (usize, usize),
        generate: impl FnOnce(&mut StdRng, &TaskSetParams) -> Option<TaskSet>,
    ) -> Option<TaskSet> {
        let key = ScenarioHasher::new(tag)
            .word(campaign_seed)
            .word(params.n as u64)
            .f64(params.utilization)
            .f64(params.period_range.0)
            .f64(params.period_range.1)
            .f64(params.deadline_factor.0)
            .f64(params.deadline_factor.1)
            .word(instance as u64)
            .word(attempt as u64)
            .finish128();
        self.taskset_memo.get_or_insert_with(key, || {
            generate(&mut StdRng::seed_from_u64(key as u64), params)
        })
    }
}

/// Point order (and therefore report order) is policies-major,
/// utilizations-minor, matching the original binary's sweep. The point
/// key keeps the `methods` list (it shapes the accepted/ratio vectors),
/// length-prefixed like every variable-length hash section.
impl GridWorkload for AcceptanceParams {
    type Point = (Policy, f64);
    type Output = AcceptancePoint;
    type Memos = AcceptanceEngine;
    const TABLE: StoreTable = StoreTable::AcceptancePoints;
    const KEY_TAG: u64 = TAG_POINT;

    fn grid(&self) -> Vec<(Policy, f64)> {
        self.policies
            .iter()
            .flat_map(|&p| self.utilizations.iter().map(move |&u| (p, u)))
            .collect()
    }

    fn template(&self, h: ScenarioHasher) -> ScenarioHasher {
        h.word(self.sets_per_point as u64)
            .word(self.max_attempts_factor as u64)
            .f64(self.q_scale)
            .f64(self.delay_frac)
            .word(self.taskset.n as u64)
            .f64(self.taskset.period_range.0)
            .f64(self.taskset.period_range.1)
            .f64(self.taskset.deadline_factor.0)
            .f64(self.taskset.deadline_factor.1)
    }

    fn point_key(&self, (policy, utilization): (Policy, f64), h: ScenarioHasher) -> ScenarioHasher {
        hash_list(h, &self.methods, |h, m| h.word(method_tag(m)))
            .word(policy_tag(policy))
            .f64(utilization)
    }

    /// Runs `sets_per_point` instances, each with its own resampling
    /// budget, accumulated in instance order.
    fn compute(
        &self,
        seed: u64,
        (policy, utilization): (Policy, f64),
        engine: &AcceptanceEngine,
    ) -> Result<AcceptancePoint, CampaignError> {
        let mut accepted = vec![0usize; self.methods.len()];
        let mut generated = 0usize;
        let mut attempts = 0usize;
        let mut gap_sum = 0.0;
        let mut gap_count = 0usize;
        let mut gap_max: f64 = 0.0;

        for instance in 0..self.sets_per_point {
            let Some(tasks) = generate_instance(
                self,
                seed,
                policy,
                utilization,
                instance,
                engine,
                &mut attempts,
            ) else {
                continue;
            };
            generated += 1;
            for (k, &method) in self.methods.iter().enumerate() {
                let ok = match policy {
                    Policy::FixedPriority => {
                        fp_schedulable_with_delay(&tasks, method).unwrap_or(false)
                    }
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

        Ok(AcceptancePoint {
            policy: policy_label(policy).to_string(),
            utilization,
            generated,
            attempts,
            ratios: acceptance_ratios(&accepted, generated),
            accepted,
            pessimism_gap_mean: if gap_count == 0 {
                0.0
            } else {
                gap_sum / gap_count as f64
            },
            pessimism_gap_max: gap_max,
            pessimism_gap_count: gap_count,
        })
    }

    fn memo_stats(engine: &AcceptanceEngine) -> MemoStats {
        engine.taskset_memo.stats()
    }

    /// The pessimism mean weights each point by the sets that measured a
    /// gap, not by `generated`.
    fn fold(&self, points: &[AcceptancePoint], summary: &mut Summary) {
        let mut gap_sum = 0.0;
        let mut gap_weight = 0usize;
        for p in points {
            summary.instances += p.generated;
            summary.dominance_violations += chain_violations(&self.methods, &p.accepted);
            if p.pessimism_gap_count > 0 {
                gap_sum += p.pessimism_gap_mean * p.pessimism_gap_count as f64;
                gap_weight += p.pessimism_gap_count;
            }
            summary.pessimism_max = summary.pessimism_max.max(p.pessimism_gap_max);
        }
        if gap_weight > 0 {
            summary.pessimism_mean = gap_sum / gap_weight as f64;
        }
    }
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
        let base = engine.base_taskset(
            TAG_TASKSET,
            campaign_seed,
            &ts_params,
            (instance, attempt),
            |rng, p| random_taskset(rng, p).ok(),
        );
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
    use std::num::NonZeroUsize;

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
        let engine = AcceptanceEngine::default();
        let points =
            crate::run_grid(&params, 7, threads(2), &engine, None, &Default::default()).unwrap();
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
        let engine = AcceptanceEngine::default();
        let _ =
            crate::run_grid(&params, 7, threads(1), &engine, None, &Default::default()).unwrap();
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
        let engine = AcceptanceEngine::default();
        let points =
            crate::run_grid(&params, 7, threads(2), &engine, None, &Default::default()).unwrap();
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
