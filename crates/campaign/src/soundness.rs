//! The soundness-sweep workload: Theorem 1 and the Figure 2 phenomenon at
//! scale, over random step curves, with optional discrete-event simulator
//! validation — the engine-backed generalization of the one-off
//! `soundness_sweep` binary.
//!
//! Violations are *recorded* (and surfaced in the campaign summary) rather
//! than panicking mid-sweep, so a single bad trial cannot hide how many
//! others also failed.
//!
//! Every trial draws its own curve from its own stream, so trials share
//! no work worth memoizing: each computes its four bounds directly.

use std::ops::Range;

use fnpr_core::{algorithm1, eq4_bound_for_curve, exact_worst_case, naive_bound, DelayCurve};
use fnpr_sim::{check_against_algorithm1, simulate, Scenario, SimConfig};
use fnpr_synth::random_step_curve;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::CampaignError;
use crate::exec::stream_seed;
use crate::memo::{MemoStats, ScenarioHasher};
use crate::report::{SoundnessRow, SoundnessShard, Summary};
use crate::spec::SoundnessParams;
use crate::store::StoreTable;
use crate::GridWorkload;

const TAG_TRIAL: u64 = 0x5452_4941; // "TRIA"
const TAG_SHARD: u64 = 0x534e_5348; // "SNSH"

/// The four analytical bounds of one `(curve, Q)` scenario.
struct BoundsQuad {
    /// The unsound naive selection.
    naive: f64,
    /// The exact adversary.
    exact: f64,
    /// Algorithm 1.
    algorithm1: f64,
    /// The Eq. 4 state of the art.
    eq4: f64,
}

/// The grid is the shard indices: `trials` split `trials_per_shard` at a
/// time, each shard's trial range pure index math. A shard's key holds its
/// `[first, last)` trial range — deliberately **not** the total trial
/// count, so extending `trials` restores every complete shard of the
/// shorter run (trial streams are pure functions of the trial index). A
/// formerly-final *partial* shard has a different `last` and recomputes,
/// which is exactly right.
impl GridWorkload for SoundnessParams {
    type Point = usize;
    type Output = SoundnessShard;
    type Memos = ();
    const TABLE: StoreTable = StoreTable::SoundnessShards;
    const KEY_TAG: u64 = TAG_SHARD;

    fn grid(&self) -> Vec<usize> {
        (0..self.trials.div_ceil(self.trials_per_shard)).collect()
    }

    fn template(&self, h: ScenarioHasher) -> ScenarioHasher {
        h.word(u64::from(self.simulate))
            .f64(self.c_range.0)
            .f64(self.c_range.1)
            .word(self.segments.0)
            .word(self.segments.1)
            .f64(self.max_value_range.0)
            .f64(self.max_value_range.1)
            .f64(self.q_slack_range.0)
            .f64(self.q_slack_range.1)
    }

    fn point_key(&self, shard: usize, h: ScenarioHasher) -> ScenarioHasher {
        let trials = shard_trials(self, shard);
        h.word(trials.start as u64).word(trials.end as u64)
    }

    /// Analysis failures propagate (curve generation and bound
    /// computations cannot legitimately fail on the generated inputs).
    fn compute(&self, seed: u64, shard: usize, _: &()) -> Result<SoundnessShard, CampaignError> {
        let trials = shard_trials(self, shard);
        let mut out = SoundnessShard {
            first_trial: trials.start,
            rows: Vec::with_capacity(trials.len()),
            naive_unsound: 0,
            theorem1_violations: 0,
            eq4_violations: 0,
            sim_violations: 0,
            ratio_sum: 0.0,
            ratio_max: 0.0,
            ratio_count: 0,
        };
        for trial in trials {
            run_trial(self, seed, trial, &mut out)?;
        }
        Ok(out)
    }

    fn memo_stats(_: &()) -> MemoStats {
        MemoStats { hits: 0, misses: 0 }
    }

    /// The pessimism columns carry the Algorithm 1 ÷ exact tightness.
    fn fold(&self, shards: &[SoundnessShard], summary: &mut Summary) {
        let mut ratio_sum = 0.0;
        let mut ratio_count = 0usize;
        for s in shards {
            summary.instances += s.rows.len();
            summary.dominance_violations += s.theorem1_violations + s.eq4_violations;
            summary.sim_violations += s.sim_violations;
            summary.naive_unsound += s.naive_unsound;
            ratio_sum += s.ratio_sum;
            ratio_count += s.ratio_count;
            summary.pessimism_max = summary.pessimism_max.max(s.ratio_max);
        }
        if ratio_count > 0 {
            summary.pessimism_mean = ratio_sum / ratio_count as f64;
        }
    }
}

/// The `[first, last)` trial range of one shard.
fn shard_trials(params: &SoundnessParams, shard: usize) -> Range<usize> {
    let first = shard * params.trials_per_shard;
    first..(first + params.trials_per_shard).min(params.trials)
}

fn run_trial(
    params: &SoundnessParams,
    campaign_seed: u64,
    trial: usize,
    out: &mut SoundnessShard,
) -> Result<(), CampaignError> {
    // One stream per trial, a pure function of (seed, trial) — never of the
    // shard size or the thread that runs it.
    let mut rng = StdRng::seed_from_u64(stream_seed(TAG_TRIAL, campaign_seed, &[trial as u64]));
    let c = rng.gen_range(params.c_range.0..params.c_range.1);
    let segments = rng.gen_range(params.segments.0..params.segments.1) as usize;
    let max_value = rng.gen_range(params.max_value_range.0..params.max_value_range.1);
    let curve = random_step_curve(&mut rng, c, segments, max_value)
        .map_err(|e| CampaignError::Analysis(format!("trial {trial}: bad curve: {e:?}")))?;
    let q = curve.max_value() + rng.gen_range(params.q_slack_range.0..params.q_slack_range.1);

    let bounds = compute_bounds(&curve, q).ok_or_else(|| {
        CampaignError::Analysis(format!(
            "trial {trial}: bound computation failed (q {q}, curve max {})",
            curve.max_value()
        ))
    })?;

    let sim_max = if params.simulate {
        let scenario = Scenario::random_interference(
            c,
            q,
            &curve,
            rng.gen_range(0.1..2.0),
            1.0,
            q * 2.0,
            c * 4.0,
            &mut rng,
        );
        let result = simulate(&scenario, &SimConfig::floating_npr_fp(1e9));
        let check = check_against_algorithm1(&result, 1, &curve, q)
            .map_err(|e| CampaignError::Analysis(format!("trial {trial}: {e:?}")))?;
        if !check.holds {
            out.sim_violations += 1;
        }
        Some(check.observed_max)
    } else {
        None
    };

    if bounds.naive < bounds.exact - 1e-9 {
        out.naive_unsound += 1;
    }
    if bounds.exact > bounds.algorithm1 + 1e-6 {
        out.theorem1_violations += 1;
    }
    if bounds.algorithm1 > bounds.eq4 + 1e-6 {
        out.eq4_violations += 1;
    }
    if bounds.exact > 1e-9 {
        let ratio = bounds.algorithm1 / bounds.exact;
        out.ratio_sum += ratio;
        out.ratio_max = out.ratio_max.max(ratio);
        out.ratio_count += 1;
    }
    out.rows.push(SoundnessRow {
        trial,
        q,
        naive: bounds.naive,
        exact: bounds.exact,
        algorithm1: bounds.algorithm1,
        eq4: bounds.eq4,
        sim_max,
    });
    Ok(())
}

/// Computes all four bounds; `None` on any divergence or analysis error
/// (cannot happen for `q > max_value`, which the generator guarantees).
fn compute_bounds(curve: &DelayCurve, q: f64) -> Option<BoundsQuad> {
    Some(BoundsQuad {
        algorithm1: algorithm1(curve, q).ok()?.total_delay()?,
        eq4: eq4_bound_for_curve(curve, q).ok()?.total_delay()?,
        naive: naive_bound(curve, q).ok()?.total_delay,
        exact: exact_worst_case(curve, q).ok()??.total_delay,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, Workload, WorkloadKind};
    use std::num::NonZeroUsize;

    fn threads(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    fn small_params(trials: usize, simulate: bool) -> SoundnessParams {
        let spec = CampaignSpec {
            workload: Some(WorkloadKind::Soundness),
            soundness: Some(crate::spec::SoundnessParams {
                trials,
                simulate,
                ..Default::default()
            }),
            ..CampaignSpec::default()
        };
        match spec.validate().unwrap().workload {
            Workload::Soundness(s) => s,
            _ => unreachable!(),
        }
    }

    #[test]
    fn ordering_and_rows_over_a_small_sweep() {
        let params = small_params(24, true);
        let shards =
            crate::run_grid(&params, 2012, threads(4), &(), None, &Default::default()).unwrap();
        assert_eq!(shards.len(), 24);
        let mut naive_unsound = 0;
        for shard in &shards {
            assert_eq!(shard.theorem1_violations, 0, "Theorem 1 violated");
            assert_eq!(shard.eq4_violations, 0, "Eq. 4 dominance violated");
            assert_eq!(shard.sim_violations, 0, "simulation exceeded the bound");
            naive_unsound += shard.naive_unsound;
            for row in &shard.rows {
                assert!(row.exact <= row.algorithm1 + 1e-6);
                assert!(row.algorithm1 <= row.eq4 + 1e-6);
                assert!(row.sim_max.unwrap() <= row.algorithm1 + 1e-6);
            }
        }
        assert!(
            naive_unsound > 0,
            "sweep too small to show Figure 2 unsoundness"
        );
    }

    #[test]
    fn trial_results_independent_of_shard_size() {
        let mut params = small_params(10, false);
        let a = crate::run_grid(&params, 5, threads(1), &(), None, &Default::default()).unwrap();
        params.trials_per_shard = 5;
        let b = crate::run_grid(&params, 5, threads(3), &(), None, &Default::default()).unwrap();
        let rows_a: Vec<_> = a.iter().flat_map(|s| s.rows.clone()).collect();
        let rows_b: Vec<_> = b.iter().flat_map(|s| s.rows.clone()).collect();
        assert_eq!(rows_a, rows_b);
    }
}
