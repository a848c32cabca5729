//! Random task-set generation (UUniFast and friends).

use fnpr_sched::{max_npr_lengths_edf, max_npr_lengths_fp, SchedError, Task, TaskSet};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::curves::random_unimodal_curve;

/// Draws `n` task utilisations summing to `total` with the classic UUniFast
/// algorithm (Bini & Buttazzo) — uniform over the simplex, the standard
/// workload generator of the schedulability literature.
///
/// # Panics
///
/// Panics if `n == 0` or `total` is not finite and positive.
pub fn uunifast<R: Rng>(rng: &mut R, n: usize, total: f64) -> Vec<f64> {
    assert!(n > 0, "need at least one task");
    assert!(
        total.is_finite() && total > 0.0,
        "total utilisation must be positive"
    );
    let mut utilizations = Vec::with_capacity(n);
    let mut remaining = total;
    for i in 1..n {
        let next = remaining * rng.gen::<f64>().powf(1.0 / (n - i) as f64);
        utilizations.push(remaining - next);
        remaining = next;
    }
    utilizations.push(remaining);
    utilizations
}

/// UUniFast with the *discard* extension (Davis & Burns): resamples until
/// every per-task utilisation is at most `cap`, which makes totals above 1
/// (multiprocessor task sets targeting `m·U`) usable — plain UUniFast then
/// routinely emits tasks with `ui > 1`, which no processor can run.
///
/// Returns `None` when `max_tries` resamples never satisfy the cap (the
/// caller resamples at a higher level or treats the point as infeasible).
///
/// # Panics
///
/// As [`uunifast`]; additionally panics if `cap` is not positive or
/// `total > n·cap` (no assignment can ever satisfy the cap).
pub fn uunifast_discard<R: Rng>(
    rng: &mut R,
    n: usize,
    total: f64,
    cap: f64,
    max_tries: usize,
) -> Option<Vec<f64>> {
    assert!(cap > 0.0, "utilisation cap must be positive");
    assert!(
        total <= n as f64 * cap + 1e-9,
        "total {total} cannot fit under {n} tasks capped at {cap}"
    );
    for _ in 0..max_tries {
        let utilizations = uunifast(rng, n, total);
        if utilizations.iter().all(|&u| u <= cap) {
            return Some(utilizations);
        }
    }
    None
}

/// Parameters for [`random_taskset`]. A campaign spec's `taskset` table
/// deserializes into it; the table needs every field, and no other key.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TaskSetParams {
    /// Number of tasks.
    pub n: usize,
    /// Total utilisation target (UUniFast-distributed).
    pub utilization: f64,
    /// Periods drawn log-uniformly from this range.
    pub period_range: (f64, f64),
    /// Deadline = period × a factor drawn uniformly from this range
    /// (`(1.0, 1.0)` for implicit deadlines).
    pub deadline_factor: (f64, f64),
}

impl Default for TaskSetParams {
    fn default() -> Self {
        Self {
            n: 5,
            utilization: 0.6,
            period_range: (10.0, 1000.0),
            deadline_factor: (1.0, 1.0),
        }
    }
}

/// Generates a random task set in rate-monotonic (ascending-period) order.
///
/// # Errors
///
/// Propagates [`SchedError`] when a drawn combination is degenerate (e.g. a
/// deadline below the WCET after applying the factor — rare with sensible
/// parameters; callers typically resample).
pub fn random_taskset<R: Rng>(rng: &mut R, params: &TaskSetParams) -> Result<TaskSet, SchedError> {
    let utilizations = uunifast(rng, params.n, params.utilization);
    build_taskset(rng, params, &utilizations)
}

/// Generates a random *multiprocessor* task set: like [`random_taskset`]
/// but via [`uunifast_discard`], so `params.utilization` may exceed 1
/// (e.g. `m·U` for an `m`-core target) while every individual task stays a
/// valid uniprocessor task (`ui ≤ 1`).
///
/// Returns `None` when the discard budget runs out.
///
/// # Errors
///
/// As [`random_taskset`].
pub fn random_taskset_multicore<R: Rng>(
    rng: &mut R,
    params: &TaskSetParams,
) -> Result<Option<TaskSet>, SchedError> {
    let Some(utilizations) = uunifast_discard(rng, params.n, params.utilization, 1.0, 100) else {
        return Ok(None);
    };
    build_taskset(rng, params, &utilizations).map(Some)
}

/// The task set with the given utilisations: per task a log-uniform
/// period, then a deadline factor, sorted by period.
fn build_taskset<R: Rng>(
    rng: &mut R,
    params: &TaskSetParams,
    utilizations: &[f64],
) -> Result<TaskSet, SchedError> {
    fnpr_obs::counter!("synth.tasksets.generated").incr();
    let (lo, hi) = params.period_range;
    let mut tasks = Vec::with_capacity(utilizations.len());
    for &u in utilizations {
        let period = lo * (hi / lo).powf(rng.gen::<f64>());
        let wcet = (u * period).max(1e-6).min(period);
        let factor = rng.gen_range(params.deadline_factor.0..=params.deadline_factor.1);
        let deadline = (period * factor).clamp(wcet, period);
        tasks.push(Task::new(wcet, period)?.with_deadline(deadline)?);
    }
    tasks.sort_by(|a, b| a.period().total_cmp(&b.period()));
    TaskSet::new(tasks)
}

/// Scheduling policy used when deriving maximum region lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// Fixed priority, index order (rate-monotonic after generation).
    FixedPriority,
    /// Earliest deadline first.
    Edf,
}

/// Equips every task of `base` with its maximum admissible `Qi` (capped at
/// its WCET, scaled by `q_scale ∈ (0, 1]`) and a random unimodal delay curve
/// whose peak is `delay_frac` of the task's `Qi` (keeping all analyses
/// convergent when `delay_frac < 1`).
///
/// Returns `None` when a derived bound is not strictly positive
/// ([`fnpr_sched::NprBounds::feasible`]) or a scaled `Qi` is not finite and
/// positive — callers typically resample. The bounds constrain regions,
/// not the base set itself: under fixed priority the lowest-priority task's
/// blocking tolerance bounds no region, and under EDF no slack at or after
/// the largest deadline does. So a base set that misses a deadline even
/// without preemption costs can still be equipped; the schedulability tests
/// reject it afterwards.
///
/// # Errors
///
/// Propagates [`SchedError`] from the bound computations (e.g.
/// over-utilised sets under EDF).
pub fn with_npr_and_curves<R: Rng>(
    rng: &mut R,
    base: &TaskSet,
    policy: Policy,
    q_scale: f64,
    delay_frac: f64,
) -> Result<Option<TaskSet>, SchedError> {
    let bounds = match policy {
        Policy::FixedPriority => max_npr_lengths_fp(base),
        Policy::Edf => max_npr_lengths_edf(base)?,
    };
    if !bounds.feasible() {
        return Ok(None);
    }
    let qs = bounds.capped_at_wcet(base);
    let mut tasks = Vec::with_capacity(base.len());
    for (task, &q_max) in base.iter().zip(&qs) {
        let q = (q_max * q_scale).max(f64::MIN_POSITIVE);
        if !(q.is_finite() && q > 0.0) {
            return Ok(None);
        }
        tasks.push(equip(rng, task, q, delay_frac)?);
    }
    Ok(Some(TaskSet::new(tasks)?))
}

/// Equips every task of `base` with a region length and delay curve for
/// *global* multiprocessor scheduling, where the uniprocessor admissible-`Qi`
/// machinery ([`max_npr_lengths_fp`] / [`max_npr_lengths_edf`]) does not
/// apply: `Qi = q_scale × Ci` (a region never outlives its job) and a
/// random unimodal curve whose peak is `delay_frac × Qi`, keeping every
/// delay analysis convergent for `delay_frac < 1`.
///
/// # Errors
///
/// Propagates [`SchedError`] on degenerate curve construction.
pub fn with_npr_and_curves_global<R: Rng>(
    rng: &mut R,
    base: &TaskSet,
    q_scale: f64,
    delay_frac: f64,
) -> Result<TaskSet, SchedError> {
    let mut tasks = Vec::with_capacity(base.len());
    for task in base.iter() {
        let q = (task.wcet() * q_scale).max(f64::MIN_POSITIVE);
        tasks.push(equip(rng, task, q, delay_frac)?);
    }
    TaskSet::new(tasks)
}

/// `task` with region length `q` and a random unimodal curve whose values
/// are at most `peak = q × delay_frac`.
///
/// The curve's amplitude is drawn below `peak.max(1e-9)`, so clamping it to
/// `peak` changes it only when `peak < 1e-9` or a sample rounds above the
/// amplitude. The clamp, a second validated and hashed curve, is therefore
/// built only when some value exceeds the cap or the cap is infinite (which
/// the clamp rejects); otherwise it would rebuild the same curve.
fn equip<R: Rng>(rng: &mut R, task: &Task, q: f64, delay_frac: f64) -> Result<Task, SchedError> {
    let peak = q * delay_frac;
    let curve = random_unimodal_curve(rng, task.wcet(), peak.max(1e-9), task.wcet() / 64.0)
        .map_err(|_| SchedError::InvalidTask {
            what: "curve",
            value: task.wcet(),
        })?;
    let cap = peak.max(0.0);
    let curve = if cap.is_finite() && curve.max_value() <= cap {
        curve
    } else {
        curve.clamped(cap).map_err(|_| SchedError::InvalidTask {
            what: "curve clamp",
            value: peak,
        })?
    };
    Ok(task.clone().with_q(q)?.with_delay_curve(curve))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uunifast_sums_to_total() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1, 2, 5, 20] {
            for total in [0.3, 0.7, 0.95] {
                let us = uunifast(&mut rng, n, total);
                assert_eq!(us.len(), n);
                let sum: f64 = us.iter().sum();
                assert!((sum - total).abs() < 1e-9, "sum {sum} != {total}");
                assert!(us.iter().all(|&u| u >= 0.0));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn uunifast_rejects_zero_tasks() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = uunifast(&mut rng, 0, 0.5);
    }

    #[test]
    fn random_taskset_respects_params() {
        let mut rng = StdRng::seed_from_u64(7);
        let params = TaskSetParams {
            n: 8,
            utilization: 0.65,
            period_range: (10.0, 100.0),
            deadline_factor: (0.8, 1.0),
        };
        let ts = random_taskset(&mut rng, &params).unwrap();
        assert_eq!(ts.len(), 8);
        assert!((ts.utilization() - 0.65).abs() < 0.05);
        let mut last = 0.0;
        for t in ts.iter() {
            assert!(t.period() >= 10.0 && t.period() <= 100.0);
            assert!(t.deadline() <= t.period());
            assert!(t.period() >= last);
            last = t.period();
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let params = TaskSetParams::default();
        let a = random_taskset(&mut StdRng::seed_from_u64(3), &params).unwrap();
        let b = random_taskset(&mut StdRng::seed_from_u64(3), &params).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn uunifast_discard_caps_per_task_utilization() {
        let mut rng = StdRng::seed_from_u64(9);
        // m·U = 3.2 over 8 tasks: plain UUniFast frequently exceeds 1.
        let us = uunifast_discard(&mut rng, 8, 3.2, 1.0, 200).expect("discard converges");
        assert_eq!(us.len(), 8);
        assert!((us.iter().sum::<f64>() - 3.2).abs() < 1e-9);
        assert!(us.iter().all(|&u| u <= 1.0));
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn uunifast_discard_rejects_impossible_totals() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = uunifast_discard(&mut rng, 2, 3.0, 1.0, 10);
    }

    #[test]
    fn multicore_taskset_has_valid_tasks_above_unit_total() {
        let mut rng = StdRng::seed_from_u64(21);
        let params = TaskSetParams {
            n: 8,
            utilization: 2.4, // 4 cores x 0.6
            period_range: (10.0, 100.0),
            deadline_factor: (1.0, 1.0),
        };
        let ts = random_taskset_multicore(&mut rng, &params)
            .unwrap()
            .expect("discard converges");
        assert_eq!(ts.len(), 8);
        assert!((ts.utilization() - 2.4).abs() < 0.05);
        for t in ts.iter() {
            assert!(t.utilization() <= 1.0 + 1e-9);
            assert!(t.deadline() <= t.period());
        }
    }

    #[test]
    fn global_equipment_sets_q_and_convergent_curves() {
        let mut rng = StdRng::seed_from_u64(13);
        let params = TaskSetParams {
            n: 6,
            utilization: 1.5,
            ..TaskSetParams::default()
        };
        let base = random_taskset_multicore(&mut rng, &params)
            .unwrap()
            .expect("generated");
        let equipped = with_npr_and_curves_global(&mut rng, &base, 0.8, 0.5).unwrap();
        for t in equipped.iter() {
            let q = t.q().expect("q set");
            assert!((q - 0.8 * t.wcet()).abs() < 1e-9);
            let curve = t.delay_curve().expect("curve set");
            assert!(curve.max_value() < q, "delay must stay below Q");
        }
    }

    #[test]
    fn equipment_does_not_test_the_base_set() {
        use fnpr_sched::{
            blocking_tolerances_fp, edf_schedulable_with_delay, fp_schedulable_with_delay,
            DelayMethod,
        };
        let set = |specs: &[(f64, f64, f64)]| -> TaskSet {
            specs
                .iter()
                .map(|&(c, t, d)| Task::new(c, t).unwrap().with_deadline(d).unwrap())
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(5);
        // FP: τ2 misses its deadline even unblocked (β2 = −1), but only
        // lower-priority regions would have to fit in β2, and there are none.
        let fp = set(&[(3.0, 5.0, 5.0), (3.0, 6.0, 6.0)]);
        assert_eq!(blocking_tolerances_fp(&fp), vec![2.0, -1.0]);
        assert_eq!(max_npr_lengths_fp(&fp).q_max, vec![f64::INFINITY, 2.0]);
        let equipped = with_npr_and_curves(&mut rng, &fp, Policy::FixedPriority, 0.8, 0.5)
            .unwrap()
            .expect("every bound is positive");
        assert!(!fp_schedulable_with_delay(&equipped, DelayMethod::None).unwrap());
        // EDF: dbf(3) = 3.5 > 3, but no task's bound reads the slack at or
        // after the largest deadline.
        let edf = set(&[(1.0, 10.0, 2.0), (2.5, 10.0, 3.0)]);
        assert_eq!(
            max_npr_lengths_edf(&edf).unwrap().q_max,
            vec![f64::INFINITY, 1.0]
        );
        let equipped = with_npr_and_curves(&mut rng, &edf, Policy::Edf, 0.8, 0.5)
            .unwrap()
            .expect("every bound is positive");
        assert!(!edf_schedulable_with_delay(&equipped, DelayMethod::None).unwrap());
    }

    #[test]
    fn npr_and_curves_produce_convergent_tasks() {
        let mut rng = StdRng::seed_from_u64(11);
        let params = TaskSetParams {
            n: 4,
            utilization: 0.5,
            ..TaskSetParams::default()
        };
        let base = random_taskset(&mut rng, &params).unwrap();
        let equipped = with_npr_and_curves(&mut rng, &base, Policy::FixedPriority, 0.8, 0.5)
            .unwrap()
            .expect("feasible at U=0.5");
        for t in equipped.iter() {
            let q = t.q().expect("q set");
            let curve = t.delay_curve().expect("curve set");
            assert!(curve.max_value() < q, "delay must stay below Q");
        }
    }
}
