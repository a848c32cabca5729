//! Curve equipment against the program it replaced.
//!
//! [`with_npr_and_curves`] and [`with_npr_and_curves_global`] keep the
//! sampled curve when no value exceeds the cap `Qi × delay_frac`, and clamp
//! it only otherwise. The reference always clamps, as the generators used
//! to. From the same random stream both must equip the same tasks bit for
//! bit, leave the stream in the same state, and fail alike. A tiny `q_scale`
//! puts the cap below the `1e-9` amplitude floor, so the clamp really bites.
//!
//! The reference draws its curves the way `random_unimodal_curve` does,
//! but samples the bell closure with [`DelayCurve::from_fn_upper`], so it
//! does not share the Gaussian sampler it checks.

use fnpr_core::DelayCurve;
use fnpr_sched::{max_npr_lengths_edf, max_npr_lengths_fp, SchedError, Task, TaskSet};
use fnpr_synth::{
    random_taskset, random_taskset_multicore, with_npr_and_curves, with_npr_and_curves_global,
    Policy, TaskSetParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod reference {
    use super::*;
    use fnpr_core::CurveError;

    /// `random_unimodal_curve`'s draws, sampled through the bell closure.
    fn unimodal_curve<R: Rng>(
        rng: &mut R,
        c: f64,
        max_value: f64,
        step: f64,
    ) -> Result<DelayCurve, CurveError> {
        let mu = rng.gen_range(0.2 * c..0.8 * c);
        let sigma = rng.gen_range(0.05 * c..0.3 * c);
        let amplitude = rng.gen_range(0.3 * max_value..max_value);
        let sigma_sq = sigma * sigma;
        DelayCurve::from_fn_upper(
            move |t| amplitude * (-(t - mu) * (t - mu) / (2.0 * sigma_sq)).exp() + 0.0,
            c,
            step,
        )
    }

    fn equip<R: Rng>(
        rng: &mut R,
        task: &Task,
        q: f64,
        delay_frac: f64,
    ) -> Result<Task, SchedError> {
        let peak = q * delay_frac;
        let curve =
            unimodal_curve(rng, task.wcet(), peak.max(1e-9), task.wcet() / 64.0).map_err(|_| {
                SchedError::InvalidTask {
                    what: "curve",
                    value: task.wcet(),
                }
            })?;
        let clamped = curve
            .clamped(peak.max(0.0))
            .map_err(|_| SchedError::InvalidTask {
                what: "curve clamp",
                value: peak,
            })?;
        Ok(task.clone().with_q(q)?.with_delay_curve(clamped))
    }

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
}

/// Every field of every task as bits, curves by segment and hash.
fn fingerprint(tasks: &TaskSet) -> Vec<Vec<u128>> {
    tasks
        .iter()
        .map(|t| {
            let mut out = vec![
                t.wcet().to_bits().into(),
                t.period().to_bits().into(),
                t.deadline().to_bits().into(),
                t.q().map_or(u128::MAX, |q| q.to_bits().into()),
            ];
            if let Some(curve) = t.delay_curve() {
                out.push(curve.structural_hash128());
                out.extend(segment_bits(curve));
            }
            out
        })
        .collect()
}

fn segment_bits(curve: &DelayCurve) -> impl Iterator<Item = u128> + '_ {
    curve
        .segments()
        .flat_map(|s| [s.start, s.end, s.value])
        .map(|v| v.to_bits().into())
}

const Q_SCALES: [f64; 4] = [1.0, 0.8, 0.3, 1e-12];
const DELAY_FRACS: [f64; 3] = [0.5, 0.9, 1.0];

/// Checks one (fast, slow) pair of outcomes and the streams behind them;
/// returns how many curves the clamp cut (their maximum sits at the cap).
fn compare(
    fast: Result<Option<TaskSet>, SchedError>,
    slow: Result<Option<TaskSet>, SchedError>,
    fast_rng: &mut StdRng,
    slow_rng: &mut StdRng,
    cap: impl Fn(&Task) -> f64,
) -> usize {
    assert_eq!(fast_rng.gen::<u64>(), slow_rng.gen::<u64>(), "stream drift");
    match (fast, slow) {
        (Ok(Some(a)), Ok(Some(b))) => {
            assert_eq!(fingerprint(&a), fingerprint(&b));
            assert_eq!(a, b);
            a.iter()
                .filter(|t| {
                    let max = t.delay_curve().expect("equipped").max_value();
                    assert!(max <= cap(t));
                    max == cap(t)
                })
                .count()
        }
        (Ok(None), Ok(None)) => 0,
        (a, b) => {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            0
        }
    }
}

#[test]
fn uniprocessor_equipment_matches_the_clamping_program() {
    let mut clamped = 0;
    let mut equipped = 0;
    for seed in 0..30u64 {
        for utilization in [0.3, 0.6, 0.9] {
            let params = TaskSetParams {
                n: 5,
                utilization,
                period_range: (10.0, 1000.0),
                deadline_factor: (0.7, 1.0),
            };
            let base = random_taskset(&mut StdRng::seed_from_u64(seed), &params).unwrap();
            for policy in [Policy::FixedPriority, Policy::Edf] {
                for q_scale in Q_SCALES {
                    for delay_frac in DELAY_FRACS {
                        let stream = seed * 1_000 + (q_scale * 1e3) as u64;
                        let mut fast_rng = StdRng::seed_from_u64(stream);
                        let mut slow_rng = StdRng::seed_from_u64(stream);
                        let fast =
                            with_npr_and_curves(&mut fast_rng, &base, policy, q_scale, delay_frac);
                        let slow = reference::with_npr_and_curves(
                            &mut slow_rng,
                            &base,
                            policy,
                            q_scale,
                            delay_frac,
                        );
                        equipped += usize::from(matches!(fast, Ok(Some(_))));
                        clamped += compare(fast, slow, &mut fast_rng, &mut slow_rng, |t| {
                            t.q().expect("equipped") * delay_frac
                        });
                    }
                }
            }
        }
    }
    assert!(equipped > 500, "only {equipped} sets equipped");
    assert!(clamped > 100, "the clamp cut only {clamped} curves");
}

#[test]
fn global_equipment_matches_the_clamping_program() {
    let mut clamped = 0;
    for seed in 0..30u64 {
        let params = TaskSetParams {
            n: 6,
            utilization: 1.6,
            period_range: (10.0, 200.0),
            deadline_factor: (1.0, 1.0),
        };
        let Some(base) =
            random_taskset_multicore(&mut StdRng::seed_from_u64(seed), &params).unwrap()
        else {
            continue;
        };
        for q_scale in Q_SCALES {
            for delay_frac in DELAY_FRACS {
                let mut fast_rng = StdRng::seed_from_u64(seed + 7);
                let mut slow_rng = StdRng::seed_from_u64(seed + 7);
                let fast = with_npr_and_curves_global(&mut fast_rng, &base, q_scale, delay_frac);
                let slow = reference::with_npr_and_curves_global(
                    &mut slow_rng,
                    &base,
                    q_scale,
                    delay_frac,
                );
                clamped += compare(
                    fast.map(Some),
                    slow.map(Some),
                    &mut fast_rng,
                    &mut slow_rng,
                    |t| t.q().expect("equipped") * delay_frac,
                );
            }
        }
    }
    assert!(clamped > 50, "the clamp cut only {clamped} curves");
}
