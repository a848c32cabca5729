//! Bridges between simulation and analysis: run a scenario, compare the
//! observed cumulative delays against the static bounds.

use fnpr_core::{algorithm1, AnalysisError, BoundOutcome, DelayCurve};

use crate::multi::SimResult;

/// Outcome of checking one task's simulated delays against a bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundCheck {
    /// The static bound compared against (`None` = divergent analysis, i.e.
    /// an infinite bound that trivially holds).
    pub bound: Option<f64>,
    /// Largest cumulative delay observed for a single job.
    pub observed_max: f64,
    /// `true` when every observed job respected the bound.
    pub holds: bool,
}

/// Checks Theorem 1 empirically: every simulated job of `task` must pay at
/// most the Algorithm 1 bound for its curve and region length. The per-job
/// bound holds at any core count, because the engine preserves the
/// floating-NPR progression (a job is only preempted at the expiry of a
/// region armed at least `Q` of its own execution earlier).
///
/// # Errors
///
/// Propagates [`AnalysisError`] from the bound computation.
pub fn check_against_algorithm1(
    result: &SimResult,
    task: usize,
    curve: &DelayCurve,
    q: f64,
) -> Result<BoundCheck, AnalysisError> {
    let outcome = algorithm1(curve, q)?;
    let observed_max = result
        .of_task(task)
        .map(|j| j.cumulative_delay)
        .fold(0.0f64, f64::max);
    let (bound, holds) = match outcome {
        BoundOutcome::Converged(b) => (Some(b.total_delay), observed_max <= b.total_delay + 1e-6),
        BoundOutcome::Divergent { .. } => (None, true),
    };
    Ok(BoundCheck {
        bound,
        observed_max,
        holds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::simulate;
    use crate::policy::SimConfig;
    use crate::scenario::Scenario;
    use fnpr_core::exact_worst_case;

    #[test]
    fn adversary_run_meets_bound_with_equality_on_constant_curves() {
        // Constant curve: Algorithm 1 is tight, and the adversary realises
        // the exact worst case in simulation.
        let curve = DelayCurve::constant(2.0, 10.0).unwrap();
        let q = 4.0;
        let exact = exact_worst_case(&curve, q).unwrap().expect("finite");
        let points: Vec<f64> = exact.preemptions.iter().map(|&(p, _)| p).collect();
        let plan = Scenario::adversary(10.0, q, &curve, &points, 0.25, 1e-7);
        let result = simulate(&plan.scenario, &SimConfig::floating_npr_fp(1_000.0));
        let victim_delay = result
            .of_task(1)
            .next()
            .expect("victim ran")
            .cumulative_delay;
        assert!(
            (victim_delay - plan.expected_delay).abs() < 1e-6,
            "simulated {victim_delay} != planned {}",
            plan.expected_delay
        );
        let check = check_against_algorithm1(&result, 1, &curve, q).unwrap();
        assert!(check.holds);
        // Tightness: the adversary achieves the bound on constant curves.
        assert!((check.observed_max - check.bound.unwrap()).abs() < 1e-6);
    }

    #[test]
    fn divergent_bound_trivially_holds() {
        let curve = DelayCurve::constant(5.0, 10.0).unwrap();
        let plan = Scenario::adversary(10.0, 6.0, &curve, &[6.0], 0.25, 1e-7);
        let result = simulate(&plan.scenario, &SimConfig::floating_npr_fp(1_000.0));
        // Against a smaller q the analysis diverges; the check still holds.
        let check = check_against_algorithm1(&result, 1, &curve, 4.0).unwrap();
        assert_eq!(check.bound, None);
        assert!(check.holds);
    }
}
