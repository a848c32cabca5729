//! Schedulability study: how many random task sets does each delay-aware
//! test accept?
//!
//! Random UUniFast task sets are equipped with their maximum admissible
//! floating-NPR lengths (Yao et al. bounds) and random unimodal delay
//! curves, then tested under fixed-priority RTA with WCETs inflated by:
//! nothing (optimistic), the Eq. 4 state of the art, and the paper's
//! Algorithm 1. Algorithm 1 dominates Eq. 4, so its acceptance ratio sits
//! between the other two — the gap is the value of progression awareness.
//!
//! Run with: `cargo run --example schedulability_study`

use fnpr::sched::{fp_schedulable_with_delay, DelayMethod};
use fnpr::synth::{random_taskset, with_npr_and_curves, Policy, TaskSetParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2012);
    let sets_per_point = 80; // the `fnpr-campaign example-spec` campaign runs the full study
    println!(
        "{:>6} {:>10} {:>10} {:>10}   ({} sets per utilisation)",
        "U", "no-delay", "Eq.4", "Alg.1", sets_per_point
    );
    for u10 in 3..=9 {
        let utilization = u10 as f64 / 10.0;
        let params = TaskSetParams {
            n: 5,
            utilization,
            period_range: (10.0, 1000.0),
            deadline_factor: (1.0, 1.0),
        };
        let mut accepted = [0usize; 3];
        let mut generated = 0usize;
        while generated < sets_per_point {
            let base = random_taskset(&mut rng, &params)?;
            let Some(tasks) =
                with_npr_and_curves(&mut rng, &base, Policy::FixedPriority, 0.8, 0.6)?
            else {
                continue; // infeasible NPR bounds: resample
            };
            generated += 1;
            for (k, method) in [DelayMethod::None, DelayMethod::Eq4, DelayMethod::Algorithm1]
                .into_iter()
                .enumerate()
            {
                if fp_schedulable_with_delay(&tasks, method)? {
                    accepted[k] += 1;
                }
            }
        }
        let ratio = |k: usize| accepted[k] as f64 / sets_per_point as f64;
        println!(
            "{:>6.2} {:>10.3} {:>10.3} {:>10.3}",
            utilization,
            ratio(0),
            ratio(1),
            ratio(2)
        );
        // Dominance must hold point by point.
        assert!(accepted[2] >= accepted[1], "Alg.1 must accept >= Eq.4");
        assert!(accepted[0] >= accepted[2], "no-delay accepts >= Alg.1");
    }
    Ok(())
}
