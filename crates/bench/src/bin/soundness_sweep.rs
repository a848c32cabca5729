//! **Extension B** — Theorem 1 and the Figure 2 phenomenon at scale.
//!
//! Over many random step curves and region lengths:
//!
//! * the exact adversary never exceeds Algorithm 1 (Theorem 1);
//! * the naive bound is frequently *below* the adversary (it is unsound);
//! * random simulated interference stays below the bound;
//! * tightness statistics: how close Algorithm 1 is to the exact worst
//!   case (ratio 1.0 = no pessimism).
//!
//! This binary drives the sweep through the `fnpr-campaign` engine
//! (sharded across all cores, deterministic per seed) instead of a
//! single-threaded loop.
//!
//! CSV on stdout: `seed,q,naive,exact,algorithm1,eq4,sim_max`.
//!
//! Usage: `cargo run -p fnpr-bench --bin soundness_sweep [trials]`

use fnpr_campaign::spec::SoundnessParams;
use fnpr_campaign::{run_campaign, CampaignSpec, WorkloadKind};

fn main() {
    let obs = fnpr_bench::ObsSession::from_env("soundness_sweep");
    let trials: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    let spec = CampaignSpec {
        name: Some("soundness_sweep".into()),
        seed: Some(2012),
        workload: Some(WorkloadKind::Soundness),
        soundness: Some(SoundnessParams {
            trials,
            ..SoundnessParams::default()
        }),
        ..CampaignSpec::default()
    };
    let campaign = spec.validate().expect("built-in spec is valid");
    let outcome = run_campaign(&campaign, None).expect("campaign runs");
    let report = &outcome.report;

    println!("seed,q,naive,exact,algorithm1,eq4,sim_max");
    for shard in &report.soundness {
        for row in &shard.rows {
            println!(
                "{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3}",
                row.trial,
                row.q,
                row.naive,
                row.exact,
                row.algorithm1,
                row.eq4,
                row.sim_max.unwrap_or(f64::NAN),
            );
        }
    }

    let s = &report.summary;
    assert_eq!(
        s.dominance_violations, 0,
        "Theorem 1 / Eq. 4 dominance violated"
    );
    assert_eq!(s.sim_violations, 0, "simulation exceeded the bound");
    eprintln!(
        "trials: {trials}; naive bound below the real worst case in {} \
         ({:.0}%) — unsound as Figure 2 warns",
        s.naive_unsound,
        100.0 * s.naive_unsound as f64 / trials as f64
    );
    eprintln!(
        "Algorithm 1 pessimism vs exact adversary: mean {:.3}x, worst {:.3}x \
         ({} threads)",
        s.pessimism_mean, s.pessimism_max, outcome.threads
    );
    if s.naive_unsound == 0 {
        eprintln!("WARN: no naive violation observed — enlarge the sweep");
    }
    obs.flush();
}
