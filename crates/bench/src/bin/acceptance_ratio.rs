//! **Extension A** — schedulability acceptance ratios.
//!
//! The figure the paper motivates but does not include: how many random
//! task sets pass the floating-NPR schedulability test when WCETs are
//! inflated by (a) nothing, (b) the Eq. 4 state of the art, (c) Algorithm 1
//! — under both fixed-priority RTA and the EDF demand test.
//!
//! Since PR 1 this binary is a thin veneer over the `fnpr-campaign`
//! engine: it builds an acceptance spec, runs it sharded across all cores
//! (bit-identical aggregates at any thread count), and renders the legacy
//! CSV columns. Arbitrary grids, thread counts and JSON aggregates live in
//! `fnpr-campaign run`.
//!
//! CSV on stdout: `policy,utilization,no_delay,eq4,algorithm1,algorithm1_capped`.
//!
//! Usage: `cargo run -p fnpr-bench --bin acceptance_ratio [sets_per_point]`

use fnpr_campaign::spec::AcceptanceParams;
use fnpr_campaign::{run_campaign, CampaignSpec, WorkloadKind};

fn main() {
    let obs = fnpr_bench::ObsSession::from_env("acceptance_ratio");
    let sets_per_point: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let spec = CampaignSpec {
        name: Some("acceptance_ratio".into()),
        seed: Some(2012),
        workload: Some(WorkloadKind::Acceptance),
        acceptance: Some(AcceptanceParams {
            sets_per_point,
            ..AcceptanceParams::default()
        }),
        ..CampaignSpec::default()
    };
    let campaign = spec.validate().expect("built-in spec is valid");
    let outcome = run_campaign(&campaign, None).expect("campaign runs");
    let report = &outcome.report;

    // Legacy column layout (ratios only, 2-decimal utilization).
    println!("policy,utilization,no_delay,eq4,algorithm1,algorithm1_capped");
    for point in &report.acceptance {
        if point.generated == 0 {
            continue;
        }
        print!("{},{:.2}", point.policy, point.utilization);
        for ratio in &point.ratios {
            print!(",{ratio:.4}");
        }
        println!();
    }

    if report.summary.dominance_violations > 0 {
        eprintln!("FAIL: acceptance dominance (no-delay >= Alg.1 >= Eq.4) violated");
        obs.flush();
        std::process::exit(1);
    }
    eprintln!(
        "acceptance dominance holds at every utilisation point \
         ({} sets on {} threads, taskset memo {} hits / {} misses)",
        report.summary.instances, outcome.threads, outcome.memo.hits, outcome.memo.misses
    );
    obs.flush();
}
