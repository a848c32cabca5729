//! The replay does the workload's work: on a tiny grid of each workload,
//! the program's work counters after a replay equal those of a 1-thread
//! campaign run of the same spec. (One test in its own binary, because
//! telemetry is process-global.)

use std::collections::BTreeMap;

use fnpr_campaign::{run_campaign_with_store, CampaignSpec};
use fnpr_perfbench::replay::{replay, WORK_PREFIXES};
use fnpr_perfbench::spans::Tracer;

fn work_counters() -> BTreeMap<String, u64> {
    fnpr_obs::counters_snapshot()
        .into_iter()
        .filter(|(name, value)| *value > 0 && WORK_PREFIXES.iter().any(|p| name.starts_with(p)))
        .collect()
}

#[test]
fn replay_counters_match_a_one_thread_run() {
    let specs = [
        "workload = \"acceptance\"\n[acceptance]\nsets_per_point = 5\n\
         utilizations = { values = [0.4, 0.7] }\n",
        "workload = \"soundness\"\n[soundness]\ntrials = 20\n",
        "workload = \"cfg\"\n[cfg]\nprograms_per_point = 3\ndepths = [2, 3]\n\
         sets = [16, 64]\nq_scales = { values = [0.2, 0.5] }\n",
        "workload = \"multicore\"\n[multicore]\nsets_per_point = 3\ncores = [2]\n\
         utilizations = { values = [0.5] }\nsim_per_point = 1\n",
    ];
    fnpr_obs::set_enabled(true);
    for text in specs {
        let campaign = CampaignSpec::parse(&format!("seed = 11\n{text}"))
            .unwrap()
            .validate()
            .unwrap();
        fnpr_obs::reset();
        run_campaign_with_store(&campaign, Some(1), None).unwrap();
        let run = work_counters();
        fnpr_obs::reset();
        replay(&campaign, &mut Tracer::new()).unwrap();
        let replayed = work_counters();
        assert!(!run.is_empty(), "no work counted for {text}");
        assert_eq!(run, replayed, "replay diverged for {text}");
    }
    fnpr_obs::set_enabled(false);
}
