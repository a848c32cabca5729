//! `synth.tasksets.generated` counts every task set a generator builds,
//! uniprocessor and multiprocessor alike. The counter is process-global,
//! so this file holds one test and no other generator runs beside it.

use fnpr_synth::{random_taskset, random_taskset_multicore, TaskSetParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn every_built_task_set_counts_as_generated() {
    fnpr_obs::set_enabled(true);
    let generated = fnpr_obs::counter("synth.tasksets.generated");
    let mut rng = StdRng::seed_from_u64(1);
    let before = generated.value();
    random_taskset(&mut rng, &TaskSetParams::default()).expect("valid set");
    assert_eq!(generated.value(), before + 1);
    let params = TaskSetParams {
        n: 4,
        utilization: 1.2,
        ..TaskSetParams::default()
    };
    random_taskset_multicore(&mut rng, &params)
        .expect("valid set")
        .expect("discard converges");
    assert_eq!(generated.value(), before + 2);
}
