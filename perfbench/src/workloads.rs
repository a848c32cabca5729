//! The four benchmark workloads and the campaign spec each one runs.
//!
//! A spec is a pure function of (workload, seed): the grid is fixed here
//! and the seed only becomes the campaign seed, so one seed always
//! produces the same inputs, and the run length never changes what is
//! computed (it only changes how many times it is computed).

use std::fmt;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The uniprocessor acceptance-ratio sweep (the paper's headline
    /// experiment): 26 coarse points, FP/EDF sharing base task sets.
    Acceptance,
    /// Random step-curve trials bounded four ways and validated against
    /// the simulator: one trial per point, every `(curve, Q)` distinct.
    Soundness,
    /// Generated programs through the Section IV pipeline: 1296 points
    /// that share programs and curves across geometry and `Qi`.
    Cfg,
    /// Multiprocessor acceptance with partitioned/global tests and m-core
    /// simulation.
    Multicore,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::Acceptance,
        Workload::Soundness,
        Workload::Cfg,
        Workload::Multicore,
    ];

    /// The command-line name (`--workload <name>`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Acceptance => "acceptance",
            Workload::Soundness => "soundness",
            Workload::Cfg => "cfg",
            Workload::Multicore => "multicore",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The campaign spec (TOML) this workload runs under `seed`.
    #[must_use]
    pub fn spec_text(self, seed: u64) -> String {
        let body = match self {
            Workload::Acceptance => ACCEPTANCE,
            Workload::Soundness => SOUNDNESS,
            Workload::Cfg => CFG,
            Workload::Multicore => MULTICORE,
        };
        format!(
            "name = \"bench-{}\"\nseed = {seed}\nworkload = \"{}\"\n{body}",
            self.name(),
            self.name()
        )
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// U 0.30–0.90 step 0.05 × {FP, EDF} × four methods, n = 5.
const ACCEPTANCE: &str = r#"
[acceptance]
sets_per_point = 400
policies = ["fixed_priority", "edf"]
methods = ["none", "eq4", "algorithm1", "algorithm1_capped"]
utilizations = { start = 0.3, stop = 0.9, step = 0.05 }

[acceptance.taskset]
n = 5
utilization = 0.0
period_range = [10.0, 1000.0]
deadline_factor = [1.0, 1.0]
"#;

/// 20 000 trials, one per shard, simulator validation on.
const SOUNDNESS: &str = r#"
[soundness]
trials = 20000
trials_per_shard = 1
simulate = true
"#;

/// depth × loop bound × footprint × sets × ways × reload × 9 `Qi` values.
const CFG: &str = r#"
[cfg]
programs_per_point = 12
depths = [2, 3, 4]
loop_iterations = [4, 16]
footprints = [16, 64]
sets = [16, 64, 256]
associativity = [1, 2]
line_bytes = [16]
reload_cost = [1.0, 10.0]
q_scales = { start = 0.1, stop = 0.9, step = 0.1 }
"#;

/// m × policy × allocation × U with m-core simulation, 48 points.
const MULTICORE: &str = r#"
[multicore]
sets_per_point = 60
cores = [2, 4]
policies = ["fixed_priority", "edf"]
allocations = ["first_fit", "worst_fit", "best_fit", "global"]
methods = ["none", "eq4", "algorithm1", "algorithm1_capped"]
utilizations = { values = [0.3, 0.5, 0.7] }
simulate = true
"#;
