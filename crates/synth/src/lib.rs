//! # fnpr-synth — synthetic workload generators
//!
//! Everything the evaluation harness draws from:
//!
//! * [`figure4_gaussian1`] / [`figure4_gaussian2`] /
//!   [`figure4_two_local_maxima`] — the paper's Figure 4 benchmark delay
//!   functions (see the module docs of [`curves`] for the calibration of
//!   the paper's partly inconsistent parameters), plus [`flat_adversarial`]
//!   for the worst-case-shape ablation;
//! * [`uunifast`] / [`random_taskset`] / [`with_npr_and_curves`] — the
//!   standard random task-set machinery of the schedulability literature;
//! * [`random_program`] — random *structured programs* (`fnpr_cfg::ast`
//!   statement trees with per-block costs and data accesses), compiled to
//!   a reducible CFG with loop bounds and a code layout, ready for the
//!   Section IV pipeline — the workspace's one random control-flow source.
//!
//! All generators take a caller-provided [`rand::Rng`], so experiments are
//! reproducible by seed.
//!
//! ```
//! use fnpr_synth::figure4_all;
//!
//! for (name, curve) in figure4_all() {
//!     assert_eq!(curve.domain_end(), 4000.0, "{name}");
//!     assert!(curve.max_value() <= 10.0 + 1e-6);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod curves;
pub mod progen;
pub mod taskset;

pub use curves::{
    figure4_all, figure4_gaussian1, figure4_gaussian2, figure4_two_local_maxima, flat_adversarial,
    gaussian_curve, random_step_curve, random_unimodal_curve, FIGURE4_MAX, FIGURE4_STEP,
    FIGURE4_WCET,
};
pub use progen::{random_program, GeneratedProgram, ProgramGenParams, DATA_BASE, DATA_STRIDE};
pub use taskset::{
    random_taskset, random_taskset_multicore, uunifast, uunifast_discard, with_npr_and_curves,
    with_npr_and_curves_global, Policy, TaskSetParams,
};
