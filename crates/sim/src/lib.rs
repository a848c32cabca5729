//! # fnpr-sim — discrete-event scheduler simulator
//!
//! An executable model of the paper's system: sporadic jobs under
//! fixed-priority or EDF scheduling, with fully preemptive, non-preemptive
//! or **floating non-preemptive region** preemption handling, and
//! preemption delays drawn from each task's `fi(t)` at the *actual
//! progress point* of each preemption. One event loop, [`simulate`], runs
//! the paper's unicore processor at [`SimConfig::cores`] = 1 and extends
//! the model to `m` identical cores under global dispatching, with
//! per-core floating-NPR state and migration accounting.
//!
//! Its purpose is validation and demonstration:
//!
//! * Theorem 1 empirically — no run's cumulative delay exceeds the
//!   Algorithm 1 bound ([`check_against_algorithm1`], plus property tests);
//! * the Figure 2 phenomenon constructively — [`Scenario::adversary`]
//!   builds a legal run that beats the naive point-selection bound;
//! * policy comparisons — preemption counts and delay totals across
//!   fully-preemptive vs. floating-NPR runs ([`per_task_metrics`]).
//!
//! # Example
//!
//! ```
//! use fnpr_core::DelayCurve;
//! use fnpr_sim::{simulate, Scenario, SimConfig, SimTask};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let curve = DelayCurve::constant(2.0, 10.0)?;
//! let scenario = Scenario {
//!     tasks: vec![
//!         SimTask { exec_time: 1.0, deadline: 10.0, q: None, delay_curve: None },
//!         SimTask { exec_time: 10.0, deadline: 50.0, q: Some(4.0),
//!                   delay_curve: Some(curve) },
//!     ],
//!     releases: vec![(1, 0.0), (0, 3.0)],
//! };
//! let result = simulate(&scenario, &SimConfig::floating_npr_fp(100.0));
//! // The spike at t=3 is deferred to the region end at t=7.
//! let victim = result.of_task(1).next().expect("ran");
//! assert_eq!(victim.preemptions, 1);
//! assert_eq!(victim.cumulative_delay, 2.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

mod job;
mod metrics;
mod multi;
mod policy;
mod render;
mod scenario;
mod trace;
mod validate;

pub use job::JobRecord;
pub use metrics::{per_task_metrics, TaskMetrics};
pub use multi::{simulate, SimResult};
pub use policy::{PreemptionMode, PriorityPolicy, SimConfig};
pub use render::render_timeline;
pub use scenario::{AdversaryPlan, Scenario, SimTask};
pub use trace::TraceEvent;
pub use validate::{check_against_algorithm1, BoundCheck};

// Former m-core names, kept for existing callers.
pub use multi::simulate as simulate_multicore;
pub use validate::check_against_algorithm1 as check_multicore_against_algorithm1;
/// [`SimConfig`] under its former m-core name.
pub type MultiSimConfig = SimConfig;
