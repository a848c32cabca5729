//! # fnpr-sched — schedulability substrate
//!
//! The paper's Section III places its analysis in a schedulability context:
//! tasks run under fixed-priority or EDF scheduling with floating
//! non-preemptive regions, `Qi` is "assumed given" by the methods of
//! Bertogna & Baruah \[2\] / Yao et al. \[11\], and the delay bound inflates the
//! WCET (Eq. 5) before a standard test runs. This crate supplies all of it:
//!
//! * [`Task`] / [`TaskSet`] — the sporadic task model with `Qi` and `fi`;
//! * [`response_time_analysis`] / [`rta_floating_npr`] — fixed-priority RTA
//!   with lower-priority-region blocking;
//! * [`dbf`] / [`edf_schedulable`] / [`edf_schedulable_with_npr`] — the EDF
//!   processor-demand tests;
//! * [`max_npr_lengths_edf`] / [`max_npr_lengths_fp`] — the `Qi`
//!   determination the paper cites;
//! * [`inflate_wcets`], [`inflated_taskset`], [`fp_schedulable_with_delay`]
//!   and [`edf_schedulable_with_delay`] — Eq. 5 inflation via Algorithm 1
//!   or the Eq. 4 baseline, closing the loop from delay curves to
//!   accept/reject.
//!
//! # Example: the full loop
//!
//! ```
//! use fnpr_core::DelayCurve;
//! use fnpr_sched::{
//!     fp_schedulable_with_delay, max_npr_lengths_fp, DelayMethod, Task, TaskSet,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let base = TaskSet::new(vec![
//!     Task::new(1.0, 10.0)?,
//!     Task::new(5.0, 50.0)?,
//! ])?;
//! // 1. Determine the admissible region lengths.
//! let bounds = max_npr_lengths_fp(&base);
//! let qs = bounds.capped_at_wcet(&base);
//! // 2. Attach Q and a delay curve to every task.
//! let tasks = TaskSet::new(
//!     base.iter()
//!         .zip(&qs)
//!         .map(|(t, &q)| {
//!             Ok(t.clone()
//!                 .with_q(q)?
//!                 .with_delay_curve(DelayCurve::constant(0.4, t.wcet())?))
//!         })
//!         .collect::<Result<Vec<_>, Box<dyn std::error::Error>>>()?,
//! )?;
//! // 3. Test with Algorithm-1-inflated WCETs.
//! assert!(fp_schedulable_with_delay(&tasks, DelayMethod::Algorithm1)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

mod edf;
mod error;
mod inflate;
mod npr;
mod priority;
mod rta;
mod sensitivity;
mod task;
mod util;

pub use edf::{
    dbf, demand_horizon, edf_schedulable, edf_schedulable_with_npr, slack, testing_points,
    MAX_TESTING_POINTS,
};
pub use error::SchedError;
pub use inflate::{
    edf_schedulable_with_delay, fp_schedulable_with_delay, inflate_wcets, inflated_taskset,
    preemption_caps, preemption_caps_edf, DelayMethod, Inflation,
};
pub use npr::{blocking_tolerances_fp, max_npr_lengths_edf, max_npr_lengths_fp, NprBounds};
pub use priority::{audsley_floating_npr, Assignment};
pub use rta::{
    floating_npr_blocking, response_time_analysis, rta_floating_npr, RtaResult,
    DEFAULT_MAX_ITERATIONS,
};
pub use sensitivity::{delay_tolerance, scale_delay_curves, DelayTolerance};
pub use task::{Task, TaskSet};
pub use util::{ceil_div, floor_div};
