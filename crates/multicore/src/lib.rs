//! # fnpr-multicore — multiprocessor scheduling for floating-NPR task sets
//!
//! The paper's delay-curve machinery (Algorithm 1, the Eq. 4 baseline, and
//! Eq. 5 WCET inflation) is per-*job*: it bounds the cumulative preemption
//! delay one job pays given its curve `fi` and region length `Qi`,
//! independent of what dispatches it. That makes it compose directly with
//! multiprocessor schedulability tests, which is what this crate does:
//!
//! * **Partitioned scheduling** ([`partition_taskset`],
//!   [`partitioned_schedulable_with_delay`], or
//!   [`cores_schedulable_with_delay`] on sets already split per core) —
//!   first-fit / worst-fit / best-fit decreasing bin-packing onto `m`
//!   cores, with the existing uniprocessor floating-NPR tests
//!   (fixed-priority RTA with blocking, NPR-aware EDF demand) run per core
//!   on Eq. 5-inflated WCETs;
//! * **Global scheduling** ([`global_schedulable_with_delay`]) — the
//!   density bound and BCL-style workload tests (the families surveyed in
//!   Singh, arXiv:1101.1718), extended with a lower-priority NPR blocking
//!   term and fed inflated WCETs.
//!
//! **Implemented vs. cited:** the density bound (Goossens–Funk–Baruah) and
//! the BCL workload condition (Bertogna–Cirinei–Lipari) are implemented,
//! with a single-maximal-region blocking term; the tighter iterative
//! RTA-style global tests and `m`-th-largest blocking refinements from the
//! cited surveys (arXiv:1101.1718, arXiv:1301.4800) are cited but not
//! implemented. The empirical side (the `m`-core simulator in `fnpr-sim`
//! and the `[multicore]` campaign workload in `fnpr-campaign`) checks the
//! per-job Theorem 1 bound, which is dispatcher-independent.
//!
//! # Example
//!
//! ```
//! use fnpr_multicore::{partition_taskset, global_schedulable_with_delay, Heuristic};
//! use fnpr_sched::{DelayMethod, Task, TaskSet};
//! use fnpr_synth::Policy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Four quarter-utilisation tasks on two cores.
//! let tasks = TaskSet::new(vec![
//!     Task::new(2.5, 10.0)?,
//!     Task::new(5.0, 20.0)?,
//!     Task::new(10.0, 40.0)?,
//!     Task::new(20.0, 80.0)?,
//! ])?;
//! let partition = partition_taskset(&tasks, 2, Heuristic::WorstFit, Policy::Edf)?
//!     .expect("2 cores fit U = 1.0");
//! assert_eq!(partition.cores, 2);
//! // The global density/BCL composite agrees on plain WCETs.
//! assert!(global_schedulable_with_delay(&tasks, 2, Policy::Edf, DelayMethod::None)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

mod global;
mod partition;

pub use global::{
    global_edf_bcl, global_edf_density, global_fp_bcl, global_schedulable_with_delay,
};
pub use partition::{
    cores_schedulable_with_delay, partition_taskset, partition_with,
    partitioned_schedulable_with_delay, Heuristic, Partition,
};
