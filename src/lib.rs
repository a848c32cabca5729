//! # fnpr — floating non-preemptive region preemption-delay analysis
//!
//! A from-scratch implementation of *Marinho, Nélis, Petters & Puaut,
//! "Preemption Delay Analysis for Floating Non-Preemptive Region
//! Scheduling"* (DATE 2012), together with every substrate the paper builds
//! on: control-flow-graph timing analysis, useful-cache-block CRPD bounds,
//! floating-NPR schedulability, and a discrete-event scheduler simulator for
//! validation.
//!
//! The workspace splits into focused crates, re-exported here:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `fnpr-core` | [`DelayCurve`], **Algorithm 1** ([`algorithm1`]), the Eq. 4 baseline ([`eq4_bound`]), the naive unsound bound, the exact adversary |
//! | [`cfg`](mod@crate::cfg) | `fnpr-cfg` | basic blocks, Eqs. 1–3 start offsets, loop reduction, call graphs, `BB(t)` occupancy |
//! | [`cache`] | `fnpr-cache` | cache geometry, UCB/ECB analyses, per-block CRPD |
//! | [`sched`] | `fnpr-sched` | task model, fixed-priority RTA, EDF demand tests, `Qi` determination, Eq. 5 inflation |
//! | [`sim`] | `fnpr-sim` | floating-NPR scheduler simulator with delay injection (unicore + m-core) |
//! | [`synth`] | `fnpr-synth` | Figure-4 curves, UUniFast task sets, random structured programs |
//! | [`multicore`] | `fnpr-multicore` | global & partitioned multiprocessor tests with NPR blocking |
//! | [`campaign`] | `fnpr-campaign` | sharded, deterministic experiment-campaign engine |
//! | [`pipeline`] | `fnpr-pipeline` | the Section IV end-to-end wiring (one-shot + prepared batch APIs) |
//!
//! # Quickstart
//!
//! ```
//! use fnpr::{algorithm1, eq4_bound_for_curve, DelayCurve};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A task whose preemption cost is high while its working set is live.
//! let fi = DelayCurve::from_breakpoints([(0.0, 8.0), (40.0, 1.0)], 100.0)?;
//! let q = 25.0; // floating non-preemptive region length
//!
//! let tight = algorithm1(&fi, q)?.expect_converged();
//! let sota = eq4_bound_for_curve(&fi, q)?.expect_converged();
//! assert!(tight.total_delay < sota.total_delay);
//! println!(
//!     "inflated WCET: {} (Algorithm 1) vs {} (state of the art)",
//!     tight.inflated_wcet(),
//!     sota.inflated_wcet()
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod pipeline;

/// The analysis core: delay curves and the three bounds.
pub mod core {
    pub use fnpr_core::*;
}

/// Control-flow graph substrate.
pub mod cfg {
    pub use fnpr_cfg::*;
}

/// Cache substrate and CRPD analysis.
pub mod cache {
    pub use fnpr_cache::*;
}

/// Schedulability substrate.
pub mod sched {
    pub use fnpr_sched::*;
}

/// Discrete-event scheduler simulator.
pub mod sim {
    pub use fnpr_sim::*;
}

/// Synthetic workload generators.
pub mod synth {
    pub use fnpr_synth::*;
}

/// Global and partitioned multiprocessor schedulability.
pub mod multicore {
    pub use fnpr_multicore::*;
}

/// The experiment-campaign engine (`fnpr-campaign run <spec>`).
pub mod campaign {
    pub use fnpr_campaign::*;
}

// The most common entry points, flattened for convenience.
pub use fnpr_core::{
    algorithm1, algorithm1_trace, eq4_bound, eq4_bound_for_curve, exact_worst_case, naive_bound,
    BoundOutcome, DelayBound, DelayCurve,
};
pub use pipeline::{
    analyze_task, analyze_task_against, analyze_taskset, PipelineError, TaskAnalysis, TaskProgram,
};
