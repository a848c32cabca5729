//! # fnpr-core — progression-aware preemption-delay bounds
//!
//! This crate implements the analysis of *Marinho, Nélis, Petters & Puaut,
//! "Preemption Delay Analysis for Floating Non-Preemptive Region Scheduling"*
//! (DATE 2012): a tight upper bound on the cumulative preemption delay a task
//! suffers when scheduled with **floating non-preemptive regions** (every
//! higher-priority release while the task runs opens a non-preemptible window
//! of fixed length `Q`).
//!
//! The crate provides three analyses over a task's *preemption-delay
//! function* `fi(t)` — an upper bound on the delay paid if the task is
//! preempted at progress `t`, represented as a piecewise-constant
//! [`DelayCurve`]:
//!
//! * [`algorithm1`] — the paper's contribution (Algorithm 1 + Theorem 1):
//!   walks `Q`-sized windows over the curve, charging each window the local
//!   maximum between the window start and the crossing point `p∩` with the
//!   window's anti-diagonal; **sound and shape-sensitive**;
//! * [`eq4_bound`] — the state-of-the-art baseline (Eq. 4): iteratively
//!   charges `⌈C′/Q⌉` preemptions at the *global* maximum delay; **sound but
//!   shape-blind** (the single "State of the Art" curve in the paper's
//!   Figure 5);
//! * [`naive_bound`] — the maximum-weight `Q`-spaced point selection;
//!   **unsound** (the paper's Figure 2 counterexample) and kept exactly to
//!   demonstrate that, which the `fnpr-sim` adversary does constructively.
//!
//! # Quick example
//!
//! ```
//! use fnpr_core::{algorithm1, eq4_bound_for_curve, DelayCurve};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A task of WCET 100 whose working set is precious early on (delay 8)
//! // and cheap afterwards (delay 1). Non-preemptive region length Q = 25.
//! let fi = DelayCurve::from_breakpoints([(0.0, 8.0), (40.0, 1.0)], 100.0)?;
//!
//! let tight = algorithm1(&fi, 25.0)?.expect_converged();
//! let sota = eq4_bound_for_curve(&fi, 25.0)?.expect_converged();
//!
//! // The progression-aware bound only charges 8 while the window can still
//! // fall in the early phase; the baseline charges 8 for every window.
//! assert!(tight.total_delay < sota.total_delay);
//! # Ok(())
//! # }
//! ```
//!
//! # Where `fi` comes from
//!
//! Section IV of the paper derives `fi` from the task's control-flow graph:
//! each basic block `b` has an execution window (earliest start .. latest
//! finish, computed by `fnpr-cfg`) and a per-block delay bound `CRPD_b`
//! (computed by `fnpr-cache` from useful/evicting cache-block analysis), and
//! `fi(t) = max {CRPD_b : b ∈ BB(t)}`. [`DelayCurve::from_windows`] performs
//! exactly that composition; the umbrella `fnpr` crate wires the three crates
//! together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

mod adversary;
mod algorithm1;
mod baseline;
mod capped;
mod chains;
mod cursor;
mod curve;
mod error;
mod hash;
mod naive;

pub use adversary::{
    exact_worst_case, exact_worst_case_with_limit, WorstCaseRun, DEFAULT_MAX_ADVERSARY_CANDIDATES,
};
pub use algorithm1::{
    algorithm1, algorithm1_from, algorithm1_trace, algorithm1_with_limit, BoundOutcome, DelayBound,
    WindowRecord, DEFAULT_MAX_WINDOWS,
};
pub use baseline::{eq4_bound, eq4_bound_for_curve, eq4_bound_with_limit, DEFAULT_MAX_ITERATIONS};
pub use capped::{algorithm1_capped, CappedBound};
pub use curve::{DelayCurve, Segment};
pub use error::{AnalysisError, CurveError};
pub use hash::StructuralHasher;
pub use naive::{naive_bound, naive_bound_with_limit, NaiveBound, DEFAULT_MAX_CANDIDATES};

/// Version of the workspace's *analysis semantics*: the meaning of the
/// bounds ([`algorithm1`], [`eq4_bound`], the adversary, the RTA built on
/// top) and of the structural hashes that key cached results. Bump it
/// whenever a change can alter any computed result or key derivation —
/// `fnpr-campaign`'s on-disk result store folds it into every entry's
/// fingerprint, so persisted results from an older analysis invalidate to a
/// clean recompute instead of being served stale.
pub const ANALYSIS_VERSION: u64 = 2;

#[cfg(test)]
mod crate_tests {
    use super::*;

    /// End-to-end sanity: a CFG-shaped curve run through all three analyses
    /// preserves the expected ordering naive <= algorithm1 <= eq4.
    #[test]
    fn analysis_ordering_holds() {
        let fi = DelayCurve::from_windows(
            [
                (0.0, 30.0, 4.0),
                (10.0, 55.0, 9.0),
                (50.0, 90.0, 2.0),
                (85.0, 120.0, 6.0),
            ],
            120.0,
        )
        .unwrap();
        for q in [12.0, 20.0, 37.0, 61.0] {
            let naive = naive_bound(&fi, q).unwrap().total_delay;
            let alg1 = algorithm1(&fi, q).unwrap().expect_converged().total_delay;
            let eq4 = eq4_bound_for_curve(&fi, q)
                .unwrap()
                .expect_converged()
                .total_delay;
            assert!(naive <= alg1 + 1e-9, "q={q}: naive {naive} > alg1 {alg1}");
            assert!(alg1 <= eq4 + 1e-9, "q={q}: alg1 {alg1} > eq4 {eq4}");
        }
    }
}
