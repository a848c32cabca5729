//! # fnpr-cfg — control-flow graph substrate
//!
//! Implements Section IV of *Marinho et al., "Preemption Delay Analysis for
//! Floating Non-Preemptive Region Scheduling"* (DATE 2012): from a task's
//! control-flow graph to per-basic-block *execution windows*, the `BB(t)`
//! occupancy sets, and everything needed to build the preemption-delay
//! function `fi(t) = max {CRPD_b : b ∈ BB(t)}`.
//!
//! * [`CfgBuilder`] / [`Cfg`] — validated graphs of [`BasicBlock`]s with
//!   `[emin, emax]` execution intervals;
//! * [`StartOffsets`] — the Eqs. 1–3 earliest/latest start-offset analysis
//!   for loop-free code (checked against the paper's Figure 1 in
//!   [`fixtures`]);
//! * [`reduce_loops`] — natural-loop detection and innermost-first reduction
//!   to super-blocks with iteration bounds;
//! * [`Program`] — acyclic call-graph, leaves-first analysis;
//! * [`Occupancy`] — `BB(t)` queries and the `(start, end, value)` window
//!   export consumed by `fnpr_core::DelayCurve::from_windows`.
//!
//! # Example: Figure 1 of the paper
//!
//! ```
//! use fnpr_cfg::{fixtures, StartOffsets, BlockId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = fixtures::figure1_cfg();
//! let offsets = StartOffsets::analyze(&cfg)?;
//! // Block 3 (the first join): published offsets [30, 65].
//! assert_eq!(offsets.earliest_start(BlockId(3)), 30.0);
//! assert_eq!(offsets.latest_start(BlockId(3)), 65.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ast;
mod block;
mod callgraph;
pub mod dot;
mod error;
pub mod fixtures;
mod graph;
mod loops;
mod occupancy;
mod offsets;

pub use block::{BasicBlock, BlockId, ExecInterval};
pub use callgraph::{Function, FunctionSummary, Program};
pub use error::CfgError;
pub use graph::{dominates, Cfg, CfgBuilder};
pub use loops::{natural_loops, reduce_loops, LoopBound, NaturalLoop, ReducedCfg};
pub use occupancy::Occupancy;
pub use offsets::{GraphTiming, StartOffsets};
