//! # fnpr-perfbench — the campaign benchmark
//!
//! One command per paper workload (`acceptance`, `soundness`, `cfg`,
//! `multicore`): [`workloads`] turns a seed into that workload's campaign
//! spec, the binary runs it in-process through `fnpr-campaign`'s public
//! entry points, checks every output against the set-up run ([`check`]),
//! and prints end-to-end throughput. The traced pass additionally replays
//! each grid point through the paper-level functions ([`replay`]), timing
//! every call with its own spans ([`spans`]) so the run's time splits
//! across layers without instrumenting the program itself.
//!
//! See `README.md` next to this crate for the metric definitions and the
//! complete list of program symbols the benchmark calls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod check;
pub mod replay;
pub mod spans;
pub mod workloads;
