//! # fnpr-cache — cache substrate and CRPD bounds
//!
//! The paper's Section IV delegates the per-basic-block preemption cost
//! `CRPD_b` to "state of the art methods like \[3\]" (Lee et al.'s useful
//! cache blocks). This crate implements that substrate from scratch:
//!
//! * [`CacheConfig`] — geometry (sets × ways × line size) and reload cost;
//! * [`AccessMap`] — ordered per-basic-block memory accesses;
//!   [`AccessMap::from_code_layout`] fetches every line a block's bytes
//!   cover, both partial lines included when a block straddles a line
//!   boundary;
//! * [`UcbAnalysis`] — useful-cache-block dataflow (exact transfer for
//!   direct-mapped caches, conservative may-analysis for LRU set-associative
//!   ones), run on bit vectors over the task's densely numbered memory
//!   blocks and kept per block as sparse `(set, count)` pairs;
//! * [`EcbSet`] — evicting cache blocks of preempting tasks, a bit vector
//!   over cache-set indices;
//! * [`CrpdAnalysis`] — `CRPD_b` per block, against full or per-preempter
//!   damage.
//!
//! The executable cache that checks these bounds against concrete runs is
//! test code (`tests/support/`).
//!
//! # From CRPD to the paper's delay function
//!
//! ```
//! use fnpr_cache::{AccessMap, CacheConfig, CrpdAnalysis};
//! use fnpr_cfg::{CfgBuilder, ExecInterval, Occupancy};
//! use fnpr_core::DelayCurve;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = CfgBuilder::new();
//! let load = b.block(ExecInterval::new(10.0, 12.0)?);
//! let compute = b.block(ExecInterval::new(50.0, 80.0)?);
//! b.edge(load, compute)?;
//! let cfg = b.build()?;
//!
//! let config = CacheConfig::new(16, 1, 16, 10.0)?;
//! let mut acc = AccessMap::new();
//! acc.set(load, vec![0, 16, 32]);
//! acc.set(compute, vec![0, 16, 32]);
//!
//! let crpd = CrpdAnalysis::analyze(&cfg, &acc, &config)?;
//! let occ = Occupancy::analyze(&cfg)?;
//! // fi(t) = max {CRPD_b : b ∈ BB(t)} — Section IV's composition.
//! let fi = DelayCurve::from_windows(
//!     occ.value_windows(|b| crpd.crpd(b)),
//!     occ.wcet(),
//! )?;
//! assert_eq!(fi.max_value(), 30.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

mod access;
mod bits;
mod config;
mod crpd;
mod ecb;
mod error;
mod ucb;

pub use access::AccessMap;
pub use config::CacheConfig;
pub use crpd::CrpdAnalysis;
pub use ecb::EcbSet;
pub use error::CacheError;
pub use ucb::UcbAnalysis;
