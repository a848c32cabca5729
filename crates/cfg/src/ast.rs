//! Structured-program frontend: build CFGs from nested statements.
//!
//! Writing CFGs edge by edge is error-prone for anything beyond toy
//! examples. This module compiles a structured statement tree — straight
//! blocks, `if/else`, bounded loops and calls — into a validated [`Cfg`]
//! with the matching loop-bound map and a linear code layout (block → byte
//! range) that `fnpr-cache` turns into instruction fetches. Because the
//! tree is structured, the emitted graph is always reducible.
//!
//! # Example
//!
//! ```
//! use fnpr_cfg::ast::{Stmt, compile};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // if (cond) { fast } else { slow }; loop 8x { work }
//! let program = Stmt::seq([
//!     Stmt::basic("entry", 2.0, 3.0),
//!     Stmt::branch(
//!         Stmt::basic("fast", 1.0, 1.0),
//!         Stmt::basic("slow", 10.0, 14.0),
//!     ),
//!     Stmt::bounded_loop(8, Stmt::basic("work", 5.0, 5.0)),
//! ]);
//! let compiled = compile(&program, 64)?;
//! assert!(compiled.cfg.len() >= 5);
//! assert_eq!(compiled.loop_bounds.len(), 1);
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;

use crate::block::{BlockId, ExecInterval};
use crate::error::CfgError;
use crate::graph::{Cfg, CfgBuilder};
use crate::loops::LoopBound;

/// A structured program fragment.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A basic block with a label, `[min, max]` execution time and the
    /// byte addresses of its (data) memory accesses.
    Basic {
        /// Human-readable label.
        label: String,
        /// Best-case execution time.
        min: f64,
        /// Worst-case execution time.
        max: f64,
        /// Byte addresses of data accesses performed by the block, on top
        /// of the instruction fetches implied by the code layout. Empty for
        /// purely computational blocks.
        accesses: Vec<u64>,
    },
    /// Sequential composition.
    Seq(Vec<Stmt>),
    /// Two-way branch (then / else), joined afterwards.
    If {
        /// Taken branch.
        then_branch: Box<Stmt>,
        /// Not-taken branch.
        else_branch: Box<Stmt>,
    },
    /// A bounded natural loop: `header` guards `body`, iterating between
    /// `min_iterations` and `max_iterations` header entries.
    Loop {
        /// Minimum header entries.
        min_iterations: u64,
        /// Maximum header entries.
        max_iterations: u64,
        /// Loop body.
        body: Box<Stmt>,
    },
}

impl Stmt {
    /// A labelled basic block with no data accesses.
    #[must_use]
    pub fn basic(label: impl Into<String>, min: f64, max: f64) -> Stmt {
        Stmt::Basic {
            label: label.into(),
            min,
            max,
            accesses: Vec::new(),
        }
    }

    /// A labelled basic block that touches the given data addresses.
    #[must_use]
    pub fn basic_accessing(
        label: impl Into<String>,
        min: f64,
        max: f64,
        accesses: impl IntoIterator<Item = u64>,
    ) -> Stmt {
        Stmt::Basic {
            label: label.into(),
            min,
            max,
            accesses: accesses.into_iter().collect(),
        }
    }

    /// Sequential composition.
    #[must_use]
    pub fn seq<I: IntoIterator<Item = Stmt>>(stmts: I) -> Stmt {
        Stmt::Seq(stmts.into_iter().collect())
    }

    /// An if/else with the given branches.
    #[must_use]
    pub fn branch(then_branch: Stmt, else_branch: Stmt) -> Stmt {
        Stmt::If {
            then_branch: Box::new(then_branch),
            else_branch: Box::new(else_branch),
        }
    }

    /// A loop running exactly `n` header entries.
    #[must_use]
    pub fn bounded_loop(n: u64, body: Stmt) -> Stmt {
        Stmt::Loop {
            min_iterations: n,
            max_iterations: n,
            body: Box::new(body),
        }
    }

    /// A loop with distinct bounds.
    #[must_use]
    pub fn loop_between(min_iterations: u64, max_iterations: u64, body: Stmt) -> Stmt {
        Stmt::Loop {
            min_iterations,
            max_iterations,
            body: Box::new(body),
        }
    }
}

/// Output of [`compile`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// The (reducible) control-flow graph.
    pub cfg: Cfg,
    /// Loop bounds keyed by header block, ready for
    /// [`reduce_loops`](crate::reduce_loops).
    pub loop_bounds: BTreeMap<BlockId, LoopBound>,
    /// `(block, base address, size)` — blocks laid out back to back with
    /// `block_bytes` each, in id order.
    pub layout: Vec<(BlockId, u64, u64)>,
    /// Data accesses per block, indexed by block id (empty vectors for
    /// structural glue and access-free blocks). These come straight from
    /// the [`Stmt::Basic`] `accesses` annotations.
    pub accesses: Vec<Vec<u64>>,
}

/// Compiles a statement tree into a CFG.
///
/// Structural glue (branch joins, loop headers, loop exits) is emitted as
/// zero-cost blocks, so worst-case timing is preserved. One deliberate
/// looseness: because the zero-cost loop header carries the exit edge, a
/// reduced loop's *best case* is `min_iterations × 0 = 0` — a sound
/// under-approximation that only widens execution windows. Give the header
/// cost to a `Basic` statement at the start of the body when a tighter
/// best case matters.
///
/// # Errors
///
/// Returns [`CfgError::BadInterval`] for malformed block costs,
/// [`CfgError::BadLoopBound`] for malformed loop bounds (zero maximum or
/// `min > max`), or the underlying builder errors (never for well-formed
/// trees).
pub fn compile(program: &Stmt, block_bytes: u64) -> Result<CompiledProgram, CfgError> {
    let mut emitter = Emitter {
        builder: CfgBuilder::new(),
        bounds: BTreeMap::new(),
        accesses: Vec::new(),
    };
    // A synthetic zero-cost entry keeps the invariant "entry has no
    // predecessors" even when the program starts with a loop.
    let entry = emitter.glue("entry")?;
    let exit = emitter.emit(program, entry)?;
    let _ = exit;
    let Emitter {
        builder,
        bounds,
        mut accesses,
    } = emitter;
    let cfg = builder.build()?;
    accesses.resize(cfg.len(), Vec::new());
    let layout = (0..cfg.len())
        .map(|b| (BlockId(b), b as u64 * block_bytes, block_bytes))
        .collect();
    Ok(CompiledProgram {
        cfg,
        loop_bounds: bounds,
        layout,
        accesses,
    })
}

/// Compilation state threaded through the statement tree.
struct Emitter {
    builder: CfgBuilder,
    bounds: BTreeMap<BlockId, LoopBound>,
    /// Data accesses per emitted block id (kept aligned with the builder).
    accesses: Vec<Vec<u64>>,
}

impl Emitter {
    /// Adds a zero-cost structural block (entry/join/header/after glue).
    fn glue(&mut self, label: &str) -> Result<BlockId, CfgError> {
        let id = self
            .builder
            .labeled_block(ExecInterval::new(0.0, 0.0)?, label);
        self.accesses.push(Vec::new());
        Ok(id)
    }

    /// Emits `stmt` after `from`; returns the fragment's single exit block.
    fn emit(&mut self, stmt: &Stmt, from: BlockId) -> Result<BlockId, CfgError> {
        match stmt {
            Stmt::Basic {
                label,
                min,
                max,
                accesses,
            } => {
                let id = self
                    .builder
                    .labeled_block(ExecInterval::new(*min, *max)?, label.clone());
                self.accesses.push(accesses.clone());
                self.builder.edge(from, id)?;
                Ok(id)
            }
            Stmt::Seq(stmts) => {
                let mut at = from;
                for s in stmts {
                    at = self.emit(s, at)?;
                }
                Ok(at)
            }
            Stmt::If {
                then_branch,
                else_branch,
            } => {
                let then_exit = self.emit(then_branch, from)?;
                let else_exit = self.emit(else_branch, from)?;
                let join = self.glue("join")?;
                self.builder.edge(then_exit, join)?;
                self.builder.edge(else_exit, join)?;
                Ok(join)
            }
            Stmt::Loop {
                min_iterations,
                max_iterations,
                body,
            } => {
                let bound = LoopBound::new(*min_iterations, *max_iterations)?;
                let header = self.glue("header")?;
                self.builder.edge(from, header)?;
                let body_exit = self.emit(body, header)?;
                self.builder.edge(body_exit, header)?;
                self.bounds.insert(header, bound);
                let after = self.glue("after")?;
                self.builder.edge(header, after)?;
                Ok(after)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::reduce_loops;
    use crate::offsets::GraphTiming;

    fn timing_of(program: &Stmt) -> GraphTiming {
        let compiled = compile(program, 64).unwrap();
        let reduced = reduce_loops(&compiled.cfg, &compiled.loop_bounds).unwrap();
        GraphTiming::analyze(&reduced.cfg).unwrap()
    }

    #[test]
    fn straight_line_timing() {
        let p = Stmt::seq([Stmt::basic("a", 2.0, 3.0), Stmt::basic("b", 5.0, 5.0)]);
        let t = timing_of(&p);
        assert_eq!(t.bcet, 7.0);
        assert_eq!(t.wcet, 8.0);
    }

    #[test]
    fn branch_takes_min_and_max() {
        let p = Stmt::branch(Stmt::basic("fast", 1.0, 2.0), Stmt::basic("slow", 8.0, 9.0));
        let t = timing_of(&p);
        assert_eq!(t.bcet, 1.0);
        assert_eq!(t.wcet, 9.0);
    }

    #[test]
    fn loop_timing_scales_with_bounds() {
        let p = Stmt::bounded_loop(4, Stmt::basic("body", 3.0, 5.0));
        let t = timing_of(&p);
        // Header entries = 4, body runs inside each pass: max 4 x 5 = 20
        // (conservative: the true worst runs the body 3 times plus the
        // exiting header entry).
        assert_eq!(t.wcet, 20.0);
        // The zero-cost header is an exit source, so the reduced best case
        // is 0 — a sound under-approximation (see `compile` docs).
        assert_eq!(t.bcet, 0.0);
    }

    #[test]
    fn nested_structures_compose() {
        // seq(a, if(loop 3x{c} , d), e)
        let p = Stmt::seq([
            Stmt::basic("a", 1.0, 1.0),
            Stmt::branch(
                Stmt::bounded_loop(3, Stmt::basic("c", 2.0, 2.0)),
                Stmt::basic("d", 4.0, 4.0),
            ),
            Stmt::basic("e", 1.0, 1.0),
        ]);
        let compiled = compile(&p, 32).unwrap();
        assert_eq!(compiled.loop_bounds.len(), 1);
        let t = timing_of(&p);
        // Worst: a + max(loop 3x2 = 6, d = 4) + e = 8.
        // Best: a + min(loop >= 0 conservative, d = 4) + e = 2.
        assert_eq!(t.bcet, 1.0 + 0.0 + 1.0);
        assert_eq!(t.wcet, 1.0 + 6.0 + 1.0);
    }

    #[test]
    fn layout_is_linear() {
        let p = Stmt::seq([Stmt::basic("a", 1.0, 1.0), Stmt::basic("b", 1.0, 1.0)]);
        let compiled = compile(&p, 128).unwrap();
        for (i, &(b, base, size)) in compiled.layout.iter().enumerate() {
            assert_eq!(b.index(), i);
            assert_eq!(base, i as u64 * 128);
            assert_eq!(size, 128);
        }
    }

    #[test]
    fn data_accesses_follow_their_blocks() {
        let p = Stmt::seq([
            Stmt::basic("pure", 1.0, 1.0),
            Stmt::basic_accessing("table", 2.0, 2.0, [0x1000, 0x1010]),
            Stmt::bounded_loop(2, Stmt::basic_accessing("scan", 1.0, 1.0, [0x1000])),
        ]);
        let compiled = compile(&p, 64).unwrap();
        assert_eq!(compiled.accesses.len(), compiled.cfg.len());
        let of = |label: &str| {
            let block = compiled
                .cfg
                .blocks()
                .find(|b| b.label.as_deref() == Some(label))
                .unwrap_or_else(|| panic!("no block {label}"));
            compiled.accesses[block.id.index()].clone()
        };
        assert_eq!(of("pure"), Vec::<u64>::new());
        assert_eq!(of("table"), vec![0x1000, 0x1010]);
        assert_eq!(of("scan"), vec![0x1000]);
        // Structural glue never touches data.
        assert_eq!(of("entry"), Vec::<u64>::new());
        assert_eq!(of("header"), Vec::<u64>::new());
    }

    #[test]
    fn labels_are_preserved() {
        let p = Stmt::seq([Stmt::basic("load_table", 1.0, 1.0)]);
        let compiled = compile(&p, 64).unwrap();
        assert!(compiled
            .cfg
            .blocks()
            .any(|b| b.label.as_deref() == Some("load_table")));
    }

    #[test]
    fn malformed_costs_and_bounds_error() {
        assert!(matches!(
            compile(&Stmt::basic("x", 5.0, 1.0), 64),
            Err(CfgError::BadInterval { .. })
        ));
        assert!(matches!(
            compile(&Stmt::loop_between(3, 1, Stmt::basic("b", 1.0, 1.0)), 64),
            Err(CfgError::BadLoopBound { .. })
        ));
    }

    #[test]
    fn loop_starting_program_is_valid() {
        // The synthetic entry protects the "entry has no predecessors"
        // invariant even when the first statement is a loop.
        let p = Stmt::bounded_loop(2, Stmt::basic("spin", 1.0, 1.0));
        let compiled = compile(&p, 64).unwrap();
        assert!(compiled.cfg.predecessors(compiled.cfg.entry()).is_empty());
        let reduced = reduce_loops(&compiled.cfg, &compiled.loop_bounds).unwrap();
        assert!(reduced.cfg.is_acyclic());
    }
}
