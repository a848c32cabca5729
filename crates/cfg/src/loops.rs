//! Natural-loop detection and reduction.
//!
//! The paper's offset analysis (Eqs. 1–3) requires loop-free code, and
//! Section IV extends it to "programs with natural loops" by analysing every
//! loop individually, innermost first, then treating each loop as a single
//! node with known timing when analysing the enclosing region. This module
//! implements exactly that:
//!
//! 1. [`natural_loops`] finds back edges via dominators and builds loop
//!    bodies;
//! 2. [`reduce_loops`] repeatedly collapses an innermost loop into one
//!    super-block whose execution interval is the per-iteration interval
//!    scaled by the user-supplied [`LoopBound`], until the graph is acyclic.
//!
//! The collapsed interval is conservative in both directions (see
//! [`reduce_loops`] for the exact bounds), which keeps the derived execution
//! windows — and therefore the delay function `fi` — safe.

use std::collections::BTreeMap;

use crate::block::{BlockId, ExecInterval};
use crate::error::CfgError;
use crate::graph::{dominates, Cfg, CfgBuilder};
use crate::offsets::StartOffsets;

/// Iteration bounds of one natural loop, keyed by its header block.
///
/// An *iteration* is one entry of the loop header: a loop whose header runs
/// `n` times per visit has `n` iterations (so `n − 1` full header-to-latch
/// passes plus the final header-to-exit pass). With this convention the
/// collapsed interval of [`reduce_loops`] is conservative in both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopBound {
    /// Minimum number of header entries when the loop is reached.
    pub min_iterations: u64,
    /// Maximum number of header entries (must be at least 1).
    pub max_iterations: u64,
}

impl LoopBound {
    /// Creates a validated bound.
    ///
    /// # Errors
    ///
    /// Returns [`CfgError::BadLoopBound`] if `max_iterations` is zero or
    /// `min_iterations > max_iterations`.
    pub fn new(min_iterations: u64, max_iterations: u64) -> Result<Self, CfgError> {
        if max_iterations == 0 || min_iterations > max_iterations {
            return Err(CfgError::BadLoopBound {
                header: BlockId(0),
                min_iterations,
                max_iterations,
            });
        }
        Ok(Self {
            min_iterations,
            max_iterations,
        })
    }

    /// A loop executing exactly `n` times.
    ///
    /// # Errors
    ///
    /// As [`LoopBound::new`] (zero `n` is rejected).
    pub fn exact(n: u64) -> Result<Self, CfgError> {
        Self::new(n, n)
    }
}

/// A natural loop: a header, the latches jumping back to it, and the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header (dominates every body block).
    pub header: BlockId,
    /// Sources of back edges into the header.
    pub latches: Vec<BlockId>,
    /// All blocks of the loop, header included, in ascending id order.
    pub body: Vec<BlockId>,
}

impl NaturalLoop {
    /// Returns `true` if `b` belongs to the loop body (header included).
    #[must_use]
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.binary_search(&b).is_ok()
    }
}

/// Finds all natural loops of `cfg`, merging loops that share a header (the
/// conventional normalisation). Returns loops in ascending header order.
///
/// A cycle with no back edge (no header dominating its latch) is
/// *irreducible* and is not returned here; [`reduce_loops`] reports it.
#[must_use]
pub fn natural_loops(cfg: &Cfg) -> Vec<NaturalLoop> {
    let idom = cfg.immediate_dominators();
    // header -> latches
    let mut latches_by_header: BTreeMap<BlockId, Vec<BlockId>> = BTreeMap::new();
    for (u, v) in cfg.edges() {
        if dominates(&idom, v, u) {
            latches_by_header.entry(v).or_default().push(u);
        }
    }
    latches_by_header
        .into_iter()
        .map(|(header, latches)| {
            // Body: header plus everything that reaches a latch without
            // passing through the header.
            let mut body = vec![header];
            let mut stack: Vec<BlockId> = latches.clone();
            while let Some(u) = stack.pop() {
                if body.contains(&u) {
                    continue;
                }
                body.push(u);
                for &p in cfg.predecessors(u) {
                    if p != header && !body.contains(&p) {
                        stack.push(p);
                    }
                }
            }
            body.sort_unstable();
            NaturalLoop {
                header,
                latches,
                body,
            }
        })
        .collect()
}

/// An acyclic graph produced by [`reduce_loops`], with the provenance of
/// every reduced block.
#[derive(Debug, Clone, PartialEq)]
pub struct ReducedCfg {
    /// The loop-free graph (safe for [`StartOffsets::analyze`]).
    pub cfg: Cfg,
    /// For each reduced block, the original block ids it represents — a
    /// singleton for untouched blocks, the whole loop body for super-blocks.
    pub members: Vec<Vec<BlockId>>,
}

impl ReducedCfg {
    /// The reduced block containing original block `original`.
    #[must_use]
    pub fn reduced_block_of(&self, original: BlockId) -> Option<BlockId> {
        self.members
            .iter()
            .position(|m| m.contains(&original))
            .map(BlockId)
    }
}

/// Collapses every natural loop (innermost first) into a super-block.
///
/// `bounds` maps *original* header block ids to iteration bounds. The
/// super-block replacing a loop gets the execution interval
///
/// ```text
/// min = min_iterations × (earliest finish over latches and exit sources)
/// max = max_iterations × (latest finish over the whole body)
/// ```
///
/// computed on the loop's acyclic body sub-graph — an under-approximation of
/// the loop's best case and an over-approximation of its worst case, which
/// is the safe direction for execution windows on both sides.
///
/// # Errors
///
/// * [`CfgError::MissingLoopBound`] if a detected loop has no bound;
/// * [`CfgError::Irreducible`] if a cycle has no natural-loop header;
/// * [`CfgError::BadLoopBound`] if a bound is malformed.
///
/// # Examples
///
/// ```
/// use std::collections::BTreeMap;
/// use fnpr_cfg::{fixtures, reduce_loops, LoopBound, StartOffsets};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (cfg, [_, header, _, _]) = fixtures::single_loop_cfg()?;
/// let mut bounds = BTreeMap::new();
/// bounds.insert(header, LoopBound::new(1, 10)?);
/// let reduced = reduce_loops(&cfg, &bounds)?;
/// assert!(reduced.cfg.is_acyclic());
/// let offsets = StartOffsets::analyze(&reduced.cfg)?;
/// # let _ = offsets;
/// # Ok(())
/// # }
/// ```
pub fn reduce_loops(
    cfg: &Cfg,
    bounds: &BTreeMap<BlockId, LoopBound>,
) -> Result<ReducedCfg, CfgError> {
    fnpr_obs::counter!("cfg.loops.reductions").incr();
    let mut current = cfg.clone();
    let mut members: Vec<Vec<BlockId>> = (0..cfg.len()).map(|i| vec![BlockId(i)]).collect();
    loop {
        if current.is_acyclic() {
            return Ok(ReducedCfg {
                cfg: current,
                members,
            });
        }
        let loops = natural_loops(&current);
        if loops.is_empty() {
            let witness = current
                .topological_order()
                .err()
                .map(|e| match e {
                    CfgError::Cyclic { witness } => witness,
                    _ => BlockId(0),
                })
                .unwrap_or(BlockId(0));
            return Err(CfgError::Irreducible { witness });
        }
        // Innermost loop: body contains no other loop's header.
        let inner = loops
            .iter()
            .find(|l| {
                loops
                    .iter()
                    .all(|other| other.header == l.header || !l.contains(other.header))
            })
            .expect("a minimal loop always exists");
        // Original header id for the bounds lookup.
        let header_members = &members[inner.header.index()];
        if header_members.len() != 1 {
            return Err(CfgError::Irreducible {
                witness: inner.header,
            });
        }
        let original_header = header_members[0];
        let bound = bounds
            .get(&original_header)
            .copied()
            .ok_or(CfgError::MissingLoopBound {
                header: original_header,
            })?;
        if bound.max_iterations == 0 || bound.min_iterations > bound.max_iterations {
            return Err(CfgError::BadLoopBound {
                header: original_header,
                min_iterations: bound.min_iterations,
                max_iterations: bound.max_iterations,
            });
        }
        let interval = iteration_interval(&current, inner)?
            .repeated(bound.min_iterations, bound.max_iterations);
        let (next, next_members) = collapse(&current, &members, inner, interval)?;
        current = next;
        members = next_members;
    }
}

/// Per-iteration execution interval of a loop, from its acyclic body
/// sub-graph (back edges removed, header as entry).
fn iteration_interval(cfg: &Cfg, l: &NaturalLoop) -> Result<ExecInterval, CfgError> {
    // Map body blocks to dense sub-graph ids, header first.
    let mut order: Vec<BlockId> = vec![l.header];
    order.extend(l.body.iter().copied().filter(|&b| b != l.header));
    let sub_id = |b: BlockId| -> Option<usize> { order.iter().position(|&x| x == b) };
    let mut builder = CfgBuilder::new();
    let mut sub_ids = Vec::with_capacity(order.len());
    for &b in &order {
        sub_ids.push(builder.block(cfg.block(b).exec));
    }
    for &b in &order {
        for &succ in cfg.successors(b) {
            if succ == l.header {
                continue; // back edge
            }
            if let Some(target) = sub_id(succ) {
                let from = sub_ids[sub_id(b).expect("b is in the body")];
                builder.edge(from, sub_ids[target])?;
            }
        }
    }
    // Unreachable body blocks cannot happen: every body block reaches a
    // latch and is reached from the header by definition of natural loops.
    let body_graph = builder.build()?;
    // A cycle left in the body of an innermost loop avoids the header and
    // has no natural header of its own: the region is irreducible.
    let offsets = StartOffsets::analyze(&body_graph).map_err(|e| match e {
        CfgError::Cyclic { witness } => CfgError::Irreducible {
            witness: order[witness.index()],
        },
        other => other,
    })?;
    // Latest finish over the whole body bounds one iteration from above.
    let mut iter_max: f64 = 0.0;
    for i in 0..body_graph.len() {
        iter_max = iter_max.max(offsets.latest_finish(BlockId(i)));
    }
    // Earliest finish over latches and loop-exit sources bounds one
    // iteration (or the final partial iteration) from below.
    let mut iter_min = f64::INFINITY;
    for &b in &l.body {
        let is_latch = l.latches.contains(&b);
        let has_exit_edge = cfg.successors(b).iter().any(|succ| !l.contains(*succ));
        if is_latch || has_exit_edge {
            let i = sub_id(b).expect("body block");
            iter_min = iter_min.min(offsets.earliest_finish(BlockId(i)));
        }
    }
    if iter_min == f64::INFINITY {
        iter_min = 0.0;
    }
    ExecInterval::new(iter_min, iter_max)
}

/// Rebuilds the graph with the loop body replaced by one super-block.
fn collapse(
    cfg: &Cfg,
    members: &[Vec<BlockId>],
    l: &NaturalLoop,
    interval: ExecInterval,
) -> Result<(Cfg, Vec<Vec<BlockId>>), CfgError> {
    let mut builder = CfgBuilder::new();
    let mut new_members: Vec<Vec<BlockId>> = Vec::new();
    // Old id -> new id (body blocks all map to the super-block).
    let mut remap: Vec<Option<BlockId>> = vec![None; cfg.len()];
    let mut super_block: Option<BlockId> = None;
    for old in 0..cfg.len() {
        let old_id = BlockId(old);
        if l.contains(old_id) {
            if super_block.is_none() {
                let label = format!("loop@{}", l.header);
                let id = builder.labeled_block(interval, label);
                let mut merged: Vec<BlockId> = l
                    .body
                    .iter()
                    .flat_map(|b| members[b.index()].iter().copied())
                    .collect();
                merged.sort_unstable();
                new_members.push(merged);
                super_block = Some(id);
            }
            remap[old] = super_block;
        } else {
            let id = builder.block(cfg.block(old_id).exec);
            builder.set_label(id, cfg.block(old_id).label.clone());
            new_members.push(members[old].clone());
            remap[old] = Some(id);
        }
    }
    // Re-add edges, dropping intra-body edges and deduplicating.
    let mut seen: Vec<(BlockId, BlockId)> = Vec::new();
    for (u, v) in cfg.edges() {
        let in_u = l.contains(u);
        let in_v = l.contains(v);
        if in_u && in_v {
            continue;
        }
        let nu = remap[u.index()].expect("mapped");
        let nv = remap[v.index()].expect("mapped");
        if nu == nv || seen.contains(&(nu, nv)) {
            continue;
        }
        seen.push((nu, nv));
        builder.edge(nu, nv)?;
    }
    Ok((builder.build()?, new_members))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::single_loop_cfg;
    use crate::offsets::GraphTiming;

    fn iv(min: f64, max: f64) -> ExecInterval {
        ExecInterval::new(min, max).unwrap()
    }

    #[test]
    fn loop_bound_validation() {
        assert!(LoopBound::new(0, 5).is_ok());
        assert!(LoopBound::new(5, 5).is_ok());
        assert!(LoopBound::new(6, 5).is_err());
        assert!(LoopBound::new(0, 0).is_err());
        assert!(LoopBound::exact(3).is_ok());
        assert!(LoopBound::exact(0).is_err());
    }

    #[test]
    fn detects_single_loop() {
        let (cfg, [_, header, body, _]) = single_loop_cfg().unwrap();
        let loops = natural_loops(&cfg);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].header, header);
        assert_eq!(loops[0].latches, vec![body]);
        assert!(loops[0].contains(header));
        assert!(loops[0].contains(body));
        assert_eq!(loops[0].body.len(), 2);
    }

    #[test]
    fn acyclic_graph_has_no_loops() {
        let cfg = crate::fixtures::figure1_cfg();
        assert!(natural_loops(&cfg).is_empty());
    }

    #[test]
    fn reduces_single_loop_to_expected_interval() {
        let (cfg, [entry, header, _, exit]) = single_loop_cfg().unwrap();
        // header [2,3], body [10,12]; one iteration: header -> body, latest
        // finish = 3 + 12 = 15; earliest finish over latch (body: 2+10=12)
        // and exit source (header: 2): min = 2.
        let mut bounds = BTreeMap::new();
        bounds.insert(header, LoopBound::new(2, 4).unwrap());
        let reduced = reduce_loops(&cfg, &bounds).unwrap();
        assert!(reduced.cfg.is_acyclic());
        assert_eq!(reduced.cfg.len(), 3); // entry, super, exit
        let super_block = reduced.reduced_block_of(header).unwrap();
        let exec = reduced.cfg.block(super_block).exec;
        assert_eq!(exec.min, 4.0); // 2 iterations x 2
        assert_eq!(exec.max, 60.0); // 4 iterations x 15
                                    // Provenance: header and body both map to the super-block.
        assert_eq!(reduced.members[super_block.index()].len(), 2);
        // Entry and exit map to themselves.
        assert_eq!(reduced.reduced_block_of(entry).unwrap(), BlockId(0));
        let _ = exit;
        // Whole-graph timing is finite and uses the collapsed interval.
        let t = GraphTiming::analyze(&reduced.cfg).unwrap();
        assert_eq!(t.bcet, 4.0 + 4.0 + 5.0);
        assert_eq!(t.wcet, 6.0 + 60.0 + 7.0);
    }

    #[test]
    fn missing_bound_is_reported() {
        let (cfg, _) = single_loop_cfg().unwrap();
        let err = reduce_loops(&cfg, &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, CfgError::MissingLoopBound { .. }));
    }

    #[test]
    fn nested_loops_reduce_inner_first() {
        // entry -> h1 -> h2 -> b2 -> h2 (inner), h2 -> t1 -> h1 (outer),
        // h1 -> exit.
        let mut b = CfgBuilder::new();
        let entry = b.block(iv(1.0, 1.0));
        let h1 = b.block(iv(2.0, 2.0));
        let h2 = b.block(iv(3.0, 3.0));
        let b2 = b.block(iv(4.0, 4.0));
        let t1 = b.block(iv(5.0, 5.0));
        let exit = b.block(iv(6.0, 6.0));
        b.edge(entry, h1).unwrap();
        b.edge(h1, h2).unwrap();
        b.edge(h2, b2).unwrap();
        b.edge(b2, h2).unwrap();
        b.edge(h2, t1).unwrap();
        b.edge(t1, h1).unwrap();
        b.edge(h1, exit).unwrap();
        let cfg = b.build().unwrap();
        let loops = natural_loops(&cfg);
        assert_eq!(loops.len(), 2);

        let mut bounds = BTreeMap::new();
        bounds.insert(h1, LoopBound::exact(3).unwrap());
        bounds.insert(h2, LoopBound::exact(5).unwrap());
        let reduced = reduce_loops(&cfg, &bounds).unwrap();
        assert!(reduced.cfg.is_acyclic());
        // entry, outer-loop super-block, exit.
        assert_eq!(reduced.cfg.len(), 3);
        let outer = reduced.reduced_block_of(h1).unwrap();
        assert_eq!(reduced.members[outer.index()].len(), 4); // h1, h2, b2, t1
                                                             // Inner per-iteration: h2 [3,3] + b2 [4,4] -> [7,7]; 5 iterations ->
                                                             // [35,35]. Outer per-iteration: h1 2 + inner 35 + t1 5 = 42; but the
                                                             // outer min path: exit source is h1 (earliest finish 2).
                                                             // Outer: min = 3 x 2 = 6, max = 3 x 42 = 126.
        let exec = reduced.cfg.block(outer).exec;
        assert_eq!(exec.min, 6.0);
        assert_eq!(exec.max, 126.0);
    }

    #[test]
    fn self_loop_reduces() {
        // entry -> spin -> spin (self loop), spin -> exit.
        let mut b = CfgBuilder::new();
        let entry = b.block(iv(1.0, 1.0));
        let spin = b.block(iv(3.0, 4.0));
        let exit = b.block(iv(2.0, 2.0));
        b.edge(entry, spin).unwrap();
        b.edge(spin, spin).unwrap();
        b.edge(spin, exit).unwrap();
        let cfg = b.build().unwrap();
        let loops = natural_loops(&cfg);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].header, spin);
        assert_eq!(loops[0].latches, vec![spin]);
        assert_eq!(loops[0].body, vec![spin]);

        let mut bounds = BTreeMap::new();
        bounds.insert(spin, LoopBound::exact(5).unwrap());
        let reduced = reduce_loops(&cfg, &bounds).unwrap();
        assert!(reduced.cfg.is_acyclic());
        assert_eq!(reduced.cfg.len(), 3);
        let super_block = reduced.reduced_block_of(spin).unwrap();
        let exec = reduced.cfg.block(super_block).exec;
        assert_eq!(exec.min, 15.0); // 5 x 3
        assert_eq!(exec.max, 20.0); // 5 x 4
        let t = GraphTiming::analyze(&reduced.cfg).unwrap();
        assert_eq!(t.wcet, 1.0 + 20.0 + 2.0);
    }

    #[test]
    fn two_sibling_loops_reduce_independently() {
        // entry -> h1 (-> b1 -> h1) -> h2 (-> b2 -> h2) -> exit.
        let mut b = CfgBuilder::new();
        let entry = b.block(iv(1.0, 1.0));
        let h1 = b.block(iv(1.0, 1.0));
        let b1 = b.block(iv(2.0, 2.0));
        let h2 = b.block(iv(1.0, 1.0));
        let b2 = b.block(iv(3.0, 3.0));
        let exit = b.block(iv(1.0, 1.0));
        b.edge(entry, h1).unwrap();
        b.edge(h1, b1).unwrap();
        b.edge(b1, h1).unwrap();
        b.edge(h1, h2).unwrap();
        b.edge(h2, b2).unwrap();
        b.edge(b2, h2).unwrap();
        b.edge(h2, exit).unwrap();
        let cfg = b.build().unwrap();
        assert_eq!(natural_loops(&cfg).len(), 2);
        let mut bounds = BTreeMap::new();
        bounds.insert(h1, LoopBound::exact(2).unwrap());
        bounds.insert(h2, LoopBound::exact(3).unwrap());
        let reduced = reduce_loops(&cfg, &bounds).unwrap();
        assert!(reduced.cfg.is_acyclic());
        assert_eq!(reduced.cfg.len(), 4); // entry, 2 supers, exit
        let t = GraphTiming::analyze(&reduced.cfg).unwrap();
        // Loop 1: 2 x (1+2) = 6; loop 2: 3 x (1+3) = 12; plus entry + exit.
        assert_eq!(t.wcet, 1.0 + 6.0 + 12.0 + 1.0);
    }

    #[test]
    fn irreducible_cycle_is_rejected() {
        // Two blocks jumping into each other's "middle" without a dominating
        // header: entry branches to both x and y; x -> y -> x.
        let mut b = CfgBuilder::new();
        let entry = b.block(iv(1.0, 1.0));
        let x = b.block(iv(1.0, 1.0));
        let y = b.block(iv(1.0, 1.0));
        b.edge(entry, x).unwrap();
        b.edge(entry, y).unwrap();
        b.edge(x, y).unwrap();
        b.edge(y, x).unwrap();
        let cfg = b.build().unwrap();
        assert!(natural_loops(&cfg).is_empty());
        let err = reduce_loops(&cfg, &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, CfgError::Irreducible { .. }));
        // The same region inside the natural loop of `h`, every block
        // bounded: the loop body keeps the x <-> y cycle.
        let mut b = CfgBuilder::new();
        let [entry, h, x, y, exit] = [(); 5].map(|()| b.block(iv(1.0, 1.0)));
        for (from, to) in [
            (entry, h),
            (h, x),
            (h, y),
            (x, y),
            (y, x),
            (y, h),
            (y, exit),
        ] {
            b.edge(from, to).unwrap();
        }
        let cfg = b.build().unwrap();
        let bound = LoopBound::exact(2).unwrap();
        let bounds = (0..cfg.len()).map(|i| (BlockId(i), bound)).collect();
        let err = reduce_loops(&cfg, &bounds).unwrap_err();
        assert!(
            matches!(err, CfgError::Irreducible { witness } if witness == x || witness == y),
            "{err:?}"
        );
    }

    #[test]
    fn reduction_of_acyclic_graph_is_identity_shaped() {
        let cfg = crate::fixtures::figure1_cfg();
        let reduced = reduce_loops(&cfg, &BTreeMap::new()).unwrap();
        assert_eq!(reduced.cfg.len(), cfg.len());
        assert!(reduced.members.iter().all(|m| m.len() == 1));
    }
}
