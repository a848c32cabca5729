//! The control-flow graph container and its builder.

use crate::block::{BasicBlock, BlockId, ExecInterval};
use crate::error::CfgError;

/// A validated control-flow graph.
///
/// Invariants established at [`CfgBuilder::build`] time:
///
/// * non-empty, with block `b0` as the entry;
/// * all edges reference existing blocks, no duplicates;
/// * every block reachable from the entry;
/// * the entry has no predecessors (a synthetic pre-header can always be
///   added by the caller if the source language allows jumps to the start).
///
/// Cyclic graphs are accepted — the offset analysis requires acyclicity and
/// checks it separately, while the loop machinery ([`reduce_loops`](crate::reduce_loops)) reduces
/// natural loops to super-blocks first.
#[derive(Debug, Clone, PartialEq)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
}

impl Cfg {
    /// Number of basic blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` if the graph has no blocks (never true for a built
    /// graph; kept for `len`/`is_empty` pairing).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The entry block id (always `b0`).
    #[must_use]
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Access a block by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Iterates over all blocks in id order.
    pub fn blocks(&self) -> impl Iterator<Item = &BasicBlock> {
        self.blocks.iter()
    }

    /// Successor blocks of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn successors(&self, id: BlockId) -> &[BlockId] {
        &self.succs[id.index()]
    }

    /// Predecessor blocks of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn predecessors(&self, id: BlockId) -> &[BlockId] {
        &self.preds[id.index()]
    }

    /// Blocks with no successors (the graph's exits).
    pub fn exits(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.len())
            .map(BlockId)
            .filter(|&b| self.succs[b.index()].is_empty())
    }

    /// All edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (BlockId, BlockId)> + '_ {
        self.succs
            .iter()
            .enumerate()
            .flat_map(|(from, tos)| tos.iter().map(move |&to| (BlockId(from), to)))
    }

    /// A topological order of the blocks, or the cycle witness.
    ///
    /// # Errors
    ///
    /// Returns [`CfgError::Cyclic`] if the graph has a cycle.
    pub fn topological_order(&self) -> Result<Vec<BlockId>, CfgError> {
        let n = self.len();
        let mut indegree: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: Vec<BlockId> = (0..n)
            .map(BlockId)
            .filter(|b| indegree[b.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(b) = queue.pop() {
            order.push(b);
            for &succ in &self.succs[b.index()] {
                indegree[succ.index()] -= 1;
                if indegree[succ.index()] == 0 {
                    queue.push(succ);
                }
            }
        }
        if order.len() < n {
            let witness = (0..n)
                .map(BlockId)
                .find(|b| indegree[b.index()] > 0)
                .expect("some block has positive indegree in a cycle");
            return Err(CfgError::Cyclic { witness });
        }
        Ok(order)
    }

    /// Returns `true` if the graph has no cycles.
    #[must_use]
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_ok()
    }

    /// Immediate dominators of every block (entry dominated by itself),
    /// computed with the classic iterative data-flow algorithm
    /// (Cooper–Harvey–Kennedy).
    ///
    /// Used by the natural-loop detection; exposed because dominator trees
    /// are generally useful to downstream analyses. Ask [`dominates`] of
    /// the result for any number of block pairs.
    #[must_use]
    pub fn immediate_dominators(&self) -> Vec<BlockId> {
        let n = self.len();
        // Reverse post-order from the entry.
        let rpo = self.reverse_post_order();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i;
        }
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[self.entry().index()] = Some(self.entry());
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &self.preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(current) => intersect(&idom, &rpo_index, p, current),
                    });
                }
                if let Some(d) = new_idom {
                    if idom[b.index()] != Some(d) {
                        idom[b.index()] = Some(d);
                        changed = true;
                    }
                }
            }
        }
        idom.into_iter()
            .map(|d| d.expect("all blocks reachable, so all dominated"))
            .collect()
    }

    /// Reverse post-order starting at the entry.
    #[must_use]
    pub fn reverse_post_order(&self) -> Vec<BlockId> {
        let n = self.len();
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        // Iterative DFS with an explicit stack of (block, next-successor).
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry(), 0)];
        visited[self.entry().index()] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if *next < self.succs[b.index()].len() {
                let succ = self.succs[b.index()][*next];
                *next += 1;
                if !visited[succ.index()] {
                    visited[succ.index()] = true;
                    stack.push((succ, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }
}

/// Returns `true` if `a` dominates `b` (reflexive), walking up `idom`, the
/// [`Cfg::immediate_dominators`] of their graph.
#[must_use]
pub fn dominates(idom: &[BlockId], a: BlockId, b: BlockId) -> bool {
    let mut at = b;
    loop {
        if at == a {
            return true;
        }
        let next = idom[at.index()];
        if next == at {
            return false; // reached the entry
        }
        at = next;
    }
}

/// Dominator-intersection walk used by `immediate_dominators`.
fn intersect(
    idom: &[Option<BlockId>],
    rpo_index: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_index[a.index()] > rpo_index[b.index()] {
            a = idom[a.index()].expect("processed in RPO");
        }
        while rpo_index[b.index()] > rpo_index[a.index()] {
            b = idom[b.index()].expect("processed in RPO");
        }
    }
    a
}

/// Incremental builder for [`Cfg`].
///
/// # Examples
///
/// ```
/// use fnpr_cfg::{CfgBuilder, ExecInterval};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut builder = CfgBuilder::new();
/// let entry = builder.block(ExecInterval::new(15.0, 25.0)?);
/// let left = builder.block(ExecInterval::new(15.0, 25.0)?);
/// let right = builder.block(ExecInterval::new(20.0, 40.0)?);
/// let join = builder.block(ExecInterval::new(20.0, 30.0)?);
/// builder.edge(entry, left)?;
/// builder.edge(entry, right)?;
/// builder.edge(left, join)?;
/// builder.edge(right, join)?;
/// let cfg = builder.build()?;
/// assert_eq!(cfg.len(), 4);
/// assert_eq!(cfg.successors(entry), &[left, right]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CfgBuilder {
    blocks: Vec<BasicBlock>,
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
}

impl CfgBuilder {
    /// Creates an empty builder. The first block added becomes the entry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a block with the given execution interval, returning its id.
    pub fn block(&mut self, exec: ExecInterval) -> BlockId {
        let id = BlockId(self.blocks.len());
        self.blocks.push(BasicBlock::new(id, exec));
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    /// Adds a labelled block.
    pub fn labeled_block(&mut self, exec: ExecInterval, label: impl Into<String>) -> BlockId {
        let id = self.block(exec);
        self.blocks[id.index()].label = Some(label.into());
        id
    }

    /// Sets or clears the label of an existing block.
    ///
    /// # Panics
    ///
    /// Panics if `id` has not been added to this builder.
    pub fn set_label(&mut self, id: BlockId, label: Option<String>) {
        self.blocks[id.index()].label = label;
    }

    /// Adds a directed edge `from -> to`.
    ///
    /// # Errors
    ///
    /// Returns [`CfgError::UnknownBlock`] if either endpoint has not been
    /// added, or [`CfgError::DuplicateEdge`] if the edge already exists.
    pub fn edge(&mut self, from: BlockId, to: BlockId) -> Result<(), CfgError> {
        if from.index() >= self.blocks.len() {
            return Err(CfgError::UnknownBlock { block: from });
        }
        if to.index() >= self.blocks.len() {
            return Err(CfgError::UnknownBlock { block: to });
        }
        if self.succs[from.index()].contains(&to) {
            return Err(CfgError::DuplicateEdge { from, to });
        }
        self.succs[from.index()].push(to);
        self.preds[to.index()].push(from);
        Ok(())
    }

    /// Validates the graph and produces the immutable [`Cfg`].
    ///
    /// # Errors
    ///
    /// * [`CfgError::Empty`] if no blocks were added;
    /// * [`CfgError::EntryHasPredecessors`] if an edge targets block `b0`;
    /// * [`CfgError::Unreachable`] if some block cannot be reached from the
    ///   entry.
    pub fn build(self) -> Result<Cfg, CfgError> {
        if self.blocks.is_empty() {
            return Err(CfgError::Empty);
        }
        let entry = BlockId(0);
        if !self.preds[entry.index()].is_empty() {
            return Err(CfgError::EntryHasPredecessors { entry });
        }
        // Reachability from the entry.
        let n = self.blocks.len();
        let mut visited = vec![false; n];
        let mut stack = vec![entry];
        visited[entry.index()] = true;
        while let Some(b) = stack.pop() {
            for &succ in &self.succs[b.index()] {
                if !visited[succ.index()] {
                    visited[succ.index()] = true;
                    stack.push(succ);
                }
            }
        }
        if let Some(unreached) = visited.iter().position(|&v| !v) {
            return Err(CfgError::Unreachable {
                block: BlockId(unreached),
            });
        }
        Ok(Cfg {
            blocks: self.blocks,
            succs: self.succs,
            preds: self.preds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Cfg {
        let mut b = CfgBuilder::new();
        let e = b.block(ExecInterval::new(1.0, 2.0).unwrap());
        let l = b.block(ExecInterval::new(3.0, 4.0).unwrap());
        let r = b.block(ExecInterval::new(5.0, 6.0).unwrap());
        let j = b.block(ExecInterval::new(7.0, 8.0).unwrap());
        b.edge(e, l).unwrap();
        b.edge(e, r).unwrap();
        b.edge(l, j).unwrap();
        b.edge(r, j).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_valid_graph() {
        let cfg = diamond();
        assert_eq!(cfg.len(), 4);
        assert!(!cfg.is_empty());
        assert_eq!(cfg.entry(), BlockId(0));
        assert_eq!(cfg.successors(BlockId(0)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.predecessors(BlockId(3)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.exits().collect::<Vec<_>>(), vec![BlockId(3)]);
        assert_eq!(cfg.edges().count(), 4);
    }

    #[test]
    fn rejects_empty_and_unreachable() {
        assert!(matches!(CfgBuilder::new().build(), Err(CfgError::Empty)));
        let mut b = CfgBuilder::new();
        let _e = b.block(ExecInterval::exact(1.0).unwrap());
        let _island = b.block(ExecInterval::exact(1.0).unwrap());
        assert!(matches!(
            b.build(),
            Err(CfgError::Unreachable { block: BlockId(1) })
        ));
    }

    #[test]
    fn rejects_bad_edges() {
        let mut b = CfgBuilder::new();
        let e = b.block(ExecInterval::exact(1.0).unwrap());
        assert!(matches!(
            b.edge(e, BlockId(5)),
            Err(CfgError::UnknownBlock { .. })
        ));
        let x = b.block(ExecInterval::exact(1.0).unwrap());
        b.edge(e, x).unwrap();
        assert!(matches!(b.edge(e, x), Err(CfgError::DuplicateEdge { .. })));
    }

    #[test]
    fn rejects_entry_predecessor() {
        let mut b = CfgBuilder::new();
        let e = b.block(ExecInterval::exact(1.0).unwrap());
        let x = b.block(ExecInterval::exact(1.0).unwrap());
        b.edge(e, x).unwrap();
        b.edge(x, e).unwrap();
        assert!(matches!(
            b.build(),
            Err(CfgError::EntryHasPredecessors { .. })
        ));
    }

    #[test]
    fn topological_order_and_acyclicity() {
        let cfg = diamond();
        assert!(cfg.is_acyclic());
        let order = cfg.topological_order().unwrap();
        let pos = |b: BlockId| order.iter().position(|&x| x == b).unwrap();
        for (from, to) in cfg.edges() {
            assert!(pos(from) < pos(to), "{from} before {to}");
        }
    }

    #[test]
    fn cycle_detection() {
        let mut b = CfgBuilder::new();
        let e = b.block(ExecInterval::exact(1.0).unwrap());
        let x = b.block(ExecInterval::exact(1.0).unwrap());
        let y = b.block(ExecInterval::exact(1.0).unwrap());
        b.edge(e, x).unwrap();
        b.edge(x, y).unwrap();
        b.edge(y, x).unwrap();
        let cfg = b.build().unwrap();
        assert!(!cfg.is_acyclic());
        assert!(matches!(
            cfg.topological_order(),
            Err(CfgError::Cyclic { .. })
        ));
    }

    #[test]
    fn dominators_of_diamond() {
        let cfg = diamond();
        let idom = cfg.immediate_dominators();
        assert_eq!(idom[0], BlockId(0));
        assert_eq!(idom[1], BlockId(0));
        assert_eq!(idom[2], BlockId(0));
        assert_eq!(idom[3], BlockId(0)); // join dominated by entry, not by 1/2
        assert!(dominates(&idom, BlockId(0), BlockId(3)));
        assert!(!dominates(&idom, BlockId(1), BlockId(3)));
        assert!(dominates(&idom, BlockId(3), BlockId(3)));
    }

    #[test]
    fn dominators_of_loop() {
        // entry -> header -> body -> header (back edge), header -> exit.
        let mut b = CfgBuilder::new();
        let e = b.block(ExecInterval::exact(1.0).unwrap());
        let h = b.block(ExecInterval::exact(1.0).unwrap());
        let body = b.block(ExecInterval::exact(1.0).unwrap());
        let x = b.block(ExecInterval::exact(1.0).unwrap());
        b.edge(e, h).unwrap();
        b.edge(h, body).unwrap();
        b.edge(body, h).unwrap();
        b.edge(h, x).unwrap();
        let cfg = b.build().unwrap();
        let idom = cfg.immediate_dominators();
        assert_eq!(idom[h.index()], e);
        assert_eq!(idom[body.index()], h);
        assert_eq!(idom[x.index()], h);
        assert!(dominates(&idom, h, body));
        assert!(!dominates(&idom, body, x));
    }

    #[test]
    fn reverse_post_order_starts_at_entry() {
        let cfg = diamond();
        let rpo = cfg.reverse_post_order();
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(rpo.len(), 4);
        assert_eq!(*rpo.last().unwrap(), BlockId(3));
    }
}
