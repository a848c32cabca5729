//! Earliest/latest start-offset analysis (Eqs. 1–3 of the paper).
//!
//! For a loop-free graph, every basic block `b` gets
//!
//! ```text
//! smin_entry = smax_entry = 0
//! smin_b = min over predecessors x of (smin_x + emin_x)
//! smax_b = max over predecessors x of (smax_x + emax_x)
//! ```
//!
//! computed in one topological traversal. The *execution window* of `b` —
//! the progress interval during which `b` might be executing when the task
//! runs in isolation — is `[smin_b, smax_b + emax_b)`.
//!
//! > Note: the paper's closing sentence of Section IV states the window as
//! > `[smin_b, smin_b + emax_b]`, which is inconsistent with its own Figure 1
//! > whenever `smax_b > smin_b` (a block that starts late would be executing
//! > past `smin_b + emax_b`). We use the safe latest-finish variant; the
//! > Figure 1 fixture test pins the published `[smin, smax]` values, which
//! > both readings share.

use crate::block::BlockId;
use crate::error::CfgError;
use crate::graph::Cfg;

/// Result of the start-offset analysis over one acyclic graph.
#[derive(Debug, Clone, PartialEq)]
pub struct StartOffsets {
    smin: Vec<f64>,
    smax: Vec<f64>,
    emax: Vec<f64>,
    emin: Vec<f64>,
}

impl StartOffsets {
    /// Runs the analysis (Eqs. 1–3) on an acyclic graph.
    ///
    /// Graphs with loops must first be reduced with
    /// [`crate::loops::reduce_loops`].
    ///
    /// # Errors
    ///
    /// Returns [`CfgError::Cyclic`] if the graph has a cycle.
    ///
    /// # Examples
    ///
    /// ```
    /// use fnpr_cfg::{CfgBuilder, ExecInterval, StartOffsets};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = CfgBuilder::new();
    /// let e = b.block(ExecInterval::new(15.0, 25.0)?);
    /// let n = b.block(ExecInterval::new(10.0, 20.0)?);
    /// b.edge(e, n)?;
    /// let cfg = b.build()?;
    /// let offsets = StartOffsets::analyze(&cfg)?;
    /// assert_eq!(offsets.earliest_start(n), 15.0);
    /// assert_eq!(offsets.latest_start(n), 25.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn analyze(cfg: &Cfg) -> Result<Self, CfgError> {
        let order = cfg.topological_order()?;
        let n = cfg.len();
        let mut smin = vec![f64::INFINITY; n];
        let mut smax = vec![f64::NEG_INFINITY; n];
        let entry = cfg.entry();
        smin[entry.index()] = 0.0; // Eq. 1
        smax[entry.index()] = 0.0;
        for &b in &order {
            if b != entry {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for &p in cfg.predecessors(b) {
                    let exec = cfg.block(p).exec;
                    lo = lo.min(smin[p.index()] + exec.min); // Eq. 2
                    hi = hi.max(smax[p.index()] + exec.max); // Eq. 3
                }
                smin[b.index()] = lo;
                smax[b.index()] = hi;
            }
        }
        let emin = cfg.blocks().map(|blk| blk.exec.min).collect();
        let emax = cfg.blocks().map(|blk| blk.exec.max).collect();
        Ok(Self {
            smin,
            smax,
            emin,
            emax,
        })
    }

    /// Earliest start offset `smin_b`.
    #[must_use]
    pub fn earliest_start(&self, b: BlockId) -> f64 {
        self.smin[b.index()]
    }

    /// Latest start offset `smax_b`.
    #[must_use]
    pub fn latest_start(&self, b: BlockId) -> f64 {
        self.smax[b.index()]
    }

    /// Latest finish `smax_b + emax_b`.
    #[must_use]
    pub fn latest_finish(&self, b: BlockId) -> f64 {
        self.smax[b.index()] + self.emax[b.index()]
    }

    /// Earliest finish `smin_b + emin_b`.
    #[must_use]
    pub fn earliest_finish(&self, b: BlockId) -> f64 {
        self.smin[b.index()] + self.emin[b.index()]
    }

    /// The execution window `[smin_b, smax_b + emax_b)` of block `b`: the
    /// progress range during which `b` may be executing.
    #[must_use]
    pub fn execution_window(&self, b: BlockId) -> (f64, f64) {
        (self.earliest_start(b), self.latest_finish(b))
    }

    /// Number of blocks covered by the analysis.
    #[must_use]
    pub fn len(&self) -> usize {
        self.smin.len()
    }

    /// True when the analysis covers no blocks (never for a built graph).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.smin.is_empty()
    }
}

/// Whole-graph execution-time bounds derived from the offsets of the exits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphTiming {
    /// Best-case execution time (min over exits of earliest finish).
    pub bcet: f64,
    /// Worst-case execution time (max over exits of latest finish).
    pub wcet: f64,
}

impl GraphTiming {
    /// Computes BCET/WCET of an acyclic graph.
    ///
    /// # Errors
    ///
    /// Returns [`CfgError::Cyclic`] if the graph has a cycle.
    pub fn analyze(cfg: &Cfg) -> Result<Self, CfgError> {
        let offsets = StartOffsets::analyze(cfg)?;
        Ok(Self::from_offsets(cfg, &offsets))
    }

    /// Derives the timing from already-computed offsets.
    #[must_use]
    pub fn from_offsets(cfg: &Cfg, offsets: &StartOffsets) -> Self {
        let mut bcet = f64::INFINITY;
        let mut wcet: f64 = 0.0;
        for exit in cfg.exits() {
            bcet = bcet.min(offsets.earliest_finish(exit));
            wcet = wcet.max(offsets.latest_finish(exit));
        }
        if bcet == f64::INFINITY {
            // No exit (can happen in reduced sub-graphs): fall back to the
            // maximum over all blocks.
            bcet = 0.0;
            for b in 0..cfg.len() {
                wcet = wcet.max(offsets.latest_finish(BlockId(b)));
            }
        }
        GraphTiming { bcet, wcet }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::ExecInterval;
    use crate::graph::CfgBuilder;

    fn iv(min: f64, max: f64) -> ExecInterval {
        ExecInterval::new(min, max).unwrap()
    }

    #[test]
    fn chain_offsets_accumulate() {
        let mut b = CfgBuilder::new();
        let b0 = b.block(iv(10.0, 20.0));
        let b1 = b.block(iv(5.0, 5.0));
        let b2 = b.block(iv(1.0, 2.0));
        b.edge(b0, b1).unwrap();
        b.edge(b1, b2).unwrap();
        let cfg = b.build().unwrap();
        let o = StartOffsets::analyze(&cfg).unwrap();
        assert_eq!(o.earliest_start(b0), 0.0);
        assert_eq!(o.latest_start(b0), 0.0);
        assert_eq!(o.earliest_start(b1), 10.0);
        assert_eq!(o.latest_start(b1), 20.0);
        assert_eq!(o.earliest_start(b2), 15.0);
        assert_eq!(o.latest_start(b2), 25.0);
        assert_eq!(o.execution_window(b2), (15.0, 27.0));
        let t = GraphTiming::analyze(&cfg).unwrap();
        assert_eq!(t.bcet, 16.0);
        assert_eq!(t.wcet, 27.0);
    }

    #[test]
    fn diamond_takes_min_and_max_across_branches() {
        let mut b = CfgBuilder::new();
        let e = b.block(iv(15.0, 25.0));
        let short = b.block(iv(15.0, 25.0));
        let long = b.block(iv(20.0, 40.0));
        let join = b.block(iv(1.0, 1.0));
        b.edge(e, short).unwrap();
        b.edge(e, long).unwrap();
        b.edge(short, join).unwrap();
        b.edge(long, join).unwrap();
        let cfg = b.build().unwrap();
        let o = StartOffsets::analyze(&cfg).unwrap();
        // Eq. 2: min(15+15, 15+20) = 30; Eq. 3: max(25+25, 25+40) = 65.
        assert_eq!(o.earliest_start(join), 30.0);
        assert_eq!(o.latest_start(join), 65.0);
    }

    #[test]
    fn cyclic_graph_is_rejected() {
        let mut b = CfgBuilder::new();
        let e = b.block(iv(1.0, 1.0));
        let x = b.block(iv(1.0, 1.0));
        let y = b.block(iv(1.0, 1.0));
        b.edge(e, x).unwrap();
        b.edge(x, y).unwrap();
        b.edge(y, x).unwrap();
        let cfg = b.build().unwrap();
        assert!(matches!(
            StartOffsets::analyze(&cfg),
            Err(CfgError::Cyclic { .. })
        ));
    }

    #[test]
    fn multi_exit_timing() {
        // entry branches to two exits with different lengths.
        let mut b = CfgBuilder::new();
        let e = b.block(iv(2.0, 3.0));
        let fast = b.block(iv(1.0, 1.0));
        let slow = b.block(iv(50.0, 60.0));
        b.edge(e, fast).unwrap();
        b.edge(e, slow).unwrap();
        let cfg = b.build().unwrap();
        let t = GraphTiming::analyze(&cfg).unwrap();
        assert_eq!(t.bcet, 3.0); // entry min 2 + fast min 1
        assert_eq!(t.wcet, 63.0); // entry max 3 + slow max 60
    }

    #[test]
    fn single_block_graph() {
        let mut b = CfgBuilder::new();
        let only = b.block(iv(7.0, 9.0));
        let cfg = b.build().unwrap();
        let o = StartOffsets::analyze(&cfg).unwrap();
        assert_eq!(o.execution_window(only), (0.0, 9.0));
        assert_eq!(o.len(), 1);
        assert!(!o.is_empty());
        let t = GraphTiming::analyze(&cfg).unwrap();
        assert_eq!(t.bcet, 7.0);
        assert_eq!(t.wcet, 9.0);
    }
}
