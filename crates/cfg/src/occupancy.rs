//! `BB(t)` occupancy queries: which blocks may be executing at progress `t`.
//!
//! Section IV of the paper: knowing every block's execution window, the set
//! `BB(t)` of blocks possibly executing at progress `t` is known, and the
//! preemption-delay function is `fi(t) = max {CRPD_b : b ∈ BB(t)}`.

use crate::block::BlockId;
use crate::error::CfgError;
use crate::graph::Cfg;
use crate::offsets::{GraphTiming, StartOffsets};

/// Precomputed execution windows for every block of one graph, supporting
/// `BB(t)` queries and the window/value export used to build delay curves.
#[derive(Debug, Clone, PartialEq)]
pub struct Occupancy {
    windows: Vec<(f64, f64)>, // per block: [earliest start, latest finish)
    wcet: f64,
}

impl Occupancy {
    /// Builds the occupancy table for an acyclic graph.
    ///
    /// # Errors
    ///
    /// Returns [`CfgError::Cyclic`] if the graph has a cycle (reduce loops
    /// first).
    pub fn analyze(cfg: &Cfg) -> Result<Self, CfgError> {
        fnpr_obs::counter!("cfg.occupancy.analyses").incr();
        let offsets = StartOffsets::analyze(cfg)?;
        Ok(Self::from_offsets(cfg, &offsets))
    }

    /// Builds the table from precomputed offsets.
    #[must_use]
    pub fn from_offsets(cfg: &Cfg, offsets: &StartOffsets) -> Self {
        let windows = (0..cfg.len())
            .map(|b| offsets.execution_window(BlockId(b)))
            .collect();
        let timing = GraphTiming::from_offsets(cfg, offsets);
        Self {
            windows,
            wcet: timing.wcet,
        }
    }

    /// The task's WCET (latest finish over exits) — the domain end of the
    /// derived delay curve.
    #[must_use]
    pub fn wcet(&self) -> f64 {
        self.wcet
    }

    /// The execution window `[start, end)` of a block.
    ///
    /// # Panics
    ///
    /// Panics if `b` does not belong to the analysed graph.
    #[must_use]
    pub fn window(&self, b: BlockId) -> (f64, f64) {
        self.windows[b.index()]
    }

    /// `BB(t)`: ids of all blocks whose execution window contains `t`.
    ///
    /// ```
    /// use fnpr_cfg::{CfgBuilder, ExecInterval, Occupancy};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = CfgBuilder::new();
    /// let first = b.block(ExecInterval::new(10.0, 20.0)?);
    /// let second = b.block(ExecInterval::new(5.0, 5.0)?);
    /// b.edge(first, second)?;
    /// let occ = Occupancy::analyze(&b.build()?)?;
    /// // At progress 12 either block may be running (first if it is slow,
    /// // second if first finished after only 10).
    /// let active = occ.blocks_at(12.0);
    /// assert_eq!(active.len(), 2);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn blocks_at(&self, t: f64) -> Vec<BlockId> {
        self.windows
            .iter()
            .enumerate()
            .filter(|&(_, &(lo, hi))| lo <= t && t < hi)
            .map(|(b, _)| BlockId(b))
            .collect()
    }

    /// Exports `(start, end, value)` triples — one per block — given a
    /// per-block value (e.g. `CRPD_b`); feed these to
    /// `fnpr_core::DelayCurve::from_windows` to obtain `fi`.
    ///
    /// The `value` callback receives each block id; blocks with zero-width
    /// windows (empty blocks) are skipped.
    pub fn value_windows<F>(&self, mut value: F) -> Vec<(f64, f64, f64)>
    where
        F: FnMut(BlockId) -> f64,
    {
        self.windows
            .iter()
            .enumerate()
            .filter(|&(_, &(lo, hi))| hi > lo)
            .map(|(b, &(lo, hi))| (lo, hi, value(BlockId(b))))
            .collect()
    }

    /// All progress points where `BB(t)` changes (window starts and ends),
    /// sorted and deduplicated. Between consecutive breakpoints the active
    /// set — and hence any `max`-composed step function — is constant.
    #[must_use]
    pub fn breakpoints(&self) -> Vec<f64> {
        let mut points: Vec<f64> = self.windows.iter().flat_map(|&(lo, hi)| [lo, hi]).collect();
        points.sort_by(f64::total_cmp);
        points.dedup();
        points
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

    /// entry [10,20] -> {short [15,25] | long [20,40]} -> join [20,30]
    fn sample() -> (Cfg, Vec<BlockId>) {
        let mut b = CfgBuilder::new();
        let e = b.block(iv(10.0, 20.0));
        let s = b.block(iv(15.0, 25.0));
        let l = b.block(iv(20.0, 40.0));
        let j = b.block(iv(20.0, 30.0));
        b.edge(e, s).unwrap();
        b.edge(e, l).unwrap();
        b.edge(s, j).unwrap();
        b.edge(l, j).unwrap();
        (b.build().unwrap(), vec![e, s, l, j])
    }

    #[test]
    fn windows_match_offsets() {
        let (cfg, ids) = sample();
        let occ = Occupancy::analyze(&cfg).unwrap();
        assert_eq!(occ.window(ids[0]), (0.0, 20.0));
        assert_eq!(occ.window(ids[1]), (10.0, 45.0)); // smax 20 + emax 25
        assert_eq!(occ.window(ids[2]), (10.0, 60.0));
        // join: smin = min(10+15, 10+20) = 25; smax = max(20+25, 20+40) = 60.
        assert_eq!(occ.window(ids[3]), (25.0, 90.0));
        assert_eq!(occ.wcet(), 90.0);
    }

    #[test]
    fn blocks_at_respects_half_open_windows() {
        let (cfg, ids) = sample();
        let occ = Occupancy::analyze(&cfg).unwrap();
        assert_eq!(occ.blocks_at(0.0), vec![ids[0]]);
        assert_eq!(occ.blocks_at(5.0), vec![ids[0]]);
        // 10.0: entry may still run, both branches may have started.
        assert_eq!(occ.blocks_at(10.0), vec![ids[0], ids[1], ids[2]]);
        // 20.0: entry's window [0,20) is over.
        assert!(!occ.blocks_at(20.0).contains(&ids[0]));
        // 25.0: join becomes possible, branches still possible.
        let at25 = occ.blocks_at(25.0);
        assert!(at25.contains(&ids[1]) && at25.contains(&ids[2]) && at25.contains(&ids[3]));
        // Past every window.
        assert!(occ.blocks_at(90.0).is_empty());
    }

    #[test]
    fn value_windows_exports_all_blocks() {
        let (cfg, ids) = sample();
        let occ = Occupancy::analyze(&cfg).unwrap();
        let windows = occ.value_windows(|b| b.index() as f64);
        assert_eq!(windows.len(), 4);
        assert_eq!(windows[0], (0.0, 20.0, 0.0));
        assert_eq!(windows[3], (25.0, 90.0, 3.0));
        let _ = ids;
    }

    #[test]
    fn breakpoints_are_sorted_unique() {
        let (cfg, _) = sample();
        let occ = Occupancy::analyze(&cfg).unwrap();
        let bps = occ.breakpoints();
        assert!(bps.windows(2).all(|w| w[0] < w[1]));
        assert!(bps.contains(&0.0));
        assert!(bps.contains(&90.0));
    }
}
