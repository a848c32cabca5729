//! Per-basic-block cache-related preemption delay bounds.
//!
//! `CRPD_b = reload_cost × Σ_s min(A, |UCB_b,s ∩ damaged(s)|)` — the worst
//! reload bill if the task is preempted anywhere in block `b` and the
//! preempter damages the given cache sets. With an unknown preempter every
//! set is damaged (the conservative default used by the paper's pipeline).

use fnpr_cfg::{BlockId, Cfg};

use crate::access::AccessMap;
use crate::config::CacheConfig;
use crate::ecb::EcbSet;
use crate::error::CacheError;
use crate::ucb::UcbAnalysis;

/// CRPD bounds for every basic block of one task.
#[derive(Debug, Clone, PartialEq)]
pub struct CrpdAnalysis {
    ucb: UcbAnalysis,
    blocks: usize,
}

impl CrpdAnalysis {
    /// Runs the UCB dataflow and wraps it for CRPD queries.
    ///
    /// # Errors
    ///
    /// As [`UcbAnalysis::analyze`].
    ///
    /// # Examples
    ///
    /// ```
    /// use fnpr_cache::{AccessMap, CacheConfig, CrpdAnalysis};
    /// use fnpr_cfg::{CfgBuilder, ExecInterval};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = CfgBuilder::new();
    /// let load = b.block(ExecInterval::new(10.0, 12.0)?);
    /// let compute = b.block(ExecInterval::new(50.0, 80.0)?);
    /// b.edge(load, compute)?;
    /// let cfg = b.build()?;
    ///
    /// let config = CacheConfig::new(8, 1, 16, 10.0)?;
    /// let mut acc = AccessMap::new();
    /// acc.set(load, vec![0, 16, 32]);      // build the working set
    /// acc.set(compute, vec![0, 16, 32]);   // reuse it
    /// let crpd = CrpdAnalysis::analyze(&cfg, &acc, &config)?;
    /// // Losing all three cached lines costs 3 reloads.
    /// assert_eq!(crpd.crpd(load), 30.0);
    /// assert_eq!(crpd.crpd(compute), 30.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn analyze(
        cfg: &Cfg,
        accesses: &AccessMap,
        config: &CacheConfig,
    ) -> Result<Self, CacheError> {
        fnpr_obs::counter!("cache.crpd.analyses").incr();
        let ucb = UcbAnalysis::analyze(cfg, accesses, config)?;
        Ok(Self {
            ucb,
            blocks: cfg.len(),
        })
    }

    /// CRPD of block `b` against an unknown preempter (full cache damage).
    #[must_use]
    pub fn crpd(&self, b: BlockId) -> f64 {
        self.ucb.ucb_count(b) as f64 * self.ucb.config().reload_cost()
    }

    /// CRPD of block `b` against a preempter with the given evicting set.
    #[must_use]
    pub fn crpd_against(&self, b: BlockId, ecb: &EcbSet) -> f64 {
        let config = self.ucb.config();
        let damage: usize = self
            .ucb
            .set_counts(b)
            .iter()
            .filter(|&&(s, _)| ecb.contains(s))
            .map(|&(_, count)| count.min(config.associativity()))
            .sum();
        damage as f64 * config.reload_cost()
    }

    /// CRPD of every block (index = block id), full damage.
    #[must_use]
    pub fn per_block(&self) -> Vec<f64> {
        (0..self.blocks).map(|b| self.crpd(BlockId(b))).collect()
    }

    /// The task's maximum CRPD over all blocks — the `max fi` figure the
    /// Eq. 4 baseline consumes.
    #[must_use]
    pub fn max_crpd(&self) -> f64 {
        (0..self.blocks)
            .map(|b| self.crpd(BlockId(b)))
            .fold(0.0, f64::max)
    }

    /// The underlying useful-cache-block analysis.
    #[must_use]
    pub fn ucb(&self) -> &UcbAnalysis {
        &self.ucb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnpr_cfg::{CfgBuilder, ExecInterval};

    fn iv() -> ExecInterval {
        ExecInterval::new(1.0, 1.0).unwrap()
    }

    /// load -> compute -> drain where compute reuses half the working set.
    fn pipeline() -> (Cfg, [BlockId; 3]) {
        let mut b = CfgBuilder::new();
        let load = b.block(iv());
        let compute = b.block(iv());
        let drain = b.block(iv());
        b.edge(load, compute).unwrap();
        b.edge(compute, drain).unwrap();
        (b.build().unwrap(), [load, compute, drain])
    }

    #[test]
    fn crpd_counts_reloads() {
        let (cfg, [load, compute, drain]) = pipeline();
        let config = CacheConfig::new(8, 1, 16, 10.0).unwrap();
        let mut acc = AccessMap::new();
        acc.set(load, vec![0, 16, 32, 48]); // lines 0..4
        acc.set(compute, vec![0, 16]); // reuses lines 0, 1
        acc.set(drain, vec![64]); // line 4
        let crpd = CrpdAnalysis::analyze(&cfg, &acc, &config).unwrap();
        // During load: lines 0,1 useful (reused later); lines 2,3 dead after
        // the block... but in-block conservatism counts all four.
        assert_eq!(crpd.crpd(load), 40.0);
        // During compute: its own two lines (touched, reused in-block
        // conservatism) plus line 4? Not yet loaded. 2 reloads.
        assert_eq!(crpd.crpd(compute), 20.0);
        assert_eq!(crpd.crpd(drain), 10.0);
        assert_eq!(crpd.max_crpd(), 40.0);
        assert_eq!(crpd.per_block(), vec![40.0, 20.0, 10.0]);
    }

    #[test]
    fn crpd_against_partial_ecb() {
        let (cfg, [load, compute, _]) = pipeline();
        let config = CacheConfig::new(8, 1, 16, 10.0).unwrap();
        let mut acc = AccessMap::new();
        acc.set(load, vec![0, 16]); // sets 0, 1
        acc.set(compute, vec![0, 16]);
        let crpd = CrpdAnalysis::analyze(&cfg, &acc, &config).unwrap();
        assert_eq!(crpd.crpd(load), 20.0);
        // Preempter only touching set 0: one reload.
        assert_eq!(crpd.crpd_against(load, &EcbSet::from_sets([0])), 10.0);
        // Preempter touching untouched sets: free.
        assert_eq!(crpd.crpd_against(load, &EcbSet::from_sets([5, 6])), 0.0);
        // Full ECB equals the unknown-preempter default.
        assert_eq!(
            crpd.crpd_against(load, &EcbSet::full(&config)),
            crpd.crpd(load)
        );
    }

    #[test]
    fn zero_reload_cost_gives_zero_crpd() {
        let (cfg, [load, compute, _]) = pipeline();
        let config = CacheConfig::new(8, 1, 16, 0.0).unwrap();
        let mut acc = AccessMap::new();
        acc.set(load, vec![0]);
        acc.set(compute, vec![0]);
        let crpd = CrpdAnalysis::analyze(&cfg, &acc, &config).unwrap();
        assert_eq!(crpd.max_crpd(), 0.0);
    }
}
