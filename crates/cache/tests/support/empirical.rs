//! Measurement-based CRPD estimation — the empirical counterpart of the
//! static [`CrpdAnalysis`].
//!
//! For every basic block, the estimator replays concrete entry-to-exit
//! paths on the executable cache, injects a worst-case (or per-preempter)
//! eviction at the block's entry, and records the largest observed reload
//! bill. The result *lower-bounds* the true worst case (only enumerated
//! paths are observed) while the static analysis *upper-bounds* it, so
//!
//! ```text
//! empirical_crpd(b) ≤ true worst case ≤ static crpd(b)
//! ```
//!
//! making the pair a self-checking bracket: the property tests assert the
//! inequality on random workloads, and the gap measures the static
//! analysis' pessimism (mostly the "whole block charged" granularity of
//! [3]).
//!
//! [`CrpdAnalysis`]: fnpr_cache::CrpdAnalysis

use fnpr_cache::{AccessMap, CacheConfig};
use fnpr_cfg::{BlockId, Cfg};

use crate::concrete::{enumerate_paths, preemption_cost_on_path, PreemptionDamage};

/// Empirically observed per-block preemption costs.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCrpd {
    /// Worst observed reload bill per block (time units), index = block id.
    pub per_block: Vec<f64>,
    /// Number of paths replayed.
    pub paths: usize,
}

impl EmpiricalCrpd {
    /// Worst observed cost for one block.
    ///
    /// # Panics
    ///
    /// Panics if `b` is outside the measured graph.
    #[must_use]
    pub fn crpd(&self, b: BlockId) -> f64 {
        self.per_block[b.index()]
    }

    /// The largest observed cost over all blocks.
    #[must_use]
    pub fn max_crpd(&self) -> f64 {
        self.per_block.iter().copied().fold(0.0, f64::max)
    }
}

/// Replays up to `max_paths` acyclic paths, preempting before every block
/// occurrence with the given damage, and records the worst reload bill per
/// block.
///
/// Blocks not on any enumerated path keep cost `0`. For cyclic graphs,
/// enumerate paths on the loop-reduced graph or supply representative
/// unrolled paths via [`empirical_crpd_on_paths`].
#[must_use]
pub fn empirical_crpd(
    cfg: &Cfg,
    accesses: &AccessMap,
    config: &CacheConfig,
    damage: &PreemptionDamage,
    max_paths: usize,
) -> EmpiricalCrpd {
    let paths = enumerate_paths(cfg, max_paths);
    empirical_crpd_on_paths(cfg, accesses, config, damage, &paths)
}

/// [`empirical_crpd`] over caller-supplied paths (e.g. unrolled loops).
///
/// # Panics
///
/// Panics if a path references a block outside `cfg` (malformed input).
#[must_use]
pub fn empirical_crpd_on_paths(
    cfg: &Cfg,
    accesses: &AccessMap,
    config: &CacheConfig,
    damage: &PreemptionDamage,
    paths: &[Vec<BlockId>],
) -> EmpiricalCrpd {
    let mut per_block = vec![0.0f64; cfg.len()];
    for path in paths {
        for k in 0..path.len() {
            let cost = preemption_cost_on_path(cfg, accesses, config, path, k, damage);
            let bill = cost.extra_misses() as f64 * config.reload_cost();
            let b = path[k].index();
            if bill > per_block[b] {
                per_block[b] = bill;
            }
        }
    }
    EmpiricalCrpd {
        per_block,
        paths: paths.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnpr_cache::{CrpdAnalysis, EcbSet};
    use fnpr_cfg::{CfgBuilder, ExecInterval};

    fn iv() -> ExecInterval {
        ExecInterval::new(1.0, 1.0).unwrap()
    }

    /// Diamond with a shared working set: entry loads, both arms diverge,
    /// join reuses.
    fn workload() -> (Cfg, AccessMap, CacheConfig) {
        let mut b = CfgBuilder::new();
        let entry = b.block(iv());
        let left = b.block(iv());
        let right = b.block(iv());
        let join = b.block(iv());
        b.edge(entry, left).unwrap();
        b.edge(entry, right).unwrap();
        b.edge(left, join).unwrap();
        b.edge(right, join).unwrap();
        let cfg = b.build().unwrap();
        let config = CacheConfig::new(8, 1, 16, 10.0).unwrap();
        let mut acc = AccessMap::new();
        acc.set(entry, vec![0, 16]);
        acc.set(left, vec![32]);
        acc.set(right, vec![48, 64]);
        acc.set(join, vec![0, 16]);
        (cfg, acc, config)
    }

    #[test]
    fn empirical_bracketed_by_static() {
        let (cfg, acc, config) = workload();
        let static_bound = CrpdAnalysis::analyze(&cfg, &acc, &config).unwrap();
        let damage = PreemptionDamage::EvictSets(EcbSet::full(&config));
        let empirical = empirical_crpd(&cfg, &acc, &config, &damage, 16);
        assert_eq!(empirical.paths, 2);
        for b in 0..cfg.len() {
            let block = BlockId(b);
            assert!(
                empirical.crpd(block) <= static_bound.crpd(block) + 1e-9,
                "block {block}: empirical {} > static {}",
                empirical.crpd(block),
                static_bound.crpd(block)
            );
        }
        assert!(empirical.max_crpd() <= static_bound.max_crpd() + 1e-9);
    }

    #[test]
    fn observes_real_costs_at_live_points() {
        let (cfg, acc, config) = workload();
        let damage = PreemptionDamage::EvictSets(EcbSet::full(&config));
        let empirical = empirical_crpd(&cfg, &acc, &config, &damage, 16);
        // Preempting before the arms loses the two entry lines that the
        // join will reuse: 2 reloads = 20.
        assert_eq!(empirical.crpd(BlockId(1)), 20.0);
        assert_eq!(empirical.crpd(BlockId(2)), 20.0);
        // Preempting before the join also loses them.
        assert_eq!(empirical.crpd(BlockId(3)), 20.0);
        // Before the entry the cache is cold: nothing to lose.
        assert_eq!(empirical.crpd(BlockId(0)), 0.0);
    }

    #[test]
    fn partial_damage_observes_less() {
        let (cfg, acc, config) = workload();
        let full = empirical_crpd(
            &cfg,
            &acc,
            &config,
            &PreemptionDamage::EvictSets(EcbSet::full(&config)),
            16,
        );
        // Lines 0 and 16 sit in sets 0 and 1; damage only set 0.
        let partial = empirical_crpd(
            &cfg,
            &acc,
            &config,
            &PreemptionDamage::EvictSets(EcbSet::from_sets([0])),
            16,
        );
        for b in 0..cfg.len() {
            assert!(partial.per_block[b] <= full.per_block[b] + 1e-9);
        }
        assert_eq!(partial.crpd(BlockId(3)), 10.0); // only line 0 lost
    }

    #[test]
    fn no_paths_means_zero_costs() {
        let (cfg, acc, config) = workload();
        let damage = PreemptionDamage::EvictSets(EcbSet::full(&config));
        let empirical = empirical_crpd_on_paths(&cfg, &acc, &config, &damage, &[]);
        assert_eq!(empirical.max_crpd(), 0.0);
        assert_eq!(empirical.paths, 0);
    }
}
