//! A concrete (executable) cache model for validating the static CRPD
//! bounds: simulate a real path through the task with and without a
//! preemption and count the *extra* misses the preemption caused. Soundness
//! of [`CrpdAnalysis`] means the extra reload bill never exceeds the static
//! per-block bound — exercised by unit and property tests.
//!
//! [`CrpdAnalysis`]: fnpr_cache::CrpdAnalysis

use fnpr_cache::{AccessMap, CacheConfig, EcbSet};
use fnpr_cfg::{BlockId, Cfg};

/// An executable set-associative LRU cache (direct-mapped when `A = 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcreteCache {
    config_sets: usize,
    config_ways: usize,
    line_bytes: u64,
    /// Per set: resident memory blocks, most recently used first.
    sets: Vec<Vec<u64>>,
}

impl ConcreteCache {
    /// An empty (cold) cache with the given geometry.
    #[must_use]
    pub fn new(config: &CacheConfig) -> Self {
        Self {
            config_sets: config.sets(),
            config_ways: config.associativity(),
            line_bytes: config.line_bytes(),
            sets: vec![Vec::new(); config.sets()],
        }
    }

    /// Performs one access; returns `true` on a hit.
    pub fn access(&mut self, address: u64) -> bool {
        let block = address / self.line_bytes;
        let set = (block % self.config_sets as u64) as usize;
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&m| m == block) {
            let hit = ways.remove(pos);
            ways.insert(0, hit);
            true
        } else {
            ways.insert(0, block);
            ways.truncate(self.config_ways);
            false
        }
    }

    /// Worst-case preemption damage: clears every set the preempter may
    /// touch.
    pub fn evict_sets(&mut self, ecb: &EcbSet) {
        for s in ecb.iter() {
            if s < self.sets.len() {
                self.sets[s].clear();
            }
        }
    }

    /// Simulates a preempting task running to completion (all its accesses,
    /// in block order) — a *realistic* (rather than worst-case) preemption.
    pub fn run_preempter(&mut self, accesses: &AccessMap) {
        for (_, addrs) in accesses.iter() {
            for &a in addrs {
                self.access(a);
            }
        }
    }

    /// Current residents of a set, most recently used first.
    #[must_use]
    pub fn contents(&self, set: usize) -> &[u64] {
        &self.sets[set]
    }

    /// Empties the whole cache.
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }
}

/// How a preemption damages the cache in [`preemption_cost_on_path`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreemptionDamage {
    /// Clear every set in the ECB (worst case).
    EvictSets(EcbSet),
    /// Run a concrete preempter's accesses through the cache (realistic).
    RunTask(AccessMap),
}

/// Result of one concrete preemption experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreemptionCost {
    /// Misses along the path without any preemption.
    pub baseline_misses: u64,
    /// Misses along the same path when preempted.
    pub preempted_misses: u64,
}

impl PreemptionCost {
    /// The misses attributable to the preemption (saturating: a preemption
    /// can accidentally *help* in pathological non-LRU cases; LRU never
    /// benefits, which the property tests confirm).
    #[must_use]
    pub fn extra_misses(&self) -> u64 {
        self.preempted_misses.saturating_sub(self.baseline_misses)
    }
}

/// Runs a concrete path through the task twice — cold-start, with and
/// without a preemption before executing `path[preempt_before]` — and
/// reports the miss counts.
///
/// The preemption point corresponds to the *entry* of block
/// `path[preempt_before]`, so the static bound to compare against is
/// `CrpdAnalysis::crpd*(path[preempt_before], ...)` (whose per-block window
/// covers the block entry).
///
/// # Panics
///
/// Panics if `path` is empty, `preempt_before >= path.len()`, or a path
/// block is outside the graph. Intended for tests and experiment harnesses
/// where paths are generated from the graph itself.
#[must_use]
pub fn preemption_cost_on_path(
    cfg: &Cfg,
    accesses: &AccessMap,
    config: &CacheConfig,
    path: &[BlockId],
    preempt_before: usize,
    damage: &PreemptionDamage,
) -> PreemptionCost {
    assert!(!path.is_empty(), "path must be non-empty");
    assert!(preempt_before < path.len(), "preemption point out of range");
    for &b in path {
        assert!(b.index() < cfg.len(), "path block outside graph");
    }
    let run = |preempt: bool| -> u64 {
        let mut cache = ConcreteCache::new(config);
        let mut misses = 0u64;
        for (k, &b) in path.iter().enumerate() {
            if preempt && k == preempt_before {
                match damage {
                    PreemptionDamage::EvictSets(ecb) => cache.evict_sets(ecb),
                    PreemptionDamage::RunTask(task) => cache.run_preempter(task),
                }
            }
            for &a in accesses.of(b) {
                if !cache.access(a) {
                    misses += 1;
                }
            }
        }
        misses
    };
    PreemptionCost {
        baseline_misses: run(false),
        preempted_misses: run(true),
    }
}

/// Enumerates up to `limit` entry-to-exit paths of an acyclic graph (DFS
/// order) — the workload generator for concrete validation.
#[must_use]
pub fn enumerate_paths(cfg: &Cfg, limit: usize) -> Vec<Vec<BlockId>> {
    let mut paths = Vec::new();
    let mut stack = vec![(vec![cfg.entry()], cfg.entry())];
    while let Some((path, at)) = stack.pop() {
        if paths.len() >= limit {
            break;
        }
        let succs = cfg.successors(at);
        if succs.is_empty() {
            paths.push(path);
            continue;
        }
        for &succ in succs {
            let mut next = path.clone();
            next.push(succ);
            stack.push((next, succ));
        }
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnpr_cache::CrpdAnalysis;
    use fnpr_cfg::{CfgBuilder, ExecInterval};

    fn iv() -> ExecInterval {
        ExecInterval::new(1.0, 1.0).unwrap()
    }

    #[test]
    fn lru_semantics() {
        let config = CacheConfig::new(1, 2, 16, 10.0).unwrap();
        let mut cache = ConcreteCache::new(&config);
        assert!(!cache.access(0)); // miss, [0]
        assert!(!cache.access(16)); // miss, [1,0]
        assert!(cache.access(0)); // hit, [0,1]
        assert!(!cache.access(32)); // miss, evicts LRU=1: [2,0]
        assert!(cache.access(0)); // hit, [0,2]
        assert!(!cache.access(16)); // miss again (was evicted), [1,0]
        assert_eq!(cache.contents(0), &[1, 0]);
    }

    #[test]
    fn direct_mapped_replaces() {
        let config = CacheConfig::new(2, 1, 16, 10.0).unwrap();
        let mut cache = ConcreteCache::new(&config);
        assert!(!cache.access(0)); // line 0, set 0
        assert!(!cache.access(32)); // line 2, set 0: replaces
        assert!(!cache.access(0)); // miss again
        assert!(cache.access(0));
        cache.flush();
        assert!(!cache.access(0));
    }

    #[test]
    fn evict_sets_only_touches_ecb() {
        let config = CacheConfig::new(4, 1, 16, 10.0).unwrap();
        let mut cache = ConcreteCache::new(&config);
        cache.access(0); // set 0
        cache.access(16); // set 1
        cache.evict_sets(&EcbSet::from_sets([0]));
        assert!(cache.contents(0).is_empty());
        assert_eq!(cache.contents(1), &[1]);
    }

    #[test]
    fn extra_misses_bounded_by_static_crpd() {
        // load -> compute -> reuse; preempt before each block; the concrete
        // reload bill never exceeds the static CRPD of that block.
        let mut b = CfgBuilder::new();
        let load = b.block(iv());
        let compute = b.block(iv());
        let reuse = b.block(iv());
        b.edge(load, compute).unwrap();
        b.edge(compute, reuse).unwrap();
        let cfg = b.build().unwrap();
        let config = CacheConfig::new(8, 1, 16, 10.0).unwrap();
        let mut acc = AccessMap::new();
        acc.set(load, vec![0, 16, 32]);
        acc.set(compute, vec![48]);
        acc.set(reuse, vec![0, 16, 32]);
        let crpd = CrpdAnalysis::analyze(&cfg, &acc, &config).unwrap();
        let path = [load, compute, reuse];
        for k in 0..path.len() {
            let cost = preemption_cost_on_path(
                &cfg,
                &acc,
                &config,
                &path,
                k,
                &PreemptionDamage::EvictSets(EcbSet::full(&config)),
            );
            let bound = crpd.crpd(path[k]);
            assert!(
                cost.extra_misses() as f64 * config.reload_cost() <= bound,
                "preempt before {:?}: {} reloads > bound {}",
                path[k],
                cost.extra_misses(),
                bound
            );
        }
        // Preempting before `compute` really costs something: lines 0,1,2
        // are cached and will be reused.
        let cost = preemption_cost_on_path(
            &cfg,
            &acc,
            &config,
            &path,
            1,
            &PreemptionDamage::EvictSets(EcbSet::full(&config)),
        );
        assert_eq!(cost.extra_misses(), 3);
    }

    #[test]
    fn realistic_preempter_damage() {
        let mut b = CfgBuilder::new();
        let load = b.block(iv());
        let reuse = b.block(iv());
        b.edge(load, reuse).unwrap();
        let cfg = b.build().unwrap();
        let config = CacheConfig::new(4, 1, 16, 10.0).unwrap();
        let mut acc = AccessMap::new();
        acc.set(load, vec![0, 16]); // sets 0, 1
        acc.set(reuse, vec![0, 16]);
        // Preempter touching only set 0.
        let mut preempter = AccessMap::new();
        preempter.set(BlockId(0), vec![64]); // line 4, set 0
        let cost = preemption_cost_on_path(
            &cfg,
            &acc,
            &config,
            &[load, reuse],
            1,
            &PreemptionDamage::RunTask(preempter.clone()),
        );
        assert_eq!(cost.extra_misses(), 1); // only line 0 lost
        let crpd = CrpdAnalysis::analyze(&cfg, &acc, &config).unwrap();
        let ecb = EcbSet::of_task(&preempter, &config);
        assert!(cost.extra_misses() as f64 * config.reload_cost() <= crpd.crpd_against(load, &ecb));
    }

    #[test]
    fn path_enumeration() {
        let mut b = CfgBuilder::new();
        let e = b.block(iv());
        let l = b.block(iv());
        let r = b.block(iv());
        let j = b.block(iv());
        b.edge(e, l).unwrap();
        b.edge(e, r).unwrap();
        b.edge(l, j).unwrap();
        b.edge(r, j).unwrap();
        let cfg = b.build().unwrap();
        let paths = enumerate_paths(&cfg, 10);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.first(), Some(&e));
            assert_eq!(p.last(), Some(&j));
        }
        assert_eq!(enumerate_paths(&cfg, 1).len(), 1);
    }
}
