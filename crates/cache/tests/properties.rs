//! Property-based soundness tests for the cache substrate.
//!
//! The headline property: for random graphs, random memory layouts, random
//! paths and random preemption points, the *concrete* reload bill of a
//! preemption never exceeds the *static* per-block CRPD bound — for
//! direct-mapped and LRU set-associative caches, against both worst-case
//! set eviction and realistic preempter runs. Graphs are layered DAGs,
//! whose paths [`enumerate_paths`] lists, and random cyclic graphs, walked
//! at random through their loops.

mod common;
#[path = "support/concrete.rs"]
mod concrete;
#[path = "support/empirical.rs"]
mod empirical;

use common::arb_cyclic_workload;
use concrete::{enumerate_paths, preemption_cost_on_path, PreemptionDamage};
use empirical::empirical_crpd;
use fnpr_cache::{AccessMap, CacheConfig, CrpdAnalysis, EcbSet, UcbAnalysis};
use fnpr_cfg::{BlockId, Cfg, CfgBuilder, ExecInterval};
use proptest::prelude::*;

/// Random layered DAG with random per-block access lists.
#[derive(Debug, Clone)]
struct Workload {
    layer_sizes: Vec<usize>,
    accesses: Vec<Vec<u64>>, // cycled over blocks
    sets: usize,
    ways: usize,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        prop::collection::vec(1usize..3, 1..5),
        prop::collection::vec(prop::collection::vec(0u64..24, 0..6), 16),
        1usize..8,
        1usize..4,
    )
        .prop_map(|(layer_sizes, raw, sets, ways)| Workload {
            layer_sizes,
            // Scale access ids to line addresses (16-byte lines).
            accesses: raw
                .into_iter()
                .map(|v| v.into_iter().map(|a| a * 16).collect())
                .collect(),
            sets,
            ways,
        })
}

fn build(w: &Workload) -> (Cfg, AccessMap, CacheConfig) {
    let config = CacheConfig::new(w.sets, w.ways, 16, 10.0).unwrap();
    let mut builder = CfgBuilder::new();
    let iv = ExecInterval::new(1.0, 1.0).unwrap();
    let mut layers: Vec<Vec<BlockId>> = vec![vec![builder.block(iv)]];
    for &size in &w.layer_sizes {
        let layer: Vec<BlockId> = (0..size).map(|_| builder.block(iv)).collect();
        layers.push(layer);
    }
    for k in 0..layers.len() - 1 {
        for &to in &layers[k + 1] {
            builder.edge(layers[k][0], to).unwrap();
        }
        for &from in &layers[k][1..] {
            builder.edge(from, layers[k + 1][0]).unwrap();
        }
    }
    let cfg = builder.build().unwrap();
    let mut acc = AccessMap::new();
    for b in 0..cfg.len() {
        let list = w.accesses[b % w.accesses.len()].clone();
        acc.set(BlockId(b), list);
    }
    (cfg, acc, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Concrete worst-case eviction never beats the static bound.
    #[test]
    fn concrete_cost_below_static_bound(
        w in arb_workload(),
        path_pick in 0usize..8,
        point_pick in 0usize..8,
    ) {
        let (cfg, acc, config) = build(&w);
        let crpd = CrpdAnalysis::analyze(&cfg, &acc, &config).unwrap();
        let paths = enumerate_paths(&cfg, 8);
        let path = &paths[path_pick % paths.len()];
        let k = point_pick % path.len();
        let cost = preemption_cost_on_path(
            &cfg,
            &acc,
            &config,
            path,
            k,
            &PreemptionDamage::EvictSets(EcbSet::full(&config)),
        );
        let bill = cost.extra_misses() as f64 * config.reload_cost();
        let bound = crpd.crpd(path[k]);
        prop_assert!(
            bill <= bound + 1e-9,
            "concrete bill {} exceeds static CRPD {} at block {:?}",
            bill, bound, path[k]
        );
    }

    /// Same with a realistic preempter and the per-preempter ECB bound.
    #[test]
    fn concrete_cost_below_ecb_bound(
        w in arb_workload(),
        preempter_lines in prop::collection::vec(0u64..24, 0..10),
        path_pick in 0usize..8,
        point_pick in 0usize..8,
    ) {
        let (cfg, acc, config) = build(&w);
        let crpd = CrpdAnalysis::analyze(&cfg, &acc, &config).unwrap();
        let mut preempter = AccessMap::new();
        preempter.set(
            BlockId(0),
            preempter_lines.iter().map(|&a| a * 16).collect(),
        );
        let ecb = EcbSet::of_task(&preempter, &config);
        let paths = enumerate_paths(&cfg, 8);
        let path = &paths[path_pick % paths.len()];
        let k = point_pick % path.len();
        let cost = preemption_cost_on_path(
            &cfg,
            &acc,
            &config,
            path,
            k,
            &PreemptionDamage::RunTask(preempter),
        );
        let bill = cost.extra_misses() as f64 * config.reload_cost();
        let bound = crpd.crpd_against(path[k], &ecb);
        prop_assert!(
            bill <= bound + 1e-9,
            "realistic bill {} exceeds ECB-aware CRPD {} at block {:?}",
            bill, bound, path[k]
        );
    }

    /// The ECB-aware bound is monotone: more damaged sets, larger bound;
    /// full damage equals the default bound.
    #[test]
    fn ecb_bound_monotonicity(w in arb_workload(), subset_mask in 0usize..256) {
        let (cfg, acc, config) = build(&w);
        let crpd = CrpdAnalysis::analyze(&cfg, &acc, &config).unwrap();
        let subset = EcbSet::from_sets(
            (0..config.sets()).filter(|s| subset_mask & (1 << (s % 8)) != 0),
        );
        let full = EcbSet::full(&config);
        for b in 0..cfg.len() {
            let block = BlockId(b);
            prop_assert!(crpd.crpd_against(block, &subset) <= crpd.crpd(block) + 1e-12);
            prop_assert!((crpd.crpd_against(block, &full) - crpd.crpd(block)).abs() < 1e-12);
            prop_assert_eq!(crpd.crpd_against(block, &EcbSet::new()), 0.0);
        }
    }

    /// UCB counts respect the structural caps: per set at most the
    /// associativity, in total at most sets x ways and at most the number of
    /// distinct blocks the task touches.
    #[test]
    fn ucb_structural_caps(w in arb_workload()) {
        let (cfg, acc, config) = build(&w);
        let ucb = UcbAnalysis::analyze(&cfg, &acc, &config).unwrap();
        let distinct = acc.touched_blocks(&config).len();
        for b in 0..cfg.len() {
            let block = BlockId(b);
            let counts = ucb.capped_counts(block);
            prop_assert_eq!(counts.len(), config.sets());
            for &c in &counts {
                prop_assert!(c <= config.associativity());
            }
            prop_assert!(ucb.ucb_count(block) <= config.sets() * config.associativity());
            prop_assert!(ucb.ucb_count(block) <= distinct);
        }
    }

    /// The empirical estimator is bracketed by the static analysis on every
    /// block, for both full and partial damage.
    #[test]
    fn empirical_below_static(w in arb_workload(), subset_mask in 0usize..256) {
        let (cfg, acc, config) = build(&w);
        let static_bound = CrpdAnalysis::analyze(&cfg, &acc, &config).unwrap();
        let subset = EcbSet::from_sets(
            (0..config.sets()).filter(|s| subset_mask & (1 << (s % 8)) != 0),
        );
        // Full damage vs. the default static bound.
        let full_damage = PreemptionDamage::EvictSets(EcbSet::full(&config));
        let empirical = empirical_crpd(&cfg, &acc, &config, &full_damage, 8);
        for b in 0..cfg.len() {
            let block = BlockId(b);
            prop_assert!(
                empirical.crpd(block) <= static_bound.crpd(block) + 1e-9,
                "block {}: empirical {} > static {}",
                block,
                empirical.crpd(block),
                static_bound.crpd(block)
            );
        }
        // Partial damage vs. the ECB-aware static bound.
        let partial_damage = PreemptionDamage::EvictSets(subset.clone());
        let empirical = empirical_crpd(&cfg, &acc, &config, &partial_damage, 8);
        for b in 0..cfg.len() {
            let block = BlockId(b);
            prop_assert!(
                empirical.crpd(block) <= static_bound.crpd_against(block, &subset) + 1e-9,
                "block {}: empirical {} > ecb-aware static {}",
                block,
                empirical.crpd(block),
                static_bound.crpd_against(block, &subset)
            );
        }
    }

    /// LRU never benefits from a preemption (extra misses are signed
    /// non-negative): baseline <= preempted.
    #[test]
    fn preemption_never_helps_lru(
        w in arb_workload(),
        path_pick in 0usize..8,
        point_pick in 0usize..8,
    ) {
        let (cfg, acc, config) = build(&w);
        let paths = enumerate_paths(&cfg, 8);
        let path = &paths[path_pick % paths.len()];
        let k = point_pick % path.len();
        let cost = preemption_cost_on_path(
            &cfg,
            &acc,
            &config,
            path,
            k,
            &PreemptionDamage::EvictSets(EcbSet::full(&config)),
        );
        prop_assert!(cost.preempted_misses >= cost.baseline_misses);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Concrete worst-case eviction never beats the static bound on loops:
    /// a random walk from the entry (at most 40 blocks, so loop bodies
    /// repeat) is preempted before each of its blocks in turn.
    #[test]
    fn concrete_cost_below_static_bound_on_loops(
        w in arb_cyclic_workload(),
        steps in prop::collection::vec(0usize..16, 0..40),
    ) {
        let (cfg, acc, config) = w.build();
        let crpd = CrpdAnalysis::analyze(&cfg, &acc, &config).unwrap();
        let mut path = vec![cfg.entry()];
        for pick in steps {
            let succs = cfg.successors(path[path.len() - 1]);
            if succs.is_empty() {
                break;
            }
            path.push(succs[pick % succs.len()]);
        }
        let evict_all = PreemptionDamage::EvictSets(EcbSet::full(&config));
        for k in 0..path.len() {
            let cost = preemption_cost_on_path(&cfg, &acc, &config, &path, k, &evict_all);
            let bill = cost.extra_misses() as f64 * config.reload_cost();
            let bound = crpd.crpd(path[k]);
            prop_assert!(
                bill <= bound,
                "concrete bill {} exceeds static CRPD {} at step {} ({:?}) of {:?}",
                bill, bound, k, path[k], path
            );
        }
    }
}
