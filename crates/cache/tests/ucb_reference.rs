//! The useful-cache-block dataflow in its per-set formulation — one
//! `BTreeSet` of memory blocks per cache set at every program point,
//! round-robin passes in reverse post-order — kept as a reference for the
//! library's bit-vector encoding, and compared with it on random cyclic
//! graphs.

mod common;

use std::collections::BTreeSet;

use common::arb_cyclic_workload;
use fnpr_cache::{AccessMap, CacheConfig, CrpdAnalysis, EcbSet, UcbAnalysis};
use fnpr_cfg::{BlockId, Cfg};
use proptest::prelude::*;

/// Per cache set, the memory blocks that may occupy it.
type SetContents = Vec<BTreeSet<u64>>;

/// Per basic block, per cache set: the useful memory blocks, or `None` if a
/// dataflow does not stabilise within `4n + 8` passes.
fn reference_useful(
    cfg: &Cfg,
    accesses: &AccessMap,
    config: &CacheConfig,
) -> Option<Vec<SetContents>> {
    let n = cfg.len();
    let sets = config.sets();
    let empty = || vec![BTreeSet::new(); sets];

    // Per-block access summaries, per set: all touched blocks, the first
    // touched block, the last touched block.
    let mut touched: Vec<SetContents> = vec![empty(); n];
    let mut first: Vec<Vec<Option<u64>>> = vec![vec![None; sets]; n];
    let mut last: Vec<Vec<Option<u64>>> = vec![vec![None; sets]; n];
    for b in 0..n {
        for &addr in accesses.of(BlockId(b)) {
            let block = config.block_of(addr);
            let set = config.set_of_block(block);
            touched[b][set].insert(block);
            if first[b][set].is_none() {
                first[b][set] = Some(block);
            }
            last[b][set] = Some(block);
        }
    }

    let limit = 4 * n + 8;

    // Forward may-reaching: IN = union of predecessor OUTs.
    let mut reach_in: Vec<SetContents> = vec![empty(); n];
    let mut reach_out: Vec<SetContents> = vec![empty(); n];
    let order = cfg.reverse_post_order();
    let mut stable = false;
    for _pass in 0..limit {
        let mut changed = false;
        for &b in &order {
            let bi = b.index();
            let mut incoming = empty();
            for &p in cfg.predecessors(b) {
                for s in 0..sets {
                    incoming[s].extend(reach_out[p.index()][s].iter().copied());
                }
            }
            let mut outgoing = empty();
            for s in 0..sets {
                if config.is_direct_mapped() {
                    match last[bi][s] {
                        Some(m) => {
                            outgoing[s].insert(m);
                        }
                        None => outgoing[s] = incoming[s].clone(),
                    }
                } else {
                    outgoing[s] = incoming[s].clone();
                    outgoing[s].extend(touched[bi][s].iter().copied());
                }
            }
            if incoming != reach_in[bi] || outgoing != reach_out[bi] {
                changed = true;
                reach_in[bi] = incoming;
                reach_out[bi] = outgoing;
            }
        }
        if !changed {
            stable = true;
            break;
        }
    }
    if !stable {
        return None;
    }

    // Backward may-live: OUT = union of successor INs.
    let mut live_in: Vec<SetContents> = vec![empty(); n];
    let mut live_out: Vec<SetContents> = vec![empty(); n];
    stable = false;
    for _pass in 0..limit {
        let mut changed = false;
        for &b in order.iter().rev() {
            let bi = b.index();
            let mut outgoing = empty();
            for &succ in cfg.successors(b) {
                for s in 0..sets {
                    outgoing[s].extend(live_in[succ.index()][s].iter().copied());
                }
            }
            let mut incoming = empty();
            for s in 0..sets {
                if config.is_direct_mapped() {
                    match first[bi][s] {
                        Some(m) => {
                            incoming[s].insert(m);
                        }
                        None => incoming[s] = outgoing[s].clone(),
                    }
                } else {
                    incoming[s] = outgoing[s].clone();
                    incoming[s].extend(touched[bi][s].iter().copied());
                }
            }
            if outgoing != live_out[bi] || incoming != live_in[bi] {
                changed = true;
                live_out[bi] = outgoing;
                live_in[bi] = incoming;
            }
        }
        if !changed {
            stable = true;
            break;
        }
    }
    if !stable {
        return None;
    }

    // Useful at any point of b, per set:
    // (reach_in ∪ touched) ∩ (live_out ∪ touched).
    let mut useful: Vec<SetContents> = Vec::with_capacity(n);
    for b in 0..n {
        let mut per_set = empty();
        for s in 0..sets {
            let mut cached: BTreeSet<u64> = reach_in[b][s].clone();
            cached.extend(touched[b][s].iter().copied());
            let mut needed: BTreeSet<u64> = live_out[b][s].clone();
            needed.extend(touched[b][s].iter().copied());
            per_set[s] = cached.intersection(&needed).copied().collect();
        }
        useful.push(per_set);
    }
    Some(useful)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// On graphs with back edges and self-loops, every block's per-set
    /// useful blocks, capped counts, `|UCB|` and CRPD against a random
    /// preempter equal the per-set reference's.
    #[test]
    fn bit_vector_dataflow_matches_reference(
        w in arb_cyclic_workload(),
        damaged in prop::collection::vec(0usize..300, 0..40),
    ) {
        let (cfg, acc, config) = w.build();
        let expected = reference_useful(&cfg, &acc, &config).expect("reference stabilises");
        let ucb = UcbAnalysis::analyze(&cfg, &acc, &config).unwrap();
        let crpd = CrpdAnalysis::analyze(&cfg, &acc, &config).unwrap();
        let ecb = EcbSet::from_sets(damaged.iter().copied());
        let ways = config.associativity();
        for (b, per_set) in expected.iter().enumerate() {
            let block = BlockId(b);
            prop_assert_eq!(&ucb.useful_blocks(block), per_set);
            let capped: Vec<usize> = per_set.iter().map(|s| s.len().min(ways)).collect();
            prop_assert_eq!(&ucb.capped_counts(block), &capped);
            let total: usize = capped.iter().sum();
            prop_assert_eq!(ucb.ucb_count(block), total);
            prop_assert_eq!(crpd.crpd(block), total as f64 * config.reload_cost());
            let damage: usize = capped
                .iter()
                .enumerate()
                .filter(|(s, _)| damaged.contains(s))
                .map(|(_, &c)| c)
                .sum();
            prop_assert_eq!(
                crpd.crpd_against(block, &ecb),
                damage as f64 * config.reload_cost()
            );
        }
    }
}
