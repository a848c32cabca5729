//! Shared integration-test support (not a test target itself: cargo only
//! builds `tests/*.rs` files as test crates, not subdirectories).
//!
//! Random *cyclic* graphs with random access lists: the layered DAGs of the
//! property suite never loop, and loops are where the UCB fixpoint
//! iterates.

use fnpr_cache::{AccessMap, CacheConfig};
use fnpr_cfg::{BlockId, Cfg, CfgBuilder, ExecInterval};
use proptest::prelude::*;

/// The largest block count a workload draws; the raw picks are sized for
/// it.
const MAX_BLOCKS: usize = 14;

/// A random reachable graph with back edges and self-loops, its accesses
/// and a cache geometry, as raw picks that [`CyclicWorkload::build`] maps
/// onto a valid graph.
#[derive(Debug, Clone)]
pub struct CyclicWorkload {
    blocks: usize,
    /// Block `i + 1`'s tree parent is `parents[i] % (i + 1)`, so every
    /// block is reachable from the entry.
    parents: Vec<usize>,
    /// Extra `(from, to)` edges: back edges, self-loops, forward and cross
    /// edges alike (never into the entry, which may have no predecessor).
    extra_edges: Vec<(usize, usize)>,
    /// Per block: `(set, tag, byte offset)` picks of its accesses.
    accesses: Vec<Vec<(usize, u64, u64)>>,
    sets: usize,
    ways: usize,
    line_bytes: u64,
}

/// Set counts 1, a non-power of two and 256; 1–4 ways; 16-, 32- and
/// 64-byte lines.
pub fn arb_cyclic_workload() -> impl Strategy<Value = CyclicWorkload> {
    (
        1usize..=MAX_BLOCKS,
        prop::collection::vec(0usize..MAX_BLOCKS, MAX_BLOCKS),
        prop::collection::vec((0usize..MAX_BLOCKS, 0usize..MAX_BLOCKS), 0..16),
        prop::collection::vec(
            prop::collection::vec((0usize..48, 0u64..6, 0u64..64), 0..10),
            MAX_BLOCKS,
        ),
        (
            prop_oneof![Just(1usize), Just(6), Just(256)],
            1usize..=4,
            prop_oneof![Just(16u64), Just(32), Just(64)],
        ),
    )
        .prop_map(
            |(blocks, parents, extra_edges, accesses, (sets, ways, line_bytes))| CyclicWorkload {
                blocks,
                parents,
                extra_edges,
                accesses,
                sets,
                ways,
                line_bytes,
            },
        )
}

impl CyclicWorkload {
    /// The graph, its access map and the cache geometry (reload cost 7.5).
    ///
    /// Memory block `set + tag × sets` maps to cache set `set`, so every
    /// geometry sees up to six conflicting blocks per set, and at 256 sets
    /// the task touches well over 64 distinct blocks.
    pub fn build(&self) -> (Cfg, AccessMap, CacheConfig) {
        let config = CacheConfig::new(self.sets, self.ways, self.line_bytes, 7.5).unwrap();
        let mut builder = CfgBuilder::new();
        let iv = ExecInterval::new(1.0, 1.0).unwrap();
        let ids: Vec<BlockId> = (0..self.blocks).map(|_| builder.block(iv)).collect();
        let mut edges = Vec::new();
        for i in 1..self.blocks {
            edges.push((self.parents[i - 1] % i, i));
        }
        if self.blocks > 1 {
            for &(from, to) in &self.extra_edges {
                edges.push((from % self.blocks, 1 + to % (self.blocks - 1)));
            }
        }
        let mut added = std::collections::BTreeSet::new();
        for (from, to) in edges {
            if added.insert((from, to)) {
                builder.edge(ids[from], ids[to]).unwrap();
            }
        }
        let cfg = builder.build().unwrap();
        let spread = self.sets.min(48) as u64;
        let mut acc = AccessMap::new();
        for (b, picks) in self.accesses.iter().take(self.blocks).enumerate() {
            let addresses = picks
                .iter()
                .map(|&(set, tag, offset)| {
                    let block = set as u64 % spread + tag * self.sets as u64;
                    block * self.line_bytes + offset % self.line_bytes
                })
                .collect();
            acc.set(BlockId(b), addresses);
        }
        (cfg, acc, config)
    }
}
