//! Useful-cache-block analysis (Lee et al. style).
//!
//! A memory block is *useful* at a program point `p` if it **may be cached**
//! at `p` (forward reaching analysis) and **may be referenced again after
//! `p` before being evicted** (backward live analysis). Evicting a useful
//! block costs one reload when the task resumes — the per-point CRPD is
//! bounded by the number of useful blocks the preempter may evict.
//!
//! Following [3]'s granularity, usefulness is computed *per basic block*:
//! the reported set for block `b` covers every point inside `b`
//! (entry-reaching ∪ in-block accesses intersected with in-block accesses ∪
//! exit-live), so the derived `CRPD_b` is constant across the block — which
//! is exactly the shape the paper's `fi(t) = max {CRPD_b : b ∈ BB(t)}`
//! composition consumes.
//!
//! Transfer functions are exact for direct-mapped caches. For `A`-way LRU
//! caches the may-analyses keep every possibly-cached block (no eviction in
//! the abstract transfer) and the per-set useful count is capped at `A`;
//! this over-approximates the age-based analyses of the later literature but
//! remains sound (see the concrete-simulator property tests).
//!
//! # Encoding
//!
//! The task's distinct memory blocks ([`AccessMap::touched_blocks`],
//! ascending) are numbered densely, and a program point's may-cached or
//! may-live contents is one bit vector of `u64` words over them. Each basic
//! block `b`'s access list is summarised once, as bit vectors: `touched_b`
//! (every block it accesses), `first_b` and `last_b` (the first and the
//! last block it accesses in each cache set it touches) and `kill_b` (every
//! block of the task that maps to a set `b` touches). The transfers are
//! then word operations:
//!
//! * direct-mapped: forward `out = (in & !kill_b) | last_b`, backward
//!   `in = (out & !kill_b) | first_b`;
//! * LRU: forward `out = in | touched_b`, backward `in = out | touched_b`.
//!
//! Each dataflow starts empty and sweeps the blocks in reverse post-order
//! (the backward one in its reverse), but a sweep revisits a block only when
//! one of its inputs changed since the block was last computed. The skipped
//! blocks are exactly those a round-robin pass would recompute to the same
//! value, so both reach the same least fixpoint, and the `4n + 8` sweep
//! budget ([`CacheError::FixpointLimit`]) still stands behind them. Each
//! block's useful vector is reduced once, at the end, to sparse
//! `(set, count)` pairs, which is all the CRPD queries read.
//!
//! The analysis is unchanged; only its encoding is. The per-set
//! formulation it replaced — one `BTreeSet` of memory blocks per cache set
//! and program point — is kept as a test reference
//! (`tests/ucb_reference.rs`), and every per-block result is checked
//! against it on random cyclic graphs.

use std::collections::BTreeSet;

use fnpr_cfg::{BlockId, Cfg};

use crate::access::AccessMap;
use crate::bits;
use crate::config::CacheConfig;
use crate::error::CacheError;

/// Result of the useful-cache-block dataflow over one task.
#[derive(Debug, Clone, PartialEq)]
pub struct UcbAnalysis {
    /// The task's distinct memory blocks, ascending: bit `i` of a vector
    /// stands for `blocks[i]`.
    blocks: Vec<u64>,
    /// Words per bit vector.
    words: usize,
    /// Per basic block, its useful memory blocks (`words` words each).
    useful: Vec<u64>,
    /// `(cache set, useful blocks in it)` for every set holding a useful
    /// block, ascending by set; block `b`'s pairs are
    /// `counts[spans[b]..spans[b + 1]]`.
    counts: Vec<(usize, usize)>,
    spans: Vec<usize>,
    config: CacheConfig,
}

/// Row `b` of a matrix of `words`-word bit vectors.
fn row(matrix: &[u64], b: usize, words: usize) -> &[u64] {
    &matrix[b * words..(b + 1) * words]
}

/// Row `b` of a matrix of `words`-word bit vectors, mutably.
fn row_mut(matrix: &mut [u64], b: usize, words: usize) -> &mut [u64] {
    &mut matrix[b * words..(b + 1) * words]
}

/// `acc |= other`, word by word.
fn or_into(acc: &mut [u64], other: &[u64]) {
    for (a, o) in acc.iter_mut().zip(other) {
        *a |= o;
    }
}

impl UcbAnalysis {
    /// Runs the reaching/live dataflow and intersects the results.
    ///
    /// Works on cyclic graphs directly (the fixpoint handles loops); no loop
    /// reduction is required before CRPD analysis.
    ///
    /// # Errors
    ///
    /// * [`CacheError::UnknownBlock`] if `accesses` references a block
    ///   outside `cfg`;
    /// * [`CacheError::FixpointLimit`] if the dataflow fails to stabilise
    ///   (cannot happen for well-formed graphs; the limit is a backstop).
    pub fn analyze(
        cfg: &Cfg,
        accesses: &AccessMap,
        config: &CacheConfig,
    ) -> Result<Self, CacheError> {
        accesses.validate(cfg)?;
        let n = cfg.len();
        let blocks = accesses.touched_blocks(config);
        let words = blocks.len().div_ceil(64);
        let set_of: Vec<usize> = blocks.iter().map(|&m| config.set_of_block(m)).collect();
        let dense = |address: u64| {
            let m = config.block_of(address);
            blocks.partition_point(|&other| other < m)
        };

        // Per-block access summaries: every block accessed, and the first
        // and the last block accessed in each cache set touched. `kill`
        // (direct-mapped only) adds every block of the task in those sets,
        // found through per-set chains: `set_head[set]`, then `next_in_set`
        // until `usize::MAX`.
        let direct_mapped = config.is_direct_mapped();
        let mut touched = vec![0u64; n * words];
        let mut first = vec![0u64; n * words];
        let mut last = vec![0u64; n * words];
        let mut kill = vec![0u64; n * words];
        let mut set_head = vec![usize::MAX; config.sets()];
        let mut next_in_set = vec![usize::MAX; blocks.len()];
        for (i, &s) in set_of.iter().enumerate().rev() {
            next_in_set[i] = set_head[s];
            set_head[s] = i;
        }
        // Per set: the basic block that touched it last, and its last access.
        let mut toucher = vec![usize::MAX; config.sets()];
        let mut last_access = vec![0usize; config.sets()];
        let mut sets_touched = Vec::new();
        for (block, addresses) in accesses.iter() {
            let b = block.index();
            sets_touched.clear();
            for &address in addresses {
                let i = dense(address);
                let s = set_of[i];
                bits::insert(row_mut(&mut touched, b, words), i);
                if toucher[s] != b {
                    toucher[s] = b;
                    sets_touched.push(s);
                    bits::insert(row_mut(&mut first, b, words), i);
                }
                last_access[s] = i;
            }
            for &s in &sets_touched {
                bits::insert(row_mut(&mut last, b, words), last_access[s]);
                if direct_mapped {
                    let mut i = set_head[s];
                    while i != usize::MAX {
                        bits::insert(row_mut(&mut kill, b, words), i);
                        i = next_in_set[i];
                    }
                }
            }
        }
        // LRU: `kill` stays empty and both directions generate `touched`.
        let (forward_gen, backward_gen) = if direct_mapped {
            (&last, &first)
        } else {
            (&touched, &touched)
        };

        let order = cfg.reverse_post_order();
        let limit = 4 * n + 8;
        // Forward may-reaching: OUT per block; IN = union of predecessor OUTs.
        let reach_out = solve(cfg, &order, true, &kill, forward_gen, words, limit)?;
        // Backward may-live: IN per block; OUT = union of successor INs.
        let live_in = solve(cfg, &order, false, &kill, backward_gen, words, limit)?;

        // Useful at any point of b: (reach_in ∪ touched) ∩ (live_out ∪ touched),
        // reduced to per-set counts.
        let mut useful = vec![0u64; n * words];
        let mut counts = Vec::new();
        let mut spans = Vec::with_capacity(n + 1);
        spans.push(0);
        let mut cached = vec![0u64; words];
        let mut needed = vec![0u64; words];
        let mut useful_sets = Vec::new();
        for b in 0..n {
            let id = BlockId(b);
            let own = row(&touched, b, words);
            cached.copy_from_slice(own);
            for p in cfg.predecessors(id) {
                or_into(&mut cached, row(&reach_out, p.index(), words));
            }
            needed.copy_from_slice(own);
            for s in cfg.successors(id) {
                or_into(&mut needed, row(&live_in, s.index(), words));
            }
            let out = row_mut(&mut useful, b, words);
            for (w, word) in out.iter_mut().enumerate() {
                *word = cached[w] & needed[w];
            }
            useful_sets.clear();
            useful_sets.extend(bits::ones(out).map(|i| set_of[i]));
            useful_sets.sort_unstable();
            counts.extend(
                useful_sets
                    .chunk_by(|a, b| a == b)
                    .map(|run| (run[0], run.len())),
            );
            spans.push(counts.len());
        }
        Ok(Self {
            blocks,
            words,
            useful,
            counts,
            spans,
            config: *config,
        })
    }

    /// The useful memory blocks of basic block `b`, per cache set.
    ///
    /// # Panics
    ///
    /// Panics if `b` does not belong to the analysed graph.
    #[must_use]
    pub fn useful_blocks(&self, b: BlockId) -> Vec<BTreeSet<u64>> {
        let mut per_set = vec![BTreeSet::new(); self.config.sets()];
        for i in bits::ones(row(&self.useful, b.index(), self.words)) {
            let m = self.blocks[i];
            per_set[self.config.set_of_block(m)].insert(m);
        }
        per_set
    }

    /// `(cache set, useful blocks in it)` of basic block `b`, for every set
    /// holding a useful block, ascending by set.
    pub(crate) fn set_counts(&self, b: BlockId) -> &[(usize, usize)] {
        &self.counts[self.spans[b.index()]..self.spans[b.index() + 1]]
    }

    /// Per-set useful counts capped at the associativity (at most `A` lines
    /// of one set can be resident simultaneously).
    #[must_use]
    pub fn capped_counts(&self, b: BlockId) -> Vec<usize> {
        let mut counts = vec![0; self.config.sets()];
        for &(s, count) in self.set_counts(b) {
            counts[s] = count.min(self.config.associativity());
        }
        counts
    }

    /// Total useful-block count of a block (sum of capped per-set counts) —
    /// the `|UCB|` figure of the literature.
    #[must_use]
    pub fn ucb_count(&self, b: BlockId) -> usize {
        self.set_counts(b)
            .iter()
            .map(|&(_, count)| count.min(self.config.associativity()))
            .sum()
    }

    /// The cache configuration the analysis ran under.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }
}

/// Solves one may-dataflow to its least fixpoint and returns every block's
/// value `(input & !kill_b) | gen_b` (`words` words per block; `kill` and
/// `gen` hold one such row per block): forward, a block's input is the
/// union of its predecessors' values; backward, of its successors'.
///
/// Sweeps follow `order` (reversed when backward) and compute only blocks
/// whose inputs changed since their last computation.
fn solve(
    cfg: &Cfg,
    order: &[BlockId],
    forward: bool,
    kill: &[u64],
    gen: &[u64],
    words: usize,
    limit: usize,
) -> Result<Vec<u64>, CacheError> {
    let n = cfg.len();
    let mut value = vec![0u64; n * words];
    let mut dirty = vec![true; n];
    let mut input = vec![0u64; words];
    let mut sweeps = 0;
    while dirty.contains(&true) {
        if sweeps == limit {
            return Err(CacheError::FixpointLimit { limit });
        }
        sweeps += 1;
        for k in 0..order.len() {
            let b = order[if forward { k } else { order.len() - 1 - k }];
            let bi = b.index();
            if !dirty[bi] {
                continue;
            }
            dirty[bi] = false;
            let (sources, sinks) = if forward {
                (cfg.predecessors(b), cfg.successors(b))
            } else {
                (cfg.successors(b), cfg.predecessors(b))
            };
            input.fill(0);
            for p in sources {
                or_into(&mut input, row(&value, p.index(), words));
            }
            let kill = row(kill, bi, words);
            let gen = row(gen, bi, words);
            let mut changed = false;
            for (w, word) in row_mut(&mut value, bi, words).iter_mut().enumerate() {
                let next = (input[w] & !kill[w]) | gen[w];
                changed |= next != *word;
                *word = next;
            }
            if changed {
                for s in sinks {
                    dirty[s.index()] = true;
                }
            }
        }
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnpr_cfg::{CfgBuilder, ExecInterval};

    fn iv() -> ExecInterval {
        ExecInterval::new(1.0, 1.0).unwrap()
    }

    fn chain(n: usize) -> (Cfg, Vec<BlockId>) {
        let mut b = CfgBuilder::new();
        let ids: Vec<BlockId> = (0..n).map(|_| b.block(iv())).collect();
        for pair in ids.windows(2) {
            b.edge(pair[0], pair[1]).unwrap();
        }
        (b.build().unwrap(), ids)
    }

    /// 4-set direct-mapped, 16-byte lines: address 16*k is line k, set k%4.
    fn config() -> CacheConfig {
        CacheConfig::new(4, 1, 16, 10.0).unwrap()
    }

    #[test]
    fn loaded_then_reused_block_is_useful_in_between() {
        // b0 loads line 0; b1 does unrelated work (line 1); b2 reuses line 0.
        let (cfg, ids) = chain(3);
        let mut acc = AccessMap::new();
        acc.set(ids[0], vec![0]);
        acc.set(ids[1], vec![16]);
        acc.set(ids[2], vec![0]);
        let ucb = UcbAnalysis::analyze(&cfg, &acc, &config()).unwrap();
        // During b1, line 0 is cached (reaching) and will be reused (live).
        assert!(ucb.useful_blocks(ids[1])[0].contains(&0));
        assert_eq!(ucb.ucb_count(ids[1]), 2); // line 0 useful + line 1 in-block
                                              // During b2 the reuse happens within the block itself.
        assert!(ucb.useful_blocks(ids[2])[0].contains(&0));
    }

    #[test]
    fn dead_block_is_not_useful() {
        // b0 loads line 0, never used again.
        let (cfg, ids) = chain(2);
        let mut acc = AccessMap::new();
        acc.set(ids[0], vec![0]);
        acc.set(ids[1], vec![16]);
        let ucb = UcbAnalysis::analyze(&cfg, &acc, &config()).unwrap();
        assert!(!ucb.useful_blocks(ids[1])[0].contains(&0));
        assert_eq!(ucb.ucb_count(ids[1]), 1); // only its own line 1
    }

    #[test]
    fn conflicting_access_kills_usefulness_direct_mapped() {
        // Lines 0 and 4 share set 0 (4 sets). b0 loads line 0; b1 loads
        // line 4 (evicts 0); b2 reuses line 0. During b1, line 0 is not
        // useful at exit (evicted), but the reaching-in ∪ touched covers it;
        // the intersection with live-out ∪ touched keeps line 4 only...
        let (cfg, ids) = chain(3);
        let mut acc = AccessMap::new();
        acc.set(ids[0], vec![0]);
        acc.set(ids[1], vec![64]); // line 4, set 0
        acc.set(ids[2], vec![0]);
        let ucb = UcbAnalysis::analyze(&cfg, &acc, &config()).unwrap();
        // In b2, line 0 is accessed in-block: useful there.
        assert!(ucb.useful_blocks(ids[2])[0].contains(&0));
        // In b1: reaching-in {0}, touched {4}: cached = {0,4};
        // live-out: b2's first access to set 0 is line 0 -> live {0};
        // needed = {0,4}; useful = {0,4} ∩ ... = both. Capped at A=1.
        assert_eq!(ucb.capped_counts(ids[1])[0], 1);
        // In b0: live-out of b0 = live-in of b1 = first access {4}? No:
        // direct-mapped live-in of b1 = {4} (its first access). So line 0 is
        // not live after b0 (it will be evicted before reuse): not useful.
        assert!(!ucb
            .useful_blocks(ids[0])
            .iter()
            .any(|s| s.contains(&0) && s.len() > 1));
        assert_eq!(ucb.capped_counts(ids[0])[0], 1); // its own access only
    }

    #[test]
    fn loop_reuse_is_useful_across_back_edge() {
        // entry -> header -> body -> header; header -> exit.
        // The body accesses line 2 every iteration: useful at the header.
        let mut b = CfgBuilder::new();
        let entry = b.block(iv());
        let header = b.block(iv());
        let body = b.block(iv());
        let exit = b.block(iv());
        b.edge(entry, header).unwrap();
        b.edge(header, body).unwrap();
        b.edge(body, header).unwrap();
        b.edge(header, exit).unwrap();
        let cfg = b.build().unwrap();
        let mut acc = AccessMap::new();
        acc.set(body, vec![32]); // line 2, set 2
        let ucb = UcbAnalysis::analyze(&cfg, &acc, &config()).unwrap();
        // At the header, line 2 may be cached (previous iteration) and will
        // be referenced again (next iteration): useful.
        assert!(ucb.useful_blocks(header)[2].contains(&2));
        // At the exit it is dead.
        assert_eq!(ucb.ucb_count(exit), 0);
    }

    #[test]
    fn set_associative_caps_per_set() {
        // 1 set, 2-way: three blocks all in the same set, all reused.
        let cache = CacheConfig::new(1, 2, 16, 10.0).unwrap();
        let (cfg, ids) = chain(2);
        let mut acc = AccessMap::new();
        acc.set(ids[0], vec![0, 16, 32]);
        acc.set(ids[1], vec![0, 16, 32]);
        let ucb = UcbAnalysis::analyze(&cfg, &acc, &cache).unwrap();
        // Three useful blocks but only 2 ways: capped at 2.
        assert_eq!(ucb.useful_blocks(ids[0])[0].len(), 3);
        assert_eq!(ucb.ucb_count(ids[0]), 2);
    }

    #[test]
    fn associativity_rescues_conflicting_working_set() {
        // Lines 0 and 4 conflict in a 4-set direct-mapped cache; both are
        // reused after block b1. Direct-mapped: the set thrashes — the
        // resident line 4 is evicted by b2's first access (line 0) before
        // its own reuse, so *nothing* is useful during b1. 2-way: both stay
        // cached and useful.
        let (cfg, ids) = chain(3);
        let mut acc = AccessMap::new();
        acc.set(ids[0], vec![0, 64]); // lines 0 and 4, both set 0
        acc.set(ids[1], vec![16]); // unrelated
        acc.set(ids[2], vec![0, 64]); // reuse both
        let dm = CacheConfig::new(4, 1, 16, 10.0).unwrap();
        let ucb_dm = UcbAnalysis::analyze(&cfg, &acc, &dm).unwrap();
        assert_eq!(ucb_dm.capped_counts(ids[1])[0], 0);
        let a2 = CacheConfig::new(4, 2, 16, 10.0).unwrap();
        let ucb_a2 = UcbAnalysis::analyze(&cfg, &acc, &a2).unwrap();
        assert_eq!(ucb_a2.capped_counts(ids[1])[0], 2);
        assert!(ucb_a2.ucb_count(ids[1]) > ucb_dm.ucb_count(ids[1]));
    }

    #[test]
    fn lee_style_config_runs_realistic_layout() {
        // A 40-block straight-line task with a 25% shared buffer, under the
        // literature-standard 256-set direct-mapped i-cache.
        let (cfg, ids) = chain(40);
        let config = CacheConfig::lee_style();
        let layout: Vec<(BlockId, u64, u64)> = ids
            .iter()
            .map(|b| (*b, b.index() as u64 * 64, 64))
            .collect();
        let mut acc = AccessMap::from_code_layout(&layout, &config);
        for &b in ids.iter().step_by(4) {
            acc.push(b, 0x10000);
            acc.push(b, 0x10010);
        }
        let ucb = UcbAnalysis::analyze(&cfg, &acc, &config).unwrap();
        // The shared buffer is useful between its uses.
        let between = ids[1]; // between step-4 users 0 and 4
        let buffer_line = 0x10000 / 16;
        let set = config.set_of_block(buffer_line);
        assert!(ucb.useful_blocks(between)[set].contains(&buffer_line));
        // Straight-line code is never reused: only the buffer and the
        // block's own lines count.
        assert!(ucb.ucb_count(between) <= 4 + 2);
    }

    #[test]
    fn validates_access_map() {
        let (cfg, _) = chain(2);
        let mut acc = AccessMap::new();
        acc.set(BlockId(9), vec![0]);
        assert!(matches!(
            UcbAnalysis::analyze(&cfg, &acc, &config()),
            Err(CacheError::UnknownBlock { index: 9 })
        ));
    }

    #[test]
    fn empty_access_map_has_no_useful_blocks() {
        let (cfg, ids) = chain(3);
        let ucb = UcbAnalysis::analyze(&cfg, &AccessMap::new(), &config()).unwrap();
        for &b in &ids {
            assert_eq!(ucb.ucb_count(b), 0);
        }
    }

    #[test]
    fn diamond_merges_paths() {
        // entry loads line 0; branches b1 (reuses line 0) / b2 (loads
        // conflicting line 4); join reuses line 0.
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
        let mut acc = AccessMap::new();
        acc.set(entry, vec![0]);
        acc.set(left, vec![0]);
        acc.set(right, vec![64]); // line 4, conflicts with line 0
        acc.set(join, vec![0]);
        let ucb = UcbAnalysis::analyze(&cfg, &acc, &config()).unwrap();
        // On the left path line 0 stays cached and is reused at the join:
        // useful during left. May-analysis keeps it useful during right too
        // (it may be cached -- no: right's last access replaces set 0 ...)
        assert!(ucb.useful_blocks(left)[0].contains(&0));
        // At the join, line 0 may be cached (left path) and is accessed.
        assert!(ucb.useful_blocks(join)[0].contains(&0));
    }
}
