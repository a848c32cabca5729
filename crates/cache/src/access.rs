//! Per-basic-block memory access sequences.

use std::collections::BTreeMap;

use fnpr_cfg::{BlockId, Cfg};

use crate::config::CacheConfig;
use crate::error::CacheError;

/// Ordered memory accesses (byte addresses) of every basic block of one
/// task.
///
/// This is the cache-model view of the task: `fnpr-cfg` deliberately does
/// not store accesses, so the same graph can be analysed under different
/// memory layouts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessMap {
    accesses: BTreeMap<BlockId, Vec<u64>>,
}

impl AccessMap {
    /// Creates an empty map (blocks without entries access nothing).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the ordered access list of a block, replacing any previous list.
    pub fn set(&mut self, block: BlockId, addresses: Vec<u64>) -> &mut Self {
        self.accesses.insert(block, addresses);
        self
    }

    /// Appends one access to a block's list.
    pub fn push(&mut self, block: BlockId, address: u64) -> &mut Self {
        self.accesses.entry(block).or_default().push(address);
        self
    }

    /// The ordered accesses of a block (empty if none registered).
    #[must_use]
    pub fn of(&self, block: BlockId) -> &[u64] {
        self.accesses.get(&block).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates over `(block, accesses)` pairs in block order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &[u64])> {
        self.accesses.iter().map(|(&b, v)| (b, v.as_slice()))
    }

    /// Checks that every referenced block exists in `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownBlock`] for the first out-of-range block.
    pub fn validate(&self, cfg: &Cfg) -> Result<(), CacheError> {
        for &block in self.accesses.keys() {
            if block.index() >= cfg.len() {
                return Err(CacheError::UnknownBlock {
                    index: block.index(),
                });
            }
        }
        Ok(())
    }

    /// Derives an access map for straight-line *instruction fetches*: block
    /// `b` occupies `size` bytes (at least one) starting at `base`, and
    /// fetches one access per line it spans, in address order. The first
    /// access is `base` itself and every later one the start of its line,
    /// so a block that starts or ends mid-line still fetches both partial
    /// lines. A convenient generator for instruction-cache studies (the
    /// paper's \[3\] models i-caches).
    ///
    /// ```
    /// use fnpr_cache::{AccessMap, CacheConfig};
    /// use fnpr_cfg::BlockId;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let config = CacheConfig::new(16, 1, 32, 10.0)?;
    /// // Bytes 24..48 straddle lines 0 and 1.
    /// let map = AccessMap::from_code_layout(&[(BlockId(0), 24, 24)], &config);
    /// assert_eq!(map.of(BlockId(0)), &[24, 32]);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn from_code_layout(layout: &[(BlockId, u64, u64)], config: &CacheConfig) -> Self {
        let mut map = Self::new();
        for &(block, base, size) in layout {
            let lines = config.block_of(base)..=config.block_of(base + size.max(1) - 1);
            let addresses = lines
                .map(|line| (line * config.line_bytes()).max(base))
                .collect();
            map.set(block, addresses);
        }
        map
    }

    /// All distinct memory blocks (line-granule) touched by the whole task.
    #[must_use]
    pub fn touched_blocks(&self, config: &CacheConfig) -> Vec<u64> {
        let mut blocks: Vec<u64> = self
            .accesses
            .values()
            .flatten()
            .map(|&a| config.block_of(a))
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnpr_cfg::{CfgBuilder, ExecInterval};

    fn two_block_cfg() -> Cfg {
        let mut b = CfgBuilder::new();
        let x = b.block(ExecInterval::new(1.0, 1.0).unwrap());
        let y = b.block(ExecInterval::new(1.0, 1.0).unwrap());
        b.edge(x, y).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn set_push_and_query() {
        let mut map = AccessMap::new();
        map.set(BlockId(0), vec![0, 16]).push(BlockId(0), 32);
        assert_eq!(map.of(BlockId(0)), &[0, 16, 32]);
        assert!(map.of(BlockId(1)).is_empty());
        assert_eq!(map.iter().count(), 1);
    }

    #[test]
    fn validation_against_cfg() {
        let cfg = two_block_cfg();
        let mut map = AccessMap::new();
        map.set(BlockId(1), vec![0]);
        assert!(map.validate(&cfg).is_ok());
        map.set(BlockId(5), vec![0]);
        assert!(matches!(
            map.validate(&cfg),
            Err(CacheError::UnknownBlock { index: 5 })
        ));
    }

    #[test]
    fn code_layout_generates_line_fetches() {
        let config = CacheConfig::new(16, 1, 16, 10.0).unwrap();
        let map = AccessMap::from_code_layout(&[(BlockId(0), 0, 40), (BlockId(1), 40, 8)], &config);
        // 40 bytes from 0: lines at 0, 16, 32.
        assert_eq!(map.of(BlockId(0)), &[0, 16, 32]);
        // 8 bytes from 40: single access at 40.
        assert_eq!(map.of(BlockId(1)), &[40]);
        // A block starting mid-line also fetches the line it ends in.
        let lines32 = CacheConfig::new(16, 1, 32, 10.0).unwrap();
        let map = AccessMap::from_code_layout(&[(BlockId(0), 24, 24)], &lines32);
        assert_eq!(map.of(BlockId(0)), &[24, 32]);
        let map = AccessMap::from_code_layout(&[(BlockId(0), 8, 16)], &config);
        assert_eq!(map.of(BlockId(0)), &[8, 16]);
    }

    #[test]
    fn array_walks_generate_strided_accesses() {
        // Column walk: 3 x 8-byte elements, 16 elements apart (e.g. a
        // row-major matrix column).
        let mut map = AccessMap::new();
        map.set(BlockId(0), (0..3).map(|k| k * 16 * 8).collect());
        assert_eq!(map.of(BlockId(0)), &[0, 128, 256]);
        // A stride-16 walk with 16-byte lines touches a new line each time.
        let config = CacheConfig::new(8, 1, 16, 10.0).unwrap();
        assert_eq!(map.touched_blocks(&config).len(), 3);
    }

    #[test]
    fn touched_blocks_dedup() {
        let config = CacheConfig::new(4, 1, 16, 10.0).unwrap();
        let mut map = AccessMap::new();
        map.set(BlockId(0), vec![0, 4, 8, 16]); // lines 0, 0, 0, 1
        map.set(BlockId(1), vec![16, 64]); // lines 1, 4
        assert_eq!(map.touched_blocks(&config), vec![0, 1, 4]);
    }
}
