//! Evicting cache blocks of preempting tasks.

use crate::access::AccessMap;
use crate::bits;
use crate::config::CacheConfig;

/// The cache sets a (set of) preempting task(s) may touch — anything the
/// preempted task had cached in those sets may be evicted during a
/// preemption.
///
/// Held as a bit vector over set indices, without trailing zero words, so
/// equal sets compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EcbSet {
    words: Vec<u64>,
}

impl EcbSet {
    /// An empty set (a preempter that touches nothing).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from explicit cache-set indices. The set holds one bit per
    /// index up to the largest one given.
    #[must_use]
    pub fn from_sets<I: IntoIterator<Item = usize>>(sets: I) -> Self {
        let mut words = Vec::new();
        for s in sets {
            if words.len() <= s / 64 {
                words.resize(s / 64 + 1, 0);
            }
            bits::insert(&mut words, s);
        }
        Self { words }
    }

    /// The full-damage ECB: every set of the cache (used when the preempter
    /// is unknown, the conservative default of the paper's Section IV).
    #[must_use]
    pub fn full(config: &CacheConfig) -> Self {
        let sets = config.sets();
        let mut words = vec![u64::MAX; sets / 64];
        if !sets.is_multiple_of(64) {
            words.push((1 << (sets % 64)) - 1);
        }
        Self { words }
    }

    /// The sets touched by a task, from its access map.
    ///
    /// ```
    /// use fnpr_cache::{AccessMap, CacheConfig, EcbSet};
    /// use fnpr_cfg::BlockId;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let config = CacheConfig::new(4, 1, 16, 10.0)?;
    /// let mut acc = AccessMap::new();
    /// acc.set(BlockId(0), vec![0, 16, 64]); // sets 0, 1, 0
    /// let ecb = EcbSet::of_task(&acc, &config);
    /// assert_eq!(ecb.len(), 2);
    /// assert!(ecb.contains(0) && ecb.contains(1));
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn of_task(accesses: &AccessMap, config: &CacheConfig) -> Self {
        Self::from_sets(
            accesses
                .iter()
                .flat_map(|(_, addrs)| addrs.iter().map(|&a| config.set_of(a))),
        )
    }

    /// Union with another ECB set (several potential preempters).
    #[must_use]
    pub fn union(&self, other: &EcbSet) -> EcbSet {
        let (mut words, shorter) = if self.words.len() >= other.words.len() {
            (self.words.clone(), &other.words)
        } else {
            (other.words.clone(), &self.words)
        };
        for (w, o) in words.iter_mut().zip(shorter) {
            *w |= o;
        }
        EcbSet { words }
    }

    /// Returns `true` if cache set `s` may be damaged.
    #[must_use]
    pub fn contains(&self, s: usize) -> bool {
        bits::contains(&self.words, s)
    }

    /// Number of damaged sets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no set is damaged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Iterates over the damaged set indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        bits::ones(&self.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnpr_cfg::BlockId;

    #[test]
    fn of_task_collects_sets() {
        let config = CacheConfig::new(8, 1, 16, 10.0).unwrap();
        let mut acc = AccessMap::new();
        acc.set(BlockId(0), vec![0, 16]);
        acc.set(BlockId(1), vec![128]); // line 8 -> set 0
        let ecb = EcbSet::of_task(&acc, &config);
        assert_eq!(ecb.len(), 2);
        assert!(ecb.contains(0));
        assert!(ecb.contains(1));
        assert!(!ecb.contains(2));
    }

    #[test]
    fn union_and_full() {
        let config = CacheConfig::new(4, 1, 16, 10.0).unwrap();
        let a = EcbSet::from_sets([0, 1]);
        let b = EcbSet::from_sets([1, 3]);
        let u = a.union(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![0, 1, 3]);
        let full = EcbSet::full(&config);
        assert_eq!(full.len(), 4);
        assert!(EcbSet::new().is_empty());
        assert!(!full.is_empty());
    }
}
