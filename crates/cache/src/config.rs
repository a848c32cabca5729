//! Cache geometry and cost model.

use crate::error::CacheError;

/// Geometry and timing of one cache level.
///
/// Addresses are byte addresses; a *memory block* is an address range of one
/// cache line, identified by `address / line_bytes`; blocks map to sets by
/// `block % sets` (modulo placement, the standard hardware policy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    sets: usize,
    associativity: usize,
    line_bytes: u64,
    reload_cost: f64,
}

impl CacheConfig {
    /// Creates a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] if any parameter is out of range (zero
    /// sets/ways/line bytes, negative or non-finite reload cost).
    ///
    /// ```
    /// use fnpr_cache::CacheConfig;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// // 64-set, direct-mapped, 32-byte lines, 10 cycles per reload.
    /// let config = CacheConfig::new(64, 1, 32, 10.0)?;
    /// assert_eq!(config.set_of(0x1000), (0x1000 / 32) % 64);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(
        sets: usize,
        associativity: usize,
        line_bytes: u64,
        reload_cost: f64,
    ) -> Result<Self, CacheError> {
        if sets == 0 {
            return Err(CacheError::NoSets);
        }
        if associativity == 0 {
            return Err(CacheError::NoWays);
        }
        if line_bytes == 0 {
            return Err(CacheError::NoLineBytes);
        }
        if !(reload_cost.is_finite() && reload_cost >= 0.0) {
            return Err(CacheError::BadReloadCost { cost: reload_cost });
        }
        Ok(Self {
            sets,
            associativity,
            line_bytes,
            reload_cost,
        })
    }

    /// A direct-mapped instruction cache typical of the CRPD literature:
    /// 256 sets, 16-byte lines, reload cost 10.
    #[must_use]
    pub fn lee_style() -> Self {
        Self::new(256, 1, 16, 10.0).expect("static configuration")
    }

    /// Number of cache sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Ways per set (1 = direct-mapped).
    #[must_use]
    pub fn associativity(&self) -> usize {
        self.associativity
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Time to reload one evicted line.
    #[must_use]
    pub fn reload_cost(&self) -> f64 {
        self.reload_cost
    }

    /// Returns `true` for a direct-mapped cache.
    #[must_use]
    pub fn is_direct_mapped(&self) -> bool {
        self.associativity == 1
    }

    /// The memory block (line-granule id) containing a byte address.
    #[must_use]
    pub fn block_of(&self, address: u64) -> u64 {
        address / self.line_bytes
    }

    /// The cache set a byte address maps to.
    #[must_use]
    pub fn set_of(&self, address: u64) -> usize {
        (self.block_of(address) % self.sets as u64) as usize
    }

    /// The cache set a memory block maps to.
    #[must_use]
    pub fn set_of_block(&self, block: u64) -> usize {
        (block % self.sets as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(CacheConfig::new(0, 1, 16, 1.0).is_err());
        assert!(CacheConfig::new(4, 0, 16, 1.0).is_err());
        assert!(CacheConfig::new(4, 1, 0, 1.0).is_err());
        assert!(CacheConfig::new(4, 1, 16, -1.0).is_err());
        assert!(CacheConfig::new(4, 1, 16, f64::NAN).is_err());
        assert!(CacheConfig::new(4, 2, 16, 0.0).is_ok());
    }

    #[test]
    fn address_mapping() {
        let c = CacheConfig::new(4, 1, 16, 10.0).unwrap();
        assert_eq!(c.block_of(0), 0);
        assert_eq!(c.block_of(15), 0);
        assert_eq!(c.block_of(16), 1);
        assert_eq!(c.set_of(0), 0);
        assert_eq!(c.set_of(16), 1);
        assert_eq!(c.set_of(64), 0); // wraps around 4 sets
        assert_eq!(c.set_of_block(7), 3);
    }

    #[test]
    fn accessors() {
        let c = CacheConfig::lee_style();
        assert_eq!(c.sets(), 256);
        assert!(c.is_direct_mapped());
        assert_eq!(c.line_bytes(), 16);
        assert_eq!(c.reload_cost(), 10.0);
        let a2 = CacheConfig::new(8, 2, 32, 5.0).unwrap();
        assert!(!a2.is_direct_mapped());
        assert_eq!(a2.associativity(), 2);
    }
}
