//! The workspace's one structural hasher.
//!
//! A streaming FNV-1a-style mixer with a murmur-style final avalanche:
//! stable across platforms and runs — reproducible campaign/scenario ids
//! need that — and not DoS-resistant (irrelevant here). [`DelayCurve`]
//! hashes its segments on first use and caches the result
//! ([`DelayCurve::structural_hash`]), and `fnpr-campaign` re-exports this
//! type as its `ScenarioHasher` for every other memo key, so there is a
//! single definition of the mixing scheme: a change here shows up in both
//! users at once instead of silently splitting their key spaces.
//!
//! # 64-bit vs 128-bit finishes
//!
//! The hasher keeps **two independent 64-bit lanes**. Lane `a` is the
//! original mixer, byte-for-byte: [`StructuralHasher::finish`] avalanches
//! it alone, so every historical 64-bit value (RNG stream seeds, shard
//! selectors, cached curve hashes) is unchanged. Lane `b` sees the same
//! words through a different pre-rotation, seed and multiplier, and
//! [`StructuralHasher::finish128`] returns `high(b) << 64 | finish(a)` —
//! the low word of a 128-bit key **is** the 64-bit key. Memo tables and
//! the on-disk result store key by the 128-bit value (a collision needs
//! both lanes to collide at once), while sharding and seed derivation keep
//! using the low word.
//!
//! [`DelayCurve`]: crate::DelayCurve
//! [`DelayCurve::structural_hash`]: crate::DelayCurve::structural_hash

/// A streaming structural hasher for memo/scenario keys.
#[derive(Debug, Clone, Copy)]
pub struct StructuralHasher {
    /// The original 64-bit lane; [`Self::finish`] depends on it alone.
    a: u64,
    /// The widening lane: same words, independent seed/rotation/multiplier.
    b: u64,
}

impl StructuralHasher {
    /// A fresh hasher with a domain-separation tag (use a distinct tag per
    /// key kind so e.g. task-set keys can never collide with curve keys).
    #[must_use]
    pub fn new(tag: u64) -> Self {
        Self {
            a: 0xcbf2_9ce4_8422_2325 ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            b: 0x6c62_272e_07bb_0142 ^ tag.wrapping_mul(0xc2b2_ae3d_27d4_eb4f),
        }
    }

    /// Mixes one word.
    #[must_use]
    pub fn word(mut self, w: u64) -> Self {
        self.a = (self.a ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        self.a ^= self.a >> 29;
        // Lane b: pre-rotate the input and use a different odd multiplier
        // and shift, so words that collide lane a's state do not collide
        // lane b's.
        self.b = (self.b ^ w.rotate_left(24)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.b ^= self.b >> 31;
        self
    }

    /// Mixes a 128-bit word (e.g. another hasher's [`Self::finish128`]), low
    /// half first.
    #[must_use]
    pub fn word128(self, w: u128) -> Self {
        self.word(w as u64).word((w >> 64) as u64)
    }

    /// Mixes a float by bit pattern, canonicalized so that *equal inputs
    /// hash equally*: `-0.0` normalizes to `0.0`, and every NaN bit pattern
    /// (quiet/signalling, any payload, either sign) collapses to one
    /// canonical word. Without the NaN rule, two runs producing NaN through
    /// different operations could disagree on a scenario hash — silently
    /// defeating `(curve, Q)` memoization and shard determinism.
    #[must_use]
    pub fn f64(self, x: f64) -> Self {
        let bits = if x.is_nan() {
            0x7ff8_0000_0000_0000 // canonical quiet NaN
        } else if x == 0.0 {
            0 // +0.0; also reached for -0.0
        } else {
            x.to_bits()
        };
        self.word(bits)
    }

    /// Mixes a string.
    #[must_use]
    pub fn str(mut self, s: &str) -> Self {
        for b in s.bytes() {
            self = self.word(u64::from(b));
        }
        self.word(0xff ^ s.len() as u64)
    }

    /// Final avalanche of the original lane. Value-compatible with every
    /// release of this hasher: the widening lane does not feed it.
    #[must_use]
    pub fn finish(self) -> u64 {
        let mut h = self.a;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    /// 128-bit finish: the high word avalanches lane `b` (SplitMix64
    /// finalizer), the low word **is** [`Self::finish`]. `key as u64`
    /// therefore recovers the historical 64-bit value — in-process shard
    /// selection and RNG stream seeding stay value-compatible while memo
    /// and store keys get genuine 128-bit collision resistance.
    #[must_use]
    pub fn finish128(self) -> u128 {
        let mut h = self.b;
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (u128::from(h) << 64) | u128::from(self.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separates_domains_and_values() {
        let a = StructuralHasher::new(1).f64(0.5).finish();
        let b = StructuralHasher::new(2).f64(0.5).finish();
        let c = StructuralHasher::new(1).f64(0.25).finish();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, StructuralHasher::new(1).f64(0.5).finish());
    }

    #[test]
    fn canonicalizes_zeros_and_nans() {
        assert_eq!(
            StructuralHasher::new(0).f64(0.0).finish(),
            StructuralHasher::new(0).f64(-0.0).finish()
        );
        let canonical = StructuralHasher::new(0).f64(f64::NAN).finish();
        for bits in [0x7ff8_0000_0000_0001u64, 0xfff0_dead_beef_0001] {
            let x = f64::from_bits(bits);
            assert!(x.is_nan());
            assert_eq!(StructuralHasher::new(0).f64(x).finish(), canonical);
        }
        assert_ne!(
            canonical,
            StructuralHasher::new(0).f64(f64::INFINITY).finish()
        );
    }

    #[test]
    fn strings_are_length_prefixed() {
        let ab_c = StructuralHasher::new(0).str("ab").str("c").finish();
        let a_bc = StructuralHasher::new(0).str("a").str("bc").finish();
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn finish_is_the_low_word_of_finish128() {
        for (tag, words) in [(0u64, vec![]), (7, vec![42u64]), (1, vec![1, 2, 3])] {
            let mut h = StructuralHasher::new(tag);
            for w in words {
                h = h.word(w);
            }
            assert_eq!(h.finish128() as u64, h.finish());
        }
        // Mixed-input shapes too (floats and strings).
        let h = StructuralHasher::new(9).f64(0.25).str("x").word(3);
        assert_eq!(h.finish128() as u64, h.finish());
    }

    #[test]
    fn finish_is_value_compatible_with_the_single_lane_hasher() {
        // Golden values computed with the pre-widening (single u64 lane)
        // implementation: lane `a` must never change, or every persisted
        // seed derivation and store key silently shifts.
        let reference = |tag: u64, words: &[u64]| -> u64 {
            let mut h = 0xcbf2_9ce4_8422_2325u64 ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for &w in words {
                h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
                h ^= h >> 29;
            }
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
            h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            h ^ (h >> 33)
        };
        for (tag, words) in [
            (0u64, vec![]),
            (0x4341_4d50, vec![2012u64]),
            (7, vec![1, u64::MAX, 0x8000_0000_0000_0000]),
        ] {
            let mut h = StructuralHasher::new(tag);
            for &w in &words {
                h = h.word(w);
            }
            assert_eq!(h.finish(), reference(tag, &words));
        }
    }

    #[test]
    fn high_word_is_independent_of_the_low_word() {
        // The two lanes must not be re-derivable from each other: across a
        // sample of inputs the high words differ even where low-word bits
        // agree, and the high word tracks the same distinctions the low
        // word does (domains, values, order).
        let k = |tag: u64, ws: &[u64]| {
            let mut h = StructuralHasher::new(tag);
            for &w in ws {
                h = h.word(w);
            }
            h.finish128()
        };
        let hi = |x: u128| (x >> 64) as u64;
        assert_ne!(hi(k(1, &[5])), hi(k(2, &[5])));
        assert_ne!(hi(k(1, &[5])), hi(k(1, &[6])));
        assert_ne!(hi(k(1, &[5, 6])), hi(k(1, &[6, 5])));
        // And the high word is not trivially equal to the low word.
        assert_ne!(hi(k(1, &[5])), k(1, &[5]) as u64);
    }

    #[test]
    fn word128_is_low_then_high() {
        let w: u128 = (7u128 << 64) | 9;
        assert_eq!(
            StructuralHasher::new(0).word128(w).finish128(),
            StructuralHasher::new(0).word(9).word(7).finish128()
        );
    }
}
