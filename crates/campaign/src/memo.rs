//! Scenario-hash memoization.
//!
//! Campaign grids repeat work by construction: the same base task set is
//! analysed under both fixed-priority and EDF policies, `[cfg]` cache
//! geometries that differ only in set count derive identical `(curve, Q)`
//! pairs, and duplicated grid points are common in hand-written sweeps.
//! The [`Memo`] table keys cached results by a structural hash of the
//! scenario inputs so each is computed exactly once per process. Across
//! processes only finished points persist, in [`crate::store`].
//!
//! Memoization never affects results — a hit returns exactly the value a
//! recomputation would produce (all analyses are deterministic functions of
//! their inputs) — so the sharded executor stays bit-identical at any
//! thread count even though hit/miss *counts* are scheduling-dependent.
//!
//! Keys are **128-bit** structural hashes ([`ScenarioHasher::finish128`]).
//! The table used to key by the bare 64-bit finish, which meant two
//! distinct scenarios colliding in 64 bits silently shared one cached
//! result — survivable odds within a process, but fatal once the same keys
//! address the persistent [`crate::store`] across runs and machines. Shard
//! selection still uses the low word (value-compatible with the historical
//! 64-bit hash by construction).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked shards. Power of two; small because the
/// working set per campaign is modest — the point is collision avoidance
/// between worker threads, not a concurrent-map benchmark.
const SHARDS: usize = 16;

/// The observability side channel of a named memo: per-table and aggregate
/// hit/miss counters in the global [`fnpr_obs`] registry. Write-only — the
/// deterministic aggregates never read these.
#[derive(Clone, Copy)]
struct MemoObs {
    hit: fnpr_obs::Counter,
    miss: fnpr_obs::Counter,
    all_hit: fnpr_obs::Counter,
    all_miss: fnpr_obs::Counter,
}

/// A sharded, thread-safe memo table from 128-bit scenario hashes to
/// results.
pub struct Memo<V> {
    shards: Vec<Mutex<HashMap<u128, V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    obs: Option<MemoObs>,
}

impl<V: Clone> Memo<V> {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            obs: None,
        }
    }

    /// An empty table that additionally mirrors its hit/miss counts into
    /// the global telemetry registry, under `campaign.memo.<table>.hit` /
    /// `.miss` plus the cross-table aggregates `campaign.memo.hit` /
    /// `campaign.memo.miss`. Purely a side channel: the [`Self::stats`]
    /// counters and all campaign outputs are unaffected.
    #[must_use]
    pub fn named(table: &str) -> Self {
        let mut memo = Self::new();
        memo.obs = Some(MemoObs {
            hit: fnpr_obs::counter(&format!("campaign.memo.{table}.hit")),
            miss: fnpr_obs::counter(&format!("campaign.memo.{table}.miss")),
            all_hit: fnpr_obs::counter("campaign.memo.hit"),
            all_miss: fnpr_obs::counter("campaign.memo.miss"),
        });
        memo
    }

    /// Returns the cached value for `key`, or computes, stores and returns
    /// it. `compute` may run more than once across racing threads; all
    /// computed values for a key are identical by construction, so either
    /// insertion wins harmlessly.
    pub fn get_or_insert_with(&self, key: u128, compute: impl FnOnce() -> V) -> V {
        // Shard by the low word alone: it is the historical 64-bit hash, so
        // shard occupancy is unchanged by the key widening.
        let shard = &self.shards[(key as u64 as usize) % SHARDS];
        if let Some(v) = shard.lock().expect("memo shard poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(obs) = self.obs {
                obs.hit.incr();
                obs.all_hit.incr();
            }
            return v.clone();
        }
        // Compute outside the lock: analyses can be orders of magnitude
        // slower than a map insert, and holding a shard would serialize
        // unrelated keys.
        let value = compute();
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = self.obs {
            obs.miss.incr();
            obs.all_miss.incr();
        }
        shard
            .lock()
            .expect("memo shard poisoned")
            .entry(key)
            .or_insert_with(|| value.clone());
        value
    }

    /// Hit/miss counters since construction. Informational only — these are
    /// scheduling-dependent and deliberately excluded from deterministic
    /// campaign aggregates.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl<V: Clone> Default for Memo<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Counters reported on stderr after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
}

impl std::ops::Add for MemoStats {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
        }
    }
}

/// The streaming structural hasher for scenario keys — the *same*
/// implementation `fnpr-core` uses for `DelayCurve::structural_hash`,
/// re-exported under the campaign's historical name so there is exactly
/// one definition of the mixing scheme in the workspace (a drift between
/// two copies would silently split the memo key spaces).
pub use fnpr_core::StructuralHasher as ScenarioHasher;

/// Feeds a list preceded by its length, each item through `item`. Every
/// variable-length hash section is length-prefixed: without it,
/// `cores = [2, 11]` + `policies = [edf]` would alias `cores = [2]` +
/// `policies = [fp, edf]` (user-chosen values can collide with the tag
/// alphabets).
pub(crate) fn hash_list<T: Copy>(
    h: ScenarioHasher,
    items: &[T],
    item: impl Fn(ScenarioHasher, T) -> ScenarioHasher,
) -> ScenarioHasher {
    items
        .iter()
        .fold(h.word(items.len() as u64), |h, &x| item(h, x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnpr_core::DelayCurve;

    #[test]
    fn memo_caches_and_counts() {
        let memo: Memo<f64> = Memo::new();
        let mut calls = 0;
        for _ in 0..3 {
            let v = memo.get_or_insert_with(42, || {
                calls += 1;
                7.5
            });
            assert_eq!(v, 7.5);
        }
        assert_eq!(calls, 1);
        assert_eq!(memo.stats(), MemoStats { hits: 2, misses: 1 });
    }

    #[test]
    fn named_memo_mirrors_counts_into_the_obs_registry() {
        // Delta assertions on a uniquely named table keep this robust
        // against other tests sharing the process-global registry.
        fnpr_obs::set_enabled(true);
        let hit = fnpr_obs::counter("campaign.memo.test_memo_mirror.hit");
        let miss = fnpr_obs::counter("campaign.memo.test_memo_mirror.miss");
        let (h0, m0) = (hit.value(), miss.value());
        let memo: Memo<u8> = Memo::named("test_memo_mirror");
        for _ in 0..3 {
            memo.get_or_insert_with(9, || 4);
        }
        assert_eq!(memo.stats(), MemoStats { hits: 2, misses: 1 });
        assert_eq!(hit.value() - h0, 2);
        assert_eq!(miss.value() - m0, 1);
    }

    #[test]
    fn colliding_64_bit_keys_no_longer_alias() {
        // Regression for the bare-u64 key scheme: two distinct scenarios
        // whose hashes agree in the low 64 bits (same shard, same legacy
        // key) must keep separate entries now that keys are 128-bit.
        let memo: Memo<u32> = Memo::new();
        let low = 0xdead_beef_0123_4567u64;
        let a = u128::from(low); // high word 0
        let b = (1u128 << 64) | u128::from(low); // same low word, high 1
        assert_eq!(a as u64, b as u64, "keys must share the 64-bit shard key");
        let va = memo.get_or_insert_with(a, || 1);
        let vb = memo.get_or_insert_with(b, || 2);
        assert_eq!((va, vb), (1, 2), "64-bit-colliding scenarios aliased");
        // And both entries stay independently retrievable.
        assert_eq!(memo.get_or_insert_with(a, || 99), 1);
        assert_eq!(memo.get_or_insert_with(b, || 99), 2);
        assert_eq!(memo.stats(), MemoStats { hits: 2, misses: 2 });
    }

    #[test]
    fn curve_hash128_low_word_is_curve_hash() {
        let curve = DelayCurve::from_breakpoints([(0.0, 8.0), (40.0, 1.0)], 100.0).unwrap();
        assert_eq!(curve.structural_hash128() as u64, curve.structural_hash());
        // The high word actually distinguishes (not zero-padded).
        assert_ne!(curve.structural_hash128() >> 64, 0);
    }

    #[test]
    fn hasher_separates_domains_and_values() {
        let a = ScenarioHasher::new(1).f64(0.5).finish();
        let b = ScenarioHasher::new(2).f64(0.5).finish();
        let c = ScenarioHasher::new(1).f64(0.25).finish();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, ScenarioHasher::new(1).f64(0.5).finish());
    }

    #[test]
    fn zero_normalization() {
        assert_eq!(
            ScenarioHasher::new(0).f64(0.0).finish(),
            ScenarioHasher::new(0).f64(-0.0).finish()
        );
    }

    #[test]
    fn nan_bit_patterns_hash_identically() {
        let canonical = ScenarioHasher::new(0).f64(f64::NAN).finish();
        for bits in [
            0x7ff8_0000_0000_0000u64, // quiet NaN
            0x7ff8_0000_0000_0001,    // payload variant
            0x7ff0_0000_0000_0001,    // signalling NaN
            0xfff8_0000_0000_0000,    // negative quiet NaN
            0xfff0_dead_beef_0001,    // negative signalling with payload
        ] {
            let x = f64::from_bits(bits);
            assert!(x.is_nan());
            assert_eq!(
                ScenarioHasher::new(0).f64(x).finish(),
                canonical,
                "NaN bits {bits:#x} hashed differently"
            );
        }
        // And NaN stays distinct from ordinary values and infinities.
        assert_ne!(canonical, ScenarioHasher::new(0).f64(0.0).finish());
        assert_ne!(
            canonical,
            ScenarioHasher::new(0).f64(f64::INFINITY).finish()
        );
    }

    #[test]
    fn curve_hash_distinguishes_shapes() {
        let a = DelayCurve::from_breakpoints([(0.0, 8.0), (40.0, 1.0)], 100.0).unwrap();
        let b = DelayCurve::from_breakpoints([(0.0, 8.0), (40.0, 2.0)], 100.0).unwrap();
        let a2 = DelayCurve::from_breakpoints([(0.0, 8.0), (40.0, 1.0)], 100.0).unwrap();
        assert_ne!(a.structural_hash(), b.structural_hash());
        assert_eq!(a.structural_hash(), a2.structural_hash());
    }

    #[test]
    fn cached_curve_hash_matches_the_legacy_segment_walk() {
        // The campaign used to re-hash every segment per call via
        // ScenarioHasher; the cached fnpr-core hash must produce the exact
        // same value so memo keys stay stable across the refactor.
        let curves = [
            DelayCurve::from_breakpoints([(0.0, 8.0), (40.0, 1.0)], 100.0).unwrap(),
            DelayCurve::constant(0.0, 7.5).unwrap(),
            DelayCurve::from_breakpoints([(0.0, 1.5), (2.0, 0.0), (60.0, 9.25)], 64.0).unwrap(),
        ];
        for curve in &curves {
            let mut h = ScenarioHasher::new(0x43_55_52_56); // "CURV"
            for seg in curve.segments() {
                h = h.f64(seg.start).f64(seg.end).f64(seg.value);
            }
            let legacy = h.f64(curve.domain_end()).finish();
            assert_eq!(curve.structural_hash(), legacy);
        }
    }
}
