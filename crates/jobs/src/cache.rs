//! A sharded, thread-safe, **bounded** memoization cache for NBTI model
//! evaluations.
//!
//! Keys are [`StressKey`]s (quantized stress points); the stored value is
//! the model's ΔV_th at the key's *canonical* point. Because
//! [`StressKey::evaluate`] is a pure function of the key, two threads that
//! race on the same missing key compute the identical value — insertion
//! order cannot change any result, which is what keeps multi-worker sweeps
//! byte-identical to single-worker ones.
//!
//! Sharding bounds contention: the key's FNV fingerprint picks one of `N`
//! independently locked hash maps, so workers rarely serialize on the same
//! mutex even under full cache pressure.
//!
//! Capacity bounds memory: each shard holds at most `capacity` entries and
//! evicts its least-recently-*touched* entry (tracked by a per-shard use
//! tick) when a new key would overflow it. Long-running servers therefore
//! cannot grow the memo table without bound, and eviction pressure is
//! observable through [`CacheStats::evictions`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use relia_core::{ModelError, NbtiModel, StressKey};
use relia_flow::DeltaVthCache;

/// Default shard count: enough to keep a machine's worth of workers off
/// each other's locks without wasting memory on tiny sweeps.
pub const DEFAULT_SHARDS: usize = 16;

/// Default per-shard capacity. With [`DEFAULT_SHARDS`] shards this caps the
/// table at 65 536 stress points — far beyond any sweep in the repo, small
/// enough (~4 MB) that a resident server stays bounded.
pub const DEFAULT_PER_SHARD_CAPACITY: usize = 4096;

/// Hit/miss/occupancy snapshot of a [`ShardedCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the memo table.
    pub hits: u64,
    /// Lookups that had to evaluate the model.
    pub misses: u64,
    /// Distinct keys currently stored.
    pub entries: usize,
    /// Entries displaced to respect the per-shard capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One shard: a hash map of `key → (value, last-touched tick)` plus the
/// shard's monotonically increasing tick counter.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<StressKey, (f64, u64)>,
    tick: u64,
}

impl Shard {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// A sharded, capacity-bounded ΔV_th memo table shared by all sweep
/// workers.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ShardedCache {
    fn default() -> Self {
        ShardedCache::new(DEFAULT_SHARDS)
    }
}

impl ShardedCache {
    /// A cache with `shards` independently locked segments (min 1), each
    /// bounded at [`DEFAULT_PER_SHARD_CAPACITY`] entries.
    pub fn new(shards: usize) -> Self {
        ShardedCache::with_capacity(shards, DEFAULT_PER_SHARD_CAPACITY)
    }

    /// A cache with `shards` segments of at most `per_shard` entries each
    /// (both clamped to a minimum of 1).
    pub fn with_capacity(shards: usize, per_shard: usize) -> Self {
        ShardedCache {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            capacity: per_shard.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Maximum entries across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity * self.shards.len()
    }

    /// Counters and occupancy at this instant.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                // relia-lint: allow(unwrap-in-lib)
                .map(|s| s.lock().expect("cache shard poisoned").map.len())
                .sum(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn shard(&self, key: &StressKey) -> &Mutex<Shard> {
        &self.shards[key.fingerprint() as usize % self.shards.len()]
    }

    /// Read-only lookup: the memoized ΔV_th for `key`, if present.
    /// Refreshes the entry's LRU tick (a key a brownout keeps answering
    /// from should stay resident) but records neither a hit nor a miss —
    /// cache-hit-only serving must not skew the hit-rate statistics.
    pub fn peek(&self, key: &StressKey) -> Option<f64> {
        let mut shard = self
            .shard(key)
            .lock()
            // relia-lint: allow(unwrap-in-lib)
            .expect("cache shard poisoned");
        let tick = shard.touch();
        let entry = shard.map.get_mut(key)?;
        entry.1 = tick;
        Some(entry.0)
    }

    /// Admits `value` for `key` only after a finiteness check: a NaN or
    /// infinite ΔV_th is rejected as [`ModelError::NonFinite`] and **never
    /// enters the memo table**, where it would silently poison every later
    /// hit. All insertion paths go through here; a full shard first evicts
    /// its least-recently-touched entry.
    pub fn insert_checked(&self, key: StressKey, value: f64) -> Result<f64, ModelError> {
        if !value.is_finite() {
            return Err(ModelError::NonFinite {
                what: "delta_vth (cache admission)",
                value,
            });
        }
        let mut shard = self
            .shard(&key)
            .lock()
            // Poisoned-lock recovery is meaningless for a memo table.
            // relia-lint: allow(unwrap-in-lib)
            .expect("cache shard poisoned");
        if shard.map.len() >= self.capacity && !shard.map.contains_key(&key) {
            // LRU-ish: displace the entry with the stalest use tick.
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, &(_, tick))| tick)
                .map(|(k, _)| *k);
            if let Some(victim) = victim {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let tick = shard.touch();
        shard.map.insert(key, (value, tick));
        Ok(value)
    }

    /// [`DeltaVthCache::delta_vth`] for every key of `keys`, in order:
    /// the same results, entries, LRU ticks and hit/miss counts as calling
    /// it once per key, but the cold keys are evaluated together through
    /// [`StressKey::evaluate_many`], so a row of lifetimes pays for one AC
    /// recursion. There is no single-flight here; a racing thread computes
    /// the identical canonical value, as on the per-key path.
    pub fn delta_vth_many(
        &self,
        keys: &[StressKey],
        model: &NbtiModel,
    ) -> Vec<Result<f64, ModelError>> {
        let cold: Vec<StressKey> = keys
            .iter()
            .filter(|key| !self.contains(key))
            .copied()
            .collect();
        let values = StressKey::evaluate_many(&cold, model);
        let mut fresh: HashMap<StressKey, Result<f64, ModelError>> =
            cold.into_iter().zip(values).collect();
        // Replay the per-key loop with the precomputed values; a key evicted
        // by an earlier insert of this batch is evaluated on its own.
        keys.iter()
            .map(|&key| {
                self.lookup_or_insert(key, || {
                    fresh.remove(&key).unwrap_or_else(|| key.evaluate(model))
                })
            })
            .collect()
    }

    /// Whether `key` is stored; touches neither ticks nor counters.
    fn contains(&self, key: &StressKey) -> bool {
        self.shard(key)
            .lock()
            // relia-lint: allow(unwrap-in-lib)
            .expect("cache shard poisoned")
            .map
            .contains_key(key)
    }

    /// The memoized value for `key` (a hit), or `evaluate()` admitted
    /// through [`ShardedCache::insert_checked`] (a miss).
    fn lookup_or_insert(
        &self,
        key: StressKey,
        evaluate: impl FnOnce() -> Result<f64, ModelError>,
    ) -> Result<f64, ModelError> {
        {
            let mut shard = self
                .shard(&key)
                .lock()
                // relia-lint: allow(unwrap-in-lib)
                .expect("cache shard poisoned");
            let tick = shard.touch();
            if let Some(entry) = shard.map.get_mut(&key) {
                entry.1 = tick;
                let v = entry.0;
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(v);
            }
        }
        // Evaluate outside the lock: a racing thread computes the identical
        // value (evaluation is a pure function of the key), so double
        // insertion is harmless and lock hold times stay tiny.
        let v = evaluate()?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.insert_checked(key, v)
    }
}

impl DeltaVthCache for ShardedCache {
    fn delta_vth(&self, key: StressKey, model: &NbtiModel) -> Result<f64, ModelError> {
        self.lookup_or_insert(key, || key.evaluate(model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relia_core::{Kelvin, ModeSchedule, PmosStress, Ras, Seconds};

    fn key(p_standby: f64) -> StressKey {
        let schedule = ModeSchedule::new(
            Ras::new(1.0, 9.0).unwrap(),
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(330.0),
        )
        .unwrap();
        let stress = PmosStress::new(0.5, p_standby).unwrap();
        StressKey::quantize(&schedule, &stress, Seconds(1.0e8)).unwrap()
    }

    fn lifetime_key(p_standby: f64, lifetime: f64) -> StressKey {
        let schedule = ModeSchedule::new(
            Ras::new(1.0, 9.0).unwrap(),
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(330.0),
        )
        .unwrap();
        let stress = PmosStress::new(0.5, p_standby).unwrap();
        StressKey::quantize(&schedule, &stress, Seconds(lifetime)).unwrap()
    }

    /// Every shard's entries with their LRU ticks, in a canonical order.
    fn contents(cache: &ShardedCache) -> Vec<Vec<(u64, u64, u64)>> {
        cache
            .shards
            .iter()
            .map(|shard| {
                let shard = shard.lock().unwrap();
                let mut entries: Vec<(u64, u64, u64)> = shard
                    .map
                    .iter()
                    .map(|(k, &(v, tick))| (k.fingerprint(), v.to_bits(), tick))
                    .collect();
                entries.sort_unstable();
                entries
            })
            .collect()
    }

    #[test]
    fn delta_vth_many_leaves_the_state_of_the_per_key_loop() {
        let model = NbtiModel::ptm90().unwrap();
        // Two rows of lifetimes, a repeat, and keys warmed beforehand —
        // under enough capacity pressure that the batch evicts its own
        // inserts and must re-evaluate an evicted repeat.
        let warm = [lifetime_key(1.0, 3.0e7), lifetime_key(0.5, 1.0e8)];
        let mut keys: Vec<StressKey> = [1.0e6, 3.0e7, 1.0e8, 1.0e9]
            .iter()
            .map(|&t| lifetime_key(1.0, t))
            .collect();
        keys.extend([1.0e7, 1.0e8].iter().map(|&t| lifetime_key(0.5, t)));
        keys.push(lifetime_key(1.0, 1.0e6));
        for (shards, per_shard) in [(4, 64), (2, 2), (1, 3)] {
            let (looped, batched) = (
                ShardedCache::with_capacity(shards, per_shard),
                ShardedCache::with_capacity(shards, per_shard),
            );
            for cache in [&looped, &batched] {
                for key in warm {
                    cache.delta_vth(key, &model).unwrap();
                }
            }
            let one_by_one: Vec<f64> = keys
                .iter()
                .map(|&k| looped.delta_vth(k, &model).unwrap())
                .collect();
            let together: Vec<f64> = batched
                .delta_vth_many(&keys, &model)
                .into_iter()
                .map(Result::unwrap)
                .collect();
            for (a, b) in one_by_one.iter().zip(&together) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(looped.stats(), batched.stats(), "{shards}x{per_shard}");
            assert_eq!(
                contents(&looped),
                contents(&batched),
                "{shards}x{per_shard}"
            );
        }
    }

    #[test]
    fn second_lookup_hits() {
        let model = NbtiModel::ptm90().unwrap();
        let cache = ShardedCache::default();
        let a = cache.delta_vth(key(1.0), &model).unwrap();
        let b = cache.delta_vth(key(1.0), &model).unwrap();
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries, stats.evictions),
            (1, 1, 1, 0)
        );
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn peek_reads_without_touching_hit_statistics() {
        let model = NbtiModel::ptm90().unwrap();
        let cache = ShardedCache::default();
        assert_eq!(cache.peek(&key(1.0)), None, "cold key peeks to nothing");
        let v = cache.delta_vth(key(1.0), &model).unwrap();
        assert_eq!(cache.peek(&key(1.0)), Some(v));
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 1),
            "peeks are invisible to hit/miss counters"
        );
    }

    #[test]
    fn peek_refreshes_the_lru_tick() {
        let model = NbtiModel::ptm90().unwrap();
        // One shard, two slots: inserting a third key evicts the stalest.
        let cache = ShardedCache::with_capacity(1, 2);
        let keep = key(1.0);
        let v = cache.delta_vth(keep, &model).unwrap();
        cache.delta_vth(key(0.9), &model).unwrap();
        // Touch the older entry via peek, then overflow the shard: the
        // *untouched* middle entry must be the victim.
        assert_eq!(cache.peek(&keep), Some(v));
        cache.delta_vth(key(0.8), &model).unwrap();
        assert_eq!(cache.peek(&keep), Some(v), "peeked entry stayed resident");
        assert_eq!(cache.peek(&key(0.9)), None, "stale entry was evicted");
    }

    #[test]
    fn cached_value_is_canonical() {
        let model = NbtiModel::ptm90().unwrap();
        let cache = ShardedCache::new(4);
        let k = key(0.25);
        let via_cache = cache.delta_vth(k, &model).unwrap();
        assert_eq!(via_cache, k.evaluate(&model).unwrap());
    }

    #[test]
    fn distinct_keys_occupy_distinct_entries() {
        let model = NbtiModel::ptm90().unwrap();
        let cache = ShardedCache::new(2);
        for i in 0..10 {
            cache.delta_vth(key(i as f64 / 10.0), &model).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 10);
        assert_eq!(stats.misses, 10);
    }

    #[test]
    fn non_finite_values_never_enter_the_cache() {
        let model = NbtiModel::ptm90().unwrap();
        let cache = ShardedCache::default();
        let k = key(0.5);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            match cache.insert_checked(k, bad) {
                Err(ModelError::NonFinite { .. }) => {}
                other => panic!("expected NonFinite rejection, got {other:?}"),
            }
        }
        assert_eq!(cache.stats().entries, 0, "rejected values are not stored");
        // A later legitimate lookup still computes the canonical value.
        let v = cache.delta_vth(k, &model).unwrap();
        assert_eq!(v, k.evaluate(&model).unwrap());
    }

    #[test]
    fn capacity_bounds_entries_and_counts_evictions() {
        let model = NbtiModel::ptm90().unwrap();
        // One shard, three slots: insertion number four must evict.
        let cache = ShardedCache::with_capacity(1, 3);
        assert_eq!(cache.capacity(), 3);
        for i in 0..8 {
            cache.delta_vth(key(i as f64 / 10.0), &model).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 3, "shard never exceeds its capacity");
        assert_eq!(stats.evictions, 5, "each overflow evicts exactly one");
        assert_eq!(stats.misses, 8);
    }

    #[test]
    fn eviction_displaces_the_least_recently_touched_key() {
        let model = NbtiModel::ptm90().unwrap();
        let cache = ShardedCache::with_capacity(1, 2);
        let (a, b, c) = (key(0.1), key(0.2), key(0.3));
        cache.delta_vth(a, &model).unwrap();
        cache.delta_vth(b, &model).unwrap();
        // Touch `a` so `b` is now the stalest, then overflow with `c`.
        cache.delta_vth(a, &model).unwrap();
        cache.delta_vth(c, &model).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        // `a` and `c` hit; `b` was evicted and must miss again.
        let before = cache.stats().misses;
        cache.delta_vth(a, &model).unwrap();
        cache.delta_vth(c, &model).unwrap();
        assert_eq!(cache.stats().misses, before);
        cache.delta_vth(b, &model).unwrap();
        assert_eq!(cache.stats().misses, before + 1);
    }

    #[test]
    fn evicted_keys_recompute_identical_values() {
        let model = NbtiModel::ptm90().unwrap();
        let cache = ShardedCache::with_capacity(1, 2);
        let keys: Vec<StressKey> = (0..6).map(|i| key(i as f64 / 10.0)).collect();
        let first: Vec<f64> = keys
            .iter()
            .map(|k| cache.delta_vth(*k, &model).unwrap())
            .collect();
        // Thrash the cache again; every value must round-trip bit-equal
        // whether it came from the memo table or a re-evaluation.
        let second: Vec<f64> = keys
            .iter()
            .map(|k| cache.delta_vth(*k, &model).unwrap())
            .collect();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn concurrent_lookups_agree() {
        let model = NbtiModel::ptm90().unwrap();
        let cache = ShardedCache::default();
        let keys: Vec<StressKey> = (0..50).map(|i| key(i as f64 / 100.0)).collect();
        let values = crate::pool::run_ordered(&keys, 8, |_, k| {
            // Every thread looks up every key; all must agree.
            keys.iter()
                .map(|k2| cache.delta_vth(*k2, &model).unwrap())
                .collect::<Vec<f64>>()[keys.iter().position(|k2| k2 == k).unwrap()]
        });
        let solo: Vec<f64> = keys.iter().map(|k| k.evaluate(&model).unwrap()).collect();
        for (o, s) in values.iter().zip(&solo) {
            assert_eq!(o.completed(), Some(s));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 50);
        // 50 jobs × 50 lookups each. Racing threads may each take the miss
        // path for the same key before the first insert lands, so misses
        // can exceed the entry count — but never one per (worker, key).
        assert_eq!(stats.hits + stats.misses, 50 * 50);
        assert!(stats.misses >= 50);
        assert!(stats.misses <= 8 * 50, "misses={}", stats.misses);
    }
}
