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
//! independently locked shards, so workers rarely serialize on the same
//! mutex even under full cache pressure.
//!
//! Capacity bounds memory: each shard holds at most `capacity` entries and,
//! when a new key would overflow it, evicts its least-recently-*touched*
//! entry — exact LRU in O(1). A shard keeps its entries in a slab whose
//! slots never move, threads a doubly linked recency list through the
//! slab (least recent first), and finds a key through an open-addressing
//! index of slot numbers, at most half full, probed linearly from the
//! key's hash under the cache's own `RandomState`: keys come from request
//! bodies, so the hash is keyed. A lookup or insert moves its slot to the
//! recent end; eviction takes the slot at the other end and reuses it.
//! Long-running servers therefore cannot grow the memo table without
//! bound, and eviction pressure is observable through
//! [`CacheStats::evictions`].

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use relia_core::{ModelError, NbtiModel, StressKey};
use relia_flow::DeltaVthCache;

/// Default shard count: enough to keep a machine's worth of workers off
/// each other's locks without wasting memory on tiny sweeps.
pub const DEFAULT_SHARDS: usize = 16;

/// Default per-shard capacity. With [`DEFAULT_SHARDS`] shards this caps the
/// table at 65 536 stress points — far beyond any sweep in the repo — in
/// ~4.7 MB (a full shard is 4 096 slots of 64 B plus 8 192 index buckets
/// of 4 B), small enough that a resident server stays bounded.
pub const DEFAULT_PER_SHARD_CAPACITY: usize = 4096;

/// Largest per-shard capacity: an index bucket packs a slot number and the
/// key's 16-bit hash tag into one `u32`, and the index, at most half full,
/// needs no more than 16 bits to pick a home bucket.
const MAX_PER_SHARD_CAPACITY: usize = 1 << 15;

/// Buckets of a new index.
const MIN_BUCKETS: usize = 8;

/// An index bucket that holds no slot.
const EMPTY: u32 = u32::MAX;

/// No slot: the ends of a recency list.
const NIL: u16 = u16::MAX;

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

/// An open-addressing table of slot numbers: a power of two of buckets, at
/// most half full, probed linearly from a 16-bit hash tag. A bucket packs
/// the tag above the slot number, so a probe reads the slab only on a tag
/// match, and a deletion shifts later entries back towards their home
/// buckets without rehashing a key.
#[derive(Debug)]
struct Index(Vec<u32>);

impl Index {
    fn new(buckets: usize) -> Index {
        Index(vec![EMPTY; buckets])
    }

    /// The bucket holding a slot filed under `tag` that `is_slot` accepts.
    fn find(&self, tag: u16, mut is_slot: impl FnMut(usize) -> bool) -> Option<usize> {
        let mask = self.0.len() - 1;
        let mut bucket = usize::from(tag) & mask;
        loop {
            match self.0[bucket] {
                EMPTY => return None,
                entry if entry >> 16 == u32::from(tag) && is_slot(slot_of(entry)) => {
                    return Some(bucket)
                }
                _ => bucket = (bucket + 1) & mask,
            }
        }
    }

    fn slot(&self, bucket: usize) -> usize {
        slot_of(self.0[bucket])
    }

    /// Files `slot` under `tag`, at the first vacant bucket from its home.
    fn insert(&mut self, tag: u16, slot: usize) {
        self.place((u32::from(tag) << 16) | slot as u32);
    }

    fn place(&mut self, entry: u32) {
        let mask = self.0.len() - 1;
        let mut bucket = (entry >> 16) as usize & mask;
        while self.0[bucket] != EMPTY {
            bucket = (bucket + 1) & mask;
        }
        self.0[bucket] = entry;
    }

    /// Empties `bucket`: each later entry of its probe run moves back into
    /// the hole when its home bucket is not past the hole.
    fn remove(&mut self, bucket: usize) {
        let mask = self.0.len() - 1;
        let mut hole = bucket;
        let mut next = (bucket + 1) & mask;
        while self.0[next] != EMPTY {
            let home = (self.0[next] >> 16) as usize & mask;
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.0[hole] = self.0[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.0[hole] = EMPTY;
    }

    /// Keeps the index at most half full once it holds `entries`.
    fn reserve(&mut self, entries: usize) {
        if 2 * entries > self.0.len() {
            let grown = vec![EMPTY; 2 * self.0.len()];
            let old = std::mem::replace(&mut self.0, grown);
            for entry in old.into_iter().filter(|&e| e != EMPTY) {
                self.place(entry);
            }
        }
    }
}

fn slot_of(entry: u32) -> usize {
    (entry & 0xFFFF) as usize
}

/// One slab slot: a key, its value, its hash tag and its neighbours in the
/// shard's recency list — 64 bytes.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: StressKey,
    value: f64,
    tag: u16,
    /// The next less recently touched slot, or [`NIL`].
    older: u16,
    /// The next more recently touched slot, or [`NIL`].
    newer: u16,
}

/// One shard: the slab, its index, and the two ends of its recency list.
#[derive(Debug)]
struct Shard {
    slots: Vec<Slot>,
    index: Index,
    /// The least recently touched slot: the next victim.
    oldest: u16,
    /// The most recently touched slot.
    newest: u16,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            slots: Vec::new(),
            index: Index::new(MIN_BUCKETS),
            oldest: NIL,
            newest: NIL,
        }
    }

    /// The slot holding `key`, touching nothing.
    fn find(&self, key: &StressKey, tag: u16) -> Option<usize> {
        let bucket = self.index.find(tag, |slot| self.slots[slot].key == *key)?;
        Some(self.index.slot(bucket))
    }

    /// The value stored for `key`, which becomes the most recently touched
    /// entry.
    fn get(&mut self, key: &StressKey, tag: u16) -> Option<f64> {
        let slot = self.find(key, tag)?;
        self.touch(slot);
        Some(self.slots[slot].value)
    }

    /// Stores `value` for `key` as the most recently touched entry. A new
    /// key in a shard holding `capacity` entries first evicts the least
    /// recently touched one and takes its slot; returns whether it did.
    fn insert(&mut self, key: StressKey, tag: u16, value: f64, capacity: usize) -> bool {
        if let Some(slot) = self.find(&key, tag) {
            self.slots[slot].value = value;
            self.touch(slot);
            return false;
        }
        let fresh = Slot {
            key,
            value,
            tag,
            older: NIL,
            newer: NIL,
        };
        let evict = self.slots.len() >= capacity;
        let slot = if evict {
            let victim = usize::from(self.oldest);
            if let Some(bucket) = self.index.find(self.slots[victim].tag, |s| s == victim) {
                self.index.remove(bucket);
            }
            self.unlink(victim);
            self.slots[victim] = fresh;
            victim
        } else {
            self.index.reserve(self.slots.len() + 1);
            self.slots.push(fresh);
            self.slots.len() - 1
        };
        self.index.insert(tag, slot);
        self.push_newest(slot);
        evict
    }

    fn touch(&mut self, slot: usize) {
        if slot != usize::from(self.newest) {
            self.unlink(slot);
            self.push_newest(slot);
        }
    }

    fn unlink(&mut self, slot: usize) {
        let Slot { older, newer, .. } = self.slots[slot];
        match older {
            NIL => self.oldest = newer,
            older => self.slots[usize::from(older)].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            newer => self.slots[usize::from(newer)].older = older,
        }
    }

    fn push_newest(&mut self, slot: usize) {
        let at = slot as u16;
        self.slots[slot].older = self.newest;
        self.slots[slot].newer = NIL;
        match self.newest {
            NIL => self.oldest = at,
            newest => self.slots[usize::from(newest)].newer = at,
        }
        self.newest = at;
    }
}

/// Where a key lives: the shard its fingerprint picks and its index tag.
#[derive(Debug, Clone, Copy)]
struct Located {
    shard: usize,
    tag: u16,
}

/// A sharded, capacity-bounded ΔV_th memo table shared by all sweep
/// workers.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
    /// Keyed per cache: a client cannot aim request-derived keys at one
    /// probe run.
    hasher: RandomState,
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

    /// A cache with `shards` segments of at most `per_shard` entries each.
    /// `shards` is clamped to at least 1 and `per_shard` to 1..=32 768: a
    /// shard's index, at most half full, places a key by 16 hash bits.
    pub fn with_capacity(shards: usize, per_shard: usize) -> Self {
        ShardedCache {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Shard::new()))
                .collect(),
            capacity: per_shard.clamp(1, MAX_PER_SHARD_CAPACITY),
            hasher: RandomState::new(),
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
            entries: (0..self.shards.len())
                .map(|shard| self.lock(shard).slots.len())
                .sum(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn locate(&self, key: &StressKey) -> Located {
        Located {
            shard: key.fingerprint() as usize % self.shards.len(),
            tag: self.hasher.hash_one(key) as u16,
        }
    }

    fn lock(&self, shard: usize) -> MutexGuard<'_, Shard> {
        #[expect(clippy::expect_used, reason = "lock recovery is moot for a memo table")]
        self.shards[shard].lock().expect("cache shard poisoned")
    }

    /// Read-only lookup: the memoized ΔV_th for `key`, if present.
    /// Refreshes the entry's recency (a key a brownout keeps answering
    /// from should stay resident) but records neither a hit nor a miss —
    /// cache-hit-only serving must not skew the hit-rate statistics.
    pub fn peek(&self, key: &StressKey) -> Option<f64> {
        let at = self.locate(key);
        self.lock(at.shard).get(key, at.tag)
    }

    /// Admits `value` for `key` only after a finiteness check: a NaN or
    /// infinite ΔV_th is rejected as [`ModelError::NonFinite`] and **never
    /// enters the memo table**, where it would silently poison every later
    /// hit. All insertion paths go through here; a full shard first evicts
    /// its least-recently-touched entry.
    pub fn insert_checked(&self, key: StressKey, value: f64) -> Result<f64, ModelError> {
        let at = self.locate(&key);
        self.admit(&mut self.lock(at.shard), key, at.tag, value)
    }

    /// [`ShardedCache::insert_checked`] under a lock already held.
    fn admit(
        &self,
        shard: &mut Shard,
        key: StressKey,
        tag: u16,
        value: f64,
    ) -> Result<f64, ModelError> {
        if !value.is_finite() {
            return Err(ModelError::NonFinite {
                what: "delta_vth (cache admission)",
                value,
            });
        }
        if shard.insert(key, tag, value, self.capacity) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(value)
    }

    /// The memoized value for `key` (a hit), or `evaluate()` admitted
    /// through [`ShardedCache::insert_checked`] (a miss).
    fn lookup_or_insert(
        &self,
        key: StressKey,
        at: Located,
        evaluate: impl FnOnce() -> Result<f64, ModelError>,
    ) -> Result<f64, ModelError> {
        let hit = self.lock(at.shard).get(&key, at.tag);
        if let Some(v) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(v);
        }
        // Evaluate outside the lock: a racing thread computes the identical
        // value (evaluation is a pure function of the key), so double
        // insertion is harmless and lock hold times stay tiny.
        let v = evaluate()?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.admit(&mut self.lock(at.shard), key, at.tag, v)
    }

    /// [`DeltaVthCache::delta_vth_many`] for at most
    /// [`MAX_PER_SHARD_CAPACITY`] keys, so that the batch's own index can
    /// file its cold keys by slot number.
    fn delta_vth_batch(
        &self,
        keys: &[StressKey],
        model: &NbtiModel,
    ) -> Vec<Result<f64, ModelError>> {
        let located: Vec<Located> = keys.iter().map(|key| self.locate(key)).collect();
        // Every distinct key the table lacks gets one cold index; its
        // repeats find it again through an index of the batch's own.
        let mut cold: Vec<StressKey> = Vec::new();
        let mut distinct = Index::new((2 * keys.len()).next_power_of_two().max(MIN_BUCKETS));
        let mut cold_of = Vec::with_capacity(keys.len());
        for (key, at) in keys.iter().zip(&located) {
            cold_of.push(match distinct.find(at.tag, |c| cold[c] == *key) {
                Some(bucket) => Some(distinct.slot(bucket)),
                None if self.lock(at.shard).find(key, at.tag).is_some() => None,
                None => {
                    distinct.insert(at.tag, cold.len());
                    cold.push(*key);
                    Some(cold.len() - 1)
                }
            });
        }
        let values = StressKey::evaluate_many(&cold, model);
        // Replay the per-key loop with the precomputed values. A cold key's
        // miss and insert take one lock; a key that was warm but got evicted
        // by an earlier insert of this batch is evaluated on its own.
        keys.iter()
            .zip(located)
            .zip(cold_of)
            .map(|((&key, at), cold)| {
                let mut shard = self.lock(at.shard);
                let hit = shard.get(&key, at.tag);
                match (hit, cold) {
                    (Some(v), _) => {
                        drop(shard);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        Ok(v)
                    }
                    (None, Some(c)) => {
                        let v = values[c].clone()?;
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        self.admit(&mut shard, key, at.tag, v)
                    }
                    (None, None) => {
                        drop(shard);
                        self.lookup_or_insert(key, at, || key.evaluate(model))
                    }
                }
            })
            .collect()
    }
}

impl DeltaVthCache for ShardedCache {
    fn delta_vth(&self, key: StressKey, model: &NbtiModel) -> Result<f64, ModelError> {
        self.lookup_or_insert(key, self.locate(&key), || key.evaluate(model))
    }

    /// [`DeltaVthCache::delta_vth`] for every key of `keys`, in order:
    /// the same results, entries, recency order and hit/miss/eviction
    /// counts as calling it once per key, but each distinct cold key is
    /// evaluated once, all of them in one [`StressKey::evaluate_many`]
    /// call, so a row of lifetimes pays for one AC recursion and the rows'
    /// recursions run [`relia_core::ac::LANES`] at a time. Each key is
    /// fingerprinted and hashed once. There is no single-flight here; a
    /// racing thread computes the identical canonical value, as on the
    /// per-key path.
    fn delta_vth_many(
        &self,
        keys: &[StressKey],
        model: &NbtiModel,
    ) -> Vec<Result<f64, ModelError>> {
        // Batches in sequence leave the state of the whole per-key loop,
        // as each leaves its own.
        keys.chunks(MAX_PER_SHARD_CAPACITY)
            .flat_map(|batch| self.delta_vth_batch(batch, model))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relia_core::{Kelvin, ModeSchedule, PmosStress, Ras, Seconds};
    use std::collections::{HashMap, HashSet};

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

    /// Every shard's entries as `(key, value bits)`, least recently
    /// touched first. Walking the recency list also checks the shard's
    /// structure: the list visits every slot once, in both directions, and
    /// the index files each key at its own slot and nothing else.
    fn contents(cache: &ShardedCache) -> Vec<Vec<(StressKey, u64)>> {
        (0..cache.shards.len())
            .map(|shard| {
                let shard = cache.lock(shard);
                let mut order = Vec::new();
                let mut slot = shard.oldest;
                while slot != NIL {
                    order.push(usize::from(slot));
                    slot = shard.slots[usize::from(slot)].newer;
                }
                let mut backwards = Vec::new();
                let mut slot = shard.newest;
                while slot != NIL {
                    backwards.push(usize::from(slot));
                    slot = shard.slots[usize::from(slot)].older;
                }
                backwards.reverse();
                assert_eq!(order, backwards, "recency links disagree");
                assert_eq!(order.len(), shard.slots.len(), "a slot is off the list");
                let filed = shard.index.0.iter().filter(|&&e| e != EMPTY).count();
                assert_eq!(filed, shard.slots.len(), "the index holds a stale bucket");
                order
                    .iter()
                    .map(|&slot| {
                        let Slot {
                            key, value, tag, ..
                        } = shard.slots[slot];
                        assert_eq!(shard.find(&key, tag), Some(slot), "index lost {key:?}");
                        (key, value.to_bits())
                    })
                    .collect()
            })
            .collect()
    }

    /// The table these shards replaced, kept as the reference the
    /// differential test holds [`ShardedCache`] to: per shard a `HashMap`
    /// of `key → (value, last-touched tick)`, whose eviction scans the
    /// whole shard for the smallest tick.
    struct ScanCache {
        shards: Vec<ScanShard>,
        capacity: usize,
        stats: CacheStats,
    }

    #[derive(Default)]
    struct ScanShard {
        map: HashMap<StressKey, (f64, u64)>,
        tick: u64,
    }

    impl ScanShard {
        fn touch(&mut self) -> u64 {
            self.tick += 1;
            self.tick
        }
    }

    impl ScanCache {
        fn new(shards: usize, per_shard: usize) -> ScanCache {
            ScanCache {
                shards: (0..shards).map(|_| ScanShard::default()).collect(),
                capacity: per_shard,
                stats: CacheStats::default(),
            }
        }

        fn shard(&mut self, key: &StressKey) -> &mut ScanShard {
            let n = self.shards.len();
            &mut self.shards[key.fingerprint() as usize % n]
        }

        fn peek(&mut self, key: &StressKey) -> Option<f64> {
            let shard = self.shard(key);
            let tick = shard.touch();
            let entry = shard.map.get_mut(key)?;
            entry.1 = tick;
            Some(entry.0)
        }

        fn insert_checked(&mut self, key: StressKey, value: f64) -> Result<f64, ModelError> {
            if !value.is_finite() {
                return Err(ModelError::NonFinite {
                    what: "delta_vth (cache admission)",
                    value,
                });
            }
            let capacity = self.capacity;
            let shard = self.shard(&key);
            let mut evicted = false;
            if shard.map.len() >= capacity && !shard.map.contains_key(&key) {
                let victim = shard
                    .map
                    .iter()
                    .min_by_key(|(_, &(_, tick))| tick)
                    .map(|(k, _)| *k);
                if let Some(victim) = victim {
                    shard.map.remove(&victim);
                    evicted = true;
                }
            }
            let tick = shard.touch();
            shard.map.insert(key, (value, tick));
            self.stats.evictions += u64::from(evicted);
            Ok(value)
        }

        fn lookup_or_insert(
            &mut self,
            key: StressKey,
            evaluate: impl FnOnce() -> Result<f64, ModelError>,
        ) -> Result<f64, ModelError> {
            let shard = self.shard(&key);
            let tick = shard.touch();
            if let Some(entry) = shard.map.get_mut(&key) {
                entry.1 = tick;
                let v = entry.0;
                self.stats.hits += 1;
                return Ok(v);
            }
            let v = evaluate()?;
            self.stats.misses += 1;
            self.insert_checked(key, v)
        }

        fn delta_vth(&mut self, key: StressKey, model: &NbtiModel) -> Result<f64, ModelError> {
            self.lookup_or_insert(key, || key.evaluate(model))
        }

        fn delta_vth_many(
            &mut self,
            keys: &[StressKey],
            model: &NbtiModel,
        ) -> Vec<Result<f64, ModelError>> {
            let mut seen = HashSet::new();
            let cold: Vec<StressKey> = keys
                .iter()
                .filter(|&&key| seen.insert(key) && !self.shard(&key).map.contains_key(&key))
                .copied()
                .collect();
            let values = StressKey::evaluate_many(&cold, model);
            let fresh: HashMap<StressKey, Result<f64, ModelError>> =
                cold.into_iter().zip(values).collect();
            keys.iter()
                .map(|&key| {
                    self.lookup_or_insert(key, || {
                        fresh
                            .get(&key)
                            .cloned()
                            .unwrap_or_else(|| key.evaluate(model))
                    })
                })
                .collect()
        }

        fn stats(&self) -> CacheStats {
            CacheStats {
                entries: self.shards.iter().map(|s| s.map.len()).sum(),
                ..self.stats
            }
        }

        /// [`contents`] of the reference: entries by ascending tick.
        fn contents(&self) -> Vec<Vec<(StressKey, u64)>> {
            self.shards
                .iter()
                .map(|shard| {
                    let mut entries: Vec<(u64, StressKey, u64)> = shard
                        .map
                        .iter()
                        .map(|(&k, &(v, tick))| (tick, k, v.to_bits()))
                        .collect();
                    entries.sort_unstable_by_key(|e| e.0);
                    entries.into_iter().map(|(_, k, v)| (k, v)).collect()
                })
                .collect()
        }
    }

    #[test]
    fn every_operation_leaves_the_state_of_the_scan_evicting_reference() {
        let model = NbtiModel::ptm90().unwrap();
        for (seed, (shards, per_shard)) in [(1, 1), (1, 2), (2, 3), (4, 64)].into_iter().enumerate()
        {
            let cache = ShardedCache::with_capacity(shards, per_shard);
            let mut reference = ScanCache::new(shards, per_shard);
            // Twice the capacity in keys, so hits and evictions both
            // happen. Lifetimes of at most six 1000 s mode cycles keep
            // each evaluation a few AC steps long.
            let universe: Vec<StressKey> = (0..2 * shards * per_shard + 8)
                .map(|i| lifetime_key(i as f64 / 600.0, 1000.0 * (i % 7) as f64))
                .collect();
            let (a, b, c, d) = (universe[0], universe[1], universe[2], universe[3]);
            // A scripted start, then seeded random operations: `a` is warm
            // at the batch's pre-pass and, in the small tables, evicted by
            // the batch's own inserts before its turn; `b` repeats.
            let script = [
                Op::Lookup(a),
                Op::Insert(b, 0.25),
                Op::Insert(b, 0.5),
                Op::Insert(c, f64::NAN),
                Op::Many(vec![b, c, d, c, a, b]),
                Op::Peek(d),
            ];
            let mut rng = relia_core::seal::SplitMix64::stream(0x5ca7, seed as u64);
            let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
            let random: Vec<Op> = (0..400)
                .map(|_| {
                    let key = universe[pick(universe.len())];
                    match pick(8) {
                        0 | 1 => Op::Peek(key),
                        2 | 3 => Op::Lookup(key),
                        4 => Op::Insert(key, [f64::NAN, f64::INFINITY, 1e-3][pick(3)]),
                        5 => Op::Insert(key, pick(1000) as f64 / 1e4),
                        _ => Op::Many(
                            (0..1 + pick(16))
                                .map(|_| universe[pick(universe.len())])
                                .collect(),
                        ),
                    }
                })
                .collect();
            for (step, op) in script.into_iter().chain(random).enumerate() {
                let (got, want) = match &op {
                    Op::Peek(k) => (
                        format!("{:?}", cache.peek(k)),
                        format!("{:?}", reference.peek(k)),
                    ),
                    Op::Lookup(k) => (
                        format!("{:?}", cache.delta_vth(*k, &model)),
                        format!("{:?}", reference.delta_vth(*k, &model)),
                    ),
                    Op::Insert(k, v) => (
                        format!("{:?}", cache.insert_checked(*k, *v)),
                        format!("{:?}", reference.insert_checked(*k, *v)),
                    ),
                    Op::Many(keys) => (
                        format!("{:?}", cache.delta_vth_many(keys, &model)),
                        format!("{:?}", reference.delta_vth_many(keys, &model)),
                    ),
                };
                let at = format!("{shards}x{per_shard}, step {step}: {op:?}");
                assert_eq!(got, want, "{at}");
                assert_eq!(cache.stats(), reference.stats(), "{at}");
                assert_eq!(contents(&cache), reference.contents(), "{at}");
            }
            let stats = cache.stats();
            assert!(
                stats.hits > 0 && stats.misses > 0 && stats.evictions > 0,
                "{stats:?}"
            );
        }
    }

    #[derive(Debug)]
    enum Op {
        Peek(StressKey),
        Lookup(StressKey),
        Insert(StressKey, f64),
        Many(Vec<StressKey>),
    }

    #[test]
    fn a_slot_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Slot>(), 64);
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
        // More rows than one lane group, with a cold key repeated next to
        // itself and far from its first use.
        keys.extend((0..10).map(|i| lifetime_key(0.05 * i as f64, 1.0e8)));
        keys.push(lifetime_key(0.45, 1.0e8));
        keys.push(lifetime_key(0.05, 1.0e8));
        for (shards, per_shard) in [(4, 64), (2, 2), (1, 3), (1, 12)] {
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
    fn chunked_gate_loop_leaves_the_state_of_the_per_key_loop() {
        use relia_core::PmosStress;
        use relia_flow::{AgingAnalysis, FlowConfig, StandbyPolicy};

        let circuit = relia_netlist::iscas::circuit("c432").unwrap();
        let config = FlowConfig::paper_defaults().unwrap();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        let vector: Vec<bool> = (0..circuit.primary_inputs().len())
            .map(|i| i % 3 == 0)
            .collect();
        let flags = analysis.standby_stress_of_vector(&vector).unwrap();
        let policy = StandbyPolicy::InputVector(vector);
        // Roomy, and tight enough that the loop evicts its own inserts.
        for (shards, per_shard) in [(16, 4096), (2, 8)] {
            let (looped, batched) = (
                ShardedCache::with_capacity(shards, per_shard),
                ShardedCache::with_capacity(shards, per_shard),
            );
            // Twice: a cold table, then one warmed by the first pass.
            for _ in 0..2 {
                let mut reference = Vec::new();
                for (gate, flags) in circuit.gates().iter().zip(&flags) {
                    let pins: Vec<f64> = gate
                        .inputs()
                        .iter()
                        .map(|&net| analysis.signal_probs().of(net))
                        .collect();
                    let active = circuit
                        .library()
                        .cell(gate.cell())
                        .stress_probabilities(&pins);
                    let mut worst = 0.0f64;
                    for (&p_active, &flag) in active.iter().zip(flags) {
                        let stress =
                            PmosStress::new(p_active, if flag { 1.0 } else { 0.0 }).unwrap();
                        let key = config.stress_key(&stress, config.lifetime).unwrap();
                        worst = worst.max(looped.delta_vth(key, &config.nbti).unwrap());
                    }
                    reference.push(worst);
                }
                let chunked = analysis
                    .gate_delta_vth_at_cached(&policy, config.lifetime, &batched)
                    .unwrap();
                assert_eq!(reference.len(), chunked.len());
                for (a, b) in reference.iter().zip(&chunked) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                assert_eq!(looped.stats(), batched.stats(), "{shards}x{per_shard}");
                assert_eq!(contents(&looped), contents(&batched));
            }
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
