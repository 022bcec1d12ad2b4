//! Cache: `insert_checked` of fresh keys into the memo cache at half its
//! 65,536-entry cap, and at the cap, where every insert evicts.
//! `at_cap_ratio` is their ratio. An O(1) eviction keeps it near 1 on any
//! host; a scan of the victim's 4,096-entry shard lifts it past 100. The
//! half-cap inserts also pay each shard's one growth past 2,048 entries
//! (its index doubles and its slab moves), so they read above the at-cap
//! ones.

use std::hint::black_box;

use relia_core::{Kelvin, ModeSchedule, PmosStress, Ras, Seconds, StressKey};
use relia_jobs::ShardedCache;

use crate::record::{Gate, Record, Value};
use crate::{ns_per_call, Section, REPS};

/// Fresh keys inserted per repetition.
const INSERTS: usize = 4096;

pub(crate) const SECTION: Section = Section {
    name: "cache",
    gates: &[Gate::Ceiling("at_cap_ratio", 4.0), Gate::Drift("at_cap_ns")],
    measure,
};

/// `n` distinct keys: one stress point at lifetimes a millisecond apart.
fn keys(n: usize) -> Vec<StressKey> {
    let schedule = ModeSchedule::new(
        Ras::new(1.0, 9.0).expect("a valid RAS"),
        Seconds(1000.0),
        Kelvin(400.0),
        Kelvin(330.0),
    )
    .expect("a valid schedule");
    let stress = PmosStress::new(0.5, 1.0).expect("valid probabilities");
    (0..n)
        .map(|i| {
            StressKey::quantize(&schedule, &stress, Seconds(1e6 + i as f64 * 1e-3))
                .expect("an in-lattice lifetime")
        })
        .collect()
}

/// A default cache holding `keys`, each admitted in turn.
fn filled(keys: &[StressKey]) -> ShardedCache {
    let cache = ShardedCache::default();
    for &key in keys {
        cache.insert_checked(key, 0.02).expect("a finite value");
    }
    cache
}

/// ns per insert of a fresh key into a cache that was given `fill` keys.
/// Each repetition fills its own cache before the clock starts.
fn insert_ns(keys: &[StressKey], fill: usize) -> f64 {
    let (prefill, fresh) = keys.split_at(fill);
    let caches: Vec<ShardedCache> = (0..REPS).map(|_| filled(prefill)).collect();
    ns_per_call(INSERTS, |rep| {
        for &key in &fresh[..INSERTS] {
            black_box(caches[rep].insert_checked(key, 0.02).is_ok());
        }
    })
}

fn measure() -> Record {
    let capacity = ShardedCache::default().capacity();
    // An eighth past the cap fills every shard to its own cap.
    let at_cap = capacity + capacity / 8;
    let keys = keys(at_cap + INSERTS);
    assert_eq!(filled(&keys[..at_cap]).stats().entries, capacity);
    let half_ns = insert_ns(&keys, capacity / 2);
    let at_cap_ns = insert_ns(&keys, at_cap);
    Record::new(&[
        ("inserts", Value::Count(INSERTS as u64)),
        ("half_cap_ns", Value::Fixed(half_ns)),
        ("at_cap_ns", Value::Fixed(at_cap_ns)),
        ("at_cap_ratio", Value::Fixed(at_cap_ns / half_ns)),
    ])
}
