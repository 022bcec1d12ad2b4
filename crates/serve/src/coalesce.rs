//! Single-flight request coalescing: when several requests ask for the
//! same key while one computation is already running, they wait for that
//! computation instead of repeating it.
//!
//! The memo cache already deduplicates *completed* work; this layer
//! deduplicates *in-flight* work, which matters exactly when a burst of
//! identical queries arrives on a cold key — without it, N handlers race
//! through the cache miss path and evaluate the model N times.
//!
//! One call becomes the **leader** (it runs `compute`); concurrent calls
//! with the same key become **joiners** (they block on the leader's slot).
//! If a leader unwinds without producing a value, its slot is marked
//! abandoned and every joiner falls back to computing for itself — a panic
//! can cost the optimization, never a hang. Slots are removed from the
//! in-flight table by a drop guard on every exit path, so the table only
//! ever holds keys with a live leader.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

enum SlotState<V> {
    Pending,
    Done(V),
    Abandoned,
}

struct Slot<V> {
    state: Mutex<SlotState<V>>,
    ready: Condvar,
}

/// A keyed single-flight gate. `V` is cloned to every joiner, so it should
/// be cheap (a number, a small `Result`).
pub struct SingleFlight<K, V> {
    inflight: Mutex<HashMap<K, Arc<Slot<V>>>>,
    leads: AtomicU64,
    joins: AtomicU64,
}

impl<K, V> Default for SingleFlight<K, V>
where
    K: Eq + Hash + Clone,
    V: Clone,
{
    fn default() -> Self {
        SingleFlight::new()
    }
}

/// Removes the leader's slot from the in-flight table on every exit path,
/// including unwinding out of `compute`; wakes joiners if no value landed.
struct LeaderGuard<'a, K: Eq + Hash, V> {
    flight: &'a SingleFlight<K, V>,
    key: K,
    slot: Arc<Slot<V>>,
}

impl<K: Eq + Hash, V> Drop for LeaderGuard<'_, K, V> {
    fn drop(&mut self) {
        {
            let mut state = lock_ok(&self.slot.state);
            if matches!(*state, SlotState::Pending) {
                *state = SlotState::Abandoned;
            }
        }
        self.slot.ready.notify_all();
        let mut map = lock_ok(&self.flight.inflight);
        if let Some(current) = map.get(&self.key) {
            if Arc::ptr_eq(current, &self.slot) {
                map.remove(&self.key);
            }
        }
    }
}

/// A poisoned lock here means a *joiner* panicked while holding it, which
/// no code path does; recovery would only hide the bug.
fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    #[expect(clippy::expect_used, reason = "no joiner panics holding the lock")]
    m.lock().expect("single-flight lock poisoned")
}

impl<K, V> SingleFlight<K, V>
where
    K: Eq + Hash + Clone,
    V: Clone,
{
    /// An empty gate.
    pub fn new() -> Self {
        SingleFlight {
            inflight: Mutex::new(HashMap::new()),
            leads: AtomicU64::new(0),
            joins: AtomicU64::new(0),
        }
    }

    /// Calls that ran `compute` themselves.
    pub fn leads(&self) -> u64 {
        self.leads.load(Ordering::Relaxed)
    }

    /// Calls that waited for a concurrent leader instead of computing.
    pub fn joins(&self) -> u64 {
        self.joins.load(Ordering::Relaxed)
    }

    /// Keys with a computation currently in flight.
    pub fn in_flight(&self) -> usize {
        lock_ok(&self.inflight).len()
    }

    /// Produces the value for `key`, running `compute` at most once across
    /// all concurrent callers with the same key.
    pub fn run(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let slot = {
            let mut map = lock_ok(&self.inflight);
            if let Some(existing) = map.get(&key) {
                // Join path: wait outside the map lock.
                let existing = Arc::clone(existing);
                drop(map);
                self.joins.fetch_add(1, Ordering::Relaxed);
                let mut state = lock_ok(&existing.state);
                loop {
                    match &*state {
                        SlotState::Pending => {
                            #[expect(clippy::expect_used, reason = "no joiner panics holding it")]
                            let woken = existing
                                .ready
                                .wait(state)
                                .expect("single-flight slot lock poisoned");
                            state = woken;
                        }
                        SlotState::Done(v) => return v.clone(),
                        // The leader died without a value; compute for
                        // ourselves rather than hanging.
                        SlotState::Abandoned => {
                            drop(state);
                            return compute();
                        }
                    }
                }
            }
            let slot = Arc::new(Slot {
                state: Mutex::new(SlotState::Pending),
                ready: Condvar::new(),
            });
            map.insert(key.clone(), Arc::clone(&slot));
            slot
        };

        // Leader path: the guard cleans the table up even if `compute`
        // unwinds.
        self.leads.fetch_add(1, Ordering::Relaxed);
        let guard = LeaderGuard {
            flight: self,
            key,
            slot: Arc::clone(&slot),
        };
        let value = compute();
        {
            let mut state = lock_ok(&slot.state);
            *state = SlotState::Done(value.clone());
        }
        slot.ready.notify_all();
        drop(guard);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn sequential_calls_each_lead() {
        let flight: SingleFlight<u32, u32> = SingleFlight::new();
        assert_eq!(flight.run(1, || 10), 10);
        assert_eq!(flight.run(1, || 20), 20, "nothing in flight: recompute");
        assert_eq!(flight.leads(), 2);
        assert_eq!(flight.joins(), 0);
        assert_eq!(flight.in_flight(), 0);
    }

    #[test]
    fn concurrent_identical_keys_compute_once() {
        const N: usize = 8;
        let flight: Arc<SingleFlight<u32, u64>> = Arc::new(SingleFlight::new());
        let calls = Arc::new(AtomicUsize::new(0));
        let start = Arc::new(Barrier::new(N));
        // Gate the leader's compute open only after every joiner has had a
        // chance to join.
        let release = Arc::new((Mutex::new(false), Condvar::new()));

        let handles: Vec<_> = (0..N)
            .map(|_| {
                let flight = Arc::clone(&flight);
                let calls = Arc::clone(&calls);
                let start = Arc::clone(&start);
                let release = Arc::clone(&release);
                thread::spawn(move || {
                    start.wait();
                    flight.run(7, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        let (lock, cv) = &*release;
                        let mut open = lock.lock().unwrap();
                        while !*open {
                            open = cv.wait(open).unwrap();
                        }
                        42u64
                    })
                })
            })
            .collect();

        // Wait until all N-1 joiners are accounted for, then open the gate.
        while flight.joins() < (N as u64 - 1) {
            thread::yield_now();
        }
        {
            let (lock, cv) = &*release;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 42);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1, "exactly one computation");
        assert_eq!(flight.leads(), 1);
        assert_eq!(flight.joins(), N as u64 - 1);
        assert_eq!(flight.in_flight(), 0);
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let flight: Arc<SingleFlight<u32, u32>> = Arc::new(SingleFlight::new());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let flight = Arc::clone(&flight);
                thread::spawn(move || flight.run(i, move || i * 2))
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), i as u32 * 2);
        }
        assert_eq!(flight.leads(), 4);
        assert_eq!(flight.joins(), 0);
    }

    #[test]
    fn panicking_leader_does_not_wedge_the_key() {
        let flight: SingleFlight<u32, u32> = SingleFlight::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            flight.run(3, || panic!("leader died"));
        }));
        assert!(result.is_err());
        assert_eq!(flight.in_flight(), 0, "guard cleaned the slot up");
        // The key is usable again.
        assert_eq!(flight.run(3, || 9), 9);
    }

    #[test]
    fn joiner_of_a_panicked_leader_falls_back_to_computing() {
        let flight: Arc<SingleFlight<u32, u32>> = Arc::new(SingleFlight::new());
        let entered = Arc::new((Mutex::new(false), Condvar::new()));
        let release = Arc::new((Mutex::new(false), Condvar::new()));

        let leader = {
            let flight = Arc::clone(&flight);
            let entered = Arc::clone(&entered);
            let release = Arc::clone(&release);
            thread::spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    flight.run(5, || {
                        {
                            let (lock, cv) = &*entered;
                            *lock.lock().unwrap() = true;
                            cv.notify_all();
                        }
                        let (lock, cv) = &*release;
                        let mut open = lock.lock().unwrap();
                        while !*open {
                            open = cv.wait(open).unwrap();
                        }
                        panic!("leader died mid-compute")
                    })
                }));
            })
        };
        // Wait for the leader to hold the slot.
        {
            let (lock, cv) = &*entered;
            let mut in_slot = lock.lock().unwrap();
            while !*in_slot {
                in_slot = cv.wait(in_slot).unwrap();
            }
        }
        let joiner = {
            let flight = Arc::clone(&flight);
            thread::spawn(move || flight.run(5, || 77))
        };
        // Give the joiner a chance to join, then kill the leader.
        while flight.joins() < 1 {
            thread::yield_now();
        }
        {
            let (lock, cv) = &*release;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        leader.join().unwrap();
        assert_eq!(joiner.join().unwrap(), 77, "joiner computed for itself");
        assert_eq!(flight.in_flight(), 0);
    }
}
