//! Property-based tests for the observability substrate.
//!
//! Three guarantees under test:
//!
//! 1. **Merge order-independence** — merging per-worker histogram
//!    snapshots in any order (any partition of the samples, any
//!    permutation of the parts) yields the same [`HistSnapshot`] as
//!    recording every sample into one histogram.
//! 2. **Percentile rank-monotonicity** — `quantile(p)` is non-decreasing
//!    in `p`, so `p50 <= p90 <= p99` for every sample set, and every
//!    quantile stays within the recorded value range's bucket bounds.
//! 3. **Span-ring totality** — concurrent recording into a fixed-capacity
//!    [`Tracer`] never blocks and never corrupts its accounting: the ring
//!    never holds more than its capacity, every retained record is one
//!    that was submitted (unique ids, known names), and records only go
//!    missing by overwrite (newer id in the slot) or by the counted
//!    drop path — never silently.

use std::sync::Arc;

use proptest::prelude::*;
use relia_obs::hist::{bucket_bounds, bucket_index};
use relia_obs::{HistSnapshot, LatencyHist, TestClock, Tracer};

/// Record `samples` into one histogram and return its snapshot.
fn record_all(samples: &[u64]) -> HistSnapshot {
    let h = LatencyHist::new();
    for &ns in samples {
        h.record_ns(ns);
    }
    h.snapshot()
}

proptest! {
    /// Partition the samples into `parts` chunks, snapshot each chunk
    /// independently, then merge the parts in a shuffled order: the
    /// result must be identical to the single-histogram snapshot.
    #[test]
    fn merge_is_order_independent(
        samples in proptest::collection::vec(0u64..=1 << 54, 1..200),
        parts in 1usize..8,
        shuffle_seed in any::<u64>(),
    ) {
        let expected = record_all(&samples);

        let chunk = samples.len().div_ceil(parts);
        let mut snaps: Vec<HistSnapshot> =
            samples.chunks(chunk).map(record_all).collect();

        // Deterministic shuffle from the seed (xorshift index picks).
        let mut state = shuffle_seed | 1;
        for i in (1..snaps.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            snaps.swap(i, (state as usize) % (i + 1));
        }

        let mut merged = HistSnapshot::default();
        for s in &snaps {
            merged.merge(s);
        }
        prop_assert_eq!(merged, expected);
    }

    /// Quantiles are monotone in rank and bounded by the extreme
    /// samples' bucket upper/lower bounds.
    #[test]
    fn quantiles_are_rank_monotone(
        samples in proptest::collection::vec(1u64..=1 << 54, 1..200),
        lo_bps in 0u32..=10_000,
        hi_bps in 0u32..=10_000,
    ) {
        let snap = record_all(&samples);
        let (lo, hi) = if lo_bps <= hi_bps { (lo_bps, hi_bps) } else { (hi_bps, lo_bps) };
        let q_lo = snap.quantile(f64::from(lo) / 10_000.0);
        let q_hi = snap.quantile(f64::from(hi) / 10_000.0);
        prop_assert!(q_lo <= q_hi, "quantile({lo}bps)={q_lo} > quantile({hi}bps)={q_hi}");

        let p50 = snap.p50();
        let p90 = snap.p90();
        let p99 = snap.p99();
        prop_assert!(p50 <= p90 && p90 <= p99, "p50={p50} p90={p90} p99={p99}");

        // Every quantile lies within the occupied buckets' bounds.
        let max = *samples.iter().max().unwrap();
        let min = *samples.iter().min().unwrap();
        let hi_bound = bucket_bounds(bucket_index(max)).1;
        let lo_bound = bucket_bounds(bucket_index(min)).0;
        prop_assert!(p99 <= hi_bound as f64, "p99={p99} above bucket bound {hi_bound}");
        prop_assert!(
            snap.quantile(0.0) >= lo_bound as f64,
            "quantile(0) below bucket bound {lo_bound}"
        );
    }

    /// Hammer a small ring from several threads: no call blocks (the
    /// scope joins), the ring never exceeds its capacity, every retained
    /// record is a genuine submission (unique id in range, known name),
    /// and the drop counter plus retained records never overshoot the
    /// number submitted.
    #[test]
    fn span_ring_is_total_under_interleavings(
        capacity in 1usize..16,
        threads in 1usize..5,
        per_thread in 1usize..40,
    ) {
        let tracer = Tracer::with_clock(capacity, Arc::new(TestClock::new()));
        std::thread::scope(|scope| {
            for t in 0..threads {
                let tracer = &tracer;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        if i % 3 == 0 {
                            tracer.record("raw", 0, (t * 1000 + i) as u64, 1);
                        } else {
                            let g = tracer.span("scoped");
                            g.finish();
                        }
                    }
                });
            }
        });
        let submitted = (threads * per_thread) as u64;
        let spans = tracer.recent();
        prop_assert!(spans.len() <= capacity, "retained {} > capacity {capacity}", spans.len());
        prop_assert!(
            spans.len() as u64 + tracer.dropped() <= submitted,
            "retained {} + dropped {} > submitted {submitted}",
            spans.len(),
            tracer.dropped()
        );
        // Every retained record is a real submission: id unique and in
        // the issued range, name one of ours, ids strictly ascending.
        for pair in spans.windows(2) {
            prop_assert!(pair[0].id < pair[1].id, "recent() ids not strictly ascending");
        }
        for s in &spans {
            prop_assert!(s.id >= 1 && s.id <= submitted, "id {} out of range", s.id);
            prop_assert!(s.name == "raw" || s.name == "scoped", "unknown name {:?}", s.name);
        }
        // If nothing contended, the newest records must all be present.
        if tracer.dropped() == 0 && submitted >= capacity as u64 {
            prop_assert_eq!(spans.len(), capacity, "ring not full despite enough submissions");
        }
    }
}
