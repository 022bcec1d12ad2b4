//! A fleet run's peak heap must not grow with its chunk count: the engine
//! folds each chunk into the running total as soon as every lower chunk
//! has been folded, so only a bounded window of chunk accumulators is ever
//! alive. The counting allocator sees every allocation in the process, so
//! this binary holds exactly one test.

#![allow(clippy::expect_used)]
#![expect(unsafe_code, reason = "counting allocator")]

use relia_fleet::{run_fleet, FleetOptions, FleetSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated, and the most ever allocated at once.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the wrapper only adds the sizes to two counters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak heap growth, in bytes, of a two-worker run over `chunks` chunks
/// of 128 samples.
fn peak_heap_bytes(chunks: usize) -> usize {
    let mut spec = FleetSpec::paper_defaults().expect("defaults build");
    spec.samples = chunks * 128;
    let opts = FleetOptions {
        workers: 2,
        chunk: 128,
        ..FleetOptions::default()
    };
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = run_fleet(&spec, &opts).expect("fleet run");
    assert_eq!(out.metrics.executed_chunks, chunks as u64);
    PEAK.load(Ordering::Relaxed) - base
}

#[test]
fn peak_heap_does_not_grow_with_the_chunk_count() {
    let few = peak_heap_bytes(64);
    let many = peak_heap_bytes(1024);
    assert!(
        many < 2 * few,
        "peak heap {many} B at 1024 chunks vs {few} B at 64: it grows with the chunk count"
    );
}
