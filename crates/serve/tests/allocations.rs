//! Heap allocations per in-process `handle()` on a prebuilt request, for
//! the four answers that never run the model: a memo-cache hit, a
//! response-surface hit, a brownout shed and a 64-point model sweep
//! answered from a warm memo cache. The counts are ceilings: a change to
//! the request path may lower them, never raise them. The counting
//! allocator sees every allocation in the process, so this binary holds
//! exactly one test.

#![allow(clippy::unwrap_used)]
#![expect(unsafe_code, reason = "counting allocator")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use relia_core::{CancelToken, Deadline, Kelvin, NbtiModel};
use relia_jobs::SWEEP_PERIOD_S;
use relia_serve::{handle, DegradeQuery, Request, ServeState};
use relia_surface::{BuildSpec, Surface};

/// `alloc` and `realloc` calls so far.
static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the wrapper only bumps a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, and the
        // caller's size obligations pass straight through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` or `realloc` above, i.e. from
        // `System`.
        unsafe { System.dealloc(ptr, layout) };
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const QUERY: DegradeQuery = DegradeQuery {
    ras: (1.0, 9.0),
    t_standby_k: Kelvin(330.0),
    lifetime_s: 1.0e8,
    p_active: 0.5,
    p_standby: 1.0,
};

/// Ceilings per answer: the counts when this test was added. Lower them
/// when the request path allocates less; never raise them.
const MEMO_HIT: usize = 18;
const SURFACE_HIT: usize = 17;
const BROWNOUT_SHED: usize = 16;
/// The sweep's ceiling came later, with per-axis answers; it was 1,078
/// when every point formatted its own coordinates.
const SWEEP_HIT: usize = 89;

/// A 64-point model sweep, 4 RAS pairs x 4 standby temperatures x 4
/// lifetimes, with coordinates as long as a generated grid's.
const SWEEP: &str = "{\"workload\":{\"kind\":\"model\",\"p_active\":0.6180339887498949,\
    \"p_standby\":1},\"ras\":[[0.2718281828459045,0.7281718171540955],\
    [0.5772156649015329,0.4227843350984671],[0.3141592653589793,0.6858407346410207],\
    [0.8414709848078965,0.15852901519210349]],\"t_standby_k\":[318.512,342.77,367.003,398.25],\
    \"lifetime_s\":[2718281.8284590452,31415926.535897933,141421356.23730951,5772156649.015329]}";

fn state() -> ServeState {
    ServeState::new(Duration::from_secs(60)).unwrap()
}

/// A surface holding `QUERY`'s stress pair inside its domain.
fn surface() -> Surface {
    let model = NbtiModel::ptm90().unwrap();
    let spec = BuildSpec {
        t_active_k: vec![Kelvin(relia_jobs::SWEEP_TEMP_ACTIVE_K)],
        t_standby_k: relia_surface::kelvin_spaced(320.0, 400.0, 9),
        ras_fraction: relia_surface::lin_spaced(0.1, 0.9, 9),
        lifetime_s: relia_surface::log_spaced(1e6, 1e9, 13),
        pairs: vec![(QUERY.p_active, QUERY.p_standby)],
        period_s: SWEEP_PERIOD_S,
        workers: 2,
    };
    Surface::from_artifact(relia_surface::build(&model, &spec).unwrap()).unwrap()
}

/// Allocations made by the second of two identical `handle()` calls (the
/// first one warms whatever a first call initializes), which must answer
/// `status`.
fn allocations(state: &ServeState, request: &Request, status: u16) -> usize {
    let deadline = Deadline::new(CancelToken::new(), Instant::now() + Duration::from_secs(60));
    assert_eq!(handle(state, request, &deadline).0.status, status);
    let before = CALLS.load(Ordering::Relaxed);
    let (response, _) = handle(state, request, &deadline);
    let after = CALLS.load(Ordering::Relaxed);
    assert_eq!(response.status, status);
    after - before
}

#[test]
fn answers_without_evaluation_allocate_no_more_than_before() {
    let request = Request {
        method: "POST".to_owned(),
        target: "/v1/degrade".to_owned(),
        http11: true,
        headers: vec![],
        body: QUERY.to_body().into_bytes(),
    };

    let memo_hit = allocations(&state(), &request, 200);

    let surfaced = state().with_surface(surface());
    let surface_hit = allocations(&surfaced, &request, 200);
    assert_eq!(surfaced.surface().map(|tier| tier.hits()), Some(2));

    // Every connection counts into the in-flight gauge; past a zero
    // high-water mark a cold degrade is shed.
    let browned = state().with_brownout_high_water(0);
    browned.overload.conn_enqueued();
    let shed = allocations(&browned, &request, 503);

    let sweep = Request {
        target: "/v1/sweep".to_owned(),
        body: SWEEP.as_bytes().to_vec(),
        ..request
    };
    let sweep_hit = allocations(&state(), &sweep, 200);

    println!(
        "allocations per handle(): memo hit {memo_hit}, surface hit {surface_hit}, \
         brownout shed {shed}, 64-point sweep hit {sweep_hit}"
    );
    assert!(memo_hit <= MEMO_HIT, "memo hit: {memo_hit} > {MEMO_HIT}");
    assert!(
        surface_hit <= SURFACE_HIT,
        "surface hit: {surface_hit} > {SURFACE_HIT}"
    );
    assert!(
        shed <= BROWNOUT_SHED,
        "brownout shed: {shed} > {BROWNOUT_SHED}"
    );
    assert!(
        sweep_hit <= SWEEP_HIT,
        "64-point sweep hit: {sweep_hit} > {SWEEP_HIT}"
    );
}
