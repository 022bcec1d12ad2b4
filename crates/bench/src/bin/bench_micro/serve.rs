//! Serve: the overload-control answer paths. Shedding must be cheap: a
//! browned-out server answers a cold query with a fast 503 whose full
//! dispatch (routing, gating, rendering, jittered Retry-After) stays
//! under 10 µs, or overload control would itself be the overload.

use std::hint::black_box;
use std::time::{Duration, Instant};

use relia_core::{CancelToken, Deadline, Kelvin};
use relia_serve::{handle, DegradeQuery, Endpoint, EvalGate, OverloadConfig, Request, ServeState};

use crate::record::{Gate, Record, Value};
use crate::{ns_per_call, Section};

/// Dispatches timed per path.
const CALLS: usize = 20_000;

pub(crate) const SECTION: Section = Section {
    name: "serve",
    gates: &[
        Gate::Ceiling("shed_ns_per_request", 10_000.0),
        Gate::Drift("shed_ns_per_request"),
        Gate::Drift("cache_hit_ns_per_request"),
    ],
    measure,
};

const QUERY: DegradeQuery = DegradeQuery {
    ras: (1.0, 9.0),
    t_standby_k: Kelvin(330.0),
    lifetime_s: 1.0e8,
    p_active: 0.5,
    p_standby: 1.0,
};

fn deadline() -> Deadline {
    Deadline::new(CancelToken::new(), Instant::now() + Duration::from_secs(60))
}

/// A server whose degrade breaker is open, with the cooldown parked far
/// out so no half-open probe can close it mid-measurement.
fn tripped_state() -> ServeState {
    ServeState::new(Duration::from_secs(60))
        .expect("builtin calibration is valid")
        .with_overload(OverloadConfig {
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(3600),
            ..OverloadConfig::default()
        })
}

fn measure() -> Record {
    let request = Request {
        method: "POST".to_owned(),
        target: "/v1/degrade".to_owned(),
        http11: true,
        headers: vec![],
        body: QUERY.to_body().into_bytes(),
    };
    let dispatch = |state: &ServeState, status: u16| {
        ns_per_call(CALLS, |_| {
            for _ in 0..CALLS {
                let (response, _) = handle(black_box(state), &request, &deadline());
                assert_eq!(response.status, status);
                black_box(response);
            }
        })
    };

    // Breaker fast-path shed: open breaker, cold key → 503.
    let shedding = tripped_state();
    shedding
        .overload
        .settle(Endpoint::Degrade, 500, Instant::now());
    let shed_ns = dispatch(&shedding, 503);

    // Brownout cache hit: open breaker, memoized key → full 200.
    let browned = tripped_state();
    let (warm, _) = handle(&browned, &request, &deadline());
    assert_eq!(warm.status, 200, "warms the memo cache");
    browned
        .overload
        .settle(Endpoint::Degrade, 500, Instant::now());
    assert_eq!(
        browned.overload.gate(Endpoint::Degrade, Instant::now()),
        EvalGate::CacheOnly
    );
    let cache_hit_ns = dispatch(&browned, 200);

    Record::new(&[
        ("calls", Value::Count(CALLS as u64)),
        ("shed_ns_per_request", Value::Fixed(shed_ns)),
        ("cache_hit_ns_per_request", Value::Fixed(cache_hit_ns)),
    ])
}
