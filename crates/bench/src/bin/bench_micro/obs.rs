//! Obs: the observability hot path. Instrumentation must be free enough
//! to leave on: recording one span into the ring (id allocation, slot
//! `try_lock`, store: the whole tracer-owned cost) and one histogram
//! sample (`ilog2` + three relaxed adds) each stay under 100 ns, or
//! tracing a hot request path would distort the latencies it reports.
//! The monotonic clock read and the full RAII guard path (two clock reads
//! and a record) are drift-checked but not bounded: `clock_gettime` cost
//! is the platform's, not the tracer's, and varies per machine.

use std::hint::black_box;

use relia_obs::{Clock, LatencyHist, MonotonicClock, Tracer};

use crate::record::{Gate, Record, Value};
use crate::{ns_per_call, Section};

/// Records timed per path.
const CALLS: usize = 200_000;

pub(crate) const SECTION: Section = Section {
    name: "obs",
    gates: &[
        Gate::Ceiling("span_ns_per_record", 100.0),
        Gate::Ceiling("hist_ns_per_record", 100.0),
        Gate::Drift("span_ns_per_record"),
        Gate::Drift("hist_ns_per_record"),
        Gate::Drift("clock_ns_per_read"),
        Gate::Drift("guard_ns_per_span"),
    ],
    measure,
};

/// ns per call of `op`, passed a call index unique across repetitions.
fn time_loop(mut op: impl FnMut(usize)) -> f64 {
    ns_per_call(CALLS, |rep| {
        for i in 0..CALLS {
            op(rep * CALLS + i);
        }
    })
}

fn measure() -> Record {
    let tracer = Tracer::new(1024);
    let span_ns = time_loop(|i| {
        black_box(black_box(&tracer).record("bench", 0, i as u64, 1));
    });
    assert!(tracer.dropped() == 0, "uncontended ring must not drop");

    let hist = LatencyHist::new();
    let hist_ns = time_loop(|i| {
        black_box(&hist).record_ns(black_box((i * 31) as u64));
    });
    assert_eq!(hist.count(), (crate::REPS * CALLS) as u64);

    let clock = MonotonicClock::new();
    let clock_ns = time_loop(|_| {
        black_box(black_box(&clock).now_ns());
    });
    let guard_tracer = Tracer::new(1024);
    let guard_ns = time_loop(|_| {
        black_box(black_box(&guard_tracer).span("bench")).finish();
    });

    Record::new(&[
        ("calls", Value::Count(CALLS as u64)),
        ("span_ns_per_record", Value::Fixed(span_ns)),
        ("hist_ns_per_record", Value::Fixed(hist_ns)),
        ("clock_ns_per_read", Value::Fixed(clock_ns)),
        ("guard_ns_per_span", Value::Fixed(guard_ns)),
    ])
}
