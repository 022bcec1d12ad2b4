#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! # relia-obs
//!
//! The observability substrate for the relia runtimes: where does the
//! wall time of a degradation query, a sweep job, or a fleet chunk
//! actually go?
//!
//! Three pieces, all std-only and dependency-free:
//!
//! * [`clock`] — a [`Clock`] trait over monotonic nanoseconds, with a
//!   production [`MonotonicClock`] and a deterministic [`TestClock`], so
//!   golden tests never read real time.
//! * [`mod@span`] — lightweight spans: a [`Tracer`] hands out RAII
//!   [`SpanGuard`]s that record `(name, parent, start, duration)` into a
//!   fixed-capacity ring buffer on drop. Recording is *total*: a writer
//!   overwrites the oldest slot and **never blocks** — under slot
//!   contention the record is dropped and counted instead.
//! * [`hist`] — [`LatencyHist`], a concurrent log2-bucketed streaming
//!   histogram over nanoseconds. Bucket `i` covers `[2^i, 2^(i+1))`, so
//!   64 buckets span 1 ns to ~584 years with ≤ 2× relative error —
//!   recording is three relaxed atomic adds, and snapshots merge
//!   order-independently (plain `u64` sums) for p50/p90/p99 extraction.
//!
//! The serve, jobs, and fleet runtimes thread these through their hot
//! paths; `MetricsSnapshot` in `relia-jobs` carries the histogram
//! snapshots so every renderer (Prometheus text, CLI summaries) picks
//! them up uniformly.

pub mod clock;
pub mod hist;
pub mod span;

pub use clock::{Clock, MonotonicClock, TestClock};
pub use hist::{fmt_ns, HistSnapshot, LatencyHist, HIST_BUCKETS};
pub use span::{SpanGuard, SpanRecord, Tracer};
