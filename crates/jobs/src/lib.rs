#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! # relia-jobs
//!
//! The parallel batch sweep engine: evaluates a cartesian grid of
//! (circuit × standby policy × RAS/T_standby schedule × lifetime) points
//! across a worker pool, with degradation memoization, crash-safe JSONL
//! checkpoint/resume, and a resilience layer (per-job fault isolation,
//! bounded retry, watchdog deadlines, checkpoint salvage).
//!
//! Layers, bottom-up:
//!
//! * [`pool`] — a std-only ordered worker pool: jobs are claimed from an
//!   atomic counter, run under `catch_unwind` (a panic fails one job, not
//!   the batch), retried with bounded exponential backoff when transient,
//!   cancelled cooperatively by a watchdog when past their deadline, and
//!   collected back **in job order**.
//! * [`cache`] — a sharded [`ShardedCache`] memoizing ΔV_th per quantized
//!   [`relia_core::StressKey`]; admission rejects non-finite values, and
//!   hit/miss counters feed the metrics.
//! * [`spec`] — [`SweepSpec`]: the grid description and its canonical,
//!   index-stable enumeration.
//! * [`checkpoint`] — JSONL records with per-line CRC-32 and bit-exact
//!   float round-trips, kept in a [`relia_core::journal::Journal`]: atomic
//!   creation, a header check that refuses another spec's file without
//!   touching it, and a salvage policy that keeps every intact record of a
//!   damaged file; resume skips completed indices.
//! * [`engine`] — [`run_sweep`]: prepare (per-circuit
//!   [`relia_flow::AnalysisPrep`]) → open/resume → execute → summarize.
//! * [`metrics`] — [`SweepMetrics`], the operator-facing run summary.
//! * `fault` (feature `fault-inject` only) — deterministic fault schedules
//!   and checkpoint-corruption helpers for the resilience test suite; the
//!   module and its engine hooks do not exist in normal builds.
//!
//! ## Determinism
//!
//! `run_sweep` returns identical results for any worker count and any
//! kill/resume pattern: enumeration is a pure function of the spec, cached
//! evaluations are canonical per key, and checkpointed floats round-trip
//! exactly. See `tests/determinism.rs` and `tests/fault_injection.rs`.
//!
//! ```
//! use relia_core::units::{Kelvin, Seconds};
//! use relia_jobs::{builtin_resolver, run_sweep, PolicySpec, SweepOptions, SweepSpec, Workload};
//!
//! let spec = SweepSpec {
//!     workload: Workload::CircuitAging {
//!         circuits: vec!["c17".into()],
//!         policies: vec![PolicySpec::Worst, PolicySpec::Best],
//!     },
//!     ras: vec![(1.0, 9.0)],
//!     t_standby: vec![Kelvin(330.0), Kelvin(400.0)],
//!     lifetimes: vec![Seconds(1.0e8)],
//! };
//! let outcome = run_sweep(&spec, &SweepOptions::default(), builtin_resolver).unwrap();
//! assert_eq!(outcome.statuses.len(), 4);
//! assert_eq!(outcome.metrics.failed_jobs, 0);
//! ```

pub mod cache;
pub mod checkpoint;
pub mod engine;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod metrics;
pub mod pool;
pub mod spec;

pub use cache::{CacheStats, ShardedCache, DEFAULT_SHARDS};
pub use checkpoint::{open as open_checkpoint, Checkpoint, CheckpointError, CheckpointWriter};
pub use engine::{
    builtin_resolver, run_sweep, SweepError, SweepOptions, SweepOutcome, SWEEP_PERIOD_S,
    SWEEP_TEMP_ACTIVE_K,
};
#[cfg(feature = "fault-inject")]
pub use fault::{Fault, FaultPlan};
pub use metrics::{MetricsSnapshot, SweepMetrics, SweepTimings};
pub use pool::{
    default_workers, run_folded, run_ordered, run_pool, JobFailure, JobOutcome, PoolConfig,
    PoolRun, SubmitError, TaskPool,
};
pub use relia_core::CancelToken;
pub use spec::{JobPoint, JobResult, JobTask, PolicySpec, SweepSpec, Workload};
