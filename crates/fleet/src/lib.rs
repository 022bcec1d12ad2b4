#![forbid(unsafe_code)]
//! # relia-fleet
//!
//! A vectorized Monte Carlo engine for fleet-scale statistical NBTI aging:
//! given one stress schedule and a process-variation model, how does an
//! entire *population* of devices degrade, and when does each cross its
//! delay guardband?
//!
//! The crate is organized around three ideas:
//!
//! * **Hoist, then batch.** The temperature-aware NBTI model costs an
//!   Arrhenius evaluation, the multi-cycle AC recursion, and the
//!   equivalent-stress-time transform per stress point — all independent of
//!   the sampled device. [`FleetEvaluator::prepare`] pays that cost once
//!   per `(schedule, duty)`, hoisting every time from one AC walk via
//!   [`relia_core::NbtiModel::hoist_lifetimes`]; drawing a device is then
//!   a handful of flops.
//! * **Deterministic streams.** Samples are drawn in fixed-size chunks,
//!   each from its own [`SplitMix64`] stream derived from `(seed, chunk
//!   index)`. Chunk accumulators ([`accum`]) merge in index
//!   order, so a fleet summary is a pure function of `(spec, seed, chunk
//!   size)` — bit-identical across worker counts.
//! * **Correlated variation.** A `correlation` knob links the time-zero
//!   Vth deviation to the degradation-rate spread (Hassan & Roy's
//!   observation that fast, low-Vth devices age faster), on top of the
//!   overdrive dependence of eq. 23.
//!
//! Runs are chunk-checkpointed ([`checkpoint`]) with CRC-protected records
//! and crash-salvage on load, and cancel cooperatively at poll boundaries.
//!
//! ## Quick example
//!
//! ```
//! use relia_fleet::{run_fleet, FleetOptions, FleetSpec};
//!
//! # fn main() -> Result<(), relia_fleet::FleetError> {
//! let mut spec = FleetSpec::paper_defaults()?;
//! spec.samples = 1_000;
//! let out = run_fleet(&spec, &FleetOptions::default())?;
//! assert_eq!(out.summary.points.len(), spec.times.len());
//! assert!(out.summary.lifetime.p50 > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod accum;
pub mod checkpoint;
pub mod engine;
pub mod error;
pub mod spec;

pub use accum::{ChunkAccum, Histogram, Moments};
pub use engine::{
    run_fleet, FleetEvaluator, FleetMetrics, FleetOptions, FleetOutcome, FleetPoint, FleetSummary,
    LifetimeSummary, DEFAULT_CHUNK,
};
pub use error::FleetError;
pub use relia_core::seal::SplitMix64;
pub use spec::{FleetSpec, FLEET_FORMAT_VERSION};
