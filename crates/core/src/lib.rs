#![forbid(unsafe_code)]
//! # relia-core
//!
//! Temperature-aware Negative Bias Temperature Instability (NBTI) modeling,
//! reproducing the model of Wang et al., *"Temperature-aware NBTI modeling and
//! the impact of input vector control on performance degradation"* (DATE 2007;
//! journal version IEEE TDSC 2011).
//!
//! The crate provides, bottom-up:
//!
//! * [`units`] — strongly typed physical quantities ([`Kelvin`], [`Volts`],
//!   [`Seconds`]).
//! * [`rd`] — the reaction–diffusion (R-D) description of interface-trap
//!   generation: the DC-stress `t^(1/4)` power law and the analytical recovery
//!   expression.
//! * [`rd_numeric`] — a finite-difference solver for the full R-D equation
//!   system, used to validate the analytical power law.
//! * [`ac`] — the multi-cycle AC-stress recursion of Kumar et al. (exact
//!   recursion and the fast closed form used by the paper).
//! * [`arrhenius`] — temperature dependence of the hydrogen diffusion
//!   coefficient and the activation-energy split.
//! * [`equivalent`] — the paper's contribution: mapping an *active/standby*
//!   operating schedule with two temperatures onto an equivalent single
//!   temperature AC stress (equivalent stress time, duty cycle, and period).
//! * [`model`] — the [`NbtiModel`] front-end computing threshold-voltage
//!   shifts for arbitrary stress schedules.
//! * [`degradation`] — alpha-power-law gate-delay degradation from a
//!   threshold-voltage shift.
//! * [`stress_key`] — quantized stress-point keys ([`StressKey`]) for
//!   memoizing model evaluations in batch sweeps.
//! * [`seal`] — CRC-32, FNV-1a, the SplitMix64 and xoshiro256++ generators
//!   and atomic writes: the one substrate under every checkpoint, artifact
//!   and seeded draw in the workspace.
//! * [`journal`] — the append-only sealed line file under sweep and fleet
//!   checkpoints: one writer, one reader, one salvage policy.
//! * [`json`] — the workspace's one JSON codec: escaping, shortest-round-trip
//!   floats and a depth-bounded parser, shared by service bodies, sweep
//!   checkpoints and lint reports.
//! * [`cancel`] — the cooperative [`CancelToken`] that lets sweep watchdogs
//!   abandon straggling evaluations at safe boundaries.
//! * [`variation`] — process-variation hooks (gate-overdrive dependence of the
//!   degradation rate).
//!
//! ## Quick example
//!
//! ```
//! use relia_core::{Kelvin, ModeSchedule, NbtiModel, PmosStress, Ras, Seconds};
//!
//! # fn main() -> Result<(), relia_core::ModelError> {
//! let model = NbtiModel::ptm90()?;
//! // 10% of the time active at 400 K, 90% standby at 330 K.
//! let schedule = ModeSchedule::new(
//!     Ras::new(1.0, 9.0)?,
//!     Seconds(1000.0),
//!     Kelvin(400.0),
//!     Kelvin(330.0),
//! )?;
//! // Signal probability 0.5 while active; gate input forced low in standby
//! // (the worst case: the PMOS is under stress the whole standby time).
//! let stress = PmosStress::new(0.5, 1.0)?;
//! let dvth = model.delta_vth(Seconds(1.0e8), &schedule, &stress)?;
//! assert!(dvth > 0.0 && dvth < 0.1);
//! # Ok(())
//! # }
//! ```

pub mod ac;
pub mod arrhenius;
pub mod batch;
pub mod calib;
pub mod cancel;
pub mod consts;
pub mod degradation;
pub mod equivalent;
pub mod error;
pub mod journal;
pub mod json;
pub mod model;
pub mod params;
pub mod rd;
pub mod rd_numeric;
pub mod seal;
pub mod stress_key;
pub mod units;
pub mod variation;

pub use ac::AcStress;
pub use arrhenius::diffusion_ratio;
pub use batch::{HoistedStress, StressColumn, VariationKernel};
pub use calib::{fit_dc_measurements, CalibrationFit, Measurement};
pub use cancel::{CancelToken, Deadline};
pub use degradation::DelayDegradation;
pub use equivalent::{EquivalentCycle, ModeSchedule, PmosStress, Ras, StressInterval};
pub use error::ModelError;
pub use model::NbtiModel;
pub use params::NbtiParams;
pub use stress_key::StressKey;
pub use units::{ElectronVolts, Kelvin, Seconds, Volts};
pub use variation::VthDistribution;
