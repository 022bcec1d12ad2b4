#![forbid(unsafe_code)]
//! # relia-thermal
//!
//! Lumped-RC thermal model with a typical air-cooling calibration, plus a
//! task-set power-profile generator — the substrate behind the paper's
//! Fig. 2 ("thermal profiles of running a task set on a typical processor",
//! 10–130 W power range mapping to roughly 45–110 °C) and behind the
//! steady-state `T_active`/`T_standby` assumption of the NBTI model.
//!
//! The die temperature follows `C·dT/dt = P − (T − T_amb)/R`, i.e. a
//! first-order exponential approach to the steady state `T_amb + R·P` with
//! time constant `τ = R·C` (milliseconds for a die + spreader under air
//! cooling, which is why the paper treats mode switches as instantaneous
//! temperature switches).
//!
//! ```
//! use relia_thermal::{RcThermalModel, TaskSet};
//!
//! let model = RcThermalModel::air_cooled();
//! // 130 W drives the die to ~110 °C.
//! let hot = model.steady_state(130.0);
//! assert!(hot.to_celsius() > 100.0 && hot.to_celsius() < 120.0);
//! let tasks = TaskSet::random(8, 42);
//! let trace = model.simulate(&tasks.profile(), 1.0e-3);
//! assert!(!trace.is_empty());
//! ```

pub mod electrothermal;
pub mod profile;
pub mod rc_model;

pub use electrothermal::{find_equilibrium, Equilibrium};
pub use profile::{PowerPhase, TaskSet};
pub use rc_model::{RcThermalModel, TracePoint};
