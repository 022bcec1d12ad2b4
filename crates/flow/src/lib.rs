#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! # relia-flow
//!
//! The NBTI/leakage analysis and optimization platform — the paper's Fig. 6
//! flow. Given a netlist, a cell library, an NBTI calibration, and an
//! active/standby schedule, the platform:
//!
//! 1. propagates active-mode signal probabilities (exact independence model
//!    or Monte Carlo);
//! 2. resolves standby internal states from a [`StandbyPolicy`] (an input
//!    vector, an idealized internal-node assignment, or power gating);
//! 3. computes the temperature-aware per-PMOS threshold shift over the
//!    lifetime and reduces it to a per-gate worst shift;
//! 4. runs static timing with nominal and degraded delays;
//! 5. evaluates active and standby leakage through the lookup tables.
//!
//! ```
//! use relia_flow::{AgingAnalysis, FlowConfig, StandbyPolicy};
//! use relia_netlist::iscas;
//!
//! # fn main() -> Result<(), relia_flow::FlowError> {
//! let circuit = iscas::c17();
//! let config = FlowConfig::paper_defaults()?;
//! let report = AgingAnalysis::new(&config, &circuit)?
//!     .run(&StandbyPolicy::AllInternalZero)?;
//! assert!(report.degradation_fraction() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod cache;
pub mod config;
pub mod dual_vth;
pub mod error;
pub mod lifetime;
pub mod policy;
pub mod report;
pub mod variation;

pub use analysis::{AgingAnalysis, AgingReport, AnalysisPrep};
pub use cache::{DeltaVthCache, NoCache};
pub use config::{
    paper_schedule, paper_stress_key, FlowConfig, SpEstimator, PAPER_PERIOD_S, PAPER_TEMP_ACTIVE_K,
};
pub use dual_vth::{assign_dual_vth, DualVthResult};
pub use error::FlowError;
pub use lifetime::{lifetime_to_budget, LifetimeBudget};
pub use policy::StandbyPolicy;
pub use relia_core::CancelToken;
pub use variation::{VariationConfig, VariationStudy};
