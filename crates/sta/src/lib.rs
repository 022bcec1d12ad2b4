#![forbid(unsafe_code)]
//! # relia-sta
//!
//! Static timing analysis over a [`relia_netlist::Circuit`], with support
//! for NBTI-degraded gate delays — the "STA tool" of the paper's flow.
//!
//! * [`delay`] — per-gate nominal delays (cell timing × fan-out load) and
//!   NBTI degradation factors (eq. 22 / eq. 21).
//! * [`analysis`] — arrival-time propagation, maximum delay, critical-path
//!   extraction, and per-net slack.
//! * [`paths`] — K-most-critical path enumeration (the "near-critical
//!   paths" the internal-node-control analysis targets).
//!
//! ```
//! use relia_netlist::iscas;
//! use relia_sta::analysis::TimingAnalysis;
//!
//! let c = iscas::c17();
//! let report = TimingAnalysis::nominal(&c);
//! assert!(report.max_delay_ps() > 0.0);
//! assert_eq!(report.critical_path().len(), 3); // c17 is 3 levels deep
//! ```

pub mod analysis;
pub mod delay;
pub mod error;
pub mod paths;

pub use analysis::{TimingAnalysis, TimingReport};
pub use delay::{degraded_gate_delays, nominal_gate_delays};
pub use error::StaError;
pub use paths::{k_critical_paths, TimingPath};
