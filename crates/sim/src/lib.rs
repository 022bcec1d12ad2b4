#![forbid(unsafe_code)]
//! # relia-sim
//!
//! Logic-level simulation substrate:
//!
//! * [`logic`] — two-valued evaluation of a [`relia_netlist::Circuit`] under
//!   a primary-input assignment (used to derive standby internal states from
//!   an input vector).
//! * [`prob`] — signal-probability propagation under the independence
//!   assumption (exact per cell, approximate across reconvergent fan-out).
//! * [`monte_carlo`] — seeded random-vector estimation of signal
//!   probabilities and switching activity, the statistical route the paper's
//!   flow uses ("the signal probability for each edge is derived
//!   statistically by simulating a large number of input vectors").
//!
//! ```
//! use relia_netlist::iscas;
//! use relia_sim::{logic, prob};
//!
//! let c17 = iscas::c17();
//! let values = logic::simulate(&c17, &[false; 5]).expect("5 inputs");
//! assert_eq!(values.outputs(&c17), vec![false, false]);
//! let sp = prob::propagate(&c17, &[0.5; 5]).expect("5 inputs");
//! assert!(sp.of(c17.primary_outputs()[0]) > 0.0);
//! ```

pub mod error;
pub mod logic;
pub mod monte_carlo;
pub mod prob;

pub use error::SimError;
pub use logic::NetValues;
pub use prob::SignalProbs;
