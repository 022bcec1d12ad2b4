#![forbid(unsafe_code)]
//! # relia-leakage
//!
//! Standby-leakage substrate: input-vector-dependent subthreshold and
//! gate-oxide leakage for cells and circuits, with the transistor *stacking
//! effect* resolved numerically on each cell's series/parallel network.
//!
//! * [`models`] — the analytical device models (exponential subthreshold
//!   with temperature dependence, gate tunneling) calibrated to a
//!   90 nm-class process.
//! * [`solver`] — recursive series/parallel network current solver: OFF
//!   devices leak with source-voltage suppression, ON devices conduct;
//!   intermediate stack nodes are found by bisection on current continuity,
//!   for one input vector or for several in lockstep lanes.
//! * [`cell`] — per-cell, per-input-vector leakage (all stages), one vector
//!   at a time or many vectors of one cell together.
//! * [`table`] — the leakage lookup table the paper's flow builds by
//!   "simulating all the gates in the standard cell library under all
//!   possible input patterns", for a whole library or for the cells one
//!   circuit instantiates, on every available core.
//! * [`circuit`] — whole-netlist leakage under a standby vector, and
//!   expected leakage under signal probabilities (eq. 24).
//!
//! ```
//! use relia_cells::{Library, Vector};
//! use relia_leakage::{models::DeviceModels, table::LeakageTable};
//! use relia_core::Kelvin;
//!
//! let lib = Library::ptm90();
//! let table = LeakageTable::build(&lib, &DeviceModels::ptm90(), Kelvin(400.0));
//! let nand2 = lib.find("NAND2").expect("in catalog");
//! // The minimum-leakage vector of a NAND2 is (0,0): the stacked-off NMOS.
//! let min = Vector::all(2).min_by(|a, b| {
//!     table.of(nand2, *a).total().partial_cmp(&table.of(nand2, *b).total()).expect("finite")
//! }).expect("nonempty");
//! assert_eq!(min.bits(), 0b00);
//! ```

pub mod cell;
pub mod circuit;
pub mod liberty;
pub mod models;
pub mod solver;
pub mod table;

pub use cell::{cell_leakage, cell_leakage_many, LeakageBreakdown};
pub use circuit::{circuit_leakage, expected_circuit_leakage};
pub use models::DeviceModels;
pub use table::LeakageTable;
