#![forbid(unsafe_code)]
//! # relia-cells
//!
//! A 90 nm-class standard-cell library substrate for aging and leakage
//! analysis.
//!
//! Each cell is described structurally — as one or more complementary CMOS
//! *stages*, each with a series/parallel PMOS pull-up [`Network`] and its
//! dual NMOS pull-down — rather than as a black-box truth table. The
//! structural view is what the paper's analyses need:
//!
//! * logic evaluation falls out of network conduction ([`Cell::eval`]);
//! * the *internal-node dependence* of NBTI falls out of a switch-level
//!   solve: a PMOS is under negative-bias stress exactly when its gate is
//!   low **and** its source is held at `V_dd` through conducting devices
//!   ([`Cell::stressed_pmos`]);
//! * the *stacking effect* of subthreshold leakage falls out of the same
//!   series/parallel structure (consumed by the `relia-leakage` crate).
//!
//! ```
//! use relia_cells::{Library, Vector};
//!
//! let lib = Library::ptm90();
//! let nor2 = lib.cell(lib.find("NOR2").expect("in catalog"));
//! // NOR2(0,0) = 1; both stacked PMOS conduct and both are stressed.
//! assert!(nor2.eval(&[false, false]));
//! assert_eq!(nor2.stressed_pmos(&[false, false]), vec![true, true]);
//! // NOR2(1,0): the lower PMOS has gate 0 but its source is cut off from
//! // Vdd by the OFF upper PMOS — no stress. The paper's key asymmetry.
//! assert_eq!(nor2.stressed_pmos(&[true, false]), vec![false, false]);
//! let _ = Vector::all(2).count();
//! ```

pub mod catalog;
pub mod cell;
pub mod error;
pub mod library;
pub mod network;
pub mod stage;
pub mod timing;
pub mod vector;

pub use cell::{Cell, PmosInfo};
pub use error::CellError;
pub use library::{CellId, Library};
pub use network::{MosType, Network};
pub use stage::{Source, Stage};
pub use timing::CellTiming;
pub use vector::Vector;
