#![forbid(unsafe_code)]
//! # relia-netlist
//!
//! Gate-level netlist substrate: a validated combinational DAG over cells
//! from a [`relia_cells::Library`], with ISCAS85 `.bench` import/export and a
//! built-in benchmark suite.
//!
//! * [`circuit`] — the [`Circuit`] DAG (nets, gates, primary I/O, fan-out
//!   maps, topological order).
//! * [`builder`] — [`CircuitBuilder`] for programmatic construction with
//!   validation (arity checks, acyclicity, driven-ness).
//! * [`mod@bench`] — the ISCAS85 `.bench` text format: parser (with decomposition
//!   of wide gates onto the 1–4-input library) and writer.
//! * [`verilog`] — structural gate-level Verilog (subset): parser + writer.
//! * [`dot`] — Graphviz export for visualization.
//! * [`iscas`] — the benchmark suite: the genuine ISCAS85 `c17`, plus
//!   deterministic synthetic stand-ins matching the published size/depth
//!   statistics of the larger ISCAS85 circuits (see `DESIGN.md` for the
//!   substitution rationale).
//!
//! ```
//! use relia_netlist::iscas;
//!
//! let c17 = iscas::c17();
//! assert_eq!(c17.primary_inputs().len(), 5);
//! assert_eq!(c17.primary_outputs().len(), 2);
//! assert_eq!(c17.gates().len(), 6);
//! ```

pub mod bench;
pub mod builder;
pub mod circuit;
pub mod dot;
pub mod error;
pub mod iscas;
pub mod stats;
pub mod verilog;

pub use builder::CircuitBuilder;
pub use circuit::{Circuit, Gate, GateId, Net, NetDriver, NetId};
pub use error::NetlistError;
