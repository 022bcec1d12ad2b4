#![forbid(unsafe_code)]
//! # relia-sleep
//!
//! Sleep-transistor insertion for standby leakage reduction, with
//! NBTI-aware PMOS sleep-transistor sizing (the paper's Section 4.4).
//!
//! * [`sizing`] — sleep-transistor (ST) sizing from the allowed delay
//!   penalty (eqs. 25–30) and the NBTI-aware size margin (eq. 31, the
//!   paper's Figs. 8–9): a PMOS header is gate-low whenever the circuit is
//!   *active*, so it ages exactly when the logic works, and its rising
//!   threshold squeezes the virtual rail.
//! * [`insertion`] — footer/header/footer+header topologies (Fig. 10), the
//!   standby states they impose on the gated logic, and the aged-delay
//!   trajectory of a gated circuit (Fig. 11).
//! * [`cluster`] — block-based (BBSTI) gate clustering with per-block ST
//!   sizing, and fine-grain (FGSTI) per-gate sizing exploiting slack.
//!
//! ```
//! use relia_sleep::sizing::StSizing;
//!
//! let s = StSizing::paper_defaults(0.05, 0.30).unwrap();
//! // 30 mV of ST aging costs a few percent of ST width (Fig. 9 range).
//! let rel = s.nbti_size_margin(0.030).unwrap();
//! assert!(rel > 0.01 && rel < 0.08);
//! ```

pub mod cluster;
pub mod insertion;
pub mod sizing;

pub use cluster::{bbsti_blocks, fgsti_sizes, Block};
pub use insertion::{GatedDelayPoint, SleepTransistorKind, StInsertion};
pub use sizing::StSizing;
