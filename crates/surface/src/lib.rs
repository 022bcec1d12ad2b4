//! relia-surface: a precomputed degradation response surface.
//!
//! The paper's two-mode equivalent-stress formulation makes ΔV_th a smooth
//! low-dimensional function of `(T_active, T_standby, RAS, t)` per stress
//! vector — ideal for a precomputed grid with multilinear interpolation as
//! a serving hot tier. This crate provides:
//!
//! - an **offline builder** ([`build`]) that fills a dense grid on the
//!   relia-jobs pool through `relia-core::batch` hoisting, then sweeps
//!   every cell midpoint to *measure* the interpolation sup-error;
//! - a **versioned, CRC-32-sealed binary artifact** ([`Artifact`]) with
//!   magic, header (axes, model fingerprint, build params, measured
//!   sup-error), and torn-file rejection like fleet checkpoints;
//! - an **in-memory reader** ([`Surface`]) that refuses artifacts whose
//!   measured error exceeds [`DOCUMENTED_ERROR_BOUND`] or whose model
//!   fingerprint does not match the serving calibration, and answers
//!   lookups by multilinear interpolation (lifetime in `log10`) with
//!   out-of-domain clamping reported explicitly.
//!
//! The accuracy contract: for any query inside the grid domain with a
//! known stress pair, the interpolated ΔV_th is within the artifact's
//! measured sup-error — itself at most [`DOCUMENTED_ERROR_BOUND`] — of
//! exact evaluation, relative, floored at [`ERROR_FLOOR_V`]. Clamped
//! (out-of-domain) lookups carry no bound; relia-serve falls back to
//! exact evaluation for them.

#![forbid(unsafe_code)]

pub mod artifact;
pub mod builder;
pub mod grid;
pub mod surface;

pub use artifact::{Artifact, SurfaceError, FORMAT_VERSION, MAGIC};
pub use builder::{build, evaluate_exact, kelvin_spaced, lin_spaced, log_spaced, BuildSpec};
pub use grid::{interpolate, SurfaceGrid};
pub use surface::{
    model_fingerprint, rel_error, Lookup, Surface, SurfaceQuery, DOCUMENTED_ERROR_BOUND,
    ERROR_FLOOR_V,
};
