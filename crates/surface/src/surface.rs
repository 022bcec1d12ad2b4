//! The in-memory surface reader: loads a sealed artifact, enforces the
//! documented error bound and the model fingerprint at load time, and
//! answers lookups by multilinear interpolation in microseconds.

use std::path::Path;

use relia_core::seal::Fnv1a;
use relia_core::{Kelvin, NbtiModel, Seconds};
use relia_jobs::{SWEEP_PERIOD_S, SWEEP_TEMP_ACTIVE_K};

use crate::artifact::{Artifact, SurfaceError};
use crate::grid::interpolate;

/// The relative-error bound the surface tier documents and the server
/// enforces: an artifact whose *measured* sup-error exceeds this is
/// refused at load time.
pub const DOCUMENTED_ERROR_BOUND: f64 = 1e-2;

/// Absolute floor (volts) under which relative error is measured against
/// the floor instead of the value — ΔV_th near zero would otherwise turn
/// nanovolt noise into unbounded relative error.
pub const ERROR_FLOOR_V: f64 = 1e-6;

/// The relative interpolation error of `approx` against `exact`, floored
/// at [`ERROR_FLOOR_V`].
pub fn rel_error(approx: f64, exact: f64) -> f64 {
    (approx - exact).abs() / exact.abs().max(ERROR_FLOOR_V)
}

/// Probability quantum shared with `relia-core::StressKey` (1e-9): two
/// stress probabilities are "the same pair" exactly when the stress-key
/// lattice cannot tell them apart.
const PROB_SCALE: f64 = 1e9;

fn quantize_prob(p: f64) -> u32 {
    (p * PROB_SCALE).round() as u32
}

/// One surface coordinate: the degrade query's operating point, with RAS
/// reduced to its active fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfaceQuery {
    /// Active temperature.
    pub t_active_k: Kelvin,
    /// Standby temperature.
    pub t_standby_k: Kelvin,
    /// RAS active fraction `a/(a+s)` in `[0, 1]`.
    pub ras_fraction: f64,
    /// Lifetime in seconds.
    pub lifetime_s: f64,
    /// Active-mode stress probability.
    pub p_active: f64,
    /// Standby-mode stress probability.
    pub p_standby: f64,
}

/// A successful interpolated lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lookup {
    /// Interpolated ΔV_th in volts.
    pub delta_vth_v: f64,
    /// True if any axis was out of domain and clamped to an edge — the
    /// value is then an edge extrapolation, and callers wanting the
    /// documented error bound should fall back to exact evaluation.
    pub clamped: bool,
}

/// The loaded, bound-checked surface.
#[derive(Debug, Clone)]
pub struct Surface {
    artifact: Artifact,
    pairs_q: Vec<(u32, u32)>,
}

impl Surface {
    /// Wraps an artifact after enforcing the serving contract: block
    /// shapes consistent, measured sup-error within
    /// [`DOCUMENTED_ERROR_BOUND`].
    ///
    /// # Errors
    ///
    /// [`SurfaceError::ErrorBoundExceeded`] or [`SurfaceError::Invalid`].
    pub fn from_artifact(artifact: Artifact) -> Result<Surface, SurfaceError> {
        if artifact.sup_error > DOCUMENTED_ERROR_BOUND {
            return Err(SurfaceError::ErrorBoundExceeded {
                measured: artifact.sup_error,
                bound: DOCUMENTED_ERROR_BOUND,
            });
        }
        if artifact.values.len() != artifact.pairs.len() {
            return Err(SurfaceError::Invalid(format!(
                "{} value blocks for {} pairs",
                artifact.values.len(),
                artifact.pairs.len()
            )));
        }
        for block in &artifact.values {
            if block.len() != artifact.grid.len() {
                return Err(SurfaceError::Invalid(format!(
                    "value block of {} entries for a grid of {}",
                    block.len(),
                    artifact.grid.len()
                )));
            }
        }
        let pairs_q = artifact
            .pairs
            .iter()
            .map(|&(pa, ps)| (quantize_prob(pa), quantize_prob(ps)))
            .collect();
        Ok(Surface { artifact, pairs_q })
    }

    /// Reads, decodes, and bound-checks an artifact from disk.
    ///
    /// # Errors
    ///
    /// Any [`Artifact::read`] or [`Surface::from_artifact`] failure.
    pub fn load(path: &Path) -> Result<Surface, SurfaceError> {
        Surface::from_artifact(Artifact::read(path)?)
    }

    /// The decoded artifact (header fields included).
    pub fn artifact(&self) -> &Artifact {
        &self.artifact
    }

    /// The builder-measured sup-error from the header.
    pub fn sup_error(&self) -> f64 {
        self.artifact.sup_error
    }

    /// Checks that `model` is the calibration this artifact was built
    /// against, by recomputing the anchor fingerprint.
    ///
    /// # Errors
    ///
    /// [`SurfaceError::ModelMismatch`] on a different calibration, or
    /// [`SurfaceError::Build`] if the anchor evaluations fail.
    pub fn verify_model(&self, model: &NbtiModel) -> Result<(), SurfaceError> {
        let found = model_fingerprint(model)?;
        if found != self.artifact.model_fingerprint {
            return Err(SurfaceError::ModelMismatch {
                expected: self.artifact.model_fingerprint,
                found,
            });
        }
        Ok(())
    }

    /// Interpolated ΔV_th at `query`. `None` when the surface cannot
    /// answer at all: a non-finite coordinate, or a `(p_active,
    /// p_standby)` pair the artifact carries no block for (pairs match on
    /// the stress-key 1e-9 lattice). Out-of-domain axis values *do*
    /// produce a value, clamped to the grid edge and flagged.
    pub fn lookup(&self, query: &SurfaceQuery) -> Option<Lookup> {
        let coords = [
            query.t_active_k.0,
            query.t_standby_k.0,
            query.ras_fraction,
            query.lifetime_s,
            query.p_active,
            query.p_standby,
        ];
        if coords.iter().any(|c| !c.is_finite()) {
            return None;
        }
        let want = (
            quantize_prob(query.p_active),
            quantize_prob(query.p_standby),
        );
        let block = self.pairs_q.iter().position(|&q| q == want)?;
        let (delta_vth_v, clamped) = interpolate(
            &self.artifact.grid,
            &self.artifact.values[block],
            query.t_active_k.0,
            query.t_standby_k.0,
            query.ras_fraction,
            query.lifetime_s,
        );
        Some(Lookup {
            delta_vth_v,
            clamped,
        })
    }
}

/// Anchor operating points for the model fingerprint: a spread of
/// `(T_standby, ras_fraction, lifetime, p_active, p_standby)` at the
/// engine's fixed period and active temperature.
const ANCHORS: [(f64, f64, f64, f64, f64); 4] = [
    (330.0, 0.1, 1e8, 0.5, 1.0),
    (360.0, 0.5, 3e7, 1.0, 0.0),
    (400.0, 0.9, 1e9, 0.25, 0.75),
    (310.0, 0.05, 1e6, 0.0, 1.0),
];

/// FNV-1a fingerprint of the model: the bit patterns of its ΔV_th at the
/// fixed anchor points plus its nominal overdrive. Any calibration change
/// that alters served values changes the fingerprint; artifact and server
/// agree on the model or the artifact is refused. The anchors' AC
/// recursions share one lane-parallel walk, each value bit-equal to one
/// [`evaluate_exact`](crate::evaluate_exact) call.
///
/// # Errors
///
/// [`SurfaceError::Build`] if an anchor evaluation fails (it cannot for a
/// validated model).
pub fn model_fingerprint(model: &NbtiModel) -> Result<u64, SurfaceError> {
    let points =
        ANCHORS.map(|(ts, rf, _, pa, ps)| (Kelvin(SWEEP_TEMP_ACTIVE_K), Kelvin(ts), rf, (pa, ps)));
    let lifetimes = ANCHORS.map(|(_, _, t, ..)| Seconds(t));
    let bases = crate::builder::exact_points(model, SWEEP_PERIOD_S, points, 1, &lifetimes)?;
    let mut hash = Fnv1a::default();
    for base in bases {
        hash.f64(base);
    }
    hash.f64(model.params().overdrive());
    Ok(hash.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build, BuildSpec};
    use relia_core::NbtiParams;
    use relia_jobs::SWEEP_PERIOD_S;

    fn small_artifact() -> Artifact {
        let model = NbtiModel::ptm90().unwrap();
        let spec = BuildSpec {
            t_active_k: vec![Kelvin(SWEEP_TEMP_ACTIVE_K)],
            t_standby_k: crate::builder::kelvin_spaced(320.0, 400.0, 9),
            ras_fraction: crate::builder::lin_spaced(0.1, 0.9, 9),
            lifetime_s: crate::builder::log_spaced(1e6, 1e9, 13),
            pairs: vec![(0.5, 1.0), (0.3, 1.0)],
            period_s: SWEEP_PERIOD_S,
            workers: 2,
        };
        build(&model, &spec).unwrap()
    }

    #[test]
    fn lookup_at_a_grid_node_is_bit_exact() {
        let artifact = small_artifact();
        let node = artifact.values[0][artifact.grid.index(0, 1, 2, 3)];
        let surface = Surface::from_artifact(artifact).unwrap();
        let g = &surface.artifact().grid;
        let q = SurfaceQuery {
            t_active_k: Kelvin(g.t_active_k()[0]),
            t_standby_k: Kelvin(g.t_standby_k()[1]),
            ras_fraction: g.ras_fraction()[2],
            lifetime_s: g.lifetime_s()[3],
            p_active: 0.5,
            p_standby: 1.0,
        };
        let hit = surface.lookup(&q).unwrap();
        assert!(!hit.clamped);
        assert_eq!(hit.delta_vth_v.to_bits(), node.to_bits());
    }

    #[test]
    fn unknown_pair_and_non_finite_queries_miss() {
        let surface = Surface::from_artifact(small_artifact()).unwrap();
        let mut q = SurfaceQuery {
            t_active_k: Kelvin(400.0),
            t_standby_k: Kelvin(330.0),
            ras_fraction: 0.5,
            lifetime_s: 1e8,
            p_active: 0.5,
            p_standby: 1.0,
        };
        assert!(surface.lookup(&q).is_some());
        q.p_active = 0.7;
        assert!(surface.lookup(&q).is_none(), "pair not in the artifact");
        q.p_active = f64::NAN;
        assert!(surface.lookup(&q).is_none());
        // The second pair block answers too.
        q.p_active = 0.3;
        assert!(surface.lookup(&q).is_some());
    }

    #[test]
    fn out_of_domain_lookups_are_flagged_clamped() {
        let surface = Surface::from_artifact(small_artifact()).unwrap();
        let q = SurfaceQuery {
            t_active_k: Kelvin(400.0),
            t_standby_k: Kelvin(250.0),
            ras_fraction: 0.5,
            lifetime_s: 1e8,
            p_active: 0.5,
            p_standby: 1.0,
        };
        assert!(surface.lookup(&q).unwrap().clamped);
    }

    #[test]
    fn load_refuses_artifacts_over_the_error_bound() {
        let mut artifact = small_artifact();
        artifact.sup_error = DOCUMENTED_ERROR_BOUND * 3.0;
        match Surface::from_artifact(artifact) {
            Err(SurfaceError::ErrorBoundExceeded { measured, bound }) => {
                assert!(measured > bound);
            }
            other => panic!("expected ErrorBoundExceeded, got {other:?}"),
        }
    }

    #[test]
    fn model_fingerprint_detects_a_recalibrated_model() {
        let ptm90 = NbtiModel::ptm90().unwrap();
        let surface = Surface::from_artifact(small_artifact()).unwrap();
        surface.verify_model(&ptm90).unwrap();

        let mut params = NbtiParams::ptm90().unwrap();
        params.kv_ref *= 1.01;
        let other = NbtiModel::new(params).unwrap();
        assert!(matches!(
            surface.verify_model(&other),
            Err(SurfaceError::ModelMismatch { .. })
        ));
        // Pinned: every committed artifact header carries this value.
        assert_eq!(model_fingerprint(&ptm90).unwrap(), 0x3d63_62de_2326_31ea);
    }

    #[test]
    fn rel_error_floors_near_zero_values() {
        assert!((rel_error(1.1e-2, 1e-2) - 1e-1).abs() < 1e-9);
        // Near zero the floor takes over: 1e-9 absolute over a 1e-6 floor.
        assert!((rel_error(1e-9, 0.0) - 1e-3).abs() < 1e-9);
    }
}
