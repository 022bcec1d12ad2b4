//! Pluggable memoization of NBTI model evaluations.
//!
//! Batch sweeps (the `relia-jobs` crate) evaluate the same quantized stress
//! points over and over — every gate whose worst PMOS sees the same signal
//! probability under the same schedule lands on the same [`StressKey`]. The
//! [`DeltaVthCache`] trait lets the analysis loop consult a shared memo
//! table without this crate depending on any particular cache
//! implementation (or on a threading model).
//!
//! Implementations must be *scheduling-deterministic*: the contract is that
//! the returned value equals `key.evaluate(model)` exactly, which holds for
//! free when the implementation itself calls [`StressKey::evaluate`] on a
//! miss and stores the result, because the evaluation is a pure function of
//! the key.

use relia_core::{ModelError, NbtiModel, StressKey};

/// A memo table for `ΔV_th` keyed by quantized stress points.
pub trait DeltaVthCache {
    /// Returns `key.evaluate(model)`, possibly from a memo table.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when the canonical evaluation fails (the
    /// cache must not memoize errors as successes).
    fn delta_vth(&self, key: StressKey, model: &NbtiModel) -> Result<f64, ModelError>;
}

/// The trivial cache: always evaluates.
///
/// Used by the uncached analysis entry points so cached and uncached code
/// paths share one implementation.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCache;

impl DeltaVthCache for NoCache {
    fn delta_vth(&self, key: StressKey, model: &NbtiModel) -> Result<f64, ModelError> {
        key.evaluate(model)
    }
}

impl<C: DeltaVthCache + ?Sized> DeltaVthCache for &C {
    fn delta_vth(&self, key: StressKey, model: &NbtiModel) -> Result<f64, ModelError> {
        (**self).delta_vth(key, model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relia_core::{Kelvin, ModeSchedule, PmosStress, Ras, Seconds};

    #[test]
    fn no_cache_matches_canonical_evaluation() {
        let model = NbtiModel::ptm90().unwrap();
        let schedule = ModeSchedule::new(
            Ras::new(1.0, 9.0).unwrap(),
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(330.0),
        )
        .unwrap();
        let key =
            StressKey::quantize(&schedule, &PmosStress::worst_case(), Seconds(1.0e8)).unwrap();
        let direct = key.evaluate(&model).unwrap();
        let cached = NoCache.delta_vth(key, &model).unwrap();
        assert_eq!(direct, cached);
    }
}
