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

    /// [`DeltaVthCache::delta_vth`] for every key of `keys`, in order,
    /// leaving the table as a per-key loop over `keys` would. The default
    /// asks once per key; an implementation overrides it to evaluate the
    /// batch's misses together through [`StressKey::evaluate_many`].
    fn delta_vth_many(
        &self,
        keys: &[StressKey],
        model: &NbtiModel,
    ) -> Vec<Result<f64, ModelError>> {
        keys.iter().map(|&key| self.delta_vth(key, model)).collect()
    }
}

/// The trivial cache: always evaluates.
///
/// The table an [`crate::AgingAnalysis`] consults unless
/// [`crate::AgingAnalysis::with_cache`] sets a shared one; either way
/// every ΔV_th goes through [`StressKey::evaluate`] and gives the same
/// bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCache;

impl DeltaVthCache for NoCache {
    fn delta_vth(&self, key: StressKey, model: &NbtiModel) -> Result<f64, ModelError> {
        key.evaluate(model)
    }

    fn delta_vth_many(
        &self,
        keys: &[StressKey],
        model: &NbtiModel,
    ) -> Vec<Result<f64, ModelError>> {
        StressKey::evaluate_many(keys, model)
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
