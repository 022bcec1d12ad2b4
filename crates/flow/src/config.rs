//! Flow configuration: the knobs of the paper's experiments.

use relia_core::{
    Kelvin, ModeSchedule, ModelError, NbtiModel, PmosStress, Ras, Seconds, StressKey,
};
use relia_leakage::DeviceModels;

/// Mode-cycle period of the paper's baseline schedule, in seconds.
pub const PAPER_PERIOD_S: f64 = 1000.0;
/// Active-mode temperature of the paper's baseline schedule, in kelvin.
pub const PAPER_TEMP_ACTIVE_K: f64 = 400.0;

/// The paper's baseline schedule ([`PAPER_PERIOD_S`] period,
/// [`PAPER_TEMP_ACTIVE_K`] active) at one RAS and standby temperature.
///
/// # Errors
///
/// Returns [`ModelError`] for an invalid standby temperature.
pub fn paper_schedule(ras: Ras, temp_standby: Kelvin) -> Result<ModeSchedule, ModelError> {
    ModeSchedule::new(
        ras,
        Seconds(PAPER_PERIOD_S),
        Kelvin(PAPER_TEMP_ACTIVE_K),
        temp_standby,
    )
}

/// The memo key of one bare ΔV_th evaluation on [`paper_schedule`] — the
/// key the sweep engine's model jobs and relia-serve's queries share.
///
/// # Errors
///
/// Returns [`ModelError`] for an invalid standby temperature, stress
/// probability or lifetime (checked in that order).
pub fn paper_stress_key(
    ras: Ras,
    temp_standby: Kelvin,
    p_active: f64,
    p_standby: f64,
    lifetime: Seconds,
) -> Result<StressKey, ModelError> {
    let schedule = paper_schedule(ras, temp_standby)?;
    let stress = PmosStress::new(p_active, p_standby)?;
    StressKey::quantize(&schedule, &stress, lifetime)
}

/// How active-mode signal probabilities are derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpEstimator {
    /// Exact per-cell propagation under the independence assumption —
    /// fast, but ignores reconvergent-fan-out correlation.
    Propagation,
    /// Seeded random-vector simulation (the statistical route the paper
    /// describes) — unbiased, correlation-aware, sampling noise
    /// `~1/sqrt(samples)`.
    MonteCarlo {
        /// Vectors to simulate.
        samples: usize,
        /// RNG seed.
        seed: u64,
    },
}

/// Configuration of one aging/leakage analysis.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// The temperature-aware NBTI calibration.
    pub nbti: NbtiModel,
    /// Active/standby schedule (RAS and the two steady-state temperatures).
    pub schedule: ModeSchedule,
    /// Total operating time over which degradation accumulates.
    pub lifetime: Seconds,
    /// Leakage device models.
    pub devices: DeviceModels,
    /// Per-primary-input probability of logic 1 during active operation
    /// (`None` = uniform 0.5, the paper's default).
    pub input_probs: Option<Vec<f64>>,
    /// Temperature at which standby leakage is evaluated (the paper uses
    /// 400 K for its leakage tables).
    pub leakage_temp: Kelvin,
    /// Signal-probability estimator for the active mode.
    pub sp_estimator: SpEstimator,
}

impl FlowConfig {
    /// The paper's baseline: 10^8 s lifetime, `T_active = 400 K`,
    /// `T_standby = 330 K`, RAS = 1:9, uniform 0.5 input probabilities,
    /// leakage tables at 400 K.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in constants; mirrors the fallible
    /// constructors it is built from.
    pub fn paper_defaults() -> Result<Self, ModelError> {
        Ok(FlowConfig {
            nbti: NbtiModel::ptm90()?,
            schedule: paper_schedule(Ras::new(1.0, 9.0)?, Kelvin(330.0))?,
            lifetime: Seconds(1.0e8),
            devices: DeviceModels::ptm90(),
            input_probs: None,
            leakage_temp: Kelvin(400.0),
            sp_estimator: SpEstimator::Propagation,
        })
    }

    /// Same defaults with a different active/standby ratio and standby
    /// temperature — the axes the paper sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for invalid ratio or temperature.
    pub fn with_schedule(ras: Ras, temp_standby: Kelvin) -> Result<Self, ModelError> {
        let mut c = FlowConfig::paper_defaults()?;
        c.schedule = paper_schedule(ras, temp_standby)?;
        Ok(c)
    }

    /// The quantized memoization key of one stress evaluation under this
    /// config's schedule — the cache-key contract between the analysis loop
    /// and sweep-level caches (see [`crate::cache::DeltaVthCache`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for a lifetime the key lattice cannot hold,
    /// the model's own error for a negative or non-finite one.
    pub fn stress_key(
        &self,
        stress: &PmosStress,
        lifetime: Seconds,
    ) -> Result<StressKey, ModelError> {
        StressKey::quantize(&self.schedule, stress, lifetime)
    }

    /// Resolved per-input probabilities for a circuit with `n` inputs.
    ///
    /// # Panics
    ///
    /// Panics if explicit probabilities were supplied with the wrong width;
    /// validated by [`crate::AgingAnalysis::new`] before use.
    pub(crate) fn resolved_input_probs(&self, n: usize) -> Vec<f64> {
        match &self.input_probs {
            Some(p) => {
                assert_eq!(p.len(), n, "input_probs width mismatch");
                p.clone()
            }
            None => vec![0.5; n],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FlowConfig::paper_defaults().unwrap();
        assert_eq!(c.lifetime.0, 1.0e8);
        assert_eq!(c.schedule.temp_active(), Kelvin(400.0));
        assert_eq!(c.schedule.temp_standby(), Kelvin(330.0));
        assert!((c.schedule.t_standby().0 / c.schedule.t_active().0 - 9.0).abs() < 1e-9);
    }

    #[test]
    fn with_schedule_overrides() {
        let c = FlowConfig::with_schedule(Ras::new(1.0, 5.0).unwrap(), Kelvin(370.0)).unwrap();
        assert_eq!(c.schedule.temp_standby(), Kelvin(370.0));
    }

    #[test]
    fn resolved_probs_default_to_half() {
        let c = FlowConfig::paper_defaults().unwrap();
        assert_eq!(c.resolved_input_probs(3), vec![0.5; 3]);
    }
}
