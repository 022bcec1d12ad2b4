//! Fleet study specification: what to sample, how many devices, which
//! stress schedule, and the correlation structure of the variation model.

use crate::accum::HIST_BINS;
use crate::error::FleetError;
use relia_core::seal::Fnv1a;
use relia_core::{Kelvin, ModeSchedule, ModelError, PmosStress, Ras, Seconds, VthDistribution};
use relia_jobs::{SWEEP_PERIOD_S, SWEEP_TEMP_ACTIVE_K};

/// Checkpoint/fingerprint format version; bump on any layout change.
pub const FLEET_FORMAT_VERSION: u64 = 1;

/// A complete description of one fleet Monte Carlo study.
///
/// Every field participates in the run fingerprint, so a checkpoint written
/// for one spec can never be resumed against another.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Active:standby residency split of the operating schedule.
    pub ras: Ras,
    /// Standby temperature (active is pinned at the sweep reference, like
    /// the sweep engine and serve endpoints).
    pub t_standby: Kelvin,
    /// Signal probability while active.
    pub p_active: f64,
    /// Stress probability while in standby (1.0 = input held low).
    pub p_standby: f64,
    /// Evaluation times, non-decreasing; the last one anchors the lifetime
    /// projection.
    pub times: Vec<Seconds>,
    /// Time-zero threshold-voltage distribution.
    pub dist: VthDistribution,
    /// Correlation in `[-1, 1]` between the time-zero Vth deviation and the
    /// log of the degradation-rate multiplier. Negative values reproduce
    /// the Hassan & Roy observation that fast (low-Vth) devices age faster.
    pub correlation: f64,
    /// Standard deviation of `ln(rate multiplier)`; 0 disables rate spread.
    pub rate_sigma: f64,
    /// Delay guardband as a fraction of nominal delay; a device yields at
    /// time `t` while its delay degradation stays at or below this.
    pub guardband: f64,
    /// Number of Monte Carlo devices.
    pub samples: usize,
    /// PRNG seed; fixes every drawn variate together with the chunk size.
    pub seed: u64,
}

impl FleetSpec {
    /// The paper-flavoured default study: the DTM schedule of fig. 10
    /// (10% active at 400 K, standby at 330 K, worst-case standby vector),
    /// the fig. 12 variation spread, and a 10 000-device fleet.
    pub fn paper_defaults() -> Result<Self, ModelError> {
        const YEAR_S: f64 = 3.156e7;
        Ok(FleetSpec {
            ras: Ras::new(1.0, 9.0)?,
            t_standby: Kelvin(330.0),
            p_active: 0.5,
            p_standby: 1.0,
            times: vec![Seconds(YEAR_S), Seconds(3.0 * YEAR_S), Seconds(1.0e8)],
            dist: VthDistribution::new(relia_core::Volts(0.22), relia_core::Volts(0.010))?,
            correlation: -0.4,
            rate_sigma: 0.08,
            guardband: 0.08,
            samples: 10_000,
            seed: 0x00F1_612A,
        })
    }

    /// The operating schedule this spec describes, on the engine-wide
    /// reference period and active temperature.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] for out-of-range temperatures.
    pub fn schedule(&self) -> Result<ModeSchedule, ModelError> {
        ModeSchedule::new(
            self.ras,
            Seconds(SWEEP_PERIOD_S),
            Kelvin(SWEEP_TEMP_ACTIVE_K),
            self.t_standby,
        )
    }

    /// The PMOS stress probabilities of this spec.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] for probabilities outside `[0, 1]`.
    pub fn stress(&self) -> Result<PmosStress, ModelError> {
        PmosStress::new(self.p_active, self.p_standby)
    }

    /// Validates the cross-field invariants the constructors cannot see.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Invalid`] describing the first violation.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.samples == 0 {
            return Err(invalid("samples must be at least 1"));
        }
        if self.times.is_empty() {
            return Err(invalid("at least one evaluation time is required"));
        }
        let mut prev = 0.0_f64;
        for t in &self.times {
            if !t.0.is_finite() || t.0 < 0.0 {
                return Err(invalid("evaluation times must be finite and non-negative"));
            }
            if t.0 < prev {
                return Err(invalid("evaluation times must be non-decreasing"));
            }
            prev = t.0;
        }
        if !(-1.0..=1.0).contains(&self.correlation) {
            return Err(invalid("correlation must lie in [-1, 1]"));
        }
        if !self.rate_sigma.is_finite() || !(0.0..=2.0).contains(&self.rate_sigma) {
            return Err(invalid("rate_sigma must lie in [0, 2]"));
        }
        if !self.guardband.is_finite() || self.guardband <= 0.0 || self.guardband >= 1.0 {
            return Err(invalid("guardband must lie in (0, 1)"));
        }
        // Schedule and stress construction re-check their own ranges.
        self.schedule().map_err(FleetError::Model)?;
        self.stress().map_err(FleetError::Model)?;
        Ok(())
    }

    /// A stable 64-bit fingerprint of the spec plus the chunk size, used to
    /// bind checkpoints to the exact run that produced them. FNV-1a over
    /// the IEEE-754 bit patterns so `-0.0` vs `0.0` and NaN payloads are
    /// distinguished the same way the sampler would see them.
    pub fn fingerprint(&self, chunk: usize) -> u64 {
        let mut h = Fnv1a::default();
        h.u64(FLEET_FORMAT_VERSION);
        h.u64(HIST_BINS as u64);
        h.f64(self.ras.active_fraction());
        h.f64(self.ras.standby_fraction());
        h.f64(self.t_standby.0);
        h.f64(self.p_active);
        h.f64(self.p_standby);
        h.u64(self.times.len() as u64);
        for t in &self.times {
            h.f64(t.0);
        }
        h.f64(self.dist.mean().0);
        h.f64(self.dist.sigma().0);
        h.f64(self.correlation);
        h.f64(self.rate_sigma);
        h.f64(self.guardband);
        h.u64(self.samples as u64);
        h.u64(self.seed);
        h.u64(chunk as u64);
        h.finish()
    }
}

fn invalid(what: &str) -> FleetError {
    FleetError::Invalid {
        what: what.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_validate() {
        let spec = FleetSpec::paper_defaults().expect("defaults build");
        spec.validate().expect("defaults validate");
        assert_eq!(spec.samples, 10_000);
        assert_eq!(spec.times.len(), 3);
    }

    #[test]
    fn validation_rejects_each_bad_field() {
        let good = FleetSpec::paper_defaults().expect("defaults build");

        let mut s = good.clone();
        s.samples = 0;
        assert!(s.validate().is_err());

        let mut s = good.clone();
        s.times.clear();
        assert!(s.validate().is_err());

        let mut s = good.clone();
        s.times = vec![Seconds(10.0), Seconds(1.0)];
        assert!(s.validate().is_err());

        let mut s = good.clone();
        s.correlation = 1.5;
        assert!(s.validate().is_err());

        let mut s = good.clone();
        s.rate_sigma = -0.1;
        assert!(s.validate().is_err());

        let mut s = good.clone();
        s.guardband = 0.0;
        assert!(s.validate().is_err());

        let mut s = good;
        s.t_standby = Kelvin(-5.0);
        assert!(s.validate().is_err());
    }

    #[test]
    fn fingerprint_moves_with_every_field() {
        let base = FleetSpec::paper_defaults().expect("defaults build");
        let fp = base.fingerprint(2048);
        assert_ne!(fp, base.fingerprint(1024), "chunk size must matter");

        let mut s = base.clone();
        s.seed ^= 1;
        assert_ne!(fp, s.fingerprint(2048));

        let mut s = base.clone();
        s.correlation = 0.0;
        assert_ne!(fp, s.fingerprint(2048));

        let mut s = base.clone();
        s.guardband = 0.1;
        assert_ne!(fp, s.fingerprint(2048));

        let mut s = base.clone();
        s.samples += 1;
        assert_ne!(fp, s.fingerprint(2048));

        // Same spec, same fingerprint.
        assert_eq!(fp, base.clone().fingerprint(2048));
        // Pinned: every paper-default checkpoint header carries this value.
        assert_eq!(
            base.fingerprint(crate::DEFAULT_CHUNK),
            0x9e60_0f63_9d5b_f9fd
        );
    }
}
