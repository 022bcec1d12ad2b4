//! The paper's contribution: temperature-aware equivalent-cycle transform
//! (eqs. 17–19).
//!
//! A digital circuit alternates between an *active* mode (hot, switching) and
//! a *standby* mode (cooler, state frozen by an input vector or power gating).
//! Stress accumulated at the cooler standby temperature is worth less than
//! stress at the active temperature because the hydrogen diffusion coefficient
//! is thermally activated. This module rescales a two-temperature schedule
//! into a single equivalent AC-stress pattern evaluated at the active
//! temperature:
//!
//! ```text
//! t_eq_stress   = c·t_active·? + (D_standby/D_active)·t_standby   (eq. 17)
//! c_eq          = t_eq_stress / (t_eq_stress + t_eq_recovery)     (eq. 18)
//! τ_eq          = t_eq_stress + t_eq_recovery                     (eq. 19)
//! ```
//!
//! Recovery is treated as temperature-insensitive, as the paper observes
//! ("the temperature has negligible effect on NBTI relaxation phase").

use crate::ac::AcStress;
use crate::arrhenius::diffusion_ratio;
use crate::error::{check_range, check_temp, ModelError};
use crate::params::NbtiParams;
use crate::units::{Kelvin, Seconds};

/// Ratio of active to standby time, e.g. `Ras::new(1.0, 9.0)` for the paper's
/// "RAS = 1:9".
///
/// ```
/// use relia_core::Ras;
///
/// let ras = Ras::new(1.0, 5.0).unwrap();
/// assert!((ras.active_fraction() - 1.0 / 6.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ras {
    active: f64,
    standby: f64,
}

impl Ras {
    /// Creates a ratio from positive active and standby weights.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] when either weight is
    /// negative, both are zero, or a weight is non-finite.
    pub fn new(active: f64, standby: f64) -> Result<Self, ModelError> {
        check_range("ras.active", active, 0.0, f64::MAX, "non-negative")?;
        check_range("ras.standby", standby, 0.0, f64::MAX, "non-negative")?;
        if active + standby <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "ras",
                value: 0.0,
                expected: "active + standby > 0",
            });
        }
        Ok(Ras { active, standby })
    }

    /// Fraction of each mode cycle spent active.
    pub fn active_fraction(&self) -> f64 {
        self.active / (self.active + self.standby)
    }

    /// Fraction of each mode cycle spent in standby.
    pub fn standby_fraction(&self) -> f64 {
        1.0 - self.active_fraction()
    }
}

impl std::fmt::Display for Ras {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.active, self.standby)
    }
}

/// An active/standby operating schedule: how each mode cycle is divided and
/// at which steady-state temperature each mode runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeSchedule {
    t_active: Seconds,
    t_standby: Seconds,
    temp_active: Kelvin,
    temp_standby: Kelvin,
}

impl ModeSchedule {
    /// Creates a schedule from an active:standby ratio, the mode-cycle
    /// period, and the two steady-state temperatures.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for a non-positive period or non-physical
    /// temperature.
    ///
    /// ```
    /// use relia_core::{Kelvin, ModeSchedule, Ras, Seconds};
    ///
    /// let s = ModeSchedule::new(
    ///     Ras::new(1.0, 9.0)?,
    ///     Seconds(1000.0),
    ///     Kelvin(400.0),
    ///     Kelvin(330.0),
    /// )?;
    /// assert_eq!(s.t_active().0, 100.0);
    /// assert_eq!(s.t_standby().0, 900.0);
    /// # Ok::<(), relia_core::ModelError>(())
    /// ```
    pub fn new(
        ras: Ras,
        period: Seconds,
        temp_active: Kelvin,
        temp_standby: Kelvin,
    ) -> Result<Self, ModelError> {
        check_range(
            "period",
            period.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            "positive seconds",
        )?;
        check_temp("temp_active", temp_active)?;
        check_temp("temp_standby", temp_standby)?;
        Ok(ModeSchedule {
            t_active: Seconds(ras.active_fraction() * period.0),
            t_standby: Seconds(ras.standby_fraction() * period.0),
            temp_active,
            temp_standby,
        })
    }

    /// Creates an always-active schedule (the worst-case temperature
    /// assumption of prior work): the whole period is spent at
    /// `temp_active`.
    pub fn always_active(period: Seconds, temp_active: Kelvin) -> Result<Self, ModelError> {
        #[expect(clippy::expect_used, reason = "Ras::new(1, 0) cannot fail")]
        let ras = Ras::new(1.0, 0.0).expect("constant ratio is valid");
        ModeSchedule::new(ras, period, temp_active, temp_active)
    }

    /// Active time per mode cycle.
    pub fn t_active(&self) -> Seconds {
        self.t_active
    }

    /// Standby time per mode cycle.
    pub fn t_standby(&self) -> Seconds {
        self.t_standby
    }

    /// Steady-state active-mode temperature.
    pub fn temp_active(&self) -> Kelvin {
        self.temp_active
    }

    /// Steady-state standby-mode temperature.
    pub fn temp_standby(&self) -> Kelvin {
        self.temp_standby
    }

    /// Mode-cycle period `t_active + t_standby`.
    pub fn period(&self) -> Seconds {
        Seconds(self.t_active.0 + self.t_standby.0)
    }
}

/// Stress description of one PMOS device over the schedule.
///
/// * `active_stress_prob` — probability that the device's gate input is low
///   (the PMOS negatively biased, `V_gs = −V_dd`) while the circuit is
///   active; derived from signal probabilities.
/// * `standby_stress_prob` — probability that the standby internal state
///   holds the gate input low. For a deterministic standby vector this is 0
///   or 1; it is exposed as a probability so that ensembles of standby
///   vectors can be modeled too.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmosStress {
    active_stress_prob: f64,
    standby_stress_prob: f64,
}

impl PmosStress {
    /// Creates a stress description; both probabilities must lie in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for out-of-range
    /// probabilities.
    pub fn new(active_stress_prob: f64, standby_stress_prob: f64) -> Result<Self, ModelError> {
        check_range("active_stress_prob", active_stress_prob, 0.0, 1.0, "[0, 1]")?;
        check_range(
            "standby_stress_prob",
            standby_stress_prob,
            0.0,
            1.0,
            "[0, 1]",
        )?;
        Ok(PmosStress {
            active_stress_prob,
            standby_stress_prob,
        })
    }

    /// The worst case the paper uses as its baseline: a 0.5 signal
    /// probability while active, and the standby vector holding the gate
    /// input low (full standby stress).
    pub fn worst_case() -> Self {
        PmosStress {
            active_stress_prob: 0.5,
            standby_stress_prob: 1.0,
        }
    }

    /// Best case: 0.5 active signal probability, standby vector holds the
    /// gate input *high* so the device relaxes throughout standby.
    pub fn best_case() -> Self {
        PmosStress {
            active_stress_prob: 0.5,
            standby_stress_prob: 0.0,
        }
    }

    /// Probability of stress during active mode.
    pub fn active_stress_prob(&self) -> f64 {
        self.active_stress_prob
    }

    /// Probability of stress during standby mode.
    pub fn standby_stress_prob(&self) -> f64 {
        self.standby_stress_prob
    }
}

/// The equivalent single-temperature AC stress for a device under a
/// two-temperature schedule, plus the diffusion ratio used to build it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EquivalentCycle {
    /// Equivalent AC stress (duty cycle `c_eq`, period `τ_eq`), referenced to
    /// the active-mode temperature.
    pub stress: AcStress,
    /// Equivalent stress seconds per mode cycle (eq. 17).
    pub t_eq_stress: f64,
    /// Equivalent recovery seconds per mode cycle.
    pub t_eq_recovery: f64,
    /// `D_H(T_standby)/D_H(T_active)` used for the rescale.
    pub diffusion_ratio: f64,
}

impl EquivalentCycle {
    /// Builds the equivalent cycle for `stress` under `schedule` with the
    /// activation energy from `params` (eqs. 17–19).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the resulting equivalent period degenerates
    /// to zero (cannot happen for valid schedules, kept for API symmetry).
    pub fn build(
        params: &NbtiParams,
        schedule: &ModeSchedule,
        stress: &PmosStress,
    ) -> Result<Self, ModelError> {
        let r = diffusion_ratio(params.e_d, schedule.temp_standby(), schedule.temp_active());
        let t_a = schedule.t_active().0;
        let t_s = schedule.t_standby().0;
        let p_a = stress.active_stress_prob();
        let p_s = stress.standby_stress_prob();

        // Stress seconds at the standby temperature are rescaled by the
        // diffusion ratio; recovery seconds count at face value.
        let t_eq_stress = p_a * t_a + p_s * r * t_s;
        let t_eq_recovery = (1.0 - p_a) * t_a + (1.0 - p_s) * t_s;
        let period = t_eq_stress + t_eq_recovery;
        if period <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "equivalent period",
                value: period,
                expected: "positive",
            });
        }
        let duty = t_eq_stress / period;
        Ok(EquivalentCycle {
            stress: AcStress::new(duty, Seconds(period))?,
            t_eq_stress,
            t_eq_recovery,
            diffusion_ratio: r,
        })
    }
}

/// One interval of an arbitrary operating trace: `duration` at temperature
/// `temp`, with the device under stress for `stress_fraction` of the
/// interval.
///
/// Traces generalize the two-mode [`ModeSchedule`]: a measured thermal
/// profile (e.g. from `relia-thermal`) can be replayed directly instead of
/// being collapsed to two steady-state temperatures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressInterval {
    /// Interval length.
    pub duration: Seconds,
    /// Die temperature during the interval.
    pub temp: Kelvin,
    /// Fraction of the interval the PMOS spends at `V_gs = −V_dd`.
    pub stress_fraction: f64,
}

impl StressInterval {
    /// Validates the interval.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for a non-positive duration, non-physical
    /// temperature, or stress fraction outside `[0, 1]`.
    pub fn validated(self) -> Result<Self, ModelError> {
        check_range(
            "duration",
            self.duration.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            "positive seconds",
        )?;
        check_temp("temp", self.temp)?;
        check_range("stress_fraction", self.stress_fraction, 0.0, 1.0, "[0, 1]")?;
        Ok(self)
    }
}

impl EquivalentCycle {
    /// Builds the equivalent cycle for one repetition of an arbitrary
    /// temperature/stress trace, referenced to `temp_ref` (eq. 17
    /// generalized): every interval's stress seconds are rescaled by its
    /// own diffusion ratio, recovery seconds count at face value.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for an empty trace or invalid interval.
    pub fn from_trace(
        params: &NbtiParams,
        trace: &[StressInterval],
        temp_ref: Kelvin,
    ) -> Result<Self, ModelError> {
        if trace.is_empty() {
            return Err(ModelError::InvalidParameter {
                name: "trace",
                value: 0.0,
                expected: "at least one interval",
            });
        }
        check_temp("temp_ref", temp_ref)?;
        let mut t_eq_stress = 0.0;
        let mut t_eq_recovery = 0.0;
        for interval in trace {
            let iv = interval.validated()?;
            let r = diffusion_ratio(params.e_d, iv.temp, temp_ref);
            t_eq_stress += iv.stress_fraction * r * iv.duration.0;
            t_eq_recovery += (1.0 - iv.stress_fraction) * iv.duration.0;
        }
        let period = t_eq_stress + t_eq_recovery;
        if period <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "equivalent period",
                value: period,
                expected: "positive",
            });
        }
        Ok(EquivalentCycle {
            stress: AcStress::new(t_eq_stress / period, Seconds(period))?,
            t_eq_stress,
            t_eq_recovery,
            diffusion_ratio: f64::NAN, // trace spans many temperatures
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> NbtiParams {
        NbtiParams::default()
    }

    fn schedule(ras_s: f64, temp_s: f64) -> ModeSchedule {
        ModeSchedule::new(
            Ras::new(1.0, ras_s).unwrap(),
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(temp_s),
        )
        .unwrap()
    }

    #[test]
    fn ras_fractions() {
        let r = Ras::new(1.0, 9.0).unwrap();
        assert!((r.active_fraction() - 0.1).abs() < 1e-12);
        assert!((r.standby_fraction() - 0.9).abs() < 1e-12);
        assert_eq!(Ras::new(9.0, 1.0).unwrap().active_fraction(), 0.9);
    }

    #[test]
    fn ras_rejects_degenerate() {
        assert!(Ras::new(0.0, 0.0).is_err());
        assert!(Ras::new(-1.0, 1.0).is_err());
    }

    #[test]
    fn always_active_has_no_standby() {
        let s = ModeSchedule::always_active(Seconds(100.0), Kelvin(400.0)).unwrap();
        assert_eq!(s.t_standby().0, 0.0);
        assert_eq!(s.t_active().0, 100.0);
    }

    #[test]
    fn equal_temperature_worst_case_is_mostly_stress() {
        // T_standby = T_active, full standby stress, SP 0.5, RAS 1:9:
        // duty = (0.5*0.1 + 0.9) / 1.0 = 0.95.
        let eq =
            EquivalentCycle::build(&params(), &schedule(9.0, 400.0), &PmosStress::worst_case())
                .unwrap();
        assert!((eq.stress.duty_cycle() - 0.95).abs() < 1e-12);
        assert!((eq.stress.period().0 - 1000.0).abs() < 1e-9);
        assert!((eq.diffusion_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cooler_standby_shrinks_equivalent_stress() {
        let hot =
            EquivalentCycle::build(&params(), &schedule(9.0, 400.0), &PmosStress::worst_case())
                .unwrap();
        let cool =
            EquivalentCycle::build(&params(), &schedule(9.0, 330.0), &PmosStress::worst_case())
                .unwrap();
        assert!(cool.t_eq_stress < hot.t_eq_stress);
        assert!(cool.stress.period() < hot.stress.period());
        // Recovery time is temperature-insensitive.
        assert!((cool.t_eq_recovery - hot.t_eq_recovery).abs() < 1e-9);
    }

    #[test]
    fn relaxed_standby_counts_fully_as_recovery() {
        let eq = EquivalentCycle::build(&params(), &schedule(9.0, 330.0), &PmosStress::best_case())
            .unwrap();
        // stress = 0.5 * 100 = 50; recovery = 0.5*100 + 900 = 950.
        assert!((eq.t_eq_stress - 50.0).abs() < 1e-9);
        assert!((eq.t_eq_recovery - 950.0).abs() < 1e-9);
        assert!((eq.stress.duty_cycle() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn zero_stress_probability_gives_zero_duty() {
        let stress = PmosStress::new(0.0, 0.0).unwrap();
        let eq = EquivalentCycle::build(&params(), &schedule(1.0, 330.0), &stress).unwrap();
        assert_eq!(eq.stress.duty_cycle(), 0.0);
    }

    #[test]
    fn stress_probability_validation() {
        assert!(PmosStress::new(1.5, 0.0).is_err());
        assert!(PmosStress::new(0.5, -0.1).is_err());
    }

    #[test]
    fn display_ras() {
        assert_eq!(Ras::new(1.0, 9.0).unwrap().to_string(), "1:9");
    }

    #[test]
    fn trace_reproduces_two_mode_schedule() {
        // A two-interval trace (hot stressed / cool stressed) must match
        // the ModeSchedule-based transform exactly.
        let p = params();
        let sched = schedule(9.0, 330.0);
        let two_mode = EquivalentCycle::build(&p, &sched, &PmosStress::worst_case()).unwrap();
        let trace = [
            StressInterval {
                duration: Seconds(100.0),
                temp: Kelvin(400.0),
                stress_fraction: 0.5,
            },
            StressInterval {
                duration: Seconds(900.0),
                temp: Kelvin(330.0),
                stress_fraction: 1.0,
            },
        ];
        let from_trace = EquivalentCycle::from_trace(&p, &trace, Kelvin(400.0)).unwrap();
        assert!((from_trace.t_eq_stress - two_mode.t_eq_stress).abs() < 1e-9);
        assert!((from_trace.t_eq_recovery - two_mode.t_eq_recovery).abs() < 1e-9);
    }

    #[test]
    fn trace_with_fine_intervals_matches_coarse() {
        // Splitting an interval does not change the equivalent stress.
        let p = params();
        let coarse = [StressInterval {
            duration: Seconds(10.0),
            temp: Kelvin(360.0),
            stress_fraction: 0.7,
        }];
        let fine: Vec<StressInterval> = (0..10)
            .map(|_| StressInterval {
                duration: Seconds(1.0),
                temp: Kelvin(360.0),
                stress_fraction: 0.7,
            })
            .collect();
        let a = EquivalentCycle::from_trace(&p, &coarse, Kelvin(400.0)).unwrap();
        let b = EquivalentCycle::from_trace(&p, &fine, Kelvin(400.0)).unwrap();
        assert!((a.t_eq_stress - b.t_eq_stress).abs() < 1e-9);
        assert!((a.stress.duty_cycle() - b.stress.duty_cycle()).abs() < 1e-12);
    }

    #[test]
    fn trace_rejects_bad_intervals() {
        let p = params();
        assert!(EquivalentCycle::from_trace(&p, &[], Kelvin(400.0)).is_err());
        let bad = [StressInterval {
            duration: Seconds(-1.0),
            temp: Kelvin(360.0),
            stress_fraction: 0.5,
        }];
        assert!(EquivalentCycle::from_trace(&p, &bad, Kelvin(400.0)).is_err());
        let bad_frac = [StressInterval {
            duration: Seconds(1.0),
            temp: Kelvin(360.0),
            stress_fraction: 1.5,
        }];
        assert!(EquivalentCycle::from_trace(&p, &bad_frac, Kelvin(400.0)).is_err());
    }
}
