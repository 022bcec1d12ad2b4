//! The [`NbtiModel`] front-end: threshold-voltage shift under DC, AC, and
//! temperature-aware active/standby stress schedules (eq. 12 with the
//! equivalent-cycle transform).

use crate::ac::AcStress;
use crate::arrhenius::kv_temperature_factor;
use crate::equivalent::{EquivalentCycle, ModeSchedule, PmosStress};
use crate::error::{check_finite, check_range, check_temp, ModelError};
use crate::params::NbtiParams;
use crate::units::{Kelvin, Seconds, Volts};

/// Temperature-aware NBTI threshold-shift model.
///
/// Wraps an [`NbtiParams`] calibration and evaluates
/// `ΔV_th = K_v(T) · S_n · τ^(1/4)` for the stress pattern of interest.
///
/// ```
/// use relia_core::{Kelvin, NbtiModel, Seconds};
///
/// # fn main() -> Result<(), relia_core::ModelError> {
/// let model = NbtiModel::ptm90()?;
/// // The DC calibration anchor: ~35 mV after 1e8 s at 400 K.
/// let dvth = model.delta_vth_dc(Seconds(1.0e8), Kelvin(400.0))?;
/// assert!((dvth - 0.035).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NbtiModel {
    params: NbtiParams,
}

impl NbtiModel {
    /// Creates a model from validated parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when `params` fails validation.
    pub fn new(params: NbtiParams) -> Result<Self, ModelError> {
        Ok(NbtiModel {
            params: params.validated()?,
        })
    }

    /// The paper's PTM-90nm calibration.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in constants; mirrors [`NbtiModel::new`].
    pub fn ptm90() -> Result<Self, ModelError> {
        NbtiModel::new(NbtiParams::ptm90()?)
    }

    /// Borrow the underlying calibration.
    pub fn params(&self) -> &NbtiParams {
        &self.params
    }

    /// The temperature-dependent pre-factor `K_v(T)` in `V / s^(1/4)`.
    pub fn kv(&self, temp: Kelvin) -> f64 {
        self.params.kv_ref * kv_temperature_factor(self.params.e_d, temp, self.params.temp_ref)
    }

    /// Threshold shift in volts under DC stress of duration `t` at `temp`
    /// (eq. 5 with eq. 12): `ΔV_th = K_v(T) · t^(1/4)`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for negative times or non-physical
    /// temperatures.
    pub fn delta_vth_dc(&self, t: Seconds, temp: Kelvin) -> Result<f64, ModelError> {
        check_range("t", t.0, 0.0, f64::MAX, "non-negative seconds")?;
        check_temp("temp", temp)?;
        check_finite("delta_vth", self.kv(temp) * t.0.powf(0.25))
    }

    /// Threshold shift in volts under periodic AC stress at a fixed
    /// temperature: `ΔV_th = K_v(T) · S_n · τ^(1/4)` (eqs. 9–12).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for invalid times or temperatures.
    pub fn delta_vth_ac(
        &self,
        total_time: Seconds,
        temp: Kelvin,
        stress: &AcStress,
    ) -> Result<f64, ModelError> {
        check_total_time(total_time)?;
        check_temp("temp", temp)?;
        if total_time.0 == 0.0 {
            return Ok(0.0);
        }
        let n = stress.cycles_in(total_time);
        check_finite("delta_vth", self.kv(temp) * stress.trap_factor(n))
    }

    /// Threshold shift in volts under the paper's temperature-aware
    /// active/standby schedule: builds the equivalent cycle (eqs. 17–19) and
    /// evaluates the AC model at the active temperature.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for invalid times.
    pub fn delta_vth(
        &self,
        total_time: Seconds,
        schedule: &ModeSchedule,
        stress: &PmosStress,
    ) -> Result<f64, ModelError> {
        check_total_time(total_time)?;
        if total_time.0 == 0.0 {
            return Ok(0.0);
        }
        let eq = EquivalentCycle::build(&self.params, schedule, stress)?;
        if eq.stress.duty_cycle() == 0.0 {
            return Ok(0.0);
        }
        check_finite(
            "delta_vth",
            self.kv(schedule.temp_active())
                * eq.stress.trap_factor(mode_cycles(total_time, schedule)),
        )
    }

    /// One stress phase followed by one recovery phase (the classic
    /// measurement transient, Fig. 1's single cycle): returns
    /// `(ΔV_th at end of stress, ΔV_th after recovery)`.
    ///
    /// The stress phase follows the DC power law at `temp`; the recovery
    /// phase follows eq. 6 and is treated as temperature-insensitive.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for non-positive stress time, negative
    /// recovery time, or a non-physical temperature.
    pub fn stress_recovery_transient(
        &self,
        t_stress: Seconds,
        t_recovery: Seconds,
        temp: Kelvin,
    ) -> Result<(f64, f64), ModelError> {
        check_range(
            "t_stress",
            t_stress.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            "positive seconds",
        )?;
        check_range(
            "t_recovery",
            t_recovery.0,
            0.0,
            f64::MAX,
            "non-negative seconds",
        )?;
        let peak = self.delta_vth_dc(t_stress, temp)?;
        let frac = crate::rd::recovery_fraction(t_recovery.0, t_stress.0)?;
        Ok((peak, peak * frac))
    }

    /// Threshold shift under an arbitrary repeating temperature/stress
    /// trace (e.g. a measured thermal profile from `relia-thermal`): the
    /// trace describes one macro-cycle, repeated until `total_time`.
    ///
    /// This generalizes [`NbtiModel::delta_vth`] beyond the two-mode
    /// abstraction; with a two-interval trace the results coincide.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for invalid times or trace intervals.
    pub fn delta_vth_trace(
        &self,
        total_time: Seconds,
        trace: &[crate::equivalent::StressInterval],
        temp_ref: Kelvin,
    ) -> Result<f64, ModelError> {
        check_total_time(total_time)?;
        if total_time.0 == 0.0 {
            return Ok(0.0);
        }
        let eq = crate::equivalent::EquivalentCycle::from_trace(&self.params, trace, temp_ref)?;
        if eq.stress.duty_cycle() == 0.0 {
            return Ok(0.0);
        }
        let real_period: f64 = trace.iter().map(|iv| iv.duration.0).sum();
        let n = ((total_time.0 / real_period).floor() as u64).max(1);
        check_finite("delta_vth", self.kv(temp_ref) * eq.stress.trap_factor(n))
    }

    /// Threshold shift with a *permanent* (unrecoverable) damage component
    /// — the paper's discussion of high-k / long-term stress where part of
    /// the degradation "cannot be recovered".
    ///
    /// A fraction `permanent_fraction` of the damage accumulates on pure
    /// stress time with no recovery benefit
    /// (`ΔV_th,perm = K_v·(t_stress,eq)^(1/4)`); the rest follows the
    /// recoverable AC model. With `permanent_fraction = 0` this equals
    /// [`NbtiModel::delta_vth`]; the permanent component is always at least
    /// as large as the recoverable one (recovery only helps).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for invalid times or a fraction outside
    /// `[0, 1]`.
    pub fn delta_vth_with_permanent(
        &self,
        total_time: Seconds,
        schedule: &ModeSchedule,
        stress: &PmosStress,
        permanent_fraction: f64,
    ) -> Result<f64, ModelError> {
        check_range("permanent_fraction", permanent_fraction, 0.0, 1.0, "[0, 1]")?;
        let recoverable = self.delta_vth(total_time, schedule, stress)?;
        if permanent_fraction == 0.0 {
            return Ok(recoverable);
        }
        let eq = EquivalentCycle::build(&self.params, schedule, stress)?;
        let n = mode_cycles(total_time, schedule);
        let total_stress_seconds = eq.t_eq_stress * n as f64;
        let permanent = self.kv(schedule.temp_active()) * total_stress_seconds.powf(0.25);
        check_finite(
            "delta_vth",
            (1.0 - permanent_fraction) * recoverable + permanent_fraction * permanent,
        )
    }

    /// Like [`NbtiModel::delta_vth`], but for a device whose *actual* initial
    /// threshold differs from the nominal calibration point (process
    /// variation, dual-V_th cells). The degradation rate scales with the gate
    /// overdrive per eq. 23: `K_v ∝ sqrt(V_dd − V_th)`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for invalid times or a threshold at/above
    /// `V_dd`.
    pub fn delta_vth_with_vth0(
        &self,
        total_time: Seconds,
        schedule: &ModeSchedule,
        stress: &PmosStress,
        vth0: Volts,
    ) -> Result<f64, ModelError> {
        self.rescale_to_vth0(self.delta_vth(total_time, schedule, stress), vth0)
    }

    /// Rescales a nominal-threshold shift `base` (a [`NbtiModel::delta_vth`]
    /// result) to a device whose initial threshold is `vth0`. An invalid
    /// `vth0` is reported ahead of any error in `base`.
    pub(crate) fn rescale_to_vth0(
        &self,
        base: Result<f64, ModelError>,
        vth0: Volts,
    ) -> Result<f64, ModelError> {
        check_range("vth0", vth0.0, 0.0, self.params.vdd.0 - 1e-6, "[0, vdd)")?;
        let base = base?;
        let overdrive = self.params.vdd.0 - vth0.0;
        // eq. 23: sqrt(V_gs − V_th) prefactor times the exp(E_ox/E_0)
        // oxide-field factor, both referenced to the nominal overdrive.
        let scale = (overdrive / self.params.overdrive()).sqrt()
            * ((overdrive - self.params.overdrive()) / self.params.field_scale.0).exp();
        check_finite("delta_vth", base * scale)
    }
}

/// Validates a total stress time the way every `delta_vth*` entry point
/// does.
pub(crate) fn check_total_time(total_time: Seconds) -> Result<f64, ModelError> {
    check_range(
        "total_time",
        total_time.0,
        0.0,
        f64::MAX,
        "non-negative seconds",
    )
}

/// Whole mode cycles in `total_time` (at least 1). The number of cycles is
/// governed by the *real* mode period; the equivalent period only rescales
/// each cycle's worth of damage.
pub(crate) fn mode_cycles(total_time: Seconds, schedule: &ModeSchedule) -> u64 {
    ((total_time.0 / schedule.period().0).floor() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalent::Ras;

    fn model() -> NbtiModel {
        NbtiModel::ptm90().unwrap()
    }

    fn schedule(temp_standby: f64, standby_weight: f64) -> ModeSchedule {
        ModeSchedule::new(
            Ras::new(1.0, standby_weight).unwrap(),
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(temp_standby),
        )
        .unwrap()
    }

    #[test]
    fn dc_shift_monotone_in_time_and_temperature() {
        let m = model();
        let a = m.delta_vth_dc(Seconds(1.0e6), Kelvin(400.0)).unwrap();
        let b = m.delta_vth_dc(Seconds(1.0e8), Kelvin(400.0)).unwrap();
        let c = m.delta_vth_dc(Seconds(1.0e8), Kelvin(330.0)).unwrap();
        assert!(b > a);
        assert!(c < b);
    }

    #[test]
    fn ac_is_below_dc() {
        let m = model();
        let ac = AcStress::new(0.5, Seconds(1.0e-3)).unwrap();
        let dc = m.delta_vth_dc(Seconds(1.0e8), Kelvin(400.0)).unwrap();
        let acv = m.delta_vth_ac(Seconds(1.0e8), Kelvin(400.0), &ac).unwrap();
        assert!(acv < dc);
        // Long-run AC/DC ratio: (0.5/1.5)^(1/4) ≈ 0.76.
        assert!((acv / dc - 0.7598).abs() < 0.01);
    }

    #[test]
    fn schedule_shift_between_best_and_worst_dc() {
        let m = model();
        let s = schedule(330.0, 9.0);
        let worst = m
            .delta_vth(Seconds(1.0e8), &s, &PmosStress::worst_case())
            .unwrap();
        let best = m
            .delta_vth(Seconds(1.0e8), &s, &PmosStress::best_case())
            .unwrap();
        let dc = m.delta_vth_dc(Seconds(1.0e8), Kelvin(400.0)).unwrap();
        assert!(best < worst);
        assert!(worst < dc);
        assert!(best > 0.0);
    }

    #[test]
    fn paper_table1_shape_hot_standby_increases_with_standby_share() {
        // When T_standby = T_active = 400 K, more standby (full stress) means
        // more degradation.
        let m = model();
        let mut prev = 0.0;
        for w in [1.0, 3.0, 5.0, 7.0, 9.0] {
            let d = m
                .delta_vth(
                    Seconds(1.0e8),
                    &schedule(400.0, w),
                    &PmosStress::worst_case(),
                )
                .unwrap();
            assert!(d > prev, "w={w}");
            prev = d;
        }
    }

    #[test]
    fn paper_table1_shape_cool_standby_decreases_with_standby_share() {
        // When T_standby = 330 K the extra standby time is cool enough that
        // degradation *falls* with a growing standby share.
        let m = model();
        let mut prev = f64::MAX;
        for w in [1.0, 3.0, 5.0, 7.0, 9.0] {
            let d = m
                .delta_vth(
                    Seconds(1.0e8),
                    &schedule(330.0, w),
                    &PmosStress::worst_case(),
                )
                .unwrap();
            assert!(d < prev, "w={w}");
            prev = d;
        }
    }

    #[test]
    fn paper_table1_shape_370k_is_ras_neutral() {
        // At T_standby ≈ 370 K the two effects cancel and ΔV_th is nearly
        // independent of the active:standby ratio.
        let m = model();
        let d1 = m
            .delta_vth(
                Seconds(1.0e8),
                &schedule(370.0, 1.0),
                &PmosStress::worst_case(),
            )
            .unwrap();
        let d9 = m
            .delta_vth(
                Seconds(1.0e8),
                &schedule(370.0, 9.0),
                &PmosStress::worst_case(),
            )
            .unwrap();
        let spread_370 = (d1 - d9).abs() / d1;
        assert!(spread_370 < 0.06, "370 K spread too wide: {d1} vs {d9}");
        // ... and much narrower than the spreads at 400 K / 330 K standby.
        for temp in [400.0, 330.0] {
            let e1 = m
                .delta_vth(
                    Seconds(1.0e8),
                    &schedule(temp, 1.0),
                    &PmosStress::worst_case(),
                )
                .unwrap();
            let e9 = m
                .delta_vth(
                    Seconds(1.0e8),
                    &schedule(temp, 9.0),
                    &PmosStress::worst_case(),
                )
                .unwrap();
            let spread = (e1 - e9).abs() / e1;
            assert!(
                spread > 2.0 * spread_370,
                "spread at {temp} K ({spread}) should dwarf 370 K spread ({spread_370})"
            );
        }
    }

    #[test]
    fn paper_table1_gap_at_1_to_9_is_several_millivolts() {
        // The paper reports a ~9.4 mV gap between 400 K and 330 K standby at
        // RAS = 1:9; ours should be of the same order.
        let m = model();
        let hot = m
            .delta_vth(
                Seconds(1.0e8),
                &schedule(400.0, 9.0),
                &PmosStress::worst_case(),
            )
            .unwrap();
        let cool = m
            .delta_vth(
                Seconds(1.0e8),
                &schedule(330.0, 9.0),
                &PmosStress::worst_case(),
            )
            .unwrap();
        let gap_mv = (hot - cool) * 1e3;
        assert!(gap_mv > 5.0 && gap_mv < 15.0, "gap = {gap_mv} mV");
    }

    #[test]
    fn zero_time_means_zero_shift() {
        let m = model();
        let s = schedule(330.0, 9.0);
        assert_eq!(
            m.delta_vth(Seconds(0.0), &s, &PmosStress::worst_case())
                .unwrap(),
            0.0
        );
        assert_eq!(m.delta_vth_dc(Seconds(0.0), Kelvin(400.0)).unwrap(), 0.0);
    }

    #[test]
    fn lower_initial_vth_degrades_faster() {
        let m = model();
        let s = schedule(330.0, 9.0);
        let low = m
            .delta_vth_with_vth0(Seconds(1.0e8), &s, &PmosStress::worst_case(), Volts(0.18))
            .unwrap();
        let nom = m
            .delta_vth_with_vth0(Seconds(1.0e8), &s, &PmosStress::worst_case(), Volts(0.22))
            .unwrap();
        let high = m
            .delta_vth_with_vth0(Seconds(1.0e8), &s, &PmosStress::worst_case(), Volts(0.30))
            .unwrap();
        assert!(low > nom && nom > high);
        let base = m
            .delta_vth(Seconds(1.0e8), &s, &PmosStress::worst_case())
            .unwrap();
        assert!((nom - base).abs() < 1e-12);
    }

    #[test]
    fn transient_matches_numerical_rd_shape() {
        // The analytical stress+recovery transient should agree with the
        // full R-D solver on the *recovered fraction* after recovering for
        // the stress duration.
        let m = model();
        let (peak, after) = m
            .stress_recovery_transient(Seconds(1.0e4), Seconds(1.0e4), Kelvin(400.0))
            .unwrap();
        assert!(peak > after && after > 0.0);
        let analytic_frac = after / peak; // 0.5 by eq. 6
        let sys = crate::rd_numeric::RdSystem::default();
        let (n_peak, n_after) =
            crate::rd_numeric::integrate_stress_recovery(&sys, 20.0, 20.0, 200, 0.2).unwrap();
        let numeric_frac = n_after / n_peak;
        assert!(
            (analytic_frac - numeric_frac).abs() < 0.25,
            "analytic {analytic_frac} vs numeric {numeric_frac}"
        );
    }

    #[test]
    fn transient_validates_inputs() {
        let m = model();
        assert!(m
            .stress_recovery_transient(Seconds(0.0), Seconds(1.0), Kelvin(400.0))
            .is_err());
        assert!(m
            .stress_recovery_transient(Seconds(1.0), Seconds(-1.0), Kelvin(400.0))
            .is_err());
    }

    #[test]
    fn trace_model_matches_two_mode_model() {
        use crate::equivalent::StressInterval;
        let m = model();
        let s = schedule(330.0, 9.0);
        let two_mode = m
            .delta_vth(Seconds(1.0e8), &s, &PmosStress::worst_case())
            .unwrap();
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
        let traced = m
            .delta_vth_trace(Seconds(1.0e8), &trace, Kelvin(400.0))
            .unwrap();
        assert!((two_mode - traced).abs() < 1e-12, "{two_mode} vs {traced}");
    }

    #[test]
    fn multi_temperature_trace_interpolates() {
        use crate::equivalent::StressInterval;
        let m = model();
        let mk = |temp: f64| {
            [StressInterval {
                duration: Seconds(1000.0),
                temp: Kelvin(temp),
                stress_fraction: 0.5,
            }]
        };
        let cool = m
            .delta_vth_trace(Seconds(1.0e8), &mk(330.0), Kelvin(400.0))
            .unwrap();
        let mixed = [
            StressInterval {
                duration: Seconds(500.0),
                temp: Kelvin(330.0),
                stress_fraction: 0.5,
            },
            StressInterval {
                duration: Seconds(500.0),
                temp: Kelvin(400.0),
                stress_fraction: 0.5,
            },
        ];
        let mid = m
            .delta_vth_trace(Seconds(1.0e8), &mixed, Kelvin(400.0))
            .unwrap();
        let hot = m
            .delta_vth_trace(Seconds(1.0e8), &mk(400.0), Kelvin(400.0))
            .unwrap();
        assert!(cool < mid && mid < hot);
    }

    #[test]
    fn permanent_fraction_interpolates_upward() {
        let m = model();
        let s = schedule(330.0, 9.0);
        let stress = PmosStress::worst_case();
        let base = m
            .delta_vth_with_permanent(Seconds(1.0e8), &s, &stress, 0.0)
            .unwrap();
        let half = m
            .delta_vth_with_permanent(Seconds(1.0e8), &s, &stress, 0.5)
            .unwrap();
        let full = m
            .delta_vth_with_permanent(Seconds(1.0e8), &s, &stress, 1.0)
            .unwrap();
        let plain = m.delta_vth(Seconds(1.0e8), &s, &stress).unwrap();
        assert!((base - plain).abs() < 1e-15);
        assert!(base < half && half < full, "{base} {half} {full}");
        assert!(m
            .delta_vth_with_permanent(Seconds(1.0), &s, &stress, 1.5)
            .is_err());
    }

    #[test]
    fn non_finite_inputs_are_rejected_not_propagated() {
        // The degradation boundary: no NaN/∞ input reaches the power law,
        // and no non-finite ΔV_th escapes as an Ok value.
        let m = model();
        let s = schedule(330.0, 9.0);
        for bad in [f64::NAN, f64::INFINITY] {
            assert!(m.delta_vth_dc(Seconds(bad), Kelvin(400.0)).is_err());
            assert!(m.delta_vth_dc(Seconds(1.0), Kelvin(bad)).is_err());
            assert!(m
                .delta_vth(Seconds(bad), &s, &PmosStress::worst_case())
                .is_err());
        }
        assert!(crate::equivalent::PmosStress::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn rejects_invalid_vth0() {
        let m = model();
        let s = schedule(330.0, 9.0);
        assert!(m
            .delta_vth_with_vth0(Seconds(1.0), &s, &PmosStress::worst_case(), Volts(1.5))
            .is_err());
    }
}
