//! Calibrated parameter set for the temperature-aware NBTI model.

use crate::error::{check_range, check_temp, ModelError};
use crate::units::{ElectronVolts, Kelvin, Volts};

/// Parameters of the temperature-aware NBTI model (eqs. 1–19 of the paper).
///
/// The defaults are calibrated to the paper's operating point: a PTM-90nm-like
/// bulk CMOS process with `V_dd = 1.0 V`, `|V_th0| = 220 mV`, and a DC-stress
/// threshold shift of ~35 mV after 10^8 s at 400 K (IBM's "~15% delay impact"
/// anchor). The diffusion activation energy is chosen so that the paper's
/// empirical observation — `T_standby ≈ 370 K` makes ΔV_th insensitive to the
/// active/standby ratio when the active duty cycle is 0.5 — is reproduced.
///
/// ```
/// use relia_core::NbtiParams;
///
/// let p = NbtiParams::ptm90().unwrap();
/// assert_eq!(p.vdd.0, 1.0);
/// assert_eq!(p.vth0.0, 0.22);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NbtiParams {
    /// Supply voltage.
    pub vdd: Volts,
    /// Nominal threshold-voltage magnitude of the PMOS devices.
    pub vth0: Volts,
    /// Velocity saturation index of the alpha-power-law delay model
    /// (1 ≤ α ≤ 2).
    pub alpha: f64,
    /// Pre-factor `K_v` of the threshold shift at the reference temperature,
    /// in `V / s^(1/4)`: `ΔV_th(t) = K_v · t^(1/4)` under DC stress.
    pub kv_ref: f64,
    /// Reference temperature at which [`NbtiParams::kv_ref`] was calibrated.
    pub temp_ref: Kelvin,
    /// Activation energy of the hydrogen diffusion coefficient `D_H`.
    ///
    /// The overall trap-generation activation energy is `E_A ≈ E_D/4`
    /// (eq. 16 with `E_f ≈ E_r`).
    pub e_d: ElectronVolts,
    /// Oxide-field sensitivity of the degradation rate (eq. 23's
    /// `exp(E_ox/E_0)` with the oxide thickness folded in): the rate scales
    /// by `exp(Δ(V_gs − V_th)/field_scale)` per volt of overdrive change.
    pub field_scale: Volts,
}

impl NbtiParams {
    /// The paper's calibration: PTM 90 nm bulk CMOS operating point.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in constants; the `Result` mirrors
    /// [`NbtiParams::validated`] so callers can treat all constructors
    /// uniformly.
    pub fn ptm90() -> Result<Self, ModelError> {
        NbtiParams {
            vdd: Volts(1.0),
            vth0: Volts(0.22),
            alpha: 1.3,
            // 35 mV after 1e8 s of DC stress at 400 K: 0.035 / (1e8)^(1/4).
            kv_ref: 3.5e-4,
            temp_ref: Kelvin(400.0),
            e_d: ElectronVolts(0.295),
            field_scale: Volts(0.26),
        }
        .validated()
    }

    /// Validates all fields, returning `self` on success.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] or
    /// [`ModelError::InvalidTemperature`] when a field is out of range.
    pub fn validated(self) -> Result<Self, ModelError> {
        check_range("vdd", self.vdd.0, 1e-3, 10.0, "(0, 10] V")?;
        check_range("vth0", self.vth0.0, 1e-3, self.vdd.0, "(0, vdd] V")?;
        check_range("alpha", self.alpha, 1.0, 2.0, "[1, 2]")?;
        check_range("kv_ref", self.kv_ref, 0.0, 1.0, "[0, 1] V/s^1/4")?;
        check_temp("temp_ref", self.temp_ref)?;
        check_range("e_d", self.e_d.0, 0.0, 5.0, "[0, 5] eV")?;
        check_range("field_scale", self.field_scale.0, 1e-3, 10.0, "(0, 10] V")?;
        Ok(self)
    }

    /// Gate overdrive `V_dd − V_th0` at the nominal threshold, in volts.
    pub fn overdrive(&self) -> f64 {
        self.vdd.0 - self.vth0.0
    }
}

impl Default for NbtiParams {
    fn default() -> Self {
        #[expect(clippy::expect_used, reason = "ptm90() cannot fail")]
        Self::ptm90().expect("built-in calibration is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_ptm90() {
        assert_eq!(NbtiParams::default(), NbtiParams::ptm90().unwrap());
    }

    #[test]
    fn validation_rejects_bad_alpha() {
        let p = NbtiParams {
            alpha: 2.5,
            ..NbtiParams::default()
        };
        assert!(p.validated().is_err());
    }

    #[test]
    fn validation_rejects_vth_above_vdd() {
        let p = NbtiParams {
            vth0: Volts(1.5),
            ..NbtiParams::default()
        };
        assert!(p.validated().is_err());
    }

    #[test]
    fn overdrive_is_positive() {
        let p = NbtiParams::default();
        assert!((p.overdrive() - 0.78).abs() < 1e-12);
    }

    #[test]
    fn dc_calibration_anchor() {
        // K_v * (1e8)^(1/4) should be the 35 mV anchor.
        let p = NbtiParams::default();
        let dvth = p.kv_ref * 1.0e8_f64.powf(0.25);
        assert!((dvth - 0.035).abs() < 1e-6);
    }
}
