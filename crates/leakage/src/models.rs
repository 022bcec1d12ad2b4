//! Analytical 90 nm-class device models for leakage.
//!
//! Subthreshold conduction follows the standard exponential model with
//! temperature-dependent threshold and thermal voltage; gate tunneling is a
//! per-width constant for ON devices (the dominant contribution) and is
//! treated as temperature-insensitive. The calibration targets the paper's
//! operating point (`V_dd = 1.0 V`, `|V_th| = 220 mV`) with OFF-device
//! currents of order 100 nA per unit width at 400 K, and the sizing
//! asymmetry (PMOS drawn 2× wide, slightly leakier per device) that makes
//! the INV/NAND minimum-leakage vector stress the PMOS — the co-optimization
//! conflict at the heart of the paper.

use relia_cells::MosType;
use relia_core::consts::thermal_voltage;
use relia_core::units::Kelvin;

/// Device-model parameters for leakage evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModels {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// NMOS threshold magnitude at 300 K, in volts.
    pub vth_n: f64,
    /// PMOS threshold magnitude at 300 K, in volts.
    pub vth_p: f64,
    /// Threshold temperature coefficient in V/K (threshold falls as the die
    /// heats, so leakage rises steeply with temperature).
    pub vth_temp_coeff: f64,
    /// Subthreshold scale current per unit width for NMOS, in amperes.
    pub i0_n: f64,
    /// Subthreshold scale current per unit width for PMOS, in amperes.
    pub i0_p: f64,
    /// Subthreshold swing ideality factor `n`.
    pub swing_n: f64,
    /// Drain-induced barrier lowering coefficient (V of threshold drop per
    /// V of `V_ds`). DIBL is what makes a full-`V_ds` single OFF device leak
    /// an order of magnitude more than a stack — the classic stacking
    /// effect.
    pub dibl: f64,
    /// Gate tunneling per unit width for an ON NMOS, in amperes.
    pub gate_leak_n: f64,
    /// Gate tunneling per unit width for an ON PMOS, in amperes.
    pub gate_leak_p: f64,
    /// Linear conductance per unit width of an ON device, in siemens
    /// (used for voltage drops across conducting devices in mixed stacks).
    pub g_on: f64,
}

impl DeviceModels {
    /// The default 90 nm-class calibration.
    pub fn ptm90() -> Self {
        DeviceModels {
            vdd: 1.0,
            vth_n: 0.22,
            vth_p: 0.22,
            vth_temp_coeff: 0.7e-3,
            i0_n: 0.3e-6,
            i0_p: 0.21e-6,
            swing_n: 1.5,
            dibl: 0.10,
            gate_leak_n: 8.0e-9,
            gate_leak_p: 1.5e-9,
            g_on: 1.0e-2,
        }
    }

    /// Effective threshold magnitude at `temp` for the given polarity.
    pub fn vth(&self, mos: MosType, temp: Kelvin) -> f64 {
        let vth0 = match mos {
            MosType::Nmos => self.vth_n,
            MosType::Pmos => self.vth_p,
        };
        (vth0 - self.vth_temp_coeff * (temp.0 - 300.0)).max(0.02)
    }

    /// Subthreshold scale current per unit width at `temp` (includes the
    /// `(T/300)²` mobility/DOS factor).
    pub fn i0(&self, mos: MosType, temp: Kelvin) -> f64 {
        let i0 = match mos {
            MosType::Nmos => self.i0_n,
            MosType::Pmos => self.i0_p,
        };
        i0 * (temp.0 / 300.0) * (temp.0 / 300.0)
    }

    /// Subthreshold current of an OFF device in *normalized* coordinates:
    /// the device conducts from a high node `v_hi` to a low node `v_lo`
    /// (both relative to the rail the network hangs from), with its gate at
    /// the rail (0 in normalized coordinates).
    ///
    /// The source sits at `v_lo`, so a raised `v_lo` gives the exponential
    /// stack-effect suppression `exp(−v_lo/(n·v_T))`.
    pub fn off_current(&self, mos: MosType, width: f64, v_hi: f64, v_lo: f64, temp: Kelvin) -> f64 {
        Transistor::new(self, mos, width, temp).off_current(v_hi, v_lo)
    }

    /// Current through an ON device modeled as a linear conductance.
    pub fn on_current(&self, width: f64, v_hi: f64, v_lo: f64) -> f64 {
        self.g_on * width * (v_hi - v_lo).max(0.0)
    }

    /// Gate tunneling of an ON device (full `V_dd` across the oxide).
    pub fn gate_leak(&self, mos: MosType, width: f64) -> f64 {
        match mos {
            MosType::Nmos => self.gate_leak_n * width,
            MosType::Pmos => self.gate_leak_p * width,
        }
    }
}

impl Default for DeviceModels {
    fn default() -> Self {
        DeviceModels::ptm90()
    }
}

/// A device of one polarity and width at one temperature: every factor of
/// [`DeviceModels::off_current`] and [`DeviceModels::on_current`] that does
/// not depend on the terminal voltages. A solve that evaluates the same
/// device many times computes these once; each current repeats the model's
/// operations in the model's order, so it is bit-equal to the model's.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Transistor {
    /// Thermal voltage `v_T`.
    vt: f64,
    /// Threshold magnitude at the temperature, before DIBL.
    vth: f64,
    dibl: f64,
    /// `n·v_T`, the subthreshold exponent's scale.
    swing_vt: f64,
    /// Subthreshold scale current times width.
    i0_width: f64,
    /// ON conductance times width.
    g_on_width: f64,
}

impl Transistor {
    pub(crate) fn new(models: &DeviceModels, mos: MosType, width: f64, temp: Kelvin) -> Self {
        let vt = thermal_voltage(temp);
        Transistor {
            vt,
            vth: models.vth(mos, temp),
            dibl: models.dibl,
            swing_vt: models.swing_n * vt,
            i0_width: models.i0(mos, temp) * width,
            g_on_width: models.g_on * width,
        }
    }

    /// [`DeviceModels::off_current`] of this device.
    #[inline]
    pub(crate) fn off_current(&self, v_hi: f64, v_lo: f64) -> f64 {
        debug_assert!(v_hi >= v_lo - 1e-12);
        let vgs = -v_lo; // gate at 0, source at v_lo
        let vds = (v_hi - v_lo).max(0.0);
        // DIBL lowers the barrier in proportion to V_ds.
        let vth_eff = self.vth - self.dibl * vds;
        self.i0_width * ((vgs - vth_eff) / self.swing_vt).exp() * (1.0 - (-vds / self.vt).exp())
    }

    /// [`DeviceModels::on_current`] of this device.
    #[inline]
    pub(crate) fn on_current(&self, v_hi: f64, v_lo: f64) -> f64 {
        self.g_on_width * (v_hi - v_lo).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T300: Kelvin = Kelvin(300.0);
    const T400: Kelvin = Kelvin(400.0);

    #[test]
    fn off_current_rises_steeply_with_temperature() {
        let m = DeviceModels::ptm90();
        let cold = m.off_current(MosType::Nmos, 1.0, 1.0, 0.0, T300);
        let hot = m.off_current(MosType::Nmos, 1.0, 1.0, 0.0, T400);
        assert!(hot / cold > 10.0, "ratio {}", hot / cold);
    }

    #[test]
    fn off_current_magnitude_at_400k() {
        let m = DeviceModels::ptm90();
        let i = m.off_current(MosType::Nmos, 1.0, 1.0, 0.0, T400);
        assert!(i > 3.0e-8 && i < 3.0e-7, "I_off = {i}");
    }

    #[test]
    fn raised_source_suppresses_exponentially() {
        // The stacking effect: ~60 mV of source voltage cuts the current by
        // nearly an order of magnitude at room temperature.
        let m = DeviceModels::ptm90();
        let full = m.off_current(MosType::Nmos, 1.0, 1.0, 0.0, T300);
        let stacked = m.off_current(MosType::Nmos, 1.0, 1.0, 0.1, T300);
        assert!(full / stacked > 5.0, "ratio {}", full / stacked);
    }

    #[test]
    fn pmos_device_is_leakier_than_nmos_unit() {
        // PMOS drawn at 2x width out-leaks a unit NMOS despite the smaller
        // per-width scale — the INV asymmetry the paper relies on.
        let m = DeviceModels::ptm90();
        let n = m.off_current(MosType::Nmos, 1.0, 1.0, 0.0, T400);
        let p = m.off_current(MosType::Pmos, 2.0, 1.0, 0.0, T400);
        assert!(p > n);
    }

    #[test]
    fn gate_leak_asymmetry() {
        let m = DeviceModels::ptm90();
        assert!(m.gate_leak(MosType::Nmos, 1.0) > m.gate_leak(MosType::Pmos, 2.0));
    }

    #[test]
    fn on_current_is_linear() {
        let m = DeviceModels::ptm90();
        let a = m.on_current(1.0, 0.1, 0.0);
        let b = m.on_current(1.0, 0.2, 0.0);
        assert!((b / a - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_vds_means_zero_current() {
        let m = DeviceModels::ptm90();
        assert_eq!(m.off_current(MosType::Nmos, 1.0, 0.5, 0.5, T300), 0.0);
        assert_eq!(m.on_current(1.0, 0.5, 0.5), 0.0);
    }
}
