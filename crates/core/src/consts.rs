//! Physical constants used by the NBTI and leakage models.

/// Boltzmann constant in electron-volts per kelvin.
pub const BOLTZMANN_EV: f64 = 8.617_333_262e-5;

/// Thermal voltage `kT/q` in volts at the given temperature.
///
/// ```
/// use relia_core::consts::thermal_voltage;
/// use relia_core::units::Kelvin;
///
/// let vt = thermal_voltage(Kelvin(300.0));
/// assert!((vt - 0.02585).abs() < 1e-4);
/// ```
pub fn thermal_voltage(temp: crate::units::Kelvin) -> f64 {
    BOLTZMANN_EV * temp.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Kelvin;

    #[test]
    fn thermal_voltage_scales_linearly() {
        let v300 = thermal_voltage(Kelvin(300.0));
        let v400 = thermal_voltage(Kelvin(400.0));
        assert!((v400 / v300 - 400.0 / 300.0).abs() < 1e-12);
    }
}
