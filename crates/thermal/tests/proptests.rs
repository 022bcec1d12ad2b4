//! Property-based tests for the thermal model.

use proptest::prelude::*;
use relia_core::units::Kelvin;
use relia_thermal::{PowerPhase, RcThermalModel, TaskSet};

proptest! {
    /// Steady state is affine in power and never below ambient.
    #[test]
    fn steady_state_affine(p1 in 0.0f64..200.0, p2 in 0.0f64..200.0) {
        let m = RcThermalModel::air_cooled();
        let t1 = m.steady_state(p1).0;
        let t2 = m.steady_state(p2).0;
        prop_assert!(t1 >= m.ambient.0);
        prop_assert!(((t2 - t1) - m.r_th * (p2 - p1)).abs() < 1e-9);
    }

    /// A step never overshoots: the new temperature lies between the old
    /// temperature and the steady state.
    #[test]
    fn step_never_overshoots(
        t0 in 300.0f64..420.0,
        power in 0.0f64..200.0,
        dt in 1e-5f64..1.0,
    ) {
        let m = RcThermalModel::air_cooled();
        let t_ss = m.steady_state(power).0;
        let t1 = m.step(Kelvin(t0), power, dt).0;
        let lo = t0.min(t_ss) - 1e-9;
        let hi = t0.max(t_ss) + 1e-9;
        prop_assert!(t1 >= lo && t1 <= hi, "{t0} -> {t1} (ss {t_ss})");
    }

    /// Simulated traces stay within the envelope of the phase steady
    /// states (plus the initial condition).
    #[test]
    fn trace_stays_in_envelope(
        powers in prop::collection::vec(10.0f64..130.0, 1..6),
    ) {
        let m = RcThermalModel::air_cooled();
        let phases: Vec<PowerPhase> = powers
            .iter()
            .map(|&watts| PowerPhase { watts, duration: relia_core::Seconds(0.05) })
            .collect();
        let trace = m.simulate(TaskSet::from_phases(phases.clone()).profile(), 1e-3);
        let lo = phases.iter().map(|p| m.steady_state(p.watts).0).fold(f64::MAX, f64::min);
        let hi = phases.iter().map(|p| m.steady_state(p.watts).0).fold(f64::MIN, f64::max);
        for pt in trace {
            prop_assert!(pt.temp.0 >= lo - 1e-9 && pt.temp.0 <= hi + 1e-9);
        }
    }
}
