//! Property-based tests for the analysis platform.

#![allow(clippy::expect_used)]
use proptest::prelude::*;
use relia_core::{Kelvin, Ras, Seconds};
use relia_flow::{AgingAnalysis, FlowConfig, StandbyPolicy};
use relia_netlist::iscas;
use std::sync::OnceLock;

/// One prepared analysis shared by every proptest case: the leakage table
/// build dominates otherwise.
fn shared_analysis() -> &'static AgingAnalysis<'static> {
    static S: OnceLock<AgingAnalysis<'static>> = OnceLock::new();
    S.get_or_init(|| {
        let config: &'static FlowConfig =
            Box::leak(Box::new(FlowConfig::paper_defaults().expect("built-in")));
        let circuit: &'static relia_netlist::Circuit = Box::leak(Box::new(iscas::c17()));
        AgingAnalysis::new(config, circuit).expect("analysis")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any input-vector policy degrades between the idealized bounds, and
    /// its leakage is positive.
    #[test]
    fn vector_policies_are_bounded(bits in 0u32..32) {
        let analysis = shared_analysis();
        let worst = analysis.run(&StandbyPolicy::AllInternalZero).expect("run");
        let best = analysis.run(&StandbyPolicy::AllInternalOne).expect("run");
        let v: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
        let r = analysis.run(&StandbyPolicy::InputVector(v)).expect("run");
        prop_assert!(r.degradation_fraction() <= worst.degradation_fraction() + 1e-12);
        prop_assert!(r.degradation_fraction() >= best.degradation_fraction() - 1e-12);
        prop_assert!(r.standby_leakage.expect("vector policy") > 0.0);
    }

    /// Gate shifts are monotone in the operating time for any policy.
    #[test]
    fn shifts_monotone_in_time(bits in 0u32..32, t in 1.0e5f64..5.0e7) {
        let analysis = shared_analysis();
        let v: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
        let policy = StandbyPolicy::InputVector(v);
        let early = analysis.gate_delta_vth(&policy, Seconds(t)).expect("valid");
        let late = analysis.gate_delta_vth(&policy, Seconds(2.0 * t)).expect("valid");
        for (e, l) in early.iter().zip(&late) {
            prop_assert!(l >= e);
        }
    }

    /// Degradation is monotone in the standby temperature under the
    /// worst-case policy. (Kept to a handful of cases: each one builds two
    /// fresh leakage tables.)
    #[test]
    fn degradation_monotone_in_standby_temp(temp in 310.0f64..395.0) {
        let circuit = iscas::c17();
        let mk = |t: f64| FlowConfig::with_schedule(
            Ras::new(1.0, 9.0).expect("valid"),
            Kelvin(t),
        ).expect("valid");
        let cool_cfg = mk(temp);
        let warm_cfg = mk(temp + 5.0);
        let cool = AgingAnalysis::new(&cool_cfg, &circuit)
            .expect("analysis")
            .run(&StandbyPolicy::AllInternalZero)
            .expect("run");
        let warm = AgingAnalysis::new(&warm_cfg, &circuit)
            .expect("analysis")
            .run(&StandbyPolicy::AllInternalZero)
            .expect("run");
        prop_assert!(warm.degradation_fraction() >= cool.degradation_fraction());
    }
}

#[test]
fn monte_carlo_sp_mode_tracks_propagation() {
    use relia_flow::SpEstimator;
    let circuit = iscas::circuit("c432").expect("known");
    let prop_cfg = FlowConfig::paper_defaults().expect("built-in");
    let mut mc_cfg = FlowConfig::paper_defaults().expect("built-in");
    mc_cfg.sp_estimator = SpEstimator::MonteCarlo {
        samples: 3000,
        seed: 11,
    };
    let a = AgingAnalysis::new(&prop_cfg, &circuit)
        .expect("analysis")
        .run(&StandbyPolicy::AllInternalZero)
        .expect("run");
    let b = AgingAnalysis::new(&mc_cfg, &circuit)
        .expect("analysis")
        .run(&StandbyPolicy::AllInternalZero)
        .expect("run");
    let rel =
        (a.degradation_fraction() - b.degradation_fraction()).abs() / a.degradation_fraction();
    assert!(rel < 0.05, "propagation vs MC disagree by {rel}");
}
