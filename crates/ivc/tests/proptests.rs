//! Property-based tests for the IVC search.

#![allow(clippy::expect_used)]
use proptest::prelude::*;
use relia_flow::{AgingAnalysis, FlowConfig};
use relia_ivc::{evaluate_rotation, search_mlv_set, MlvSearchConfig};
use relia_netlist::iscas;
use std::sync::OnceLock;

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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any seed the MLV set is sorted, within the band, duplicate-free,
    /// and hits the exhaustive optimum on c17.
    #[test]
    fn mlv_set_invariants(seed in 0u64..500) {
        let analysis = shared_analysis();
        let set = search_mlv_set(
            analysis,
            &MlvSearchConfig { seed, vectors_per_round: 32, max_rounds: 8, ..MlvSearchConfig::default() },
        ).expect("search");
        prop_assert!(!set.vectors().is_empty());
        prop_assert!(set.relative_spread() <= 0.04 + 1e-12);
        for w in set.vectors().windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
            prop_assert!(w[0].0 != w[1].0);
        }
        // Ground truth on 5 inputs.
        let mut best = f64::MAX;
        for bits in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            best = best.min(analysis.standby_leakage(&v).expect("valid"));
        }
        prop_assert!((set.min_leakage() - best).abs() / best < 1e-9);
    }

    /// A rotation's leakage is the mean of its members' leakages.
    #[test]
    fn rotation_leakage_is_mean(bits1 in 0u32..32, bits2 in 0u32..32) {
        let analysis = shared_analysis();
        let v1: Vec<bool> = (0..5).map(|i| bits1 >> i & 1 == 1).collect();
        let v2: Vec<bool> = (0..5).map(|i| bits2 >> i & 1 == 1).collect();
        let l1 = analysis.standby_leakage(&v1).expect("valid");
        let l2 = analysis.standby_leakage(&v2).expect("valid");
        let rot = evaluate_rotation(analysis, &[v1, v2]).expect("rotation");
        prop_assert!((rot.mean_leakage - 0.5 * (l1 + l2)).abs() < 1e-15);
    }
}
