//! Property-based tests for simulation invariants.

use proptest::prelude::*;
use relia_netlist::iscas;
use relia_sim::{logic, monte_carlo, prob};

proptest! {
    /// Propagated probabilities at 0/1 corners coincide with logic values,
    /// on every net of a larger benchmark.
    #[test]
    fn corners_agree_with_logic(bits in 0u64..(1 << 36)) {
        let c = iscas::circuit("c432").expect("known");
        let n = c.primary_inputs().len();
        let stim: Vec<bool> = (0..n).map(|i| bits >> (i % 64) & 1 == 1).collect();
        let corner: Vec<f64> = stim.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let values = logic::simulate(&c, &stim).expect("valid");
        let sp = prob::propagate(&c, &corner).expect("valid");
        for (i, v) in values.as_slice().iter().enumerate() {
            let expected = if *v { 1.0 } else { 0.0 };
            prop_assert!((sp.as_slice()[i] - expected).abs() < 1e-9, "net {i}");
        }
    }

    /// Probabilities stay in [0, 1] for arbitrary input probabilities.
    #[test]
    fn probabilities_bounded(p in prop::collection::vec(0.0f64..=1.0, 5..=5)) {
        let c = iscas::c17();
        let sp = prob::propagate(&c, &p).expect("valid");
        for v in sp.as_slice() {
            prop_assert!((0.0..=1.0).contains(v));
        }
    }

    /// Monte-Carlo estimates are themselves valid probabilities and match
    /// deterministic inputs exactly.
    #[test]
    fn monte_carlo_bounded(seed in 0u64..1000) {
        let c = iscas::c17();
        let est = monte_carlo::estimate(&c, &[1.0, 0.0, 1.0, 0.0, 1.0], 64, seed).expect("valid");
        for (i, &pi) in c.primary_inputs().iter().enumerate() {
            let expected = if i % 2 == 0 { 1.0 } else { 0.0 };
            prop_assert!((est.probs().of(pi) - expected).abs() < 1e-12);
        }
        for v in est.probs().as_slice() {
            prop_assert!((0.0..=1.0).contains(v));
        }
    }
}
