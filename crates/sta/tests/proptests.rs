//! Property-based tests for timing-analysis invariants.

use proptest::prelude::*;
use relia_netlist::iscas;
use relia_sta::TimingAnalysis;

proptest! {
    /// With arbitrary positive gate delays, every net's arrival exceeds all
    /// of its fan-in arrivals, and the critical path sums to the max delay.
    #[test]
    fn arrival_and_path_invariants(
        seed_delays in prop::collection::vec(0.1f64..100.0, 6..=6),
    ) {
        let c = iscas::c17();
        let report = TimingAnalysis::with_delays(&c, seed_delays).expect("6 gates");
        for g in c.gates() {
            let out = report.arrival(g.output());
            for n in g.inputs() {
                prop_assert!(out > report.arrival(*n));
            }
        }
        let path_sum: f64 = report
            .critical_path()
            .iter()
            .map(|g| report.gate_delays()[g.index()])
            .sum();
        prop_assert!((path_sum - report.max_delay_ps()).abs() < 1e-9);
    }

    /// Slacks are non-negative against the circuit's own max delay, and at
    /// least one primary output has zero slack.
    #[test]
    fn slack_invariants(seed_delays in prop::collection::vec(0.1f64..100.0, 6..=6)) {
        let c = iscas::c17();
        let report = TimingAnalysis::with_delays(&c, seed_delays).expect("6 gates");
        let slacks = report.slacks(&c);
        for s in &slacks {
            prop_assert!(*s > -1e-9);
        }
        let zero_po = c
            .primary_outputs()
            .iter()
            .any(|po| slacks[po.index()].abs() < 1e-9);
        prop_assert!(zero_po);
    }

    /// Degradation is monotone: growing any gate's threshold shift never
    /// shrinks the max delay.
    #[test]
    fn degradation_monotone(
        base in prop::collection::vec(0.0f64..0.05, 6..=6),
        bump_idx in 0usize..6,
        bump in 0.001f64..0.02,
    ) {
        let c = iscas::c17();
        let params = relia_core::NbtiParams::ptm90().expect("built-in");
        let before = TimingAnalysis::degraded(&c, &base, &params).expect("valid");
        let mut bumped = base.clone();
        bumped[bump_idx] += bump;
        let after = TimingAnalysis::degraded(&c, &bumped, &params).expect("valid");
        prop_assert!(after.max_delay_ps() >= before.max_delay_ps() - 1e-12);
    }
}
