//! Property-based tests for sleep-transistor sizing.

use proptest::prelude::*;
use relia_core::{Kelvin, ModeSchedule, NbtiModel, Ras, Seconds};
use relia_sleep::StSizing;

proptest! {
    /// ST size is monotone in the carried current and inversely monotone in
    /// the penalty budget.
    #[test]
    fn sizing_monotonicity(
        i_on in 1e-6f64..1e-2,
        beta in 0.005f64..0.2,
        vth_st in 0.1f64..0.45,
    ) {
        let s = StSizing::paper_defaults(beta, vth_st).expect("valid");
        let a = s.min_size(i_on).expect("valid");
        let b = s.min_size(2.0 * i_on).expect("valid");
        prop_assert!((b / a - 2.0).abs() < 1e-9);
        let tight = StSizing::paper_defaults(beta / 2.0, vth_st).expect("valid");
        prop_assert!(tight.min_size(i_on).expect("valid") > a);
    }

    /// The NBTI size margin is monotone in the shift and positive.
    #[test]
    fn margin_monotone(dv in 0.001f64..0.05, beta in 0.01f64..0.1) {
        let s = StSizing::paper_defaults(beta, 0.30).expect("valid");
        let m1 = s.nbti_size_margin(dv).expect("valid");
        let m2 = s.nbti_size_margin(dv * 1.5).expect("valid");
        prop_assert!(m1 > 0.0 && m2 > m1);
    }

    /// The aged rail drop is monotone in the ST's threshold shift, and the
    /// time-0 penalty equals beta.
    #[test]
    fn rail_drop_monotone(dv in 0.0f64..0.1, beta in 0.01f64..0.1) {
        let s = StSizing::paper_defaults(beta, 0.30).expect("valid");
        prop_assert!(s.aged_rail_drop(dv) >= s.v_st_max() - 1e-15);
        prop_assert!(s.aged_rail_drop(dv + 0.01) > s.aged_rail_drop(dv));
        prop_assert!((s.delay_penalty(s.v_st_max()) - beta).abs() < 1e-12);
    }

    /// The header ST shift is monotone in the active share.
    #[test]
    fn st_shift_monotone_in_active_share(active in 1.0f64..9.0) {
        let model = NbtiModel::ptm90().expect("built-in");
        let s = StSizing::paper_defaults(0.05, 0.30).expect("valid");
        let mk = |a: f64| ModeSchedule::new(
            Ras::new(a, 10.0 - a).expect("valid"),
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(330.0),
        ).expect("valid");
        let lo = s.st_delta_vth(&model, &mk(active), Seconds(1.0e8)).expect("valid");
        let hi = s.st_delta_vth(&model, &mk(active + 0.5), Seconds(1.0e8)).expect("valid");
        prop_assert!(hi > lo);
    }
}
