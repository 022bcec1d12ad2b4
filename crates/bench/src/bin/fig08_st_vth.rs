//! Fig. 8 — PMOS sleep-transistor threshold degradation versus its initial
//! threshold and the active:standby ratio.
//!
//! The header ST is stressed exactly while the circuit is *active* (its
//! gate is low to power the logic) and relaxes in standby, so its shift
//! grows with the active share and with a lower initial threshold
//! (eq. 23's overdrive dependence). Paper range: ~6.7 mV to ~30.3 mV.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_bench::schedule;
use relia_core::{Kelvin, NbtiModel, Seconds};
use relia_sleep::StSizing;

fn main() {
    let model = NbtiModel::ptm90().expect("built-in calibration");
    let lifetime = Seconds(1.0e8);
    let vths = [0.20, 0.25, 0.30, 0.35, 0.40];
    let ras_list: [(f64, f64); 5] = [(9.0, 1.0), (5.0, 1.0), (1.0, 1.0), (1.0, 5.0), (1.0, 9.0)];

    println!("Fig. 8: PMOS ST dVth (mV) vs initial Vth and RAS (1e8 s)");
    print!("{:>10}", "Vth0 [V]");
    for (a, s) in ras_list {
        print!(" {:>9}", format!("{a:.0}:{s:.0}"));
    }
    println!();
    relia_bench::rule(62);

    let mut lo = f64::MAX;
    let mut hi = f64::MIN;
    for vth in vths {
        print!("{:>10.2}", vth);
        for (a, s) in ras_list {
            let sizing = StSizing::paper_defaults(0.05, vth).expect("valid sizing");
            let dv = sizing
                .st_delta_vth(&model, &schedule(a, s, Kelvin(330.0)), lifetime)
                .expect("valid inputs");
            lo = lo.min(dv);
            hi = hi.max(dv);
            print!(" {:>8.1}m", dv * 1e3);
        }
        println!();
    }
    println!();
    println!(
        "range: {:.1} .. {:.1} mV (paper: 6.7 .. 30.3 mV)",
        lo * 1e3,
        hi * 1e3
    );
}
