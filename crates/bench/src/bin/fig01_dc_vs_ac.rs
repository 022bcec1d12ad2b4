//! Fig. 1 — conceptual DC-stress versus AC-stress threshold degradation.
//!
//! Regenerates the paper's opening illustration: under DC stress the PMOS
//! threshold follows the `t^(1/4)` law; under 50%-duty AC stress the
//! periodic recovery keeps the long-term shift at ~76% of the DC value.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_bench::{log_times, mv};
use relia_core::{AcStress, Kelvin, NbtiModel, Seconds};

fn main() {
    let model = NbtiModel::ptm90().expect("built-in calibration");
    let temp = Kelvin(400.0);
    let ac = AcStress::new(0.5, Seconds(1.0e-3)).expect("constant pattern");

    println!("Fig. 1: PMOS dVth under DC vs AC stress (T = 400 K, duty = 0.5)");
    println!(
        "{:>12} {:>14} {:>14} {:>9}",
        "time [s]", "DC dVth", "AC dVth", "AC/DC"
    );
    relia_bench::rule(54);
    for t in log_times(1.0e3, 1.0e8, 11) {
        let dc = model.delta_vth_dc(t, temp).expect("valid time");
        let acv = model.delta_vth_ac(t, temp, &ac).expect("valid time");
        println!(
            "{:>12.3e} {:>14} {:>14} {:>8.3}",
            t.0,
            mv(dc),
            mv(acv),
            acv / dc
        );
    }
    println!();
    println!(
        "long-run AC/DC ratio -> (c/(1+beta))^(1/4) = {:.3}",
        relia_core::ac::ac_to_dc_ratio(0.5)
    );
}
