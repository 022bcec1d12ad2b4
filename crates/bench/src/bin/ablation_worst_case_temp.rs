//! Ablation — how pessimistic is the classic worst-case-temperature
//! assumption that this paper replaces?
//!
//! Prior circuit-aging models (Kumar et al., Paul et al.) evaluate NBTI at
//! a constant worst-case temperature. This ablation quantifies the
//! guardband those models over-charge relative to the temperature-aware
//! model, as a function of the standby temperature and the standby share.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_bench::{mv, pct, schedule};
use relia_core::{DelayDegradation, Kelvin, NbtiModel, PmosStress, Seconds};

fn main() {
    let model = NbtiModel::ptm90().expect("built-in calibration");
    let dd = DelayDegradation::new(model.params());
    let lifetime = Seconds(1.0e8);
    let stress = PmosStress::worst_case();
    let temps = [310.0, 330.0, 350.0, 370.0];
    let ras_list: [(f64, f64); 3] = [(1.0, 1.0), (1.0, 5.0), (1.0, 9.0)];

    // The worst-case model: the whole lifetime at 400 K.
    let worst_case = model
        .delta_vth(lifetime, &schedule(1.0, 9.0, Kelvin(400.0)), &stress)
        .expect("valid inputs");

    println!("Ablation: worst-case-temperature pessimism at 1e8 s");
    println!(
        "worst-case model dVth (Ts = Ta = 400 K): {} -> delay guardband {}",
        mv(worst_case),
        pct(dd.linear(worst_case).expect("bounded"))
    );
    println!();
    println!(
        "{:>10} {:>8} {:>12} {:>14} {:>16}",
        "T_s [K]", "RAS", "aware dVth", "overestimate", "guardband waste"
    );
    relia_bench::rule(66);
    for temp in temps {
        for (a, s) in ras_list {
            let aware = model
                .delta_vth(lifetime, &schedule(a, s, Kelvin(temp)), &stress)
                .expect("valid inputs");
            let over = worst_case / aware - 1.0;
            let waste =
                dd.linear(worst_case).expect("bounded") - dd.linear(aware).expect("bounded");
            println!(
                "{:>10.0} {:>8} {:>12} {:>13.0}% {:>16}",
                temp,
                format!("{a:.0}:{s:.0}"),
                mv(aware),
                over * 100.0,
                pct(waste)
            );
        }
    }
    println!();
    println!("(the cooler and longer the standby, the more the classic model over-charges)");
}
