//! Table 1 — ΔV_th (mV) at 10^8 s under different active:standby ratios
//! and standby temperatures.
//!
//! The paper's three observations, all reproduced here:
//! * at `T_standby = 400 K` the shift *grows* as the standby share grows
//!   (more total stress time);
//! * at `T_standby = 330 K` it *shrinks* (the extra time is too cool to
//!   diffuse hydrogen);
//! * near `T_standby = 370 K` the two effects cancel and the shift is
//!   insensitive to RAS;
//! * the 400 K-vs-330 K gap at RAS = 1:9 is ~9 mV.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_bench::schedule;
use relia_core::{Kelvin, NbtiModel, PmosStress, Seconds};

fn main() {
    let model = NbtiModel::ptm90().expect("built-in calibration");
    let stress = PmosStress::worst_case();
    let lifetime = Seconds(1.0e8);
    let ras_list: [(f64, f64); 5] = [(1.0, 1.0), (1.0, 3.0), (1.0, 5.0), (1.0, 7.0), (1.0, 9.0)];
    let temps = [400.0, 370.0, 330.0];

    println!("Table 1: dVth (mV) at 1e8 s, T_active = 400 K, SP = 0.5, standby input '0'");
    print!("{:>10}", "RAS");
    for temp in temps {
        print!(" {:>12}", format!("Ts={temp:.0}K"));
    }
    println!();
    relia_bench::rule(50);

    let mut at_19 = [0.0f64; 3];
    for (a, s) in ras_list {
        print!("{:>10}", format!("{a:.0}:{s:.0}"));
        for (ti, temp) in temps.iter().enumerate() {
            let dv = model
                .delta_vth(lifetime, &schedule(a, s, Kelvin(*temp)), &stress)
                .expect("valid inputs");
            if (a, s) == (1.0, 9.0) {
                at_19[ti] = dv;
            }
            print!(" {:>11.2}m", dv * 1e3);
        }
        println!();
    }
    println!();
    println!(
        "gap at RAS 1:9 between Ts=400K and Ts=330K: {:.1} mV (paper: ~9.4 mV)",
        (at_19[0] - at_19[2]) * 1e3
    );
}
