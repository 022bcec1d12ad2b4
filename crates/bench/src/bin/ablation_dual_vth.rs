//! Ablation — the V_th dependence of aging (the paper's Section 4.1
//! "resemblance" argument and its low-power-library discussion).
//!
//! A higher initial threshold cuts both leakage (exponentially) and NBTI
//! (via the overdrive/oxide-field dependence, eq. 23) — the dual-V_th knob.
//! This sweep shows the double win and its delay price.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_bench::{mv, schedule};
use relia_cells::MosType;
use relia_core::{Kelvin, NbtiModel, PmosStress, Seconds, Volts};
use relia_leakage::DeviceModels;

fn main() {
    let model = NbtiModel::ptm90().expect("built-in calibration");
    let sched = schedule(1.0, 9.0, Kelvin(330.0));
    let lifetime = Seconds(1.0e8);
    let stress = PmosStress::worst_case();
    let devices = DeviceModels::ptm90();

    println!("Ablation: initial-Vth dependence of aging and leakage (1e8 s, RAS 1:9)");
    println!(
        "{:>10} {:>12} {:>14} {:>14} {:>12}",
        "Vth0 [V]", "dVth", "vs nominal", "I_off @400K", "delay cost"
    );
    relia_bench::rule(68);
    let nominal = model
        .delta_vth_with_vth0(lifetime, &sched, &stress, Volts(0.22))
        .expect("valid inputs");
    for vth_mv in [180, 220, 260, 300, 340] {
        let vth = vth_mv as f64 * 1e-3;
        let dv = model
            .delta_vth_with_vth0(lifetime, &sched, &stress, Volts(vth))
            .expect("valid inputs");
        // Off-current of a PMOS drawn at this threshold (shifted model).
        let shifted = DeviceModels {
            vth_p: vth,
            ..devices.clone()
        };
        let ioff = shifted.off_current(MosType::Pmos, 2.0, 1.0, 0.0, Kelvin(400.0));
        // Alpha-power delay cost relative to the nominal threshold.
        let cost = ((1.0 - 0.22) / (1.0 - vth)).powf(model.params().alpha) - 1.0;
        println!(
            "{:>10.2} {:>12} {:>13.0}% {:>12.1} nA {:>11.1}%",
            vth,
            mv(dv),
            (dv / nominal - 1.0) * 100.0,
            ioff * 1e9,
            cost * 100.0
        );
    }
    println!();
    println!("(raising Vth0 trades nominal speed for both leakage and aging margin —");
    println!(" the paper's rationale for why LP libraries barely feel NBTI)");
}
