//! Table 2 — per-input-vector leakage and NBTI-induced delay degradation
//! for NOR2, NOR3, and INV.
//!
//! Leakage is evaluated at 400 K; the NBTI column uses RAS = 1:9,
//! `T_active = 400 K`, `T_standby = 330 K`, 0.5 active signal probability,
//! and the listed vector as the frozen standby state.
//!
//! The co-optimization conflict shows directly: for NOR gates the
//! minimum-leakage vector (all '1') is also the minimum-degradation vector;
//! for INV (and the NAND/AND family) the minimum-leakage vector '0' is the
//! *worst* NBTI vector.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_bench::{na, pct, schedule};
use relia_cells::{Library, Vector};
use relia_core::{DelayDegradation, Kelvin, NbtiModel, PmosStress, Seconds};
use relia_leakage::{cell_leakage, DeviceModels};

fn main() {
    let lib = Library::ptm90();
    let models = DeviceModels::ptm90();
    let nbti = NbtiModel::ptm90().expect("built-in calibration");
    let sched = schedule(1.0, 9.0, Kelvin(330.0));
    let lifetime = Seconds(1.0e8);
    let dd = DelayDegradation::new(nbti.params());

    println!("Table 2: leakage and NBTI delay degradation per standby input vector");
    println!("(leakage at 400 K; NBTI with RAS = 1:9, T_a = 400 K, T_s = 330 K, 1e8 s)\n");

    for name in ["NOR2", "NOR3", "INV", "NAND2"] {
        let cell = lib.cell(lib.find(name).expect("catalog cell"));
        println!("{name}:");
        println!(
            "{:>8} {:>14} {:>12} {:>16}",
            "vector", "leakage", "dDelay", "stressed PMOS"
        );
        relia_bench::rule(54);
        let sp = vec![0.5; cell.num_pins()];
        let active = cell.stress_probabilities(&sp);
        for v in Vector::all(cell.num_pins()) {
            let pins = v.to_bools();
            let leak = cell_leakage(cell, &pins, &models, Kelvin(400.0)).total();
            let standby = cell.stressed_pmos(&pins);
            let mut worst_dv: f64 = 0.0;
            for (pi, &p_active) in active.iter().enumerate() {
                let stress = PmosStress::new(p_active, if standby[pi] { 1.0 } else { 0.0 })
                    .expect("valid probabilities");
                let dv = nbti
                    .delta_vth(lifetime, &sched, &stress)
                    .expect("valid inputs");
                worst_dv = worst_dv.max(dv);
            }
            let frac = dd.linear(worst_dv).expect("bounded shift");
            let stressed = standby.iter().filter(|&&s| s).count();
            println!(
                "{:>8} {:>14} {:>12} {:>10}/{}",
                v.to_string(),
                na(leak),
                pct(frac),
                stressed,
                standby.len()
            );
        }
        println!();
    }
    println!("NOR family: min-leakage vector == min-NBTI vector");
    println!("INV/NAND family: min-leakage vector == WORST-NBTI vector");
}
