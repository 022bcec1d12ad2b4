//! Ablation — circuit leakage versus temperature and the stack effect's
//! temperature dependence.
//!
//! The paper evaluates leakage at a single 400 K point; this sweep shows
//! the exponential temperature dependence the IVC technique rides on, and
//! how the stacking effect that MLVs exploit *weakens* as the die heats.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_bench::ua;
use relia_cells::{Library, MosType};
use relia_core::Kelvin;
use relia_leakage::solver::stack_factor;
use relia_leakage::{circuit_leakage, DeviceModels, LeakageTable};
use relia_netlist::iscas;

fn main() {
    let circuit = iscas::circuit("c880").expect("known benchmark");
    let models = DeviceModels::ptm90();
    let lib = Library::ptm90();
    let zeros = vec![false; circuit.primary_inputs().len()];
    let ones = vec![true; circuit.primary_inputs().len()];

    println!("Ablation: c880 leakage vs temperature");
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>12}",
        "T [K]", "leak(all-0)", "leak(all-1)", "ratio", "2-stack sup."
    );
    relia_bench::rule(62);
    for temp in [300.0, 330.0, 360.0, 400.0] {
        let table = LeakageTable::build(&lib, &models, Kelvin(temp));
        let lo = circuit_leakage(&circuit, &zeros, &table).expect("valid");
        let hi = circuit_leakage(&circuit, &ones, &table).expect("valid");
        let (a, b) = if lo < hi { (lo, hi) } else { (hi, lo) };
        let sup = stack_factor(&models, MosType::Nmos, 2, Kelvin(temp));
        println!(
            "{:>8.0} {:>14} {:>14} {:>10.2} {:>11.1}x",
            temp,
            ua(lo),
            ua(hi),
            b / a,
            sup
        );
    }
    println!();
    println!("(leakage grows ~10x from 300 K to 400 K; the stack suppression the MLV");
    println!(" exploits weakens with temperature, so hot standby erodes IVC's savings)");
}
