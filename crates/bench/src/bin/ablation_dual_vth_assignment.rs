//! Ablation — circuit-level dual-V_th assignment: leakage and aging saved
//! per unit of delay budget (the design-time technique the paper's
//! Section 4.1 resemblance argument motivates).

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_bench::pct;
use relia_flow::{assign_dual_vth, AgingAnalysis, FlowConfig, StandbyPolicy};
use relia_netlist::iscas;

fn main() {
    println!("Ablation: greedy dual-Vth assignment (Vth_high = 0.30 V, worst-case standby)");
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>12} {:>12}",
        "circuit", "budget", "coverage", "leak save", "aging save", "delay [ps]"
    );
    relia_bench::rule(68);
    for name in ["c432", "c880"] {
        let circuit = iscas::circuit(name).expect("known benchmark");
        let config = FlowConfig::paper_defaults().expect("built-in");
        let analysis = AgingAnalysis::new(&config, &circuit).expect("valid analysis");
        let zeros = vec![false; circuit.primary_inputs().len()];
        for budget in [0.0, 0.03, 0.08, 0.15] {
            let r = assign_dual_vth(
                &analysis,
                &StandbyPolicy::AllInternalZero,
                &zeros,
                0.30,
                budget,
            )
            .expect("assignment runs");
            println!(
                "{:>8} {:>7.0}% {:>9.0}% {:>10} {:>12} {:>12.1}",
                name,
                budget * 100.0,
                r.coverage(circuit.gates().len()) * 100.0,
                pct(r.leakage_saving()),
                pct(r.aging_saving()),
                r.nominal_delay_ps.1
            );
        }
    }
    println!();
    println!("(zero budget already buys a large leakage cut from slack-rich gates;");
    println!(" aging relief on the critical path needs explicit delay headroom —");
    println!(" the high-Vth LP-library regime where the paper says NBTI fades)");
}
