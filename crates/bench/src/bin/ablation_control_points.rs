//! Ablation — how much of the internal-node-control potential (Table 4) do
//! a handful of real control points realize?
//!
//! Table 4's "potential" assumes every internal node can be driven; Lin
//! et al.'s control-point insertion pays per point. This curve shows the
//! realized fraction of the potential versus the control-point budget.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_bench::pct;
use relia_flow::{AgingAnalysis, FlowConfig, StandbyPolicy};
use relia_ivc::greedy_control_points;
use relia_netlist::iscas;

fn main() {
    println!("Ablation: realized INC potential vs control-point budget (RAS = 1:9, 330 K)");
    println!(
        "{:>8} {:>10} {:>10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>10}",
        "circuit", "worst", "ideal", "cp=1", "cp=2", "cp=4", "cp=8", "cp=16", "realized"
    );
    relia_bench::rule(84);
    for name in ["c432", "c880", "c1355"] {
        let circuit = iscas::circuit(name).expect("known benchmark");
        let config = FlowConfig::paper_defaults().expect("built-in");
        let analysis = AgingAnalysis::new(&config, &circuit).expect("valid analysis");
        let zeros = vec![false; circuit.primary_inputs().len()];
        let steps = greedy_control_points(&analysis, &zeros, 16).expect("selector runs");
        let ideal = analysis
            .run(&StandbyPolicy::AllInternalOne)
            .expect("run")
            .degradation_fraction();
        let base = steps[0].degradation;
        let at = |k: usize| {
            steps
                .get(k)
                .map(|s| s.degradation)
                .unwrap_or_else(|| steps.last().expect("nonempty").degradation)
        };
        let realized = if base - ideal > 0.0 {
            (base - at(16)) / (base - ideal)
        } else {
            1.0
        };
        println!(
            "{:>8} {:>10} {:>10} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>9.0}%",
            name,
            pct(base),
            pct(ideal),
            at(1) * 100.0,
            at(2) * 100.0,
            at(4) * 100.0,
            at(8) * 100.0,
            at(16) * 100.0,
            realized * 100.0
        );
    }
    println!();
    println!("(a handful of control points on the aged critical path recovers most of");
    println!(" the gap toward the idealized all-'1' bound — the practical route the");
    println!(" paper points to when plain IVC falls short)");
}
