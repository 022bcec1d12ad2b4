//! Bring your own netlist: parse an ISCAS85-style `.bench` description,
//! analyze it, and write it back out.
//!
//! Run with: `cargo run --release --example custom_netlist`

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]
use relia::cells::Library;
use relia::flow::{AgingAnalysis, FlowConfig, StandbyPolicy};
use relia::netlist::bench;
use relia::sta::TimingAnalysis;

const MAJORITY_VOTER: &str = "
# 3-input majority voter with an alarm output
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(maj)
OUTPUT(alarm)
ab    = AND(a, b)
bc    = AND(b, c)
ac    = AND(a, c)
maj   = OR(ab, bc, ac)
alarm = XOR(maj, a)
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = bench::parse(MAJORITY_VOTER, Library::ptm90())?;
    println!(
        "parsed: {} inputs, {} outputs, {} gates, depth {}",
        circuit.primary_inputs().len(),
        circuit.primary_outputs().len(),
        circuit.gates().len(),
        circuit.depth()
    );

    let timing = TimingAnalysis::nominal(&circuit);
    println!("critical path: {:.1} ps through", timing.max_delay_ps());
    for g in timing.critical_path() {
        let gate = circuit.gate(*g);
        println!(
            "  {} ({})",
            gate.name(),
            circuit.library().cell(gate.cell()).name()
        );
    }

    let config = FlowConfig::paper_defaults()?;
    let analysis = AgingAnalysis::new(&config, &circuit)?;
    // Park the voter on a-low, b-low, c-high during standby.
    let report = analysis.run(&StandbyPolicy::InputVector(vec![false, false, true]))?;
    println!(
        "aging on standby vector 001: +{:.2}% delay, standby leakage {:.1} nA",
        report.degradation_fraction() * 100.0,
        report.standby_leakage.unwrap_or(0.0) * 1e9
    );

    println!("\nround-tripped .bench:\n{}", bench::write(&circuit));
    Ok(())
}
