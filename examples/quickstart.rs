//! Quickstart: how much will this circuit slow down over its lifetime?
//!
//! Loads a benchmark netlist, runs the temperature-aware NBTI flow under
//! the paper's baseline schedule (active at 400 K one tenth of the time,
//! standby at 330 K the rest), and prints the aging guardband a designer
//! would budget.
//!
//! Run with: `cargo run --release --example quickstart`

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]
use relia::core::Seconds;
use relia::flow::{AgingAnalysis, FlowConfig, StandbyPolicy};
use relia::netlist::iscas;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = iscas::circuit("c432").ok_or("unknown benchmark")?;
    let config = FlowConfig::paper_defaults()?;
    let analysis = AgingAnalysis::new(&config, &circuit)?;

    println!(
        "circuit {}: {} gates, depth {}",
        circuit.name(),
        circuit.gates().len(),
        circuit.depth()
    );
    println!(
        "schedule: active {} @ {}, standby {} @ {}",
        config.schedule.t_active(),
        config.schedule.temp_active(),
        config.schedule.t_standby(),
        config.schedule.temp_standby()
    );

    // Worst case: the standby state parks every PMOS under stress.
    let report = analysis.run(&StandbyPolicy::AllInternalZero)?;
    println!();
    println!(
        "nominal critical path: {:.1} ps",
        report.nominal.max_delay_ps()
    );
    println!(
        "after {:.1} years:     {:.1} ps  (+{:.2}%)",
        Seconds(config.lifetime.0).to_years(),
        report.degraded.max_delay_ps(),
        report.degradation_fraction() * 100.0
    );
    println!(
        "worst gate dVth:      {:.1} mV",
        report.worst_delta_vth() * 1e3
    );
    println!(
        "active-mode leakage:  {:.2} uA",
        report.active_leakage * 1e6
    );
    println!();
    println!(
        "recommended aging guardband: {:.1}% of the clock period",
        report.degradation_fraction() * 100.0
    );
    Ok(())
}
