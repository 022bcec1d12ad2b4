//! Aging from a measured thermal profile.
//!
//! Scenario: you have a real temperature trace of your die (here synthesized
//! by the RC thermal model running a task set) instead of two tidy
//! steady-state temperatures. The generalized equivalent-stress transform
//! consumes the trace directly.
//!
//! Run with: `cargo run --release --example thermal_trace_aging`

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]
use relia::core::{Kelvin, NbtiModel, Seconds, StressInterval};
use relia::thermal::{RcThermalModel, TaskSet};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let thermal = RcThermalModel::air_cooled();
    let tasks = TaskSet::random(10, 77);
    let trace = thermal.simulate(tasks.profile(), 2.0e-3);
    println!(
        "thermal trace: {} samples over {:.2} s, {:.1}-{:.1} C",
        trace.len(),
        tasks.total_duration(),
        trace
            .iter()
            .map(|p| p.temp.to_celsius())
            .fold(f64::MAX, f64::min),
        trace
            .iter()
            .map(|p| p.temp.to_celsius())
            .fold(f64::MIN, f64::max),
    );

    // Convert the trace to stress intervals: assume a 0.5 stress duty while
    // tasks run (the paper's active-mode signal probability).
    let intervals: Vec<StressInterval> = trace
        .iter()
        .map(|pt| StressInterval {
            duration: Seconds(2.0e-3),
            temp: pt.temp,
            stress_fraction: 0.5,
        })
        .collect();

    let model = NbtiModel::ptm90()?;
    println!("\nPMOS threshold shift if this workload loops for the lifetime:");
    for years in [1.0, 3.0, 10.0] {
        let dv = model.delta_vth_trace(Seconds::from_years(years), &intervals, Kelvin(400.0))?;
        println!("  {years:>4.0} yr: {:.1} mV", dv * 1e3);
    }

    // Compare against the naive worst-case-temperature bound.
    let worst = model.delta_vth_dc(Seconds::from_years(10.0), Kelvin(400.0))?;
    let traced = model.delta_vth_trace(Seconds::from_years(10.0), &intervals, Kelvin(400.0))?;
    println!(
        "\nworst-case 400 K DC bound at 10 yr: {:.1} mV -> trace-aware saves {:.0}% guardband",
        worst * 1e3,
        (1.0 - traced / worst) * 100.0
    );
    Ok(())
}
