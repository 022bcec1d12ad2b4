//! Fig. 2 — thermal profile of a task set on a typical processor.
//!
//! Random tasks draw 10–130 W (the Montecito-like spread); under the
//! air-cooled RC model the die temperature swings across roughly
//! 45–110 °C and converges within milliseconds of each task switch.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_thermal::{RcThermalModel, TaskSet};

fn main() {
    let model = RcThermalModel::air_cooled();
    let tasks = TaskSet::random(14, 2007);
    let trace = model.simulate(tasks.profile(), 2.0e-3);

    println!("Fig. 2: thermal profile of a random task set (air cooling)");
    println!(
        "tau = {:.1} ms, ambient = {:.1} C",
        model.time_constant() * 1e3,
        model.ambient.to_celsius()
    );
    println!("{:>10} {:>10} {:>10}", "t [s]", "P [W]", "T [C]");
    relia_bench::rule(34);
    for p in trace.iter().step_by(25) {
        println!(
            "{:>10.3} {:>10.1} {:>10.1}",
            p.time,
            p.power,
            p.temp.to_celsius()
        );
    }
    let min = trace
        .iter()
        .map(|p| p.temp.to_celsius())
        .fold(f64::MAX, f64::min);
    let max = trace
        .iter()
        .map(|p| p.temp.to_celsius())
        .fold(f64::MIN, f64::max);
    println!();
    println!("temperature range: {min:.1} C .. {max:.1} C (paper: ~60-110 C)");
}
