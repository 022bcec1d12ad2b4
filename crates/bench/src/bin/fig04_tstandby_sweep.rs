//! Fig. 4 — ΔV_th over time for different standby temperatures.
//!
//! RAS fixed at 1:5; `T_standby` swept from 330 K to 400 K. Worst-case
//! standby stress (PMOS gate low). The shift grows monotonically with the
//! standby temperature, matching the temperature-variation data the paper
//! cites.
//!
//! Driven by the `relia-jobs` sweep engine (see `fig03_ras_sweep` for the
//! equivalence argument): one 8 x 9 [`SweepSpec`](relia_jobs::SweepSpec)
//! grid, evaluated in parallel with memoization.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_bench::{log_times, model_sweep_grid, rule};
use relia_core::Kelvin;

fn main() {
    let temps = [330.0, 340.0, 350.0, 360.0, 370.0, 380.0, 390.0, 400.0];
    let times = log_times(1.0e4, 1.0e8, 9);
    let grid = model_sweep_grid(&[(1.0, 5.0)], &temps.map(Kelvin), &times);

    println!("Fig. 4: dVth vs time under different T_standby (RAS = 1:5)");
    print!("{:>12}", "time [s]");
    for temp in temps {
        print!(" {:>8}", format!("{temp:.0}K"));
    }
    println!();
    rule(86);
    for (i, t) in times.iter().enumerate() {
        print!("{:>12.3e}", t.0);
        for ti in 0..temps.len() {
            // Grid order is t_standby-major, lifetime-minor.
            print!(" {:>7.2}m", grid[ti * times.len() + i] * 1e3);
        }
        println!();
    }
    println!();
    println!("(values in mV; monotone in T_standby)");
}
