//! Fig. 3 — ΔV_th over time for different active:standby ratios (RAS).
//!
//! `T_active = 400 K`; the reference line keeps `T_standby = 400 K`, all
//! other lines use 330 K. Active-mode signal probability 0.5; the standby
//! vector holds the PMOS gate low (worst case). The cooler the standby and
//! the larger its share, the smaller the shift.
//!
//! Driven by the `relia-jobs` sweep engine: the grid is a
//! [`SweepSpec`](relia_jobs::SweepSpec), evaluated by the parallel worker
//! pool with memoization. The engine's quantized-key evaluation reproduces
//! the direct model calls to well below the 0.01 mV print resolution, so
//! the output is byte-identical to the pre-engine version of this binary.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_bench::{log_times, model_sweep_grid, rule};
use relia_core::Kelvin;

fn main() {
    let ras_list: [(f64, f64); 5] = [(1.0, 1.0), (1.0, 3.0), (1.0, 5.0), (1.0, 7.0), (1.0, 9.0)];
    let times = log_times(1.0e4, 1.0e8, 9);

    // Two grids: the 400 K/400 K reference line, then the RAS x 330 K fan.
    let reference = model_sweep_grid(&[(1.0, 1.0)], &[Kelvin(400.0)], &times);
    let fan = model_sweep_grid(&ras_list, &[Kelvin(330.0)], &times);

    println!("Fig. 3: dVth vs time under different RAS (T_a = 400 K, T_s = 330 K)");
    print!("{:>12} {:>12}", "time [s]", "400K/400K");
    for (a, s) in ras_list {
        print!(" {:>9}", format!("{a:.0}:{s:.0}"));
    }
    println!();
    rule(78);

    for (i, t) in times.iter().enumerate() {
        print!("{:>12.3e} {:>11.2}m", t.0, reference[i] * 1e3);
        for r in 0..ras_list.len() {
            // Grid order is ras-major, lifetime-minor.
            print!(" {:>8.2}m", fan[r * times.len() + i] * 1e3);
        }
        println!();
    }
    println!();
    println!("(values in mV; larger standby share at 330 K => smaller shift)");
}
