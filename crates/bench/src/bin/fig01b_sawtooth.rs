//! Fig. 1 (detail) — the per-cycle stress/recovery sawtooth.
//!
//! The conceptual half of Fig. 1: within each AC cycle the threshold rises
//! along the `t^(1/4)` stress law and partially recovers along eq. 6,
//! producing the classic sawtooth whose upper envelope the multi-cycle
//! recursion tracks.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_core::rd::{dc_stress, recovery_fraction};

fn main() {
    // Dimensionless sawtooth: A = 1, cycle = 1 s at 50% duty.
    let a = 1.0;
    let duty = 0.5;
    let period = 1.0;
    let cycles = 6;
    let samples_per_phase = 4;

    println!("Fig. 1 (detail): stress/recovery sawtooth, duty = {duty}, unit cycle");
    println!("{:>8} {:>12} {:>10}", "t [s]", "N_it / A", "phase");
    relia_bench::rule(34);

    // Track damage as an equivalent DC stress time so partial recovery
    // carries across cycles.
    let mut eq_stress_time = 0.0f64;
    let mut t = 0.0f64;
    for _ in 0..cycles {
        // Stress phase: equivalent time advances 1:1.
        for k in 1..=samples_per_phase {
            let dt = duty * period * k as f64 / samples_per_phase as f64;
            let n = dc_stress(a, eq_stress_time + dt);
            println!("{:>8.3} {:>12.4} {:>10}", t + dt, n, "stress");
        }
        t += duty * period;
        eq_stress_time += duty * period;
        // Recovery phase: damage decays per eq. 6, then is re-expressed as
        // equivalent stress time for the next cycle.
        let peak = dc_stress(a, eq_stress_time);
        for k in 1..=samples_per_phase {
            let dt = (1.0 - duty) * period * k as f64 / samples_per_phase as f64;
            let frac = recovery_fraction(dt, eq_stress_time).expect("valid phase");
            println!("{:>8.3} {:>12.4} {:>10}", t + dt, peak * frac, "recover");
        }
        t += (1.0 - duty) * period;
        let end_frac =
            recovery_fraction((1.0 - duty) * period, eq_stress_time).expect("valid phase");
        let remaining = peak * end_frac;
        // Invert the power law: the surviving damage equals a DC stress of
        // (N/A)^4 seconds.
        eq_stress_time = (remaining / a).powi(4);
    }
    println!();
    println!("(each cycle climbs along t^(1/4) and gives part of it back — the");
    println!(" upper envelope is what the S_n recursion of eqs. 7-11 tracks)");
}
