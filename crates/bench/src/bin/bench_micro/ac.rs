//! Ac: the exact 4096-step `S_n` prefix behind every cold ΔV_th, walked
//! once per duty cycle by the scalar reference and [`LANES`] at a time by
//! the lane-parallel walk, over the same fixed set of duty cycles. The
//! speedup is a ratio measured within one run, so it holds across machines
//! where an absolute time would not.

use std::hint::black_box;

use relia_core::ac::{s_n, s_n_many, s_n_rows, LANES};

use crate::record::{Gate, Record, Value};
use crate::{ns_per_call, Section};

/// Duty cycles walked per repetition, one recursion each.
const DUTY_CYCLES: usize = 64;
/// Every walk reads `S_n` at the end of the exact prefix.
const STEPS: u64 = 4096;

pub(crate) const SECTION: Section = Section {
    name: "ac",
    gates: &[
        Gate::Floor("lane_speedup", 3.0),
        Gate::Drift("lane_ns_per_recursion"),
    ],
    measure,
};

/// A fixed spread of duty cycles over `(0, 1)`, in no particular order.
fn duty_cycles() -> Vec<f64> {
    (0..DUTY_CYCLES)
        .map(|i| 0.01 + 0.98 * ((i * 37 + 11) % DUTY_CYCLES) as f64 / DUTY_CYCLES as f64)
        .collect()
}

fn measure() -> Record {
    let duty = duty_cycles();
    let rows: Vec<(f64, usize)> = duty.iter().map(|&c| (c, 1)).collect();
    let ns = [STEPS; DUTY_CYCLES];
    let mut out = [0.0; DUTY_CYCLES];

    let scalar_ns = ns_per_call(DUTY_CYCLES, |_| {
        for &c in &duty {
            black_box(s_n(black_box(c), STEPS));
        }
    });
    // The one-row call (`s_n_many`) pays a whole group's loop for one lane.
    let one_row_ns = ns_per_call(DUTY_CYCLES, |_| {
        for &c in &duty {
            black_box(s_n_many(black_box(c), &[STEPS]));
        }
    });
    let lane_ns = ns_per_call(DUTY_CYCLES, |_| {
        s_n_rows(black_box(&rows), black_box(&ns), &mut out);
        black_box(&out);
    });

    Record::new(&[
        ("lanes", Value::Count(LANES as u64)),
        ("recursions", Value::Count(DUTY_CYCLES as u64)),
        ("scalar_ns_per_recursion", Value::Fixed(scalar_ns)),
        ("one_row_ns_per_recursion", Value::Fixed(one_row_ns)),
        ("lane_ns_per_recursion", Value::Fixed(lane_ns)),
        ("lane_speedup", Value::Fixed(scalar_ns / lane_ns)),
    ])
}
