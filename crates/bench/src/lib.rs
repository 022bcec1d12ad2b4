#![forbid(unsafe_code)]
//! # relia-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! `DESIGN.md` for the experiment index), plus shared helpers and
//! `bench_micro`, the micro-benchmark runner that measures and gates the
//! committed `BENCH_*.json` records.
//!
//! Run an experiment with, e.g.:
//!
//! ```text
//! cargo run --release -p relia-bench --bin table1_vth_ras
//! ```

use relia_core::{Kelvin, ModeSchedule, Ras, Seconds};
use relia_flow::paper_schedule;
use relia_jobs::{
    builtin_resolver, run_sweep, JobOutcome, JobResult, SweepOptions, SweepSpec, Workload,
};

/// Log-spaced time points from `lo` to `hi` seconds (inclusive).
pub fn log_times(lo: f64, hi: f64, points: usize) -> Vec<Seconds> {
    assert!(points >= 2 && lo > 0.0 && hi > lo);
    let step = (hi / lo).ln() / (points - 1) as f64;
    (0..points)
        .map(|i| Seconds(lo * (step * i as f64).exp()))
        .collect()
}

/// The paper's standard schedule builder: `T_active = 400 K`, 1000 s mode
/// period.
///
/// # Panics
///
/// Panics on invalid ratio/temperature (the harness passes constants).
pub fn schedule(ras_active: f64, ras_standby: f64, temp_standby: Kelvin) -> ModeSchedule {
    #[expect(clippy::expect_used, reason = "the harness passes valid constants")]
    let ras = Ras::new(ras_active, ras_standby).expect("harness constants are valid");
    #[expect(clippy::expect_used, reason = "the harness passes valid constants")]
    paper_schedule(ras, temp_standby).expect("harness constants are valid")
}

/// Evaluates a worst-case-stress ΔV_th grid (`ras` x `temps` x `times`)
/// through the `relia-jobs` sweep engine and returns the shifts in volts,
/// ras-major / lifetime-minor (the engine's grid order).
///
/// Uses the paper's standard schedule (1000 s period, `T_active = 400 K`,
/// SP 0.5 active / 1.0 standby) — the engine's own sweep constants.
///
/// # Panics
///
/// Panics if the engine rejects the grid or any point fails: the figure
/// harness passes known-good constants.
pub fn model_sweep_grid(ras: &[(f64, f64)], temps: &[Kelvin], times: &[Seconds]) -> Vec<f64> {
    let spec = SweepSpec {
        workload: Workload::ModelDeltaVth {
            p_active: 0.5,
            p_standby: 1.0,
        },
        ras: ras.to_vec(),
        t_standby: temps.to_vec(),
        lifetimes: times.to_vec(),
    };
    #[expect(clippy::expect_used, reason = "the harness passes valid constants")]
    let outcome = run_sweep(&spec, &SweepOptions::default(), builtin_resolver)
        .expect("harness constants are valid");
    outcome
        .statuses
        .into_iter()
        .map(|status| match status {
            JobOutcome::Completed(JobResult::Model { delta_vth }) => delta_vth,
            other => panic!("model sweep point did not complete: {other:?}"),
        })
        .collect()
}

/// The benchmark subset used by table experiments: small enough for a
/// quick run, spanning 6 to ~550 gates.
pub fn table_suite() -> Vec<&'static str> {
    vec!["c17", "c432", "c499", "c880", "c1355"]
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats volts as millivolts with one decimal.
pub fn mv(x: f64) -> String {
    format!("{:.1} mV", x * 1e3)
}

/// Formats amperes as nanoamperes with one decimal.
pub fn na(x: f64) -> String {
    format!("{:.1} nA", x * 1e9)
}

/// Formats amperes as microamperes with two decimals.
pub fn ua(x: f64) -> String {
    format!("{:.2} uA", x * 1e6)
}

/// Prints a separator line sized to `width`.
#[expect(clippy::print_stdout, reason = "figure binaries own stdout by design")]
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_times_are_increasing_and_bounded() {
        let t = log_times(1.0e3, 1.0e8, 11);
        assert_eq!(t.len(), 11);
        assert!((t[0].0 - 1.0e3).abs() < 1e-6);
        assert!((t[10].0 - 1.0e8).abs() / 1.0e8 < 1e-9);
        for w in t.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.0512), "5.12%");
        assert_eq!(mv(0.0303), "30.3 mV");
        assert_eq!(na(1.5e-9), "1.5 nA");
        assert_eq!(ua(2.34e-6), "2.34 uA");
    }

    #[test]
    fn schedule_helper_matches_paper() {
        let s = schedule(1.0, 9.0, Kelvin(330.0));
        assert_eq!(s.temp_active(), Kelvin(400.0));
        assert_eq!(s.temp_standby(), Kelvin(330.0));
    }
}
