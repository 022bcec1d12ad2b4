//! Calibrate the NBTI model to your own silicon.
//!
//! Scenario: reliability engineering hands you accelerated-stress
//! measurements (threshold shift after DC stress at several times and
//! temperatures). Fit the model's `K_v` and diffusion activation energy to
//! them, then re-run the circuit-level analysis on the fitted model.
//!
//! Run with: `cargo run --release --example calibrate_model`

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]
use relia::core::calib::{fit_dc_measurements, Measurement};
use relia::core::{Kelvin, NbtiModel, NbtiParams, Seconds};
use relia::flow::{AgingAnalysis, FlowConfig, StandbyPolicy};
use relia::netlist::iscas;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // "Measured" data: a hotter process than the built-in calibration
    // (stronger temperature activation, slightly higher rate).
    let truth = NbtiModel::new(NbtiParams {
        kv_ref: 4.2e-4,
        e_d: relia::core::ElectronVolts(0.36),
        ..NbtiParams::ptm90()?
    })?;
    let mut measurements = Vec::new();
    for &t in &[1.0e3, 1.0e5, 1.0e7] {
        for &temp in &[325.0, 355.0, 385.0, 400.0] {
            measurements.push(Measurement {
                time: t,
                temp: Kelvin(temp),
                delta_vth: truth.delta_vth_dc(Seconds(t), Kelvin(temp))?,
            });
        }
    }
    println!(
        "{} stress measurements across 3 times x 4 temperatures",
        measurements.len()
    );

    let fit = fit_dc_measurements(&NbtiParams::ptm90()?, &measurements)?;
    println!(
        "fitted: K_v(400K) = {:.3e} V/s^0.25 (truth 4.2e-4), E_D = {:.3} eV (truth 0.360)",
        fit.params.kv_ref, fit.params.e_d.0
    );
    println!("rms relative residual: {:.2e}", fit.rms_residual);

    // Re-run the circuit analysis with the fitted calibration.
    let circuit = iscas::circuit("c432").ok_or("unknown benchmark")?;
    let mut config = FlowConfig::paper_defaults()?;
    config.nbti = NbtiModel::new(fit.params)?;
    let analysis = AgingAnalysis::new(&config, &circuit)?;
    let report = analysis.run(&StandbyPolicy::AllInternalZero)?;
    println!(
        "c432 degradation on the fitted process: {:.2}% over {:.1} years",
        report.degradation_fraction() * 100.0,
        config.lifetime.to_years()
    );
    Ok(())
}
