//! NBTI-aware sleep-transistor design.
//!
//! Scenario: power-gate a block with a 3% delay budget. This example sizes
//! the sleep transistor, adds the NBTI end-of-life margin for a PMOS
//! header, compares footer vs header aging trajectories, and contrasts
//! block-based (BBSTI) with fine-grain (FGSTI) insertion area.
//!
//! Run with: `cargo run --release --example sleep_transistor_design`

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]
use relia::core::Seconds;
use relia::flow::{AgingAnalysis, FlowConfig, StandbyPolicy};
use relia::netlist::iscas;
use relia::sleep::{bbsti_blocks, fgsti_sizes, SleepTransistorKind, StInsertion, StSizing};
use relia::sta::TimingAnalysis;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = iscas::circuit("c880").ok_or("unknown benchmark")?;
    let config = FlowConfig::paper_defaults()?;
    let analysis = AgingAnalysis::new(&config, &circuit)?;
    let sizing = StSizing::paper_defaults(0.03, 0.30)?;

    // 1. End-of-life threshold shift of a PMOS header and its size margin.
    let st_dv = sizing.st_delta_vth(&config.nbti, &config.schedule, config.lifetime)?;
    println!(
        "header ST aging over {:.1} years: dVth = {:.1} mV -> oversize by {:.2}%",
        config.lifetime.to_years(),
        st_dv * 1e3,
        sizing.nbti_size_margin(st_dv)? * 100.0
    );

    // 2. Footer vs header delay trajectories.
    let times = [Seconds(0.0), Seconds(1.0e7), Seconds(1.0e8)];
    for kind in [SleepTransistorKind::Footer, SleepTransistorKind::Header] {
        let ins = StInsertion { kind, sizing };
        let pts = ins.delay_over_time(&analysis, &times)?;
        print!("{kind:?}: ");
        for p in &pts {
            print!(
                "  t={:.0e}s +{:.2}%",
                p.time.0,
                p.increase_vs_nominal * 100.0
            );
        }
        println!();
    }

    // 3. Compare against the un-gated worst case at end of life.
    let ungated = analysis.run(&StandbyPolicy::AllInternalZero)?;
    println!(
        "un-gated worst case at end of life: +{:.2}%",
        ungated.degradation_fraction() * 100.0
    );

    // 4. BBSTI vs FGSTI area.
    let timing = TimingAnalysis::nominal(&circuit);
    let blocks = bbsti_blocks(&circuit, &timing, &sizing, 64);
    let bbsti_area: f64 = blocks.iter().map(|b| b.st_size).sum();
    let fgsti_area: f64 = fgsti_sizes(&circuit, &timing, &sizing).iter().sum();
    println!(
        "ST area (W/L units): BBSTI {:.0} across {} blocks vs FGSTI {:.0} per-gate",
        bbsti_area,
        blocks.len(),
        fgsti_area
    );
    Ok(())
}
