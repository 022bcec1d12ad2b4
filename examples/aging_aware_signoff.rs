//! Aging-aware statistical timing signoff.
//!
//! Scenario: sign off a design's clock period against both process
//! variation and lifetime NBTI. The naive flow signs off against the fresh
//! +3σ corner; the aged distribution's mean keeps drifting, so the honest
//! guardband comes from the end-of-life +3σ.
//!
//! Run with: `cargo run --release --example aging_aware_signoff`

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]
use relia::core::Seconds;
use relia::flow::{AgingAnalysis, FlowConfig, StandbyPolicy, VariationConfig, VariationStudy};
use relia::netlist::iscas;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = iscas::circuit("c880").ok_or("unknown benchmark")?;
    let config = FlowConfig::paper_defaults()?;
    let analysis = AgingAnalysis::new(&config, &circuit)?;
    let var = VariationConfig {
        samples: 200,
        ..VariationConfig::paper_defaults()?
    };
    let times = [
        Seconds(0.0),
        Seconds::from_years(1.0),
        Seconds::from_years(3.0),
    ];

    let pts = VariationStudy::run(&analysis, &StandbyPolicy::AllInternalZero, &var, &times)?;
    println!(
        "{:>9} {:>11} {:>9} {:>11}",
        "years", "mean [ps]", "sigma", "+3s [ps]"
    );
    for p in &pts {
        println!(
            "{:>9.2} {:>11.2} {:>9.3} {:>11.2}",
            p.time.to_years(),
            p.delay.mean,
            p.delay.std_dev,
            p.delay.upper(3.0)
        );
    }

    let fresh = pts.first().ok_or("no points")?;
    let aged = pts.last().ok_or("no points")?;
    println!();
    println!(
        "fresh signoff corner: {:.1} ps; aged-aware corner: {:.1} ps",
        fresh.delay.upper(3.0),
        aged.delay.upper(3.0)
    );
    println!(
        "aging adds {:.2}% on top of the fresh +3-sigma corner \
         (and sigma shrinks from {:.2} to {:.2} ps: slow parts age slower)",
        (aged.delay.upper(3.0) / fresh.delay.upper(3.0) - 1.0) * 100.0,
        fresh.delay.std_dev,
        aged.delay.std_dev
    );
    Ok(())
}
