//! Input-vector control with leakage/NBTI co-optimization.
//!
//! Scenario: a block spends 5/6 of its life parked in standby. Which input
//! vector should the standby controller drive? The classic answer is the
//! minimum-leakage vector (MLV) — but near-minimum vectors can differ in
//! how much NBTI stress they park the PMOS devices under. This example runs
//! the paper's probability-based MLV-set search, evaluates every candidate
//! for aging, and picks the co-optimal one.
//!
//! Run with: `cargo run --release --example ivc_cooptimization`

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]
use relia::core::{Kelvin, Ras};
use relia::flow::{AgingAnalysis, FlowConfig, StandbyPolicy};
use relia::ivc::{co_optimize, internal_node_potential, search_mlv_set, MlvSearchConfig};
use relia::netlist::iscas;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = iscas::circuit("c880").ok_or("unknown benchmark")?;
    let config = FlowConfig::with_schedule(Ras::new(1.0, 5.0)?, Kelvin(330.0))?;
    let analysis = AgingAnalysis::new(&config, &circuit)?;

    // 1. Baselines: the two idealized bounds.
    let worst = analysis.run(&StandbyPolicy::AllInternalZero)?;
    println!(
        "worst-case standby (all internal '0'): +{:.2}% delay",
        worst.degradation_fraction() * 100.0
    );

    // 2. The MLV-set search (Fig. 7 of the paper).
    let set = search_mlv_set(&analysis, &MlvSearchConfig::default())?;
    println!(
        "MLV search: {} candidates within 4% of the minimum leakage ({:.2} uA), {} rounds",
        set.vectors().len(),
        set.min_leakage() * 1e6,
        set.rounds_used()
    );

    // 3. Co-optimize: evaluate each candidate's aging, pick the best.
    let co = co_optimize(&analysis, &set)?;
    let best = co.best();
    println!(
        "co-optimal vector: leakage {:.2} uA, degradation +{:.2}% \
         (spread across set: {:.3}%)",
        best.leakage * 1e6,
        best.degradation * 100.0,
        co.degradation_spread() * 100.0
    );

    // 4. How much more could internal node control buy?
    let inc = internal_node_potential(&analysis)?;
    println!(
        "internal-node-control potential: {:.0}% of the worst-case degradation",
        inc.potential() * 100.0
    );
    println!();
    println!(
        "verdict: at a cool standby ({}) IVC barely moves aging — \
         the paper's conclusion — but internal node control could recover \
         a large share.",
        config.schedule.temp_standby()
    );
    Ok(())
}
