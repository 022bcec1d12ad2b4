//! Ablation — sleep-transistor area: block-based (BBSTI) clustering
//! granularity versus fine-grain (FGSTI) insertion, with and without the
//! NBTI end-of-life margin.
//!
//! The BBSTI literature's mutual-exclusion insight (gates at different
//! logic levels don't peak simultaneously) makes coarse blocks cheap; FGSTI
//! recovers area on slack-rich gates instead. The NBTI margin (Fig. 9)
//! applies on top of either.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_bench::schedule;
use relia_core::{Kelvin, NbtiModel, Seconds};
use relia_netlist::iscas;
use relia_sleep::{bbsti_blocks, fgsti_sizes, StSizing};
use relia_sta::TimingAnalysis;

fn main() {
    let circuit = iscas::circuit("c880").expect("known benchmark");
    let timing = TimingAnalysis::nominal(&circuit);
    let sizing = StSizing::paper_defaults(0.05, 0.30).expect("valid sizing");
    let model = NbtiModel::ptm90().expect("built-in");

    println!(
        "Ablation: ST area on c880 ({} gates), beta = 5%, VthST = 0.30 V",
        circuit.gates().len()
    );
    println!("{:>14} {:>8} {:>14}", "strategy", "blocks", "area [W/L]");
    relia_bench::rule(40);
    for block_size in [256, 64, 16, 4] {
        let blocks = bbsti_blocks(&circuit, &timing, &sizing, block_size);
        let area: f64 = blocks.iter().map(|b| b.st_size).sum();
        println!(
            "{:>14} {:>8} {:>14.0}",
            format!("BBSTI/{block_size}"),
            blocks.len(),
            area
        );
    }
    let fg: f64 = fgsti_sizes(&circuit, &timing, &sizing).iter().sum();
    println!("{:>14} {:>8} {:>14.0}", "FGSTI", circuit.gates().len(), fg);

    // The NBTI margin on a PMOS header implementation.
    let dv = sizing
        .st_delta_vth(&model, &schedule(1.0, 9.0, Kelvin(330.0)), Seconds(1.0e8))
        .expect("valid");
    let margin = sizing.nbti_size_margin(dv).expect("bounded");
    println!();
    println!(
        "PMOS-header NBTI margin at end of life: +{:.2}% on every ST above",
        margin * 100.0
    );
}
