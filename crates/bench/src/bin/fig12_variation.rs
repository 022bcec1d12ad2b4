//! Fig. 12 — circuit delay distribution under process variation and NBTI
//! (C880 Monte Carlo).
//!
//! Per-gate `V_th0 ~ N(220 mV, 10 mV)`. With aging, the distribution's mean
//! grows while its sigma *shrinks* (low-V_th gates age faster, compressing
//! the spread). The paper's marker: the −3σ delay after three years exceeds
//! the +3σ delay at time zero.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_core::Seconds;
use relia_flow::{AgingAnalysis, FlowConfig, StandbyPolicy, VariationConfig, VariationStudy};
use relia_netlist::iscas;

fn main() {
    let circuit = iscas::circuit("c880").expect("known benchmark");
    let config = FlowConfig::paper_defaults().expect("built-in");
    let analysis = AgingAnalysis::new(&config, &circuit).expect("valid analysis");
    let var = VariationConfig {
        samples: 300,
        ..VariationConfig::paper_defaults().expect("built-in")
    };
    let times = [
        Seconds(0.0),
        Seconds::from_years(1.0),
        Seconds::from_years(3.0),
        Seconds(1.0e8),
    ];

    println!(
        "Fig. 12: C880 delay distribution under variation + NBTI ({} samples)",
        var.samples
    );
    println!(
        "{:>10} {:>12} {:>10} {:>12} {:>12}",
        "time [yr]", "mean [ps]", "sigma", "mu-3s [ps]", "mu+3s [ps]"
    );
    relia_bench::rule(62);
    let pts = VariationStudy::run(&analysis, &StandbyPolicy::AllInternalZero, &var, &times)
        .expect("study runs");
    for p in &pts {
        println!(
            "{:>10.2} {:>12.2} {:>10.3} {:>12.2} {:>12.2}",
            p.time.to_years(),
            p.delay.mean,
            p.delay.std_dev,
            p.delay.lower(3.0),
            p.delay.upper(3.0)
        );
    }
    println!();
    let fresh_hi = pts[0].delay.upper(3.0);
    let aged_lo = pts[2].delay.lower(3.0);
    println!(
        "-3sigma at 3 years ({aged_lo:.2} ps) vs +3sigma at time 0 ({fresh_hi:.2} ps): {}",
        if aged_lo > fresh_hi {
            "aged lower bound EXCEEDS fresh upper bound (paper's marker)"
        } else {
            "no crossover at this calibration"
        }
    );
    println!(
        "sigma compression: {:.3} -> {:.3} ps (aging narrows the spread)",
        pts[0].delay.std_dev, pts[3].delay.std_dev
    );
}
