//! Fig. 11 — C432 delay degradation with and without sleep-transistor
//! insertion.
//!
//! Without an ST the worst-case standby (all internal nodes '0') degrades
//! the circuit by 4–7% depending on `T_standby`. With an ST the circuit
//! pays `β` at time zero but ages only through active-mode stress — so a
//! small-β design ends up *faster at 10 years* than the un-gated hot
//! circuit, the paper's headline ST result.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_bench::{log_times, pct};
use relia_core::{Kelvin, Ras, Seconds};
use relia_flow::{AgingAnalysis, FlowConfig, StandbyPolicy};
use relia_netlist::iscas;
use relia_sleep::{SleepTransistorKind, StInsertion, StSizing};

fn main() {
    let circuit = iscas::circuit("c432").expect("known benchmark");
    let temps = [330.0, 370.0, 400.0];
    let betas = [0.05, 0.03, 0.01];
    let times = log_times(1.0e5, 1.0e8, 7);

    println!("Fig. 11: C432 delay increase vs time, with/without ST insertion (RAS = 1:9)");
    print!("{:>12}", "time [s]");
    for temp in temps {
        print!(" {:>10}", format!("noST@{temp:.0}"));
    }
    for beta in betas {
        print!(" {:>10}", format!("ST b={:.0}%", beta * 100.0));
    }
    println!();
    relia_bench::rule(80);

    // Un-gated analyses per temperature.
    let ungated_configs: Vec<FlowConfig> = temps
        .iter()
        .map(|&t| {
            FlowConfig::with_schedule(Ras::new(1.0, 9.0).expect("constant"), Kelvin(t))
                .expect("valid schedule")
        })
        .collect();
    let ungated: Vec<AgingAnalysis<'_>> = ungated_configs
        .iter()
        .map(|c| AgingAnalysis::new(c, &circuit).expect("valid analysis"))
        .collect();
    // ST analyses (standby temperature is irrelevant once gated; use 330 K).
    let st_config = FlowConfig::with_schedule(Ras::new(1.0, 9.0).expect("constant"), Kelvin(330.0))
        .expect("valid schedule");
    let st_analysis = AgingAnalysis::new(&st_config, &circuit).expect("valid analysis");
    let insertions: Vec<StInsertion> = betas
        .iter()
        .map(|&beta| StInsertion {
            kind: SleepTransistorKind::Footer,
            sizing: StSizing::paper_defaults(beta, 0.30).expect("valid sizing"),
        })
        .collect();

    let nominal = relia_sta::TimingAnalysis::nominal(&circuit).max_delay_ps();
    for &t in &times {
        print!("{:>12.3e}", t.0);
        for analysis in &ungated {
            let dv = analysis
                .gate_delta_vth(&StandbyPolicy::AllInternalZero, t)
                .expect("valid policy");
            let aged =
                relia_sta::TimingAnalysis::degraded(&circuit, &dv, analysis.config().nbti.params())
                    .expect("valid shifts");
            print!(" {:>10}", pct(aged.max_delay_ps() / nominal - 1.0));
        }
        for ins in &insertions {
            let pts = ins
                .delay_over_time(&st_analysis, &[t])
                .expect("valid inputs");
            print!(" {:>10}", pct(pts[0].increase_vs_nominal));
        }
        println!();
    }
    println!();

    // The crossover summary at 10 years.
    let t10 = Seconds(1.0e8);
    let hot = &ungated[2];
    let dv = hot
        .gate_delta_vth(&StandbyPolicy::AllInternalZero, t10)
        .expect("valid policy");
    let hot_deg = relia_sta::TimingAnalysis::degraded(&circuit, &dv, hot.config().nbti.params())
        .expect("valid shifts")
        .max_delay_ps()
        / nominal
        - 1.0;
    let st1 = insertions[2]
        .delay_over_time(&st_analysis, &[t10])
        .expect("valid inputs")[0]
        .increase_vs_nominal;
    println!(
        "at 1e8 s: un-gated @400K = {}, ST (beta=1%) = {} -> ST circuit is {}",
        pct(hot_deg),
        pct(st1),
        if st1 < hot_deg { "FASTER" } else { "slower" }
    );
}
