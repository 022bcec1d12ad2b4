//! Fig. 5 — C432 circuit delay degradation versus the device-level
//! threshold degradation, over time and across standby temperatures.
//!
//! The circuit-level degradation is considerably smaller than the raw
//! device V_th degradation (the gate delay only scales by
//! `α·ΔV_th/(V_dd − V_th)`), and the standby temperature opens a visible
//! delay gap.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_bench::{log_times, pct};
use relia_core::{Kelvin, NbtiModel, PmosStress, Ras};
use relia_flow::{AgingAnalysis, FlowConfig, StandbyPolicy};
use relia_netlist::iscas;

fn main() {
    let circuit = iscas::circuit("c432").expect("known benchmark");
    let model = NbtiModel::ptm90().expect("built-in calibration");
    let temps = [330.0, 350.0, 370.0, 400.0];
    let times = log_times(1.0e5, 1.0e8, 7);

    println!("Fig. 5: C432 delay degradation vs PMOS dVth (RAS = 1:9, worst-case standby)");
    print!("{:>12} {:>12}", "time [s]", "dVth@330K");
    for temp in temps {
        print!(" {:>11}", format!("delay@{temp:.0}K"));
    }
    println!();
    relia_bench::rule(74);

    // One prepared analysis per temperature (leakage table reuse).
    let configs: Vec<FlowConfig> = temps
        .iter()
        .map(|&t| {
            FlowConfig::with_schedule(Ras::new(1.0, 9.0).expect("constant"), Kelvin(t))
                .expect("valid schedule")
        })
        .collect();
    let analyses: Vec<AgingAnalysis<'_>> = configs
        .iter()
        .map(|c| AgingAnalysis::new(c, &circuit).expect("valid analysis"))
        .collect();

    for t in times {
        let dv = model
            .delta_vth(t, &configs[0].schedule, &PmosStress::worst_case())
            .expect("valid inputs");
        print!("{:>12.3e} {:>11.2}m", t.0, dv * 1e3);
        for analysis in &analyses {
            let shifts = analysis
                .gate_delta_vth(&StandbyPolicy::AllInternalZero, t)
                .expect("valid policy");
            let nominal = relia_sta::TimingAnalysis::nominal(&circuit);
            let aged = relia_sta::TimingAnalysis::degraded(
                &circuit,
                &shifts,
                analysis.config().nbti.params(),
            )
            .expect("valid shifts");
            let frac = aged.max_delay_ps() / nominal.max_delay_ps() - 1.0;
            print!(" {:>11}", pct(frac));
        }
        println!();
    }
    println!();
    println!("(circuit degradation << device dVth/Vth0; gap widens with T_standby)");
}
