//! Table 4 — delay degradation of the benchmark suite under NBTI and the
//! potential of internal node control, across standby temperatures.
//!
//! `RAS = 1:9`. Worst case: every internal node '0'; best case: every
//! internal node '1'. Potential = (worst − best)/worst. The paper's trend:
//! the best case is temperature-insensitive (~3.3%), the worst case grows
//! from ~4% at 330 K to ~7.4% at 400 K, so the INC potential grows from
//! ~18% to ~55%.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_bench::{pct, table_suite};
use relia_core::{Kelvin, Ras};
use relia_flow::{AgingAnalysis, FlowConfig};
use relia_ivc::internal_node_potential;
use relia_netlist::iscas;

fn main() {
    let temps = [330.0, 350.0, 370.0, 400.0];

    println!("Table 4: worst/best degradation and INC potential (RAS = 1:9)");
    print!("{:>8} {:>7}", "circuit", "gates");
    for temp in temps {
        print!(
            " {:>9} {:>9} {:>7}",
            format!("w@{temp:.0}"),
            format!("b@{temp:.0}"),
            "pot"
        );
    }
    println!();
    relia_bench::rule(130);

    let mut pot_by_temp = vec![Vec::new(); temps.len()];
    for name in table_suite() {
        let circuit = iscas::circuit(name).expect("known benchmark");
        print!("{:>8} {:>7}", name, circuit.gates().len());
        for (ti, &temp) in temps.iter().enumerate() {
            let config =
                FlowConfig::with_schedule(Ras::new(1.0, 9.0).expect("constant"), Kelvin(temp))
                    .expect("valid schedule");
            let analysis = AgingAnalysis::new(&config, &circuit).expect("valid analysis");
            let p = internal_node_potential(&analysis).expect("valid policies");
            print!(
                " {:>9} {:>9} {:>7}",
                pct(p.worst_degradation),
                pct(p.best_degradation),
                format!("{:.0}%", p.potential() * 100.0)
            );
            pot_by_temp[ti].push(p.potential());
        }
        println!();
    }
    relia_bench::rule(130);
    print!("{:>16}", "avg potential");
    for pots in &pot_by_temp {
        let avg = pots.iter().sum::<f64>() / pots.len() as f64;
        print!(" {:>9} {:>9} {:>7}", "", "", format!("{:.0}%", avg * 100.0));
    }
    println!();
    println!();
    println!("(paper: potential 18.1% at 330 K rising to 54.9% at 400 K)");
}
