//! Table 3 — impact of the IVC technique on circuit performance
//! degradation.
//!
//! For each benchmark: search the MLV set (probability-based, leakage band
//! 4%), evaluate the NBTI-induced degradation of each MLV, and report the
//! best. `RAS = 1:5`, `T_standby = 330 K` (the paper's Table 3 setup).
//!
//! The headline: the spread between MLVs ("MLV diff") is a tiny fraction of
//! the circuit delay at this cool standby temperature — IVC alone is a weak
//! NBTI mitigation knob.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_bench::{pct, table_suite, ua};
use relia_core::{Kelvin, Ras};
use relia_flow::{AgingAnalysis, FlowConfig, StandbyPolicy};
use relia_ivc::{co_optimize, search_mlv_set, MlvSearchConfig};
use relia_netlist::iscas;

fn main() {
    println!("Table 3: IVC impact on NBTI degradation (RAS = 1:5, T_s = 330 K)");
    println!(
        "{:>8} {:>7} {:>12} {:>12} {:>10} {:>10} {:>10} {:>8}",
        "circuit", "gates", "min leak", "worst deg", "best deg", "MLV diff", "nom [ps]", "MLVs"
    );
    relia_bench::rule(86);

    let mut spreads = Vec::new();
    let mut bests = Vec::new();
    for name in table_suite() {
        let circuit = iscas::circuit(name).expect("known benchmark");
        let config =
            FlowConfig::with_schedule(Ras::new(1.0, 5.0).expect("constant"), Kelvin(330.0))
                .expect("valid schedule");
        let analysis = AgingAnalysis::new(&config, &circuit).expect("valid analysis");

        let search = MlvSearchConfig {
            vectors_per_round: 64,
            max_rounds: 10,
            max_set_size: 8,
            ..MlvSearchConfig::default()
        };
        let set = search_mlv_set(&analysis, &search).expect("search succeeds");
        let co = co_optimize(&analysis, &set).expect("evaluations succeed");
        let worst = analysis
            .run(&StandbyPolicy::AllInternalZero)
            .expect("valid policy");

        println!(
            "{:>8} {:>7} {:>12} {:>12} {:>10} {:>10} {:>10.1} {:>8}",
            name,
            circuit.gates().len(),
            ua(set.min_leakage()),
            pct(worst.degradation_fraction()),
            pct(co.best().degradation),
            pct(co.degradation_spread()),
            co.nominal_delay_ps,
            set.vectors().len(),
        );
        spreads.push(co.degradation_spread());
        bests.push(co.best().degradation);
    }
    relia_bench::rule(86);
    let avg_best = bests.iter().sum::<f64>() / bests.len() as f64;
    let avg_spread = spreads.iter().sum::<f64>() / spreads.len() as f64;
    println!(
        "average best-MLV degradation: {} (paper: ~4.3%)",
        pct(avg_best)
    );
    println!(
        "average MLV-to-MLV spread:    {} (paper: ~0.14%)",
        pct(avg_spread)
    );
}
