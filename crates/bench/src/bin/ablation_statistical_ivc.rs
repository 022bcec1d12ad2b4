//! Ablation — is the co-optimal MLV choice robust under process variation?
//!
//! The paper's closing discussion argues the leakage/NBTI co-optimization
//! remains valid on a statistical platform. This ablation evaluates the
//! MLV set's candidates across a Monte-Carlo threshold population and
//! checks whether the nominally-best vector stays best in the mean and at
//! the +3σ corner.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_core::Seconds;
use relia_flow::{AgingAnalysis, FlowConfig, StandbyPolicy, VariationConfig, VariationStudy};
use relia_ivc::{search_mlv_set, MlvSearchConfig};
use relia_netlist::iscas;

fn main() {
    let circuit = iscas::circuit("c432").expect("known benchmark");
    let config = FlowConfig::paper_defaults().expect("built-in");
    let analysis = AgingAnalysis::new(&config, &circuit).expect("valid analysis");
    let set = search_mlv_set(
        &analysis,
        &MlvSearchConfig {
            max_set_size: 5,
            ..MlvSearchConfig::default()
        },
    )
    .expect("search");
    let var = VariationConfig {
        samples: 120,
        ..VariationConfig::paper_defaults().expect("built-in")
    };
    let times = [Seconds(1.0e8)];

    println!(
        "Ablation: MLV robustness under Vth variation (c432, {} samples)",
        var.samples
    );
    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>12}",
        "MLV#", "leak [uA]", "mean [ps]", "sigma", "mu+3s [ps]"
    );
    relia_bench::rule(58);
    let mut rows = Vec::new();
    for (i, (v, leak)) in set.vectors().iter().enumerate() {
        let pts = VariationStudy::run(
            &analysis,
            &StandbyPolicy::InputVector(v.clone()),
            &var,
            &times,
        )
        .expect("study");
        let d = pts[0].delay;
        println!(
            "{:>6} {:>12.2} {:>12.2} {:>10.3} {:>12.2}",
            i,
            leak * 1e6,
            d.mean,
            d.std_dev,
            d.upper(3.0)
        );
        rows.push((i, d.mean, d.upper(3.0)));
    }
    let best_mean = rows
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("nonempty");
    let best_corner = rows
        .iter()
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .expect("nonempty");
    println!();
    println!(
        "best by mean: MLV#{}; best by +3-sigma corner: MLV#{} -> ranking {}",
        best_mean.0,
        best_corner.0,
        if best_mean.0 == best_corner.0 {
            "STABLE under variation (the paper's statistical-platform claim)"
        } else {
            "shifts at the corner"
        }
    );
}
