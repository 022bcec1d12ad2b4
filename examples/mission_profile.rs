//! Mission-profile signoff: will the guardband survive the mission?
//!
//! Scenario: a 10-year always-deployed controller with a 3% aging budget.
//! The flow checks the budget against the worst-case standby state, and if
//! it fails, walks the mitigation ladder the paper evaluates: IVC, then
//! budgeted internal node control, then power gating.
//!
//! Run with: `cargo run --release --example mission_profile`

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]
use relia::core::Seconds;
use relia::flow::{lifetime_to_budget, AgingAnalysis, FlowConfig, LifetimeBudget, StandbyPolicy};
use relia::ivc::{greedy_control_points, search_mlv_set, MlvSearchConfig};
use relia::netlist::iscas;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = iscas::circuit("c880").ok_or("unknown benchmark")?;
    let config = FlowConfig::paper_defaults()?;
    let analysis = AgingAnalysis::new(&config, &circuit)?;
    let budget = 0.03;
    let mission = Seconds::from_years(10.0);
    println!(
        "mission: {:.0} years, aging budget {:.0}%",
        mission.to_years(),
        budget * 100.0
    );

    let verdict = |policy: &StandbyPolicy| -> Result<String, Box<dyn std::error::Error>> {
        Ok(
            match lifetime_to_budget(&analysis, policy, budget, mission)? {
                LifetimeBudget::SurvivesBeyond(_) => "SURVIVES the mission".to_owned(),
                LifetimeBudget::ExhaustedAt(t) => {
                    format!("budget exhausted after {:.1} years", t.to_years())
                }
            },
        )
    };

    // Rung 0: do nothing (worst-case standby).
    println!(
        "1. no mitigation (worst-case standby): {}",
        verdict(&StandbyPolicy::AllInternalZero)?
    );

    // Rung 1: IVC — park on the co-optimal MLV.
    let set = search_mlv_set(&analysis, &MlvSearchConfig::default())?;
    let mlv = set.vectors()[0].0.clone();
    println!(
        "2. IVC on the MLV:                     {}",
        verdict(&StandbyPolicy::InputVector(mlv.clone()))?
    );

    // Rung 2: IVC + 8 control points on the aged critical path.
    let steps = greedy_control_points(&analysis, &mlv, 8)?;
    let forced = steps
        .last()
        .ok_or("selector returned no steps")?
        .forced
        .clone();
    println!(
        "3. IVC + {} control points:             {}",
        forced.len(),
        verdict(&StandbyPolicy::ControlPoints {
            vector: mlv,
            forced,
        })?
    );

    // Rung 3: power gating.
    println!(
        "4. footer sleep transistor:            {}",
        verdict(&StandbyPolicy::PowerGatedFooter)?
    );
    Ok(())
}
