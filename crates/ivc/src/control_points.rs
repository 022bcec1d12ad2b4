//! Greedy control-point insertion for internal node control (Lin et al.,
//! the paper's ref.\[9\]).
//!
//! The idealized INC bound (Table 4) assumes *every* internal node can be
//! driven; real control-point insertion pays area and delay per point, so
//! only a few gates get one. The greedy selector repeatedly places a
//! control point on the gate that currently dominates the aged critical
//! path, re-evaluating after each insertion — producing the
//! degradation-vs-budget curve a designer actually needs.

use relia_flow::{AgingAnalysis, FlowError, StandbyPolicy};
use relia_netlist::GateId;
use relia_sta::TimingAnalysis;

/// One point of the insertion curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlPointStep {
    /// Gates forced so far (in insertion order).
    pub forced: Vec<GateId>,
    /// Delay degradation with this set of control points.
    pub degradation: f64,
}

/// Greedily inserts up to `budget` control points on top of the standby
/// vector `vector`, returning the degradation after each insertion
/// (element 0 is the no-control-point baseline).
///
/// Each step forces the *most critical still-unforced gate on the aged
/// critical path*; the loop stops early when the critical path contains no
/// standby-stressed gate (further points cannot help).
///
/// # Errors
///
/// Returns [`FlowError`] for a malformed vector.
pub fn greedy_control_points(
    analysis: &AgingAnalysis<'_>,
    vector: &[bool],
    budget: usize,
) -> Result<Vec<ControlPointStep>, FlowError> {
    let circuit = analysis.circuit();
    let params = analysis.config().nbti.params();
    let nominal = TimingAnalysis::nominal(circuit).max_delay_ps();
    let base_flags = analysis.standby_stress_of_vector(vector)?;

    let mut forced: Vec<GateId> = Vec::new();
    let mut steps = Vec::with_capacity(budget + 1);
    for _ in 0..=budget {
        let policy = StandbyPolicy::ControlPoints {
            vector: vector.to_vec(),
            forced: forced.clone(),
        };
        let shifts = analysis.gate_delta_vth(&policy, analysis.config().lifetime)?;
        let aged = TimingAnalysis::degraded(circuit, &shifts, params)?;
        steps.push(ControlPointStep {
            forced: forced.clone(),
            degradation: aged.max_delay_ps() / nominal - 1.0,
        });
        if steps.len() > budget {
            break;
        }
        // Pick the largest-shift unforced gate on the aged critical path
        // whose standby state actually stresses a PMOS.
        let candidate = aged
            .critical_path()
            .iter()
            .copied()
            .filter(|g| !forced.contains(g))
            .filter(|g| base_flags[g.index()].iter().any(|&s| s))
            .max_by(|a, b| shifts[a.index()].total_cmp(&shifts[b.index()]));
        match candidate {
            Some(g) => forced.push(g),
            None => break, // nothing stressed on the critical path
        }
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relia_flow::FlowConfig;
    use relia_netlist::iscas;

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let circuit = iscas::circuit("c432").unwrap();
        let config = FlowConfig::paper_defaults().unwrap();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        let zeros = vec![false; circuit.primary_inputs().len()];
        let steps = greedy_control_points(&analysis, &zeros, 8).unwrap();
        assert!(!steps.is_empty());
        for w in steps.windows(2) {
            assert!(
                w[1].degradation <= w[0].degradation + 1e-12,
                "{} -> {}",
                w[0].degradation,
                w[1].degradation
            );
        }
        // The budgeted curve cannot beat the idealized all-'1' bound.
        let best = analysis
            .run(&StandbyPolicy::AllInternalOne)
            .unwrap()
            .degradation_fraction();
        for s in &steps {
            assert!(s.degradation >= best - 1e-12);
        }
    }

    #[test]
    fn first_insertion_helps_on_stressed_circuit() {
        let circuit = iscas::circuit("c880").unwrap();
        let config = FlowConfig::paper_defaults().unwrap();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        let zeros = vec![false; circuit.primary_inputs().len()];
        let steps = greedy_control_points(&analysis, &zeros, 3).unwrap();
        assert!(steps.len() >= 2, "selector found no stressed critical gate");
        assert!(steps[1].degradation < steps[0].degradation);
        assert_eq!(steps[1].forced.len(), 1);
    }

    #[test]
    fn zero_budget_is_baseline_only() {
        let circuit = iscas::c17();
        let config = FlowConfig::paper_defaults().unwrap();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        let steps = greedy_control_points(&analysis, &[false; 5], 0).unwrap();
        assert_eq!(steps.len(), 1);
        assert!(steps[0].forced.is_empty());
    }
}
