//! Dual-V_th assignment for simultaneous leakage and aging reduction
//! (the paper's refs \[30\]/\[44\] and its Section 4.1 argument: a higher
//! threshold cuts subthreshold leakage *exponentially* and NBTI *via the
//! overdrive/field dependence*, at an alpha-power-law delay cost).
//!
//! The optimizer greedily moves slack-rich gates to the high-V_th variant,
//! re-running static timing after each move so the circuit's nominal
//! maximum delay never grows beyond the allowed budget.

use relia_core::consts::thermal_voltage;
use relia_netlist::GateId;
use relia_sta::TimingAnalysis;

use crate::analysis::AgingAnalysis;
use crate::error::FlowError;
use crate::policy::StandbyPolicy;

/// Result of a dual-V_th assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct DualVthResult {
    /// Gates assigned to the high-V_th variant.
    pub high_vth_gates: Vec<GateId>,
    /// Nominal max delay before/after, in ps (after ≤ before·(1+budget)).
    pub nominal_delay_ps: (f64, f64),
    /// Standby leakage before/after, in amperes.
    pub standby_leakage: (f64, f64),
    /// Lifetime delay degradation before/after (relative).
    pub degradation: (f64, f64),
}

impl DualVthResult {
    /// Fraction of gates moved to high V_th.
    pub fn coverage(&self, total_gates: usize) -> f64 {
        self.high_vth_gates.len() as f64 / total_gates.max(1) as f64
    }

    /// Relative standby-leakage saving.
    pub fn leakage_saving(&self) -> f64 {
        1.0 - self.standby_leakage.1 / self.standby_leakage.0
    }

    /// Relative aging saving.
    pub fn aging_saving(&self) -> f64 {
        1.0 - self.degradation.1 / self.degradation.0
    }
}

/// Greedy dual-V_th assignment under `policy`'s standby state.
///
/// * `vth_high` — the high threshold in volts (must exceed the nominal).
/// * `delay_budget` — allowed relative growth of the nominal max delay
///   (0.0 = keep time-zero timing exactly).
/// * `standby_vector` — vector whose leakage is reported (the policy's own
///   vector when it has one; pass the all-zero vector otherwise).
///
/// # Errors
///
/// Returns [`FlowError`] for an invalid threshold, budget, or policy.
pub fn assign_dual_vth(
    analysis: &AgingAnalysis<'_>,
    policy: &StandbyPolicy,
    standby_vector: &[bool],
    vth_high: f64,
    delay_budget: f64,
) -> Result<DualVthResult, FlowError> {
    let params = analysis.config().nbti.params();
    let vth_low = params.vth0.0;
    if !(vth_high > vth_low && vth_high < params.vdd.0) {
        return Err(FlowError::InvalidParameter {
            name: "vth_high",
            value: vth_high,
        });
    }
    if !(0.0..1.0).contains(&delay_budget) {
        return Err(FlowError::InvalidParameter {
            name: "delay_budget",
            value: delay_budget,
        });
    }
    let circuit = analysis.circuit();
    let alpha = params.alpha;
    // Alpha-power-law delay multiplier of the high-V_th variant.
    let penalty = ((params.vdd.0 - vth_low) / (params.vdd.0 - vth_high)).powf(alpha);

    let base_delays = relia_sta::nominal_gate_delays(circuit);
    let nominal = TimingAnalysis::with_delays(circuit, base_delays.clone())?;
    let limit = nominal.max_delay_ps() * (1.0 + delay_budget);

    // Greedy: walk gates in decreasing slack, keep each assignment only if
    // the circuit still meets the limit.
    let report = nominal.clone();
    let slacks = report.slacks(circuit);
    let mut order: Vec<GateId> = circuit.topo_order().to_vec();
    order.sort_by(|a, b| {
        let sa = slacks[circuit.gate(*a).output().index()];
        let sb = slacks[circuit.gate(*b).output().index()];
        sb.total_cmp(&sa)
    });

    let mut is_high = vec![false; circuit.gates().len()];
    let mut delays = base_delays.clone();
    for gid in order {
        let idx = gid.index();
        let saved = delays[idx];
        delays[idx] = base_delays[idx] * penalty;
        is_high[idx] = true;
        let trial = TimingAnalysis::with_delays(circuit, delays.clone())?;
        if trial.max_delay_ps() > limit + 1e-9 {
            delays[idx] = saved;
            is_high[idx] = false;
        }
    }
    let assigned = TimingAnalysis::with_delays(circuit, delays.clone())?;

    // Aging before/after: base shifts from the policy, scaled per gate by
    // the eq. 23 overdrive/field factor of its threshold.
    let base_shifts = analysis.gate_delta_vth(policy, analysis.config().lifetime)?;
    let od_low = params.vdd.0 - vth_low;
    let od_high = params.vdd.0 - vth_high;
    let high_scale = (od_high / od_low).sqrt() * ((od_high - od_low) / params.field_scale.0).exp();
    let aged_delay = |delays: &[f64], high: Option<&[bool]>| -> Result<f64, FlowError> {
        let aged: Vec<f64> = delays
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let gate_high = high.map(|h| h[i]).unwrap_or(false);
                let (dv, od) = if gate_high {
                    (base_shifts[i] * high_scale, od_high)
                } else {
                    (base_shifts[i], od_low)
                };
                d * (1.0 + alpha * dv / od)
            })
            .collect();
        Ok(TimingAnalysis::with_delays(circuit, aged)?.max_delay_ps())
    };
    let deg_before = aged_delay(&base_delays, None)? / nominal.max_delay_ps() - 1.0;
    let deg_after = aged_delay(&delays, Some(&is_high))? / assigned.max_delay_ps() - 1.0;

    // Standby leakage before/after: high-V_th gates' subthreshold component
    // drops by exp(−ΔV_th/(n·v_T)) at the table temperature.
    let table = analysis.leakage_table();
    let vt = thermal_voltage(table.temp());
    let sub_factor = (-(vth_high - vth_low) / (analysis.config().devices.swing_n * vt)).exp();
    let values = relia_sim::logic::simulate(circuit, standby_vector)?;
    let mut leak_before = 0.0;
    let mut leak_after = 0.0;
    for (i, gate) in circuit.gates().iter().enumerate() {
        let pins: Vec<bool> = gate.inputs().iter().map(|&n| values.of(n)).collect();
        let b = table.of(gate.cell(), relia_cells::Vector::from_bits(&pins));
        leak_before += b.total();
        leak_after += if is_high[i] {
            b.subthreshold * sub_factor + b.gate
        } else {
            b.total()
        };
    }

    let high_vth_gates: Vec<GateId> = circuit
        .topo_order()
        .iter()
        .copied()
        .filter(|g| is_high[g.index()])
        .collect();
    Ok(DualVthResult {
        high_vth_gates,
        nominal_delay_ps: (nominal.max_delay_ps(), assigned.max_delay_ps()),
        standby_leakage: (leak_before, leak_after),
        degradation: (deg_before, deg_after),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConfig;
    use relia_netlist::iscas;

    fn run(budget: f64) -> (DualVthResult, usize) {
        let circuit = iscas::circuit("c432").unwrap();
        let config = FlowConfig::paper_defaults().unwrap();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        let zeros = vec![false; circuit.primary_inputs().len()];
        let r = assign_dual_vth(
            &analysis,
            &StandbyPolicy::AllInternalZero,
            &zeros,
            0.30,
            budget,
        )
        .unwrap();
        (r, circuit.gates().len())
    }

    #[test]
    fn zero_budget_preserves_nominal_timing() {
        let (r, total) = run(0.0);
        assert!(r.nominal_delay_ps.1 <= r.nominal_delay_ps.0 + 1e-9);
        // Plenty of slack-rich gates move to high V_th...
        assert!(r.coverage(total) > 0.3, "coverage {}", r.coverage(total));
        // ...and leakage improves; at zero budget the critical path keeps
        // its low-V_th gates, so critical-path aging is unchanged (the
        // leakage win is "free", the aging win needs delay budget).
        assert!(
            r.leakage_saving() > 0.1,
            "leakage saving {}",
            r.leakage_saving()
        );
        assert!(r.aging_saving() >= 0.0, "aging saving {}", r.aging_saving());
    }

    #[test]
    fn delay_budget_buys_aging_relief() {
        // With timing headroom the critical path itself goes high-V_th,
        // and its smaller dVth shows up as a lower relative degradation.
        let (r, _) = run(0.10);
        assert!(r.aging_saving() > 0.05, "aging saving {}", r.aging_saving());
        assert!(r.nominal_delay_ps.1 <= r.nominal_delay_ps.0 * 1.10 + 1e-9);
    }

    #[test]
    fn budget_buys_coverage() {
        let (tight, total) = run(0.0);
        let (loose, _) = run(0.10);
        assert!(loose.high_vth_gates.len() >= tight.high_vth_gates.len());
        assert!(loose.leakage_saving() >= tight.leakage_saving());
        assert!(loose.coverage(total) > tight.coverage(total));
    }

    #[test]
    fn invalid_inputs_rejected() {
        let circuit = iscas::c17();
        let config = FlowConfig::paper_defaults().unwrap();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        let zeros = vec![false; 5];
        assert!(assign_dual_vth(
            &analysis,
            &StandbyPolicy::AllInternalZero,
            &zeros,
            0.10,
            0.0
        )
        .is_err());
        assert!(assign_dual_vth(
            &analysis,
            &StandbyPolicy::AllInternalZero,
            &zeros,
            0.30,
            -0.1
        )
        .is_err());
    }
}
