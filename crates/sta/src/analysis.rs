//! Arrival-time propagation and critical-path extraction.

use relia_core::NbtiParams;
use relia_netlist::{Circuit, GateId, NetDriver, NetId};

use crate::delay::{degraded_gate_delays, nominal_gate_delays};
use crate::error::StaError;

/// Static timing analysis entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimingAnalysis;

impl TimingAnalysis {
    /// Analyzes the circuit with nominal (un-aged) gate delays.
    pub fn nominal(circuit: &Circuit) -> TimingReport {
        let delays = nominal_gate_delays(circuit);
        TimingReport::from_delays(circuit, delays)
    }

    /// Analyzes the circuit with NBTI-degraded gate delays: `delta_vth[g]`
    /// is the worst-case PMOS threshold shift of gate `g` in volts.
    ///
    /// # Errors
    ///
    /// Returns [`StaError`] for a malformed shift vector.
    pub fn degraded(
        circuit: &Circuit,
        delta_vth: &[f64],
        params: &NbtiParams,
    ) -> Result<TimingReport, StaError> {
        let delays = degraded_gate_delays(circuit, delta_vth, params)?;
        Ok(TimingReport::from_delays(circuit, delays))
    }

    /// Analyzes with explicit per-gate delays (picoseconds).
    ///
    /// # Errors
    ///
    /// Returns [`StaError::GateVectorMismatch`] for a wrong-length vector.
    pub fn with_delays(circuit: &Circuit, delays: Vec<f64>) -> Result<TimingReport, StaError> {
        if delays.len() != circuit.gates().len() {
            return Err(StaError::GateVectorMismatch {
                expected: circuit.gates().len(),
                got: delays.len(),
            });
        }
        Ok(TimingReport::from_delays(circuit, delays))
    }
}

/// The result of one timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    gate_delays: Vec<f64>,
    arrival: Vec<f64>,
    max_delay: f64,
    critical_path: Vec<GateId>,
}

impl TimingReport {
    fn from_delays(circuit: &Circuit, gate_delays: Vec<f64>) -> Self {
        let mut arrival = vec![0.0f64; circuit.nets().len()];
        for &gid in circuit.topo_order() {
            let gate = circuit.gate(gid);
            let input_arrival = gate
                .inputs()
                .iter()
                .map(|n| arrival[n.index()])
                .fold(0.0, f64::max);
            arrival[gate.output().index()] = input_arrival + gate_delays[gid.index()];
        }
        let critical_po = circuit
            .primary_outputs()
            .iter()
            .copied()
            .max_by(|a, b| arrival[a.index()].total_cmp(&arrival[b.index()]));
        let max_delay = critical_po.map(|po| arrival[po.index()]).unwrap_or(0.0);

        // Trace the critical path backwards from the critical PO.
        let mut critical_path = Vec::new();
        let mut net = critical_po;
        while let Some(n) = net {
            match circuit.net(n).driver() {
                NetDriver::PrimaryInput => break,
                NetDriver::Gate(gid) => {
                    critical_path.push(gid);
                    let gate = circuit.gate(gid);
                    net = gate
                        .inputs()
                        .iter()
                        .copied()
                        .max_by(|a, b| arrival[a.index()].total_cmp(&arrival[b.index()]));
                }
            }
        }
        critical_path.reverse();

        TimingReport {
            gate_delays,
            arrival,
            max_delay,
            critical_path,
        }
    }

    /// Delay of each gate in picoseconds (indexed by `GateId::index`).
    pub fn gate_delays(&self) -> &[f64] {
        &self.gate_delays
    }

    /// Arrival time at each net in picoseconds (indexed by `NetId::index`).
    pub fn arrival(&self, net: NetId) -> f64 {
        self.arrival[net.index()]
    }

    /// The circuit's maximum (critical-path) delay in picoseconds.
    pub fn max_delay_ps(&self) -> f64 {
        self.max_delay
    }

    /// Gates on the critical path, input side first.
    pub fn critical_path(&self) -> &[GateId] {
        &self.critical_path
    }

    /// Slack of each net against the circuit's own max delay: how much
    /// later the net could arrive without raising the maximum delay, under
    /// the (required time = max delay at every PO) convention.
    pub fn slacks(&self, circuit: &Circuit) -> Vec<f64> {
        // Required-time backward pass.
        let mut required = vec![f64::INFINITY; circuit.nets().len()];
        for &po in circuit.primary_outputs() {
            required[po.index()] = self.max_delay;
        }
        for &gid in circuit.topo_order().iter().rev() {
            let gate = circuit.gate(gid);
            let out_req = required[gate.output().index()];
            let in_req = out_req - self.gate_delays[gid.index()];
            for n in gate.inputs() {
                if in_req < required[n.index()] {
                    required[n.index()] = in_req;
                }
            }
        }
        required
            .iter()
            .zip(&self.arrival)
            .map(|(r, a)| r - a)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relia_netlist::iscas;

    #[test]
    fn max_delay_equals_latest_po() {
        let c = iscas::c17();
        let r = TimingAnalysis::nominal(&c);
        let latest = c
            .primary_outputs()
            .iter()
            .map(|po| r.arrival(*po))
            .fold(0.0, f64::max);
        assert_eq!(r.max_delay_ps(), latest);
    }

    #[test]
    fn arrival_exceeds_fanin() {
        let c = iscas::circuit("c432").unwrap();
        let r = TimingAnalysis::nominal(&c);
        for g in c.gates() {
            let out = r.arrival(g.output());
            for n in g.inputs() {
                assert!(out > r.arrival(*n));
            }
        }
    }

    #[test]
    fn degradation_slows_the_circuit() {
        let c = iscas::circuit("c432").unwrap();
        let p = relia_core::NbtiParams::ptm90().unwrap();
        let nominal = TimingAnalysis::nominal(&c);
        let aged = TimingAnalysis::degraded(&c, &vec![0.030; c.gates().len()], &p).unwrap();
        assert!(aged.max_delay_ps() > nominal.max_delay_ps());
        // With a uniform 30 mV shift the whole path scales by the same
        // factor: α·ΔV/(V_g−V_th) = 1.3·0.03/0.78 = 5%.
        let ratio = aged.max_delay_ps() / nominal.max_delay_ps();
        assert!((ratio - 1.05).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn critical_path_is_connected_and_critical() {
        let c = iscas::circuit("c880").unwrap();
        let r = TimingAnalysis::nominal(&c);
        let path = r.critical_path();
        assert!(!path.is_empty());
        // Path delays sum to the max delay.
        let sum: f64 = path.iter().map(|g| r.gate_delays()[g.index()]).sum();
        assert!(
            (sum - r.max_delay_ps()).abs() < 1e-6,
            "sum {sum} max {}",
            r.max_delay_ps()
        );
        // Consecutive gates are actually connected.
        for w in path.windows(2) {
            let out = c.gate(w[0]).output();
            assert!(c.gate(w[1]).inputs().contains(&out));
        }
    }

    #[test]
    fn slack_is_nonnegative_and_zero_on_critical_path() {
        let c = iscas::circuit("c432").unwrap();
        let r = TimingAnalysis::nominal(&c);
        let slacks = r.slacks(&c);
        for (i, s) in slacks.iter().enumerate() {
            assert!(*s > -1e-6, "net {i} slack {s}");
        }
        for g in r.critical_path() {
            let s = slacks[c.gate(*g).output().index()];
            assert!(s.abs() < 1e-6, "critical gate slack {s}");
        }
    }
}
