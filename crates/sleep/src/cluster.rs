//! Gate clustering and sleep-transistor area: block-based (BBSTI) versus
//! fine-grain (FGSTI) insertion.
//!
//! A block's sleep transistor must carry the block's peak simultaneous
//! switching current. Following the mutual-exclusion insight of the BBSTI
//! literature (Kao, Anis, Long), gates at different logic levels do not
//! draw their peak current at the same instant, so a block's demand is the
//! *maximum over levels* of the per-level current sum — far below the naive
//! all-gates sum. FGSTI instead gives each gate its own ST, exploiting
//! per-gate slack to relax the rail-drop budget on non-critical gates.

use relia_netlist::{Circuit, GateId};
use relia_sta::TimingReport;

use crate::sizing::StSizing;

/// A cluster of gates sharing one sleep transistor.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Member gates.
    pub gates: Vec<GateId>,
    /// Peak simultaneous current demand, in amperes.
    pub peak_current: f64,
    /// The block ST's `(W/L)`.
    pub st_size: f64,
}

/// Estimated peak switching current of one gate, in amperes: the charge
/// `C_load·V_dd` delivered over the gate delay.
fn gate_current(circuit: &Circuit, report: &TimingReport, gate: GateId) -> f64 {
    // Unit input capacitance of the 90 nm library, in farads.
    const UNIT_CAP_F: f64 = 2.0e-15;
    const VDD: f64 = 1.0;
    let load = circuit.load_of(circuit.gate(gate).output()).max(0.5);
    let delay_s = report.gate_delays()[gate.index()] * 1e-12;
    UNIT_CAP_F * load * VDD / delay_s.max(1e-15)
}

/// Clusters gates into blocks of at most `block_size` (in topological
/// order, which keeps blocks level-local) and sizes one ST per block from
/// the mutual-exclusion peak-current estimate.
///
/// # Panics
///
/// Panics if `block_size` is zero.
pub fn bbsti_blocks(
    circuit: &Circuit,
    report: &TimingReport,
    sizing: &StSizing,
    block_size: usize,
) -> Vec<Block> {
    assert!(block_size > 0, "block size must be positive");
    let mut blocks = Vec::new();
    for chunk in circuit.topo_order().chunks(block_size) {
        // Per-level current sums inside the block.
        let mut level_current: std::collections::BTreeMap<usize, f64> =
            std::collections::BTreeMap::new();
        for &g in chunk {
            *level_current.entry(circuit.gate_level(g)).or_insert(0.0) +=
                gate_current(circuit, report, g);
        }
        let peak = level_current.values().cloned().fold(0.0, f64::max);
        #[expect(clippy::expect_used, reason = "a nonempty block's peak is positive")]
        let st_size = sizing
            .min_size(peak)
            .expect("peak current of a nonempty block is positive");
        blocks.push(Block {
            gates: chunk.to_vec(),
            peak_current: peak,
            st_size,
        });
    }
    blocks
}

/// Fine-grain sizing: one ST per gate, with the rail-drop budget widened on
/// gates that have slack (`β_g = β·(1 + slack/delay)`, capped at 3β).
///
/// Returns per-gate `(W/L)` indexed by `GateId::index`.
pub fn fgsti_sizes(circuit: &Circuit, report: &TimingReport, sizing: &StSizing) -> Vec<f64> {
    let slacks = report.slacks(circuit);
    circuit
        .topo_order()
        .iter()
        .map(|&g| {
            let i_on = gate_current(circuit, report, g);
            let delay = report.gate_delays()[g.index()].max(1e-9);
            let slack = slacks[circuit.gate(g).output().index()].max(0.0);
            let relax = (1.0 + slack / delay).min(3.0);
            #[expect(clippy::expect_used, reason = "gate current is positive")]
            let base = sizing.min_size(i_on).expect("gate current is positive");
            base / relax
        })
        .collect()
}

/// Total ST area of a BBSTI clustering.
pub fn total_block_area(blocks: &[Block]) -> f64 {
    blocks.iter().map(|b| b.st_size).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relia_netlist::iscas;
    use relia_sta::TimingAnalysis;

    fn setup() -> (Circuit, TimingReport, StSizing) {
        let c = iscas::circuit("c432").unwrap();
        let r = TimingAnalysis::nominal(&c);
        let s = StSizing::paper_defaults(0.05, 0.30).unwrap();
        (c, r, s)
    }

    #[test]
    fn blocks_cover_every_gate_once() {
        let (c, r, s) = setup();
        let blocks = bbsti_blocks(&c, &r, &s, 32);
        let total: usize = blocks.iter().map(|b| b.gates.len()).sum();
        assert_eq!(total, c.gates().len());
        let mut seen: Vec<GateId> = blocks.iter().flat_map(|b| b.gates.clone()).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), c.gates().len());
    }

    #[test]
    fn mutual_exclusion_beats_naive_sum() {
        let (c, r, s) = setup();
        let blocks = bbsti_blocks(&c, &r, &s, 64);
        for b in &blocks {
            let naive: f64 = b.gates.iter().map(|&g| gate_current(&c, &r, g)).sum();
            assert!(b.peak_current <= naive + 1e-18);
        }
        // At least one multi-level block must benefit.
        assert!(blocks.iter().any(|b| {
            let naive: f64 = b.gates.iter().map(|&g| gate_current(&c, &r, g)).sum();
            b.peak_current < 0.9 * naive
        }));
    }

    #[test]
    fn smaller_blocks_cost_more_total_area() {
        // Sharing helps: many small blocks lose the mutual-exclusion
        // discount.
        let (c, r, s) = setup();
        let coarse = total_block_area(&bbsti_blocks(&c, &r, &s, 64));
        let fine = total_block_area(&bbsti_blocks(&c, &r, &s, 4));
        assert!(fine > coarse, "fine {fine} <= coarse {coarse}");
    }

    #[test]
    fn fgsti_exploits_slack() {
        let (c, r, s) = setup();
        let sizes = fgsti_sizes(&c, &r, &s);
        assert_eq!(sizes.len(), c.gates().len());
        assert!(sizes.iter().all(|&x| x > 0.0));
        // Critical-path gates get the full (larger) size; at least some
        // off-critical gate is discounted. Compare total area against a
        // no-slack (relax = 1) sizing.
        let rigid: f64 = c
            .topo_order()
            .iter()
            .map(|&g| s.min_size(gate_current(&c, &r, g)).unwrap())
            .sum();
        let actual: f64 = sizes.iter().sum();
        assert!(actual < rigid);
    }
}
