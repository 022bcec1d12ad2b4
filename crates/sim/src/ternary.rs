//! Three-valued (0/1/X) logic simulation.
//!
//! Power-gated standby states leave internal nodes floating; partially
//! applied input vectors leave them unknown. Ternary simulation propagates
//! `X` conservatively through the cell library's exact logic: a gate output
//! is a definite 0/1 only when *every* completion of its unknown inputs
//! agrees.

use relia_cells::Vector;
use relia_netlist::{Circuit, NetId};

use crate::error::SimError;

/// A three-valued logic level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Trit {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unknown / floating.
    #[default]
    X,
}

impl Trit {
    /// Converts a definite boolean.
    pub fn from_bool(b: bool) -> Trit {
        if b {
            Trit::One
        } else {
            Trit::Zero
        }
    }

    /// The definite value, if any.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Trit::Zero => Some(false),
            Trit::One => Some(true),
            Trit::X => None,
        }
    }

    /// Whether the level is unknown.
    pub fn is_x(self) -> bool {
        self == Trit::X
    }
}

/// Ternary net values, indexed by `NetId`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TernaryValues {
    values: Vec<Trit>,
}

impl TernaryValues {
    /// Value of one net.
    pub fn of(&self, net: NetId) -> Trit {
        self.values[net.index()]
    }

    /// Number of unknown nets.
    pub fn unknown_count(&self) -> usize {
        self.values.iter().filter(|t| t.is_x()).count()
    }

    /// All values (indexed by `NetId::index`).
    pub fn as_slice(&self) -> &[Trit] {
        &self.values
    }
}

/// Simulates the circuit under a partial primary-input assignment
/// (`Trit::X` inputs are unknown / undriven).
///
/// A gate's output is resolved by enumerating all completions of its
/// unknown inputs through the cell's exact logic: if every completion
/// agrees the output is definite, otherwise it is `X`. This is exact for
/// each gate in isolation (it ignores cross-gate correlation of the same
/// `X` source, like all ternary simulators).
///
/// # Errors
///
/// Returns [`SimError::StimulusWidthMismatch`] for a wrong stimulus width.
///
/// ```
/// use relia_netlist::iscas;
/// use relia_sim::ternary::{simulate_ternary, Trit};
///
/// let c = iscas::c17();
/// // Only input "3" known: some outputs stay unknown.
/// let mut stim = vec![Trit::X; 5];
/// stim[2] = Trit::Zero;
/// let v = simulate_ternary(&c, &stim)?;
/// assert!(v.unknown_count() > 0);
/// # Ok::<(), relia_sim::SimError>(())
/// ```
pub fn simulate_ternary(circuit: &Circuit, stimulus: &[Trit]) -> Result<TernaryValues, SimError> {
    let pis = circuit.primary_inputs();
    if stimulus.len() != pis.len() {
        return Err(SimError::StimulusWidthMismatch {
            expected: pis.len(),
            got: stimulus.len(),
        });
    }
    let mut values = vec![Trit::X; circuit.nets().len()];
    for (&pi, &t) in pis.iter().zip(stimulus) {
        values[pi.index()] = t;
    }
    for &gid in circuit.topo_order() {
        let gate = circuit.gate(gid);
        let cell = circuit.library().cell(gate.cell());
        let inputs: Vec<Trit> = gate.inputs().iter().map(|n| values[n.index()]).collect();
        values[gate.output().index()] = eval_ternary(cell, &inputs);
    }
    Ok(TernaryValues { values })
}

/// Evaluates one cell under ternary inputs by completion enumeration.
fn eval_ternary(cell: &relia_cells::Cell, inputs: &[Trit]) -> Trit {
    let unknown: Vec<usize> = inputs
        .iter()
        .enumerate()
        .filter(|(_, t)| t.is_x())
        .map(|(i, _)| i)
        .collect();
    if unknown.is_empty() {
        #[expect(clippy::expect_used, reason = "the unknown-index set is empty")]
        let bools: Vec<bool> = inputs
            .iter()
            .map(|t| t.to_bool().expect("definite"))
            .collect();
        return Trit::from_bool(cell.eval(&bools));
    }
    let mut seen: Option<bool> = None;
    for completion in Vector::all(unknown.len()) {
        let mut bools: Vec<bool> = inputs
            .iter()
            .map(|t| t.to_bool().unwrap_or(false))
            .collect();
        for (k, &pos) in unknown.iter().enumerate() {
            bools[pos] = completion.bit(k);
        }
        let out = cell.eval(&bools);
        match seen {
            None => seen = Some(out),
            Some(prev) if prev != out => return Trit::X,
            Some(_) => {}
        }
    }
    #[expect(clippy::expect_used, reason = "Vector::all is never empty")]
    Trit::from_bool(seen.expect("at least one completion"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relia_cells::Library;
    use relia_netlist::CircuitBuilder;

    fn single(cell: &str, n: usize) -> Circuit {
        let mut b = CircuitBuilder::new("t", Library::ptm90());
        let pins: Vec<_> = (0..n).map(|i| b.add_input(format!("i{i}"))).collect();
        let y = b.add_gate(cell, "y", &pins).unwrap();
        b.mark_output(y);
        b.build().unwrap()
    }

    #[test]
    fn controlling_values_dominate_x() {
        // NAND with one 0 input is 1 regardless of the X.
        let c = single("NAND2", 2);
        let v = simulate_ternary(&c, &[Trit::Zero, Trit::X]).unwrap();
        assert_eq!(v.of(c.primary_outputs()[0]), Trit::One);
        // NOR with one 1 input is 0 regardless of the X.
        let c = single("NOR2", 2);
        let v = simulate_ternary(&c, &[Trit::One, Trit::X]).unwrap();
        assert_eq!(v.of(c.primary_outputs()[0]), Trit::Zero);
    }

    #[test]
    fn non_controlling_values_keep_x() {
        let c = single("NAND2", 2);
        let v = simulate_ternary(&c, &[Trit::One, Trit::X]).unwrap();
        assert_eq!(v.of(c.primary_outputs()[0]), Trit::X);
    }

    #[test]
    fn xor_never_resolves_with_unknown_input() {
        let c = single("XOR2", 2);
        for known in [Trit::Zero, Trit::One] {
            let v = simulate_ternary(&c, &[known, Trit::X]).unwrap();
            assert_eq!(v.of(c.primary_outputs()[0]), Trit::X);
        }
    }

    #[test]
    fn definite_inputs_match_boolean_simulation() {
        let c = relia_netlist::iscas::c17();
        for bits in 0..32u32 {
            let bools: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            let trits: Vec<Trit> = bools.iter().map(|&b| Trit::from_bool(b)).collect();
            let tv = simulate_ternary(&c, &trits).unwrap();
            let bv = crate::logic::simulate(&c, &bools).unwrap();
            assert_eq!(tv.unknown_count(), 0);
            for (i, t) in tv.as_slice().iter().enumerate() {
                assert_eq!(t.to_bool(), Some(bv.as_slice()[i]), "net {i}");
            }
        }
    }

    #[test]
    fn partial_vectors_resolve_monotonically() {
        // Fixing more inputs can only reduce the unknown count.
        let c = relia_netlist::iscas::c17();
        let mut stim = vec![Trit::X; 5];
        let mut prev = simulate_ternary(&c, &stim).unwrap().unknown_count();
        for i in 0..5 {
            stim[i] = Trit::One;
            let now = simulate_ternary(&c, &stim).unwrap().unknown_count();
            assert!(now <= prev, "fixing input {i} raised X count");
            prev = now;
        }
        assert_eq!(prev, 0);
    }

    #[test]
    fn width_mismatch_is_error() {
        let c = relia_netlist::iscas::c17();
        assert!(simulate_ternary(&c, &[Trit::X; 3]).is_err());
    }
}
