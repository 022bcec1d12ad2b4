//! Programmatic circuit construction with validation.

use std::collections::HashMap;

use relia_cells::Library;

use crate::circuit::{Circuit, Gate, GateId, Net, NetDriver, NetId};
use crate::error::NetlistError;

/// Incrementally builds a [`Circuit`], validating names, arities, and
/// acyclicity.
///
/// ```
/// use relia_cells::Library;
/// use relia_netlist::CircuitBuilder;
///
/// # fn main() -> Result<(), relia_netlist::NetlistError> {
/// let mut b = CircuitBuilder::new("half_adder", Library::ptm90());
/// let a = b.add_input("a");
/// let c = b.add_input("b");
/// let sum = b.add_gate("XOR2", "sum", &[a, c])?;
/// let carry = b.add_gate("AND2", "carry", &[a, c])?;
/// b.mark_output(sum);
/// b.mark_output(carry);
/// let circuit = b.build()?;
/// assert_eq!(circuit.gates().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    name: String,
    library: Library,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
    net_names: HashMap<String, NetId>,
}

impl CircuitBuilder {
    /// Starts a new circuit over `library`.
    pub fn new(name: impl Into<String>, library: Library) -> Self {
        CircuitBuilder {
            name: name.into(),
            library,
            nets: Vec::new(),
            gates: Vec::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
            net_names: HashMap::new(),
        }
    }

    /// The library the builder maps onto.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// Declares a primary input net and returns its id. The name is made
    /// unique if it clashes (a numeric suffix is appended).
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let name = self.unique_name(name.into());
        let id = NetId(self.nets.len());
        self.nets.push(Net {
            name: name.clone(),
            driver: NetDriver::PrimaryInput,
        });
        self.net_names.insert(name, id);
        self.primary_inputs.push(id);
        id
    }

    /// Adds a gate instance of cell `cell_name` driven by `inputs`, creating
    /// and returning its output net (named after the instance).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`] or
    /// [`NetlistError::ArityMismatch`].
    pub fn add_gate(
        &mut self,
        cell_name: &str,
        instance: impl Into<String>,
        inputs: &[NetId],
    ) -> Result<NetId, NetlistError> {
        let cell_id = self
            .library
            .find(cell_name)
            .ok_or_else(|| NetlistError::UnknownCell {
                name: cell_name.to_owned(),
            })?;
        let instance = instance.into();
        let expected = self.library.cell(cell_id).num_pins();
        if inputs.len() != expected {
            return Err(NetlistError::ArityMismatch {
                gate: instance,
                cell: cell_name.to_owned(),
                expected,
                got: inputs.len(),
            });
        }
        let gate_id = GateId(self.gates.len());
        let net_name = self.unique_name(instance.clone());
        let out = NetId(self.nets.len());
        self.nets.push(Net {
            name: net_name.clone(),
            driver: NetDriver::Gate(gate_id),
        });
        self.net_names.insert(net_name, out);
        self.gates.push(Gate {
            name: instance,
            cell: cell_id,
            inputs: inputs.to_vec(),
            output: out,
        });
        Ok(out)
    }

    /// Marks a net as a primary output (idempotent).
    pub fn mark_output(&mut self, net: NetId) {
        if !self.primary_outputs.contains(&net) {
            self.primary_outputs.push(net);
        }
    }

    /// Looks up a previously created net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names.get(name).copied()
    }

    /// Finalizes the circuit: checks that at least one output exists,
    /// computes the topological order (the construction API is inherently
    /// acyclic, but the order is recomputed and verified), logic levels, and
    /// fan-out maps.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NoOutputs`] for an output-less circuit or
    /// [`NetlistError::CombinationalCycle`] if internal invariants are
    /// violated.
    pub fn build(self) -> Result<Circuit, NetlistError> {
        if self.primary_outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }

        let num_gates = self.gates.len();
        let num_nets = self.nets.len();

        // Fan-out map.
        let mut fanout: Vec<Vec<GateId>> = vec![Vec::new(); num_nets];
        for (gi, gate) in self.gates.iter().enumerate() {
            for &input in &gate.inputs {
                fanout[input.0].push(GateId(gi));
            }
        }

        // Kahn topological sort over gates.
        let mut indegree: Vec<usize> = self
            .gates
            .iter()
            .map(|g| {
                g.inputs
                    .iter()
                    .filter(|n| matches!(self.nets[n.0].driver, NetDriver::Gate(_)))
                    .count()
            })
            .collect();
        let mut queue: Vec<GateId> = indegree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| GateId(i))
            .collect();
        let mut topo = Vec::with_capacity(num_gates);
        let mut levels = vec![0usize; num_gates];
        let mut head = 0;
        while head < queue.len() {
            let g = queue[head];
            head += 1;
            topo.push(g);
            let level = 1 + self.gates[g.0]
                .inputs
                .iter()
                .map(|n| match self.nets[n.0].driver {
                    NetDriver::PrimaryInput => 0,
                    NetDriver::Gate(src) => levels[src.0],
                })
                .max()
                .unwrap_or(0);
            levels[g.0] = level;
            for &succ in &fanout[self.gates[g.0].output.0] {
                indegree[succ.0] -= 1;
                if indegree[succ.0] == 0 {
                    queue.push(succ);
                }
            }
        }
        if topo.len() != num_gates {
            let stuck = (0..num_gates)
                .find(|&i| indegree[i] > 0)
                .map(|i| self.nets[self.gates[i].output.0].name.clone())
                .unwrap_or_default();
            return Err(NetlistError::CombinationalCycle { near: stuck });
        }

        let mut is_po = vec![false; num_nets];
        for &po in &self.primary_outputs {
            is_po[po.0] = true;
        }

        Ok(Circuit {
            name: self.name,
            library: self.library,
            nets: self.nets,
            gates: self.gates,
            primary_inputs: self.primary_inputs,
            primary_outputs: self.primary_outputs,
            topo,
            levels,
            fanout,
            is_po,
        })
    }

    fn unique_name(&self, base: String) -> String {
        if !self.net_names.contains_key(&base) {
            return base;
        }
        let mut k = 1;
        loop {
            let candidate = format!("{base}_{k}");
            if !self.net_names.contains_key(&candidate) {
                return candidate;
            }
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> Library {
        Library::ptm90()
    }

    #[test]
    fn arity_is_checked() {
        let mut b = CircuitBuilder::new("t", lib());
        let a = b.add_input("a");
        assert!(matches!(
            b.add_gate("NAND2", "g", &[a]),
            Err(NetlistError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn unknown_cell_is_rejected() {
        let mut b = CircuitBuilder::new("t", lib());
        let a = b.add_input("a");
        assert!(matches!(
            b.add_gate("NAND17", "g", &[a]),
            Err(NetlistError::UnknownCell { .. })
        ));
    }

    #[test]
    fn outputs_required() {
        let mut b = CircuitBuilder::new("t", lib());
        let a = b.add_input("a");
        b.add_gate("INV", "g", &[a]).unwrap();
        assert!(matches!(b.build(), Err(NetlistError::NoOutputs)));
    }

    #[test]
    fn duplicate_names_are_uniquified() {
        let mut b = CircuitBuilder::new("t", lib());
        let a = b.add_input("x");
        let n1 = b.add_gate("INV", "x", &[a]).unwrap();
        b.mark_output(n1);
        let c = b.build().unwrap();
        assert_eq!(c.net(a).name(), "x");
        assert_eq!(c.net(n1).name(), "x_1");
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let mut b = CircuitBuilder::new("t", lib());
        let a = b.add_input("a");
        let x = b.add_gate("INV", "g1", &[a]).unwrap();
        let y = b.add_gate("INV", "g2", &[x]).unwrap();
        let z = b.add_gate("NAND2", "g3", &[x, y]).unwrap();
        b.mark_output(z);
        let c = b.build().unwrap();
        let pos: Vec<usize> = c
            .topo_order()
            .iter()
            .map(|g| c.gate(*g).name().trim_start_matches('g').parse().unwrap())
            .collect();
        let idx = |n: usize| pos.iter().position(|&p| p == n).unwrap();
        assert!(idx(1) < idx(2));
        assert!(idx(2) < idx(3));
    }

    #[test]
    fn mark_output_is_idempotent() {
        let mut b = CircuitBuilder::new("t", lib());
        let a = b.add_input("a");
        let n = b.add_gate("INV", "g", &[a]).unwrap();
        b.mark_output(n);
        b.mark_output(n);
        let c = b.build().unwrap();
        assert_eq!(c.primary_outputs().len(), 1);
    }
}
