//! Standby-state policies: what the circuit's internal nodes do while the
//! circuit is parked.

use relia_netlist::GateId;

/// How the circuit's state is held during standby.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StandbyPolicy {
    /// Input vector control: the primary inputs are frozen at this vector
    /// (index i drives `primary_inputs()[i]`) and the internal nodes follow
    /// combinationally.
    InputVector(Vec<bool>),
    /// Input vector control plus *control points* (Lin et al., the paper's
    /// ref.\[9\]): the circuit parks on `vector`, but the listed gates have
    /// control points inserted on their inputs that drive them to the
    /// stress-free state during standby.
    ControlPoints {
        /// The frozen primary-input vector.
        vector: Vec<bool>,
        /// Gates whose inputs are forced high (stress-free) in standby.
        forced: Vec<GateId>,
    },
    /// Idealized worst case: every gate input is held low, so every PMOS
    /// with a V_dd-connected source is stressed all standby long. Not
    /// realizable by any input vector; used to bound the degradation
    /// (the paper's "all internal nodes 0" assumption).
    AllInternalZero,
    /// Idealized best case: every gate input is held high — the
    /// internal-node-control target ("all PMOS driven by '1'").
    AllInternalOne,
    /// Power gating with an NMOS footer (or footer+header): the virtual
    /// rail collapses, internal nodes float up toward V_dd, and no PMOS is
    /// negatively biased during standby.
    PowerGatedFooter,
    /// Alternating input vector control (Abella et al., the paper's
    /// ref.\[23\]): each standby period parks the circuit on the next of
    /// these vectors in turn, so each gets an equal share of standby. A
    /// PMOS stressed by k of the n vectors has standby stress probability
    /// k/n, and the standby leakage is the mean over the vectors.
    Rotation(Vec<Vec<bool>>),
}

impl StandbyPolicy {
    /// Whether the policy corresponds to a physically applicable control
    /// (vs. an idealized bound).
    pub fn is_realizable(&self) -> bool {
        matches!(
            self,
            StandbyPolicy::InputVector(_)
                | StandbyPolicy::ControlPoints { .. }
                | StandbyPolicy::PowerGatedFooter
                | StandbyPolicy::Rotation(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realizability() {
        assert!(StandbyPolicy::InputVector(vec![true]).is_realizable());
        assert!(StandbyPolicy::ControlPoints {
            vector: vec![true],
            forced: vec![],
        }
        .is_realizable());
        assert!(StandbyPolicy::PowerGatedFooter.is_realizable());
        assert!(StandbyPolicy::Rotation(vec![vec![true]]).is_realizable());
        assert!(!StandbyPolicy::AllInternalZero.is_realizable());
        assert!(!StandbyPolicy::AllInternalOne.is_realizable());
    }
}
