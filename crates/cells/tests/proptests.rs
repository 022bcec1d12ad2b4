//! Property-based tests for cell-library invariants.

use proptest::prelude::*;
use relia_cells::{Library, MosType, Network, Vector};

/// Strategy generating random series/parallel networks over `width` inputs.
fn network(width: usize) -> impl Strategy<Value = Network> {
    let leaf = (0..width).prop_map(Network::Device);
    leaf.prop_recursive(3, 12, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Network::Series),
            prop::collection::vec(inner, 2..4).prop_map(Network::Parallel),
        ]
    })
}

proptest! {
    /// A network and its dual are complementary: on any input, the PMOS view
    /// of the network conducts exactly when the NMOS view of the dual does
    /// not.
    #[test]
    fn dual_networks_are_complementary(net in network(4), bits in 0u32..16) {
        let inputs = Vector::new(bits, 4).to_bools();
        let pu = net.conducts(MosType::Pmos, &inputs);
        let pd = net.dual().conducts(MosType::Nmos, &inputs);
        prop_assert_ne!(pu, pd);
    }

    /// Dual is an involution and preserves device count.
    #[test]
    fn dual_involution(net in network(4)) {
        prop_assert_eq!(net.dual().dual(), net.clone());
        prop_assert_eq!(net.dual().device_count(), net.device_count());
    }

    /// A stressed PMOS always has its gate low, in every catalog cell.
    #[test]
    fn stress_implies_gate_consistency(bits in 0u32..16) {
        let lib = Library::ptm90();
        for (_, cell) in lib.iter() {
            let n = cell.num_pins();
            let v = Vector::new(bits & ((1 << n) - 1), n);
            let flags = cell.stressed_pmos(&v.to_bools());
            prop_assert_eq!(flags.len(), cell.pmos_count());
        }
    }

    /// Stress probabilities are valid probabilities and match deterministic
    /// evaluation at the 0/1 corners.
    #[test]
    fn stress_probabilities_are_probabilities(bits in 0u32..16) {
        let lib = Library::ptm90();
        for (_, cell) in lib.iter() {
            let n = cell.num_pins();
            let v = Vector::new(bits & ((1 << n) - 1), n);
            let corner: Vec<f64> = v.to_bools().iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
            let probs = cell.stress_probabilities(&corner);
            let det = cell.stressed_pmos(&v.to_bools());
            for (p, d) in probs.iter().zip(det.iter()) {
                let expected = if *d { 1.0 } else { 0.0 };
                prop_assert!((p - expected).abs() < 1e-12);
            }
        }
    }

    /// Output probability at probability corners matches logic evaluation.
    #[test]
    fn output_probability_corners(bits in 0u32..16) {
        let lib = Library::ptm90();
        for (_, cell) in lib.iter() {
            let n = cell.num_pins();
            let v = Vector::new(bits & ((1 << n) - 1), n);
            let corner: Vec<f64> = v.to_bools().iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
            let p = cell.output_probability(&corner);
            let expected = if cell.eval(&v.to_bools()) { 1.0 } else { 0.0 };
            prop_assert!((p - expected).abs() < 1e-12);
        }
    }

    /// Vector probability is always in [0, 1] for valid pin probabilities.
    #[test]
    fn vector_probability_bounded(
        bits in 0u32..256,
        probs in prop::collection::vec(0.0f64..=1.0, 8),
    ) {
        let v = Vector::new(bits, 8);
        let p = v.probability(&probs);
        prop_assert!((0.0..=1.0).contains(&p));
    }
}
