//! Property-based tests for leakage invariants.

use proptest::prelude::*;
use relia_cells::{Library, MosType, Network, Vector};
use relia_core::Kelvin;
use relia_leakage::models::DeviceModels;
use relia_leakage::solver::{network_current, NetworkState};
use relia_leakage::{cell_leakage, LeakageTable};
use std::sync::OnceLock;

fn shared_table() -> &'static (Library, LeakageTable) {
    static TABLE: OnceLock<(Library, LeakageTable)> = OnceLock::new();
    TABLE.get_or_init(|| {
        let lib = Library::ptm90();
        let table = LeakageTable::build(&lib, &DeviceModels::ptm90(), Kelvin(400.0));
        (lib, table)
    })
}

proptest! {
    /// Cell leakage is positive and finite for every cell, vector, and
    /// temperature in the operating range.
    #[test]
    fn leakage_positive_finite(bits in 0u32..16, temp in 300.0f64..420.0) {
        let lib = Library::ptm90();
        let m = DeviceModels::ptm90();
        for (_, cell) in lib.iter() {
            let n = cell.num_pins();
            let v = Vector::new(bits & ((1 << n) - 1), n);
            let b = cell_leakage(cell, &v.to_bools(), &m, Kelvin(temp));
            prop_assert!(b.total() > 0.0 && b.total().is_finite(), "{} {v}", cell.name());
        }
    }

    /// Leakage is monotone in temperature for every cell and vector.
    #[test]
    fn leakage_monotone_in_temperature(bits in 0u32..16, temp in 300.0f64..410.0) {
        let lib = Library::ptm90();
        let m = DeviceModels::ptm90();
        for (_, cell) in lib.iter() {
            let n = cell.num_pins();
            let v = Vector::new(bits & ((1 << n) - 1), n);
            let cold = cell_leakage(cell, &v.to_bools(), &m, Kelvin(temp)).total();
            let hot = cell_leakage(cell, &v.to_bools(), &m, Kelvin(temp + 10.0)).total();
            prop_assert!(hot > cold, "{} {v}: {hot} <= {cold}", cell.name());
        }
    }

    /// The network solver's current is monotone in the applied voltage.
    #[test]
    fn solver_monotone_in_voltage(v1 in 0.05f64..0.95) {
        let m = DeviceModels::ptm90();
        let inputs = [false, false, false];
        let state = NetworkState { mos: MosType::Nmos, inputs: &inputs, temp: Kelvin(350.0), width_scale: 1.0 };
        let chain = Network::series_chain(3);
        let lo = network_current(&chain, &state, &m, v1, 0.0);
        let hi = network_current(&chain, &state, &m, v1 + 0.05, 0.0);
        prop_assert!(hi > lo);
    }

    /// The lookup table agrees with direct evaluation.
    #[test]
    fn table_is_faithful(bits in 0u32..16) {
        let (lib, table) = shared_table();
        let m = DeviceModels::ptm90();
        for (id, cell) in lib.iter() {
            let n = cell.num_pins();
            let v = Vector::new(bits & ((1 << n) - 1), n);
            let direct = cell_leakage(cell, &v.to_bools(), &m, Kelvin(400.0)).total();
            prop_assert!((table.of(id, v).total() - direct).abs() < 1e-18);
        }
    }

    /// Expected leakage under probabilities is bounded by the vector
    /// extremes.
    #[test]
    fn expectation_is_bounded(p in prop::collection::vec(0.0f64..=1.0, 3)) {
        let (lib, table) = shared_table();
        let id = lib.find("NOR3").expect("in catalog");
        let e = table.expected(id, &p);
        let values: Vec<f64> = Vector::all(3).map(|v| table.of(id, v).total()).collect();
        let lo = values.iter().cloned().fold(f64::MAX, f64::min);
        let hi = values.iter().cloned().fold(0.0, f64::max);
        prop_assert!(e >= lo - 1e-18 && e <= hi + 1e-18);
    }
}
