//! The lane-parallel `cell_leakage_many` against the scalar `cell_leakage`,
//! bit for bit, over perturbed device models, temperatures, every catalog
//! cell (drive-strength variants included), random one-stage cells and
//! random vector lists.

#![allow(clippy::unwrap_used)]
use proptest::prelude::*;
use relia_cells::{Cell, CellTiming, Library, Network, Source, Stage, Vector};
use relia_core::Kelvin;
use relia_leakage::{cell_leakage, cell_leakage_many, DeviceModels};

/// Every field of the 90 nm calibration drawn from a physical range
/// around it.
fn device_models() -> impl Strategy<Value = DeviceModels> {
    prop::collection::vec(0.0f64..1.0, 11).prop_map(|u| {
        let draw = |i: usize, lo: f64, hi: f64| lo + u[i] * (hi - lo);
        DeviceModels {
            vdd: draw(0, 0.8, 1.2),
            vth_n: draw(1, 0.15, 0.35),
            vth_p: draw(2, 0.15, 0.35),
            vth_temp_coeff: draw(3, 0.3e-3, 1.2e-3),
            i0_n: draw(4, 0.1e-6, 1.0e-6),
            i0_p: draw(5, 0.1e-6, 1.0e-6),
            swing_n: draw(6, 1.2, 1.8),
            dibl: draw(7, 0.05, 0.15),
            gate_leak_n: draw(8, 1.0e-9, 2.0e-8),
            gate_leak_p: draw(9, 0.5e-9, 5.0e-9),
            g_on: draw(10, 5.0e-3, 2.0e-2),
        }
    })
}

/// One-stage, three-pin cells whose pull-up is a series or parallel
/// network of two or three children, each a device or a series or
/// parallel pair. Unlike the catalog's, their blocking parallel networks
/// add three unequal currents, so the order of the sum shows in the bits;
/// pairs keep the deepest solve to two nested bisections.
fn random_cell() -> impl Strategy<Value = Cell> {
    let device = || (0..3usize).prop_map(Network::Device);
    let pair = || prop::collection::vec(device(), 2);
    let child = prop_oneof![
        device(),
        pair().prop_map(Network::Series),
        pair().prop_map(Network::Parallel),
    ];
    (prop::collection::vec(child, 2..=3), any::<bool>()).prop_map(|(children, series)| {
        let pull_up = if series {
            Network::Series(children)
        } else {
            Network::Parallel(children)
        };
        let timing = CellTiming {
            intrinsic_ps: 10.0,
            per_load_ps: 5.0,
            input_cap: 1.0,
        };
        let pins = (0..3).map(Source::Pin).collect();
        Cell::new("RANDOM", 3, vec![Stage::new(pull_up, pins)], timing).unwrap()
    })
}

/// `cell_leakage_many` of `cell` under `vectors`, checked entry by entry
/// against `cell_leakage`.
fn check(cell: &Cell, vectors: &[Vector], models: &DeviceModels, temp: f64) -> Result<(), String> {
    let many = cell_leakage_many(cell, vectors, models, Kelvin(temp));
    prop_assert_eq!(many.len(), vectors.len());
    for (v, got) in vectors.iter().zip(&many) {
        let want = cell_leakage(cell, &v.to_bools(), models, Kelvin(temp));
        prop_assert!(
            got.subthreshold.to_bits() == want.subthreshold.to_bits()
                && got.gate.to_bits() == want.gate.to_bits(),
            "{} {v} at {temp} K: lanes {got:?}, scalar {want:?}",
            cell.name()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Each cell gets its own list of vectors, in random order with
    /// repeats: lists of 1 to 20 make lane groups of every size from 1 to
    /// 8, mix pull-up and pull-down blockers within a list, leave idle
    /// lanes in a short group and need three groups for one side.
    #[test]
    fn lanes_equal_the_scalar_solver_bit_for_bit(
        models in device_models(),
        temp in 250.0f64..450.0,
        draws in prop::collection::vec(prop::collection::vec(any::<u32>(), 1..=20), 22),
    ) {
        let lib = Library::ptm90();
        prop_assert_eq!(lib.len(), draws.len());
        for ((_, cell), draw) in lib.iter().zip(&draws) {
            let n = cell.num_pins();
            let vectors: Vec<Vector> = draw.iter().map(|&bits| Vector::new(bits % (1 << n), n)).collect();
            check(cell, &vectors, &models, temp)?;
        }
    }

    /// Random networks, every vector of the cell in random order.
    #[test]
    fn lanes_equal_the_scalar_solver_on_random_networks(
        cell in random_cell(),
        models in device_models(),
        temp in 250.0f64..450.0,
        order in prop::collection::vec(any::<u32>(), 8),
    ) {
        let mut vectors: Vec<Vector> = Vector::all(3).collect();
        for (i, &r) in order.iter().enumerate() {
            vectors.swap(i, r as usize % 8);
        }
        check(&cell, &vectors, &models, temp)?;
    }
}
