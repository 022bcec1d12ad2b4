//! Per-cell, per-input-vector leakage: [`cell_leakage`] for one vector,
//! [`cell_leakage_many`] for many vectors of one cell, whose stack solves
//! it steps in lanes.

use relia_cells::{Cell, MosType, Stage, Vector};
use relia_core::units::Kelvin;

use crate::models::DeviceModels;
use crate::solver::{network_current, network_currents, NetworkState};

/// Subthreshold and gate-leakage components of one evaluation, in amperes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LeakageBreakdown {
    /// Subthreshold current through non-conducting networks.
    pub subthreshold: f64,
    /// Gate tunneling of conducting devices.
    pub gate: f64,
}

impl LeakageBreakdown {
    /// Total leakage current.
    pub fn total(&self) -> f64 {
        self.subthreshold + self.gate
    }
}

impl std::ops::Add for LeakageBreakdown {
    type Output = LeakageBreakdown;

    fn add(self, rhs: LeakageBreakdown) -> LeakageBreakdown {
        LeakageBreakdown {
            subthreshold: self.subthreshold + rhs.subthreshold,
            gate: self.gate + rhs.gate,
        }
    }
}

/// Leakage of `cell` under the static input vector `pins` at `temp`.
///
/// Every stage contributes: the stage's non-conducting network leaks
/// subthreshold current (stack effect resolved by the network solver), and
/// each conducting device contributes gate tunneling.
///
/// # Panics
///
/// Panics when `pins` has the wrong width.
///
/// ```
/// use relia_cells::Library;
/// use relia_core::Kelvin;
/// use relia_leakage::{cell_leakage, DeviceModels};
///
/// let lib = Library::ptm90();
/// let nor2 = lib.cell(lib.find("NOR2").expect("in catalog"));
/// let m = DeviceModels::ptm90();
/// let hot = cell_leakage(nor2, &[false, false], &m, Kelvin(400.0));
/// let stacked = cell_leakage(nor2, &[true, true], &m, Kelvin(400.0));
/// // (1,1) turns the PMOS stack off: far lower leakage than (0,0).
/// assert!(stacked.total() < hot.total());
/// ```
pub fn cell_leakage(
    cell: &Cell,
    pins: &[bool],
    models: &DeviceModels,
    temp: Kelvin,
) -> LeakageBreakdown {
    assert_eq!(
        pins.len(),
        cell.num_pins(),
        "cell {}: bad input width",
        cell.name()
    );
    let mut total = LeakageBreakdown::default();
    let mut stage_outs: Vec<bool> = Vec::with_capacity(cell.stages().len());
    for stage in cell.stages() {
        let stage_inputs = stage.resolve_inputs(pins, &stage_outs);
        let out = stage.eval(&stage_inputs);
        stage_outs.push(out);

        // Subthreshold through whichever network is off. In normalized
        // coordinates both networks see v_hi = V_dd across them.
        let width_scale = cell.drive_strength();
        if out {
            // Output high: the NMOS pull-down blocks and leaks.
            let pd = stage.pull_down();
            let state = NetworkState {
                mos: MosType::Nmos,
                inputs: &stage_inputs,
                temp,
                width_scale,
            };
            total.subthreshold += network_current(&pd, &state, models, models.vdd, 0.0);
        } else {
            // Output low: the PMOS pull-up blocks and leaks (mirrored frame).
            let state = NetworkState {
                mos: MosType::Pmos,
                inputs: &stage_inputs,
                temp,
                width_scale,
            };
            total.subthreshold += network_current(stage.pull_up(), &state, models, models.vdd, 0.0);
        }

        // Gate tunneling of conducting devices in both networks.
        for &pin in stage.pull_up().device_pins().iter() {
            if MosType::Pmos.conducts(stage_inputs[pin]) {
                total.gate +=
                    models.gate_leak(MosType::Pmos, MosType::Pmos.default_width() * width_scale);
            } else {
                total.gate +=
                    models.gate_leak(MosType::Nmos, MosType::Nmos.default_width() * width_scale);
            }
        }
    }
    total
}

/// [`cell_leakage`] of `cell` under each of `vectors`, in order, every
/// entry bit-equal to the scalar call.
///
/// Stage by stage, the vectors whose stage blocks through the same network
/// (the NMOS pull-down for a high output, the PMOS pull-up for a low one)
/// are solved together, up to
/// [`LANES`](crate::solver::LANES) in lockstep: NAND4's fifteen blocking
/// 4-deep stacks take two lane-parallel solves instead of fifteen scalar
/// ones. A vector alone on its side takes the scalar solver.
///
/// # Panics
///
/// Panics when a vector has the wrong width.
///
/// ```
/// use relia_cells::{Library, Vector};
/// use relia_core::Kelvin;
/// use relia_leakage::{cell_leakage, cell_leakage_many, DeviceModels};
///
/// let lib = Library::ptm90();
/// let nand4 = lib.cell(lib.find("NAND4").expect("in catalog"));
/// let m = DeviceModels::ptm90();
/// let vectors: Vec<Vector> = Vector::all(4).collect();
/// let many = cell_leakage_many(nand4, &vectors, &m, Kelvin(400.0));
/// for (v, got) in vectors.iter().zip(&many) {
///     assert_eq!(*got, cell_leakage(nand4, &v.to_bools(), &m, Kelvin(400.0)));
/// }
/// ```
pub fn cell_leakage_many(
    cell: &Cell,
    vectors: &[Vector],
    models: &DeviceModels,
    temp: Kelvin,
) -> Vec<LeakageBreakdown> {
    for v in vectors {
        assert_eq!(
            v.width(),
            cell.num_pins(),
            "cell {}: bad input width",
            cell.name()
        );
    }
    let pins: Vec<Vec<bool>> = vectors.iter().map(Vector::to_bools).collect();
    let width_scale = cell.drive_strength();
    let mut totals = vec![LeakageBreakdown::default(); vectors.len()];
    let mut stage_outs: Vec<Vec<bool>> = vec![Vec::with_capacity(cell.stages().len()); pins.len()];
    for stage in cell.stages() {
        let inputs: Vec<Vec<bool>> = pins
            .iter()
            .zip(&stage_outs)
            .map(|(levels, outs)| stage.resolve_inputs(levels, outs))
            .collect();
        let high: Vec<bool> = inputs.iter().map(|inputs| stage.eval(inputs)).collect();
        for (outs, &out) in stage_outs.iter_mut().zip(&high) {
            outs.push(out);
        }

        // Subthreshold, as in `cell_leakage`: a high output blocks the
        // NMOS pull-down, a low one the PMOS pull-up (mirrored frame).
        let pull_down = stage.pull_down();
        for (mos, network, out) in [
            (MosType::Nmos, &pull_down, true),
            (MosType::Pmos, stage.pull_up(), false),
        ] {
            let lanes: Vec<usize> = (0..pins.len()).filter(|&i| high[i] == out).collect();
            let lane_inputs: Vec<&[bool]> = lanes.iter().map(|&i| &inputs[i][..]).collect();
            let currents = network_currents(network, mos, &lane_inputs, models, temp, width_scale);
            for (&i, current) in lanes.iter().zip(currents) {
                totals[i].subthreshold += current;
            }
        }

        for (total, inputs) in totals.iter_mut().zip(&inputs) {
            add_gate_tunneling(&mut total.gate, stage, inputs, models, width_scale);
        }
    }
    totals
}

/// Adds the gate tunneling of `stage`'s conducting devices to `gate`,
/// device by device as `cell_leakage` adds them.
fn add_gate_tunneling(
    gate: &mut f64,
    stage: &Stage,
    inputs: &[bool],
    models: &DeviceModels,
    width_scale: f64,
) {
    for &pin in stage.pull_up().device_pins().iter() {
        if MosType::Pmos.conducts(inputs[pin]) {
            *gate += models.gate_leak(MosType::Pmos, MosType::Pmos.default_width() * width_scale);
        } else {
            *gate += models.gate_leak(MosType::Nmos, MosType::Nmos.default_width() * width_scale);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relia_cells::{Library, Vector};

    const T400: Kelvin = Kelvin(400.0);

    fn lib() -> Library {
        Library::ptm90()
    }

    fn leak(name: &str, pins: &[bool]) -> f64 {
        let l = lib();
        let cell = l.cell(l.find(name).unwrap());
        cell_leakage(cell, pins, &DeviceModels::ptm90(), T400).total()
    }

    #[test]
    fn inv_min_leakage_is_input_low() {
        // The paper's INV finding: the minimum-leakage input is 0, which is
        // exactly the input that stresses the PMOS (worst NBTI).
        assert!(leak("INV", &[false]) < leak("INV", &[true]));
    }

    #[test]
    fn nand2_min_leakage_is_00() {
        let mut best = (f64::MAX, 0u32);
        for v in Vector::all(2) {
            let i = leak("NAND2", &v.to_bools());
            if i < best.0 {
                best = (i, v.bits());
            }
        }
        assert_eq!(best.1, 0b00, "NAND2 MLV should be (0,0)");
    }

    #[test]
    fn nor2_min_leakage_is_11() {
        let mut best = (f64::MAX, 0u32);
        for v in Vector::all(2) {
            let i = leak("NOR2", &v.to_bools());
            if i < best.0 {
                best = (i, v.bits());
            }
        }
        assert_eq!(best.1, 0b11, "NOR2 MLV should be (1,1)");
    }

    #[test]
    fn nor2_max_leakage_is_00() {
        let mut worst = (0.0f64, 0u32);
        for v in Vector::all(2) {
            let i = leak("NOR2", &v.to_bools());
            if i > worst.0 {
                worst = (i, v.bits());
            }
        }
        assert_eq!(worst.1, 0b00, "NOR2 worst vector should be (0,0)");
    }

    #[test]
    fn leakage_is_positive_for_every_cell_and_vector() {
        let l = lib();
        let m = DeviceModels::ptm90();
        for (_, cell) in l.iter() {
            for v in Vector::all(cell.num_pins()) {
                let b = cell_leakage(cell, &v.to_bools(), &m, T400);
                assert!(b.subthreshold > 0.0, "{} {v}", cell.name());
                assert!(b.gate > 0.0, "{} {v}", cell.name());
                assert!(b.total().is_finite());
            }
        }
    }

    #[test]
    fn leakage_rises_with_temperature() {
        let l = lib();
        let m = DeviceModels::ptm90();
        let cell = l.cell(l.find("NAND3").unwrap());
        let cold = cell_leakage(cell, &[true, true, false], &m, Kelvin(330.0));
        let hot = cell_leakage(cell, &[true, true, false], &m, Kelvin(400.0));
        assert!(hot.total() > 2.0 * cold.total());
    }

    #[test]
    fn breakdown_adds() {
        let a = LeakageBreakdown {
            subthreshold: 1.0,
            gate: 2.0,
        };
        let b = LeakageBreakdown {
            subthreshold: 0.5,
            gate: 0.25,
        };
        let c = a + b;
        assert_eq!(c.total(), 3.75);
    }

    #[test]
    fn multi_stage_cell_sums_stages() {
        // AND2 leaks at least as much as its NAND2 front stage alone.
        let and2 = leak("AND2", &[true, true]);
        let nand2 = leak("NAND2", &[true, true]);
        assert!(and2 > nand2);
    }
}

#[cfg(test)]
mod drive_leak_tests {
    use super::*;
    use relia_cells::Library;

    #[test]
    fn x2_leaks_twice_as_much() {
        let l = Library::ptm90();
        let m = DeviceModels::ptm90();
        let base = l.cell(l.find("NAND2").unwrap());
        let strong = l.cell(l.find("NAND2_X2").unwrap());
        for bits in 0..4u32 {
            let pins = [bits & 1 == 1, bits >> 1 & 1 == 1];
            let a = cell_leakage(base, &pins, &m, Kelvin(400.0)).total();
            let b = cell_leakage(strong, &pins, &m, Kelvin(400.0)).total();
            assert!((b / a - 2.0).abs() < 0.05, "bits {bits}: ratio {}", b / a);
        }
    }
}
