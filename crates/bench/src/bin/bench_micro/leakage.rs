//! Leakage: characterizing the leakage LUT at 400 K, for the whole library
//! and for the cells c880 instantiates. `library_ms` and `circuit_ms` time
//! the two public builds on every available core. The `_serial_ms` pair
//! times the same entries as scalar `cell_leakage` calls on the calling
//! thread, and `scoped_speedup` is their ratio: the work a circuit-scoped
//! table skips, which does not depend on the core count. It is ~2, as c880
//! needs NAND4's fifteen 4-deep entries and the library also NOR4's.
//!
//! The `nand4_` pair times NAND4's sixteen vectors on the calling thread,
//! as one `cell_leakage` call each and as one `cell_leakage_many` call,
//! which solves the fifteen blocking stacks [`LANES`] at a time.
//! `lane_speedup` is their ratio, a ratio within one run that holds across
//! machines.

use std::hint::black_box;
use std::thread;

use relia_cells::{CellId, Vector};
use relia_core::Kelvin;
use relia_leakage::solver::LANES;
use relia_leakage::{cell_leakage, cell_leakage_many, DeviceModels, LeakageTable};
use relia_netlist::iscas;

use crate::record::{Gate, Record, Value};
use crate::{ns_per_call, Section};

pub(crate) const SECTION: Section = Section {
    name: "leakage",
    gates: &[
        Gate::Floor("scoped_speedup", 1.5),
        Gate::Floor("lane_speedup", 1.4),
        Gate::Drift("circuit_ms"),
    ],
    measure,
};

fn measure() -> Record {
    let circuit = iscas::circuit("c880").expect("c880 is a builtin");
    let library = circuit.library();
    let models = DeviceModels::ptm90();
    let temp = Kelvin(400.0);

    let library_ns = ns_per_call(1, |_| {
        black_box(LeakageTable::build(library, black_box(&models), temp));
    });
    let circuit_ns = ns_per_call(1, |_| {
        black_box(LeakageTable::for_circuit(
            &circuit,
            black_box(&models),
            temp,
        ));
    });

    let serial_ns = |cells: &[CellId]| {
        ns_per_call(1, |_| {
            for &id in cells {
                let cell = library.cell(id);
                for v in Vector::all(cell.num_pins()) {
                    black_box(cell_leakage(cell, &v.to_bools(), black_box(&models), temp));
                }
            }
        })
    };
    let every_cell: Vec<CellId> = library.iter().map(|(id, _)| id).collect();
    let mut used: Vec<CellId> = circuit.gates().iter().map(|g| g.cell()).collect();
    used.sort_unstable();
    used.dedup();
    let library_serial_ns = serial_ns(&every_cell);
    let circuit_serial_ns = serial_ns(&used);

    let nand4 = library.cell(library.find("NAND4").expect("NAND4 is in the catalog"));
    let vectors: Vec<Vector> = Vector::all(4).collect();
    let nand4_scalar_ns = ns_per_call(1, |_| {
        for v in &vectors {
            black_box(cell_leakage(nand4, &v.to_bools(), black_box(&models), temp));
        }
    });
    let nand4_lanes_ns = ns_per_call(1, |_| {
        black_box(cell_leakage_many(nand4, &vectors, black_box(&models), temp));
    });

    let threads = thread::available_parallelism().map_or(1, |n| n.get());
    Record::new(&[
        ("threads", Value::Count(threads as u64)),
        ("library_ms", Value::Fixed(library_ns / 1e6)),
        ("circuit_ms", Value::Fixed(circuit_ns / 1e6)),
        ("library_serial_ms", Value::Fixed(library_serial_ns / 1e6)),
        ("circuit_serial_ms", Value::Fixed(circuit_serial_ns / 1e6)),
        (
            "scoped_speedup",
            Value::Fixed(library_serial_ns / circuit_serial_ns),
        ),
        ("lanes", Value::Count(LANES as u64)),
        ("nand4_scalar_ms", Value::Fixed(nand4_scalar_ns / 1e6)),
        ("nand4_lanes_ms", Value::Fixed(nand4_lanes_ns / 1e6)),
        (
            "lane_speedup",
            Value::Fixed(nand4_scalar_ns / nand4_lanes_ns),
        ),
    ])
}
