//! The per-cell, per-vector leakage lookup table (the paper's Fig. 6
//! "leakage LUT", built by characterizing every cell under every input
//! pattern).
//!
//! Characterization dominates preparing a circuit: a cell whose blocking
//! network is an `n`-deep series stack bisects each internal node, so one
//! NAND4 or NOR4 vector costs ~140k device evaluations, each step waiting
//! on the one before. Every (cell, vector) entry is independent. A table
//! hands the machine's cores groups of up to [`LANES`] vectors of one cell,
//! at least one group per core, and each group solves its blocking stacks
//! in lockstep lanes ([`cell_leakage_many`]), so NAND4's fifteen 4-deep
//! stacks take two lane-parallel solves, one per core on two cores.
//! [`LeakageTable::for_circuit`] characterizes only the cells a netlist
//! instantiates.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use relia_cells::{CellId, Library, Vector};
use relia_core::units::Kelvin;
use relia_netlist::Circuit;

use crate::cell::{cell_leakage_many, LeakageBreakdown};
use crate::models::DeviceModels;
use crate::solver::LANES;

/// A leakage lookup table for one library at one temperature.
#[derive(Debug, Clone)]
pub struct LeakageTable {
    temp: Kelvin,
    /// `entries[cell][vector_bits]`, empty for a cell the table did not
    /// characterize.
    entries: Vec<Vec<LeakageBreakdown>>,
}

impl LeakageTable {
    /// Characterizes every cell of `library` under all input patterns at
    /// `temp`, on every available core.
    ///
    /// ```
    /// use relia_cells::{Library, Vector};
    /// use relia_core::Kelvin;
    /// use relia_leakage::{DeviceModels, LeakageTable};
    ///
    /// let lib = Library::ptm90();
    /// let t = LeakageTable::build(&lib, &DeviceModels::ptm90(), Kelvin(400.0));
    /// let inv = lib.find("INV").expect("in catalog");
    /// assert!(t.of(inv, Vector::zeros(1)).total() > 0.0);
    /// ```
    pub fn build(library: &Library, models: &DeviceModels, temp: Kelvin) -> Self {
        let cells: Vec<CellId> = library.iter().map(|(id, _)| id).collect();
        Self::characterize(library, &cells, models, temp, available_threads())
    }

    /// Characterizes, under all input patterns at `temp`, only the cells
    /// that `circuit`'s gates instantiate. Their entries are bit-equal to
    /// [`LeakageTable::build`]'s; a lookup of any other cell panics.
    ///
    /// ```
    /// use relia_cells::Vector;
    /// use relia_core::Kelvin;
    /// use relia_leakage::{DeviceModels, LeakageTable};
    /// use relia_netlist::iscas;
    ///
    /// let c17 = iscas::c17(); // six NAND2 gates
    /// let t = LeakageTable::for_circuit(&c17, &DeviceModels::ptm90(), Kelvin(400.0));
    /// let nand2 = c17.library().find("NAND2").expect("in catalog");
    /// assert!(t.of(nand2, Vector::ones(2)).total() > 0.0);
    /// ```
    pub fn for_circuit(circuit: &Circuit, models: &DeviceModels, temp: Kelvin) -> Self {
        let library = circuit.library();
        let mut used = vec![false; library.len()];
        for gate in circuit.gates() {
            used[gate.cell().index()] = true;
        }
        let cells: Vec<CellId> = library
            .iter()
            .map(|(id, _)| id)
            .filter(|id| used[id.index()])
            .collect();
        Self::characterize(library, &cells, models, temp, available_threads())
    }

    /// Characterizes `cells` on up to `threads` threads, the calling
    /// thread among them. Workers claim (cell, up to [`LANES`] vectors)
    /// groups in order from a shared cursor, and each group is one
    /// [`cell_leakage_many`] call whose entries are bit-equal to
    /// [`cell_leakage`](crate::cell_leakage)'s, each written to its own
    /// slot, so the table is bit-identical whatever the thread count.
    fn characterize(
        library: &Library,
        cells: &[CellId],
        models: &DeviceModels,
        temp: Kelvin,
        threads: usize,
    ) -> Self {
        // A cell gets at least one group per thread, so every core takes a
        // share of NAND4's stacks, and its vectors are dealt round-robin:
        // on two cores NAND4's groups split on pin 0, its stack's outermost
        // device. Split in halves, vectors 0–7 would all hold pin 3, the
        // innermost and most often evaluated device, off, and take twice as
        // long as 8–15.
        let groups: Vec<(CellId, Vec<Vector>)> = cells
            .iter()
            .flat_map(|&id| {
                let vectors: Vec<Vector> = Vector::all(library.cell(id).num_pins()).collect();
                let count = vectors
                    .len()
                    .div_ceil(LANES)
                    .max(threads)
                    .min(vectors.len());
                let deal = |g: usize| vectors.iter().skip(g).step_by(count).copied().collect();
                (0..count).map(|g| (id, deal(g))).collect::<Vec<_>>()
            })
            .collect();
        let threads = threads.min(groups.len()).max(1);

        // The cursor only hands out group indices; the values travel back
        // through `join`, which orders them, so `Relaxed` suffices.
        let cursor = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            while let Some((id, vectors)) = groups.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                let values = cell_leakage_many(library.cell(*id), vectors, models, temp);
                done.extend(
                    vectors
                        .iter()
                        .zip(values)
                        .map(|(&v, value)| (*id, v, value)),
                );
            }
            done
        };
        let done = thread::scope(|scope| {
            // A helper the OS refuses to start is skipped: the calling
            // thread drains whatever the others leave.
            let helpers: Vec<_> = (1..threads)
                .filter_map(|_| thread::Builder::new().spawn_scoped(scope, work).ok())
                .collect();
            let mut done = work();
            for helper in helpers {
                match helper.join() {
                    Ok(part) => done.extend(part),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            done
        });

        let mut entries = vec![Vec::new(); library.len()];
        for &id in cells {
            entries[id.index()] =
                vec![LeakageBreakdown::default(); 1 << library.cell(id).num_pins()];
        }
        for (id, vector, value) in done {
            entries[id.index()][vector.bits() as usize] = value;
        }
        LeakageTable { temp, entries }
    }

    /// The characterization temperature.
    pub fn temp(&self) -> Kelvin {
        self.temp
    }

    /// The characterized row of `cell`, indexed by vector bits.
    ///
    /// # Panics
    ///
    /// Panics when the table did not characterize `cell`, or when `width`
    /// is not the cell's pin count.
    fn row(&self, cell: CellId, width: usize) -> &[LeakageBreakdown] {
        let row = self
            .entries
            .get(cell.index())
            .map_or(&[][..], Vec::as_slice);
        assert!(
            !row.is_empty(),
            "leakage table: cell {} was not characterized (a circuit-scoped table \
             covers only its circuit's cells)",
            cell.index()
        );
        // A cell's row holds one entry per vector, 2^pins of them.
        let pins = row.len().trailing_zeros() as usize;
        assert_eq!(
            width,
            pins,
            "leakage table: cell {} has {pins} pins, looked up with a {width}-wide vector",
            cell.index()
        );
        row
    }

    /// Leakage of `cell` under `vector`.
    ///
    /// # Panics
    ///
    /// Panics when the table did not characterize `cell`, or when the
    /// vector width does not match the cell.
    pub fn of(&self, cell: CellId, vector: Vector) -> LeakageBreakdown {
        self.row(cell, vector.width())[vector.bits() as usize]
    }

    /// Expected leakage of `cell` under independent per-pin probabilities of
    /// being high (eq. 24: `Σ_IN I(IN)·P(IN)`).
    ///
    /// # Panics
    ///
    /// Panics when the table did not characterize `cell`, or when
    /// `pin_probs` has the wrong width.
    pub fn expected(&self, cell: CellId, pin_probs: &[f64]) -> f64 {
        let width = pin_probs.len();
        let row = self.row(cell, width);
        Vector::all(width)
            .map(|v| row[v.bits() as usize].total() * v.probability(pin_probs))
            .sum()
    }

    /// The minimum-leakage vector of `cell` and its leakage.
    ///
    /// # Panics
    ///
    /// Panics when the table did not characterize `cell`, or when `width`
    /// is not the cell's pin count.
    pub fn min_vector(&self, cell: CellId, width: usize) -> (Vector, f64) {
        let row = self.row(cell, width);
        #[expect(clippy::expect_used, reason = "Vector::all is never empty")]
        Vector::all(width)
            .map(|v| (v, row[v.bits() as usize].total()))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one vector")
    }
}

/// Characterization threads: every core the process may use.
fn available_threads() -> usize {
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::cell_leakage;
    use relia_cells::Library;
    use relia_core::seal::Fnv1a;
    use relia_netlist::iscas;

    fn table() -> (Library, LeakageTable) {
        let lib = Library::ptm90();
        let t = LeakageTable::build(&lib, &DeviceModels::ptm90(), Kelvin(400.0));
        (lib, t)
    }

    /// FNV-1a over the subthreshold and gate bits of every entry, cells in
    /// library order and vectors in ascending bits.
    fn fingerprint(lib: &Library, t: &LeakageTable) -> u64 {
        let mut h = Fnv1a::default();
        for (id, cell) in lib.iter() {
            for v in Vector::all(cell.num_pins()) {
                let b = t.of(id, v);
                h.f64(b.subthreshold);
                h.f64(b.gate);
            }
        }
        h.finish()
    }

    #[test]
    fn table_matches_direct_evaluation() {
        let (lib, t) = table();
        let id = lib.find("NOR3").unwrap();
        let cell = lib.cell(id);
        for v in Vector::all(3) {
            let direct = cell_leakage(cell, &v.to_bools(), &DeviceModels::ptm90(), Kelvin(400.0));
            assert_eq!(t.of(id, v), direct);
        }
    }

    #[test]
    fn whole_library_build_is_bit_identical_to_the_serial_characterization() {
        // Captured from the serial, one-cell-at-a-time build before the
        // table was parallelized. Update only with a model change.
        let lib = Library::ptm90();
        for (temp, pinned) in [
            (330.0, 0x8662_0d1a_000e_a772),
            (400.0, 0xa9b4_2c75_35b6_01d1),
        ] {
            let t = LeakageTable::build(&lib, &DeviceModels::ptm90(), Kelvin(temp));
            assert_eq!(fingerprint(&lib, &t), pinned, "{temp} K");
        }
    }

    #[test]
    fn every_thread_count_characterizes_the_same_bits() {
        let lib = Library::ptm90();
        let cells: Vec<CellId> = lib.iter().map(|(id, _)| id).collect();
        let characterize = |threads| {
            LeakageTable::characterize(&lib, &cells, &DeviceModels::ptm90(), Kelvin(400.0), threads)
        };
        let serial = fingerprint(&lib, &characterize(1));
        for threads in [2, 3, 8] {
            assert_eq!(
                fingerprint(&lib, &characterize(threads)),
                serial,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn circuit_tables_equal_library_rows_and_skip_unused_cells() {
        let m = DeviceModels::ptm90();
        let temp = Kelvin(400.0);
        let (lib, full) = table();
        for name in iscas::names() {
            let c = iscas::circuit(name).unwrap();
            let scoped = LeakageTable::for_circuit(&c, &m, temp);
            assert_eq!(scoped.temp(), temp);
            let mut used = vec![false; lib.len()];
            for gate in c.gates() {
                used[gate.cell().index()] = true;
            }
            for (id, cell) in lib.iter() {
                let width = cell.num_pins();
                if used[id.index()] {
                    let rows = Vector::all(width).map(|v| (scoped.of(id, v), full.of(id, v)));
                    for (got, want) in rows {
                        assert_eq!(got.subthreshold.to_bits(), want.subthreshold.to_bits());
                        assert_eq!(got.gate.to_bits(), want.gate.to_bits());
                    }
                } else {
                    let lookup = std::panic::catch_unwind(|| scoped.of(id, Vector::zeros(width)));
                    assert!(lookup.is_err(), "{name}: {} was characterized", cell.name());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "looked up with a 2-wide vector")]
    fn of_refuses_a_vector_of_the_wrong_width() {
        let (lib, t) = table();
        t.of(lib.find("NAND3").unwrap(), Vector::new(0b10, 2));
    }

    #[test]
    #[should_panic(expected = "looked up with a 2-wide vector")]
    fn expected_refuses_probabilities_of_the_wrong_width() {
        let (lib, t) = table();
        t.expected(lib.find("NAND3").unwrap(), &[0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "looked up with a 2-wide vector")]
    fn min_vector_refuses_a_width_that_is_not_the_cells() {
        let (lib, t) = table();
        t.min_vector(lib.find("NAND3").unwrap(), 2);
    }

    #[test]
    #[should_panic(expected = "was not characterized")]
    fn circuit_table_refuses_a_cell_its_circuit_does_not_use() {
        let c17 = iscas::c17();
        let t = LeakageTable::for_circuit(&c17, &DeviceModels::ptm90(), Kelvin(400.0));
        t.of(c17.library().find("NOR4").unwrap(), Vector::zeros(4));
    }

    #[test]
    fn expected_interpolates_corners() {
        let (lib, t) = table();
        let id = lib.find("NAND2").unwrap();
        // At deterministic corners the expectation equals the table entry.
        for v in Vector::all(2) {
            let corner: Vec<f64> = v
                .to_bools()
                .iter()
                .map(|&b| if b { 1.0 } else { 0.0 })
                .collect();
            assert!((t.expected(id, &corner) - t.of(id, v).total()).abs() < 1e-18);
        }
        // And the uniform expectation is the plain average.
        let avg: f64 = Vector::all(2).map(|v| t.of(id, v).total()).sum::<f64>() / 4.0;
        assert!((t.expected(id, &[0.5, 0.5]) - avg).abs() < 1e-18);
    }

    #[test]
    fn min_vector_agrees_with_scan() {
        let (lib, t) = table();
        let id = lib.find("NAND3").unwrap();
        let (v, i) = t.min_vector(id, 3);
        assert_eq!(v.bits(), 0b000);
        for w in Vector::all(3) {
            assert!(t.of(id, w).total() >= i);
        }
    }
}
