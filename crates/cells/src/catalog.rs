//! The built-in 90 nm-class cell catalog.
//!
//! Gate-level topologies are exact (series/parallel transistor networks and
//! their duals); timing parameters are representative of a 90 nm library at
//! `V_dd = 1.0 V` — only their relative magnitudes matter to the reproduced
//! experiments.

use crate::cell::Cell;
use crate::network::Network;
use crate::stage::{Source, Stage};
use crate::timing::CellTiming;

fn timing(intrinsic_ps: f64, per_load_ps: f64, input_cap: f64) -> CellTiming {
    CellTiming {
        intrinsic_ps,
        per_load_ps,
        input_cap,
    }
}

fn pins(n: usize) -> Vec<Source> {
    (0..n).map(Source::Pin).collect()
}

fn single_stage(name: &str, pull_up: Network, n: usize, t: CellTiming) -> Cell {
    #[expect(clippy::expect_used, reason = "catalog cells are structurally valid")]
    Cell::new(name, n, vec![Stage::new(pull_up, pins(n))], t)
        .expect("catalog cells are structurally valid")
}

/// NAND-like cell followed by an output inverter.
fn with_inverter(name: &str, pull_up: Network, n: usize, t: CellTiming) -> Cell {
    #[expect(clippy::expect_used, reason = "catalog cells are structurally valid")]
    Cell::new(
        name,
        n,
        vec![
            Stage::new(pull_up, pins(n)),
            Stage::new(Network::Device(0), vec![Source::Stage(0)]),
        ],
        t,
    )
    .expect("catalog cells are structurally valid")
}

/// Builds the full built-in catalog.
pub fn builtin_cells() -> Vec<Cell> {
    let mut cells = vec![single_stage(
        "INV",
        Network::Device(0),
        1,
        timing(8.0, 4.0, 1.0),
    )];
    cells.push(with_inverter(
        "BUF",
        Network::Device(0),
        1,
        timing(16.0, 3.5, 1.0),
    ));

    // NAND: parallel PMOS pull-up / series NMOS pull-down.
    cells.push(single_stage(
        "NAND2",
        Network::parallel_bank(2),
        2,
        timing(12.0, 5.0, 1.2),
    ));
    cells.push(single_stage(
        "NAND3",
        Network::parallel_bank(3),
        3,
        timing(16.0, 6.0, 1.4),
    ));
    cells.push(single_stage(
        "NAND4",
        Network::parallel_bank(4),
        4,
        timing(20.0, 7.0, 1.6),
    ));

    // NOR: series PMOS pull-up / parallel NMOS pull-down.
    cells.push(single_stage(
        "NOR2",
        Network::series_chain(2),
        2,
        timing(14.0, 6.0, 1.2),
    ));
    cells.push(single_stage(
        "NOR3",
        Network::series_chain(3),
        3,
        timing(19.0, 7.5, 1.4),
    ));
    cells.push(single_stage(
        "NOR4",
        Network::series_chain(4),
        4,
        timing(24.0, 9.0, 1.6),
    ));

    // AND/OR: inverted forms with an output inverter.
    cells.push(with_inverter(
        "AND2",
        Network::parallel_bank(2),
        2,
        timing(18.0, 4.5, 1.2),
    ));
    cells.push(with_inverter(
        "AND3",
        Network::parallel_bank(3),
        3,
        timing(22.0, 5.0, 1.4),
    ));
    cells.push(with_inverter(
        "OR2",
        Network::series_chain(2),
        2,
        timing(20.0, 4.5, 1.2),
    ));
    cells.push(with_inverter(
        "OR3",
        Network::series_chain(3),
        3,
        timing(25.0, 5.0, 1.4),
    ));

    // XOR2 as the classic four-NAND tree:
    //   s0 = NAND(A, B); s1 = NAND(A, s0); s2 = NAND(B, s0);
    //   out = NAND(s1, s2).
    #[expect(clippy::expect_used, reason = "catalog cells are structurally valid")]
    cells.push(
        Cell::new(
            "XOR2",
            2,
            vec![
                Stage::new(
                    Network::parallel_bank(2),
                    vec![Source::Pin(0), Source::Pin(1)],
                ),
                Stage::new(
                    Network::parallel_bank(2),
                    vec![Source::Pin(0), Source::Stage(0)],
                ),
                Stage::new(
                    Network::parallel_bank(2),
                    vec![Source::Pin(1), Source::Stage(0)],
                ),
                Stage::new(
                    Network::parallel_bank(2),
                    vec![Source::Stage(1), Source::Stage(2)],
                ),
            ],
            timing(28.0, 6.0, 1.8),
        )
        .expect("catalog cells are structurally valid"),
    );

    // XNOR2 = XOR2 + output inverter.
    #[expect(clippy::expect_used, reason = "catalog cells are structurally valid")]
    cells.push(
        Cell::new(
            "XNOR2",
            2,
            vec![
                Stage::new(
                    Network::parallel_bank(2),
                    vec![Source::Pin(0), Source::Pin(1)],
                ),
                Stage::new(
                    Network::parallel_bank(2),
                    vec![Source::Pin(0), Source::Stage(0)],
                ),
                Stage::new(
                    Network::parallel_bank(2),
                    vec![Source::Pin(1), Source::Stage(0)],
                ),
                Stage::new(
                    Network::parallel_bank(2),
                    vec![Source::Stage(1), Source::Stage(2)],
                ),
                Stage::new(Network::Device(0), vec![Source::Stage(3)]),
            ],
            timing(30.0, 6.0, 1.8),
        )
        .expect("catalog cells are structurally valid"),
    );

    // AOI21: out = !(A·B + C).
    cells.push(single_stage(
        "AOI21",
        Network::Series(vec![
            Network::Parallel(vec![Network::Device(0), Network::Device(1)]),
            Network::Device(2),
        ]),
        3,
        timing(16.0, 6.5, 1.3),
    ));

    // OAI21: out = !((A + B)·C).
    cells.push(single_stage(
        "OAI21",
        Network::Parallel(vec![
            Network::Series(vec![Network::Device(0), Network::Device(1)]),
            Network::Device(2),
        ]),
        3,
        timing(16.0, 6.5, 1.3),
    ));

    // Double-drive variants of the workhorse cells: twice the width, half
    // the load sensitivity, twice the input load and leakage.
    let x2: Vec<Cell> = cells
        .iter()
        .filter(|c| matches!(c.name(), "INV" | "BUF" | "NAND2" | "NOR2" | "AND2" | "OR2"))
        .map(|c| c.with_drive_strength(2.0))
        .collect();
    cells.extend(x2);

    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(name: &str) -> Cell {
        builtin_cells()
            .into_iter()
            .find(|c| c.name() == name)
            .unwrap_or_else(|| panic!("{name} missing from catalog"))
    }

    #[test]
    fn catalog_has_all_families() {
        let names: Vec<String> = builtin_cells()
            .iter()
            .map(|c| c.name().to_owned())
            .collect();
        for expected in [
            "INV", "BUF", "NAND2", "NAND3", "NAND4", "NOR2", "NOR3", "NOR4", "AND2", "AND3", "OR2",
            "OR3", "XOR2", "XNOR2", "AOI21", "OAI21",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    type TruthFn = Box<dyn Fn(&[bool]) -> bool>;

    #[test]
    fn truth_tables() {
        let cases: Vec<(&str, TruthFn)> = vec![
            ("INV", Box::new(|v: &[bool]| !v[0])),
            ("BUF", Box::new(|v: &[bool]| v[0])),
            ("NAND2", Box::new(|v: &[bool]| !(v[0] && v[1]))),
            ("NAND3", Box::new(|v: &[bool]| !(v[0] && v[1] && v[2]))),
            (
                "NAND4",
                Box::new(|v: &[bool]| !(v[0] && v[1] && v[2] && v[3])),
            ),
            ("NOR2", Box::new(|v: &[bool]| !(v[0] || v[1]))),
            ("NOR3", Box::new(|v: &[bool]| !(v[0] || v[1] || v[2]))),
            (
                "NOR4",
                Box::new(|v: &[bool]| !(v[0] || v[1] || v[2] || v[3])),
            ),
            ("AND2", Box::new(|v: &[bool]| v[0] && v[1])),
            ("AND3", Box::new(|v: &[bool]| v[0] && v[1] && v[2])),
            ("OR2", Box::new(|v: &[bool]| v[0] || v[1])),
            ("OR3", Box::new(|v: &[bool]| v[0] || v[1] || v[2])),
            ("XOR2", Box::new(|v: &[bool]| v[0] ^ v[1])),
            ("XNOR2", Box::new(|v: &[bool]| !(v[0] ^ v[1]))),
            ("AOI21", Box::new(|v: &[bool]| !((v[0] && v[1]) || v[2]))),
            ("OAI21", Box::new(|v: &[bool]| !((v[0] || v[1]) && v[2]))),
        ];
        for (name, f) in cases {
            let cell = find(name);
            let n = cell.num_pins();
            for v in crate::vector::Vector::all(n) {
                let bits = v.to_bools();
                assert_eq!(cell.eval(&bits), f(&bits), "{name}({v})");
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = builtin_cells()
            .iter()
            .map(|c| c.name().to_owned())
            .collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn timing_is_positive() {
        for c in builtin_cells() {
            assert!(c.timing().intrinsic_ps > 0.0, "{}", c.name());
            assert!(c.timing().per_load_ps > 0.0, "{}", c.name());
            assert!(c.timing().input_cap > 0.0, "{}", c.name());
        }
    }

    #[test]
    fn nor_family_has_deep_stacks() {
        assert_eq!(find("NOR3").stages()[0].pull_up().max_stack_depth(), 3);
        assert_eq!(find("NAND3").stages()[0].pull_up().max_stack_depth(), 1);
    }
}

#[cfg(test)]
mod drive_variant_tests {
    use super::*;

    #[test]
    fn x2_variants_present() {
        let names: Vec<String> = builtin_cells()
            .iter()
            .map(|c| c.name().to_owned())
            .collect();
        for expected in [
            "INV_X2", "BUF_X2", "NAND2_X2", "NOR2_X2", "AND2_X2", "OR2_X2",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    #[test]
    fn x2_is_faster_under_load() {
        let cells = builtin_cells();
        let base = cells.iter().find(|c| c.name() == "NAND2").unwrap();
        let strong = cells.iter().find(|c| c.name() == "NAND2_X2").unwrap();
        let load = 6.0;
        assert!(strong.timing().delay_ps(load) < base.timing().delay_ps(load));
    }
}
