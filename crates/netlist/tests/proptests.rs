//! Property-based tests for netlist invariants.

use proptest::prelude::*;
use relia_cells::Library;
use relia_netlist::{bench, iscas, CircuitBuilder, NetDriver};

/// Builds a random layered circuit description as `.bench` text.
fn random_bench(pis: usize, gates: &[(usize, usize)]) -> String {
    // gates: (function selector, fan-in seed); nets named n0..; PIs first.
    let funcs = ["NAND", "NOR", "AND", "OR", "XOR", "NOT"];
    let mut text = String::new();
    for i in 0..pis {
        text.push_str(&format!("INPUT(n{i})\n"));
    }
    let mut next = pis;
    for &(f, seed) in gates {
        let func = funcs[f % funcs.len()];
        let arity = if func == "NOT" { 1 } else { 2 + seed % 2 };
        let args: Vec<String> = (0..arity)
            .map(|k| format!("n{}", (seed + k * 7) % next))
            .collect();
        text.push_str(&format!("n{next} = {func}({})\n", args.join(", ")));
        next += 1;
    }
    text.push_str(&format!("OUTPUT(n{})\n", next - 1));
    text
}

proptest! {
    /// Any generated bench text parses, and the result is a DAG whose
    /// topological order places drivers before consumers.
    #[test]
    fn parsed_circuits_are_topologically_sound(
        pis in 2usize..6,
        gates in prop::collection::vec((0usize..6, 0usize..1000), 1..40),
    ) {
        let text = random_bench(pis, &gates);
        let c = bench::parse(&text, Library::ptm90()).expect("generated text is valid");
        let mut seen = vec![false; c.nets().len()];
        for &pi in c.primary_inputs() {
            seen[pi.index()] = true;
        }
        for &gid in c.topo_order() {
            let g = c.gate(gid);
            for input in g.inputs() {
                prop_assert!(seen[input.index()], "consumer before driver");
            }
            seen[g.output().index()] = true;
        }
        // Every net is eventually driven.
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Write→parse round trips preserve the logic function.
    #[test]
    fn bench_round_trip_equivalence(
        pis in 2usize..5,
        gates in prop::collection::vec((0usize..6, 0usize..1000), 1..25),
        stim in prop::collection::vec(any::<bool>(), 5),
    ) {
        let text = random_bench(pis, &gates);
        let lib = Library::ptm90();
        let c1 = bench::parse(&text, lib.clone()).expect("valid");
        let c2 = bench::parse(&bench::write(&c1), lib).expect("round trip parses");
        let eval = |c: &relia_netlist::Circuit| -> Vec<bool> {
            let mut values = vec![false; c.nets().len()];
            for (i, &pi) in c.primary_inputs().iter().enumerate() {
                values[pi.index()] = stim[i % stim.len()];
            }
            for &gid in c.topo_order() {
                let g = c.gate(gid);
                let ins: Vec<bool> = g.inputs().iter().map(|n| values[n.index()]).collect();
                values[g.output().index()] = c.library().cell(g.cell()).eval(&ins);
            }
            c.primary_outputs().iter().map(|p| values[p.index()]).collect()
        };
        prop_assert_eq!(eval(&c1), eval(&c2));
    }

    /// Gate levels are consistent: each gate sits one level above its
    /// deepest fan-in.
    #[test]
    fn levels_are_consistent(gates in prop::collection::vec((0usize..6, 0usize..1000), 1..30)) {
        let text = random_bench(3, &gates);
        let c = bench::parse(&text, Library::ptm90()).expect("valid");
        for &gid in c.topo_order() {
            let g = c.gate(gid);
            let max_in = g.inputs().iter().map(|n| match c.net(*n).driver() {
                NetDriver::PrimaryInput => 0,
                NetDriver::Gate(src) => c.gate_level(src),
            }).max().unwrap_or(0);
            prop_assert_eq!(c.gate_level(gid), max_in + 1);
        }
    }
}

#[test]
fn all_benchmarks_build_and_validate() {
    for name in iscas::names() {
        let c = iscas::circuit(name).expect("known name");
        assert!(!c.gates().is_empty(), "{name}");
        assert!(!c.primary_outputs().is_empty(), "{name}");
        // No net may dangle: every gate output is consumed or is a PO.
        for g in c.gates() {
            let out = g.output();
            assert!(
                !c.fanout(out).is_empty() || c.is_primary_output(out),
                "{name}: dangling net {}",
                c.net(out).name()
            );
        }
    }
}

#[test]
fn builder_rejects_output_free_circuit() {
    let mut b = CircuitBuilder::new("x", Library::ptm90());
    let a = b.add_input("a");
    b.add_gate("INV", "g", &[a]).unwrap();
    assert!(b.build().is_err());
}

proptest! {
    /// The .bench parser never panics on arbitrary input: it returns either
    /// a circuit or a structured error.
    #[test]
    fn parser_is_total_on_garbage(text in "\\PC{0,400}") {
        let _ = bench::parse(&text, Library::ptm90());
    }

    /// Random line soups built from plausible tokens also never panic.
    #[test]
    fn parser_is_total_on_token_soup(
        lines in prop::collection::vec("(INPUT|OUTPUT|[a-z]{1,4} = (AND|NAND|XOR|NOT))\\([a-z0-9, ]{0,12}\\)", 0..20),
    ) {
        let text = lines.join("\n");
        let _ = bench::parse(&text, Library::ptm90());
    }
}

proptest! {
    /// bench -> circuit -> Verilog -> circuit preserves the logic function.
    #[test]
    fn verilog_round_trip_equivalence(
        pis in 2usize..5,
        gates in prop::collection::vec((0usize..6, 0usize..1000), 1..20),
        stim in prop::collection::vec(any::<bool>(), 5),
    ) {
        let text = random_bench(pis, &gates);
        let lib = Library::ptm90();
        let c1 = bench::parse(&text, lib.clone()).expect("valid");
        let v = relia_netlist::verilog::write(&c1);
        let c2 = relia_netlist::verilog::parse(&v, lib).expect("verilog parses");
        let eval = |c: &relia_netlist::Circuit| -> Vec<bool> {
            let mut values = vec![false; c.nets().len()];
            for (i, &pi) in c.primary_inputs().iter().enumerate() {
                values[pi.index()] = stim[i % stim.len()];
            }
            for &gid in c.topo_order() {
                let g = c.gate(gid);
                let ins: Vec<bool> = g.inputs().iter().map(|n| values[n.index()]).collect();
                values[g.output().index()] = c.library().cell(g.cell()).eval(&ins);
            }
            c.primary_outputs().iter().map(|p| values[p.index()]).collect()
        };
        prop_assert_eq!(eval(&c1), eval(&c2));
    }

    /// The Verilog tokenizer/parser never panics on arbitrary text.
    #[test]
    fn verilog_parser_is_total(text in "\\PC{0,300}") {
        let _ = relia_netlist::verilog::parse(&text, Library::ptm90());
    }
}
