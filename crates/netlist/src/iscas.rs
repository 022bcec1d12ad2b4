//! The benchmark suite: the genuine ISCAS85 `c17`, plus deterministic
//! synthetic stand-ins for the larger ISCAS85 circuits.
//!
//! The original ISCAS85 netlist files are not redistributable within this
//! repository, so for every benchmark beyond `c17` we generate a circuit
//! with the *published* primary-input / primary-output / gate-count / depth
//! statistics, a representative gate-type mix, and locality-biased wiring.
//! The experiments the paper runs over these circuits aggregate hundreds of
//! gates (critical-path degradation, total leakage), so matched statistics
//! exercise the same code paths and reproduce the same trends. Genuine
//! `.bench` files can be dropped in through [`crate::bench::parse`] at any
//! time.

use relia_cells::Library;
use relia_core::seal::{fnv1a, Xoshiro256};

use crate::builder::CircuitBuilder;
use crate::circuit::{Circuit, NetId};
use crate::error::NetlistError;

/// Published statistics of one ISCAS85 benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchmarkSpec {
    /// Benchmark name (e.g. `"c432"`).
    pub name: &'static str,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Gate count.
    pub gates: usize,
    /// Logic depth.
    pub depth: usize,
}

/// The ISCAS85 suite statistics (inputs, outputs, gates, depth).
pub const SPECS: [BenchmarkSpec; 10] = [
    BenchmarkSpec {
        name: "c432",
        inputs: 36,
        outputs: 7,
        gates: 160,
        depth: 17,
    },
    BenchmarkSpec {
        name: "c499",
        inputs: 41,
        outputs: 32,
        gates: 202,
        depth: 11,
    },
    BenchmarkSpec {
        name: "c880",
        inputs: 60,
        outputs: 26,
        gates: 383,
        depth: 24,
    },
    BenchmarkSpec {
        name: "c1355",
        inputs: 41,
        outputs: 32,
        gates: 546,
        depth: 24,
    },
    BenchmarkSpec {
        name: "c1908",
        inputs: 33,
        outputs: 25,
        gates: 880,
        depth: 40,
    },
    BenchmarkSpec {
        name: "c2670",
        inputs: 233,
        outputs: 140,
        gates: 1193,
        depth: 32,
    },
    BenchmarkSpec {
        name: "c3540",
        inputs: 50,
        outputs: 22,
        gates: 1669,
        depth: 47,
    },
    BenchmarkSpec {
        name: "c5315",
        inputs: 178,
        outputs: 123,
        gates: 2307,
        depth: 49,
    },
    BenchmarkSpec {
        name: "c6288",
        inputs: 32,
        outputs: 32,
        gates: 2416,
        depth: 124,
    },
    BenchmarkSpec {
        name: "c7552",
        inputs: 207,
        outputs: 108,
        gates: 3512,
        depth: 43,
    },
];

/// The genuine ISCAS85 `c17` circuit (6 NAND2 gates).
///
/// ```
/// use relia_netlist::iscas;
///
/// let c = iscas::c17();
/// assert_eq!(c.stats(), (5, 2, 6, 3));
/// ```
pub fn c17() -> Circuit {
    #[expect(clippy::expect_used, reason = "c17 is valid by construction")]
    try_c17().expect("c17 is valid by construction")
}

/// The genuine `c17`, with construction errors propagated instead of
/// panicking (they cannot occur for this fixed netlist, but callers that
/// forbid panics get a typed path).
///
/// # Errors
///
/// Returns [`NetlistError`] if circuit construction rejects the netlist.
pub fn try_c17() -> Result<Circuit, NetlistError> {
    let mut b = CircuitBuilder::new("c17", Library::ptm90());
    let n1 = b.add_input("1");
    let n2 = b.add_input("2");
    let n3 = b.add_input("3");
    let n6 = b.add_input("6");
    let n7 = b.add_input("7");
    let n10 = b.add_gate("NAND2", "10", &[n1, n3])?;
    let n11 = b.add_gate("NAND2", "11", &[n3, n6])?;
    let n16 = b.add_gate("NAND2", "16", &[n2, n11])?;
    let n19 = b.add_gate("NAND2", "19", &[n11, n7])?;
    let n22 = b.add_gate("NAND2", "22", &[n10, n16])?;
    let n23 = b.add_gate("NAND2", "23", &[n16, n19])?;
    let _ = n10;
    b.mark_output(n22);
    b.mark_output(n23);
    b.build()
}

/// Gate-type mix used by the synthetic generator: `(cell, weight)`.
const CELL_MIX: [(&str, u32); 12] = [
    ("NAND2", 30),
    ("NOR2", 14),
    ("INV", 14),
    ("NAND3", 8),
    ("AND2", 8),
    ("OR2", 6),
    ("NOR3", 5),
    ("AOI21", 4),
    ("OAI21", 4),
    ("XOR2", 3),
    ("NAND4", 2),
    ("BUF", 2),
];

/// Generates the synthetic stand-in for `spec` (deterministic per name).
pub fn synthesize(spec: &BenchmarkSpec) -> Circuit {
    #[expect(clippy::expect_used, reason = "generated circuits are valid")]
    try_synthesize(spec).expect("generated circuits are valid by construction")
}

/// Like [`synthesize`], with construction errors propagated as typed
/// [`NetlistError`]s instead of panicking.
///
/// # Errors
///
/// Returns [`NetlistError`] if a generated gate names a cell the library
/// lacks or the built circuit fails validation.
pub fn try_synthesize(spec: &BenchmarkSpec) -> Result<Circuit, NetlistError> {
    // Seeded by name, so each benchmark is deterministic but distinct.
    let mut rng = Xoshiro256::new(fnv1a(spec.name.as_bytes()));
    let mut b = CircuitBuilder::new(spec.name, Library::ptm90());

    let pis: Vec<NetId> = (0..spec.inputs)
        .map(|i| b.add_input(format!("pi{i}")))
        .collect();

    // Distribute gates across `depth` levels, at least one per level, the
    // rest spread randomly (middle-heavy).
    let mut level_sizes = vec![1usize; spec.depth];
    let mut remaining = spec.gates - spec.depth;
    while remaining > 0 {
        let idx = middle_biased_index(&mut rng, spec.depth);
        level_sizes[idx] += 1;
        remaining -= 1;
    }

    let total_weight: u32 = CELL_MIX.iter().map(|(_, w)| w).sum();
    let mut levels: Vec<Vec<NetId>> = vec![pis.clone()];
    let mut use_count: Vec<u32> = vec![0; spec.inputs];
    let mut gate_no = 0usize;

    for &size in &level_sizes {
        let mut this_level = Vec::with_capacity(size);
        for k in 0..size {
            let cell = pick_cell(&mut rng, total_weight);
            let arity = b
                .library()
                .find(cell)
                .map(|id| b.library().cell(id).num_pins())
                .ok_or_else(|| NetlistError::UnknownCell {
                    name: cell.to_owned(),
                })?;
            let mut inputs = Vec::with_capacity(arity);
            // The first gate of each level anchors the depth: its first
            // input comes from the previous level.
            #[expect(clippy::expect_used, reason = "level 0 is pushed before this loop")]
            let prev = levels.last().expect("level 0 exists");
            let first = if k == 0 || rng.chance(0.7) {
                tournament_pick(&mut rng, prev, &use_count)
            } else {
                pick_from_history(&mut rng, &levels, &use_count)
            };
            inputs.push(first);
            use_count[first.index()] += 1;
            for _ in 1..arity {
                let pick = pick_from_history(&mut rng, &levels, &use_count);
                inputs.push(pick);
                use_count[pick.index()] += 1;
            }
            gate_no += 1;
            let out = b.add_gate(cell, format!("g{gate_no}"), &inputs)?;
            debug_assert_eq!(out.index(), use_count.len());
            use_count.push(0);
            this_level.push(out);
        }
        levels.push(this_level);
    }

    // Primary outputs: every unconsumed gate output must escape somewhere,
    // then top up from the deepest levels until the spec count is reached.
    let mut pos: Vec<NetId> = use_count
        .iter()
        .enumerate()
        .skip(spec.inputs)
        .filter(|(_, &c)| c == 0)
        .map(|(i, _)| NetId(i))
        .collect();
    'outer: for level in levels.iter().rev() {
        for &net in level {
            if pos.len() >= spec.outputs {
                break 'outer;
            }
            if !pos.contains(&net) {
                pos.push(net);
            }
        }
    }
    for po in pos {
        b.mark_output(po);
    }
    b.build()
}

fn middle_biased_index(rng: &mut Xoshiro256, depth: usize) -> usize {
    // Average of two uniforms: triangular distribution peaking mid-depth.
    let a = rng.below(depth as u64) as usize;
    let b = rng.below(depth as u64) as usize;
    (a + b) / 2
}

fn pick_cell(rng: &mut Xoshiro256, total_weight: u32) -> &'static str {
    let mut roll = rng.below(total_weight.into()) as u32;
    for (cell, w) in CELL_MIX {
        if roll < w {
            return cell;
        }
        roll -= w;
    }
    unreachable!("weights cover the roll range")
}

/// Picks from `candidates`, preferring less-used nets (2-way tournament).
fn tournament_pick(rng: &mut Xoshiro256, candidates: &[NetId], use_count: &[u32]) -> NetId {
    let a = candidates[rng.below(candidates.len() as u64) as usize];
    let b = candidates[rng.below(candidates.len() as u64) as usize];
    if use_count[a.index()] <= use_count[b.index()] {
        a
    } else {
        b
    }
}

/// Picks a net from any earlier level, biased toward recent levels.
fn pick_from_history(rng: &mut Xoshiro256, levels: &[Vec<NetId>], use_count: &[u32]) -> NetId {
    // Geometric walk back from the latest level.
    let mut li = levels.len() - 1;
    while li > 0 && rng.chance(0.45) {
        li -= 1;
    }
    tournament_pick(rng, &levels[li], use_count)
}

/// Builds a benchmark by name: `"c17"` is the genuine circuit; the rest are
/// synthesized from [`SPECS`]. Returns `None` for unknown names.
///
/// ```
/// use relia_netlist::iscas;
///
/// let c432 = iscas::circuit("c432").expect("known benchmark");
/// assert_eq!(c432.gates().len(), 160);
/// assert_eq!(c432.depth(), 17);
/// ```
pub fn circuit(name: &str) -> Option<Circuit> {
    try_circuit(name).ok()
}

/// Like [`circuit`], but an unknown name (or a construction failure) is a
/// typed [`NetlistError`] carrying the benchmark catalog — the form batch
/// tooling wants for its diagnostics.
///
/// # Errors
///
/// [`NetlistError::UnknownBenchmark`] for names outside the suite;
/// construction errors from the generator otherwise.
pub fn try_circuit(name: &str) -> Result<Circuit, NetlistError> {
    if name == "c17" {
        return try_c17();
    }
    match SPECS.iter().find(|s| s.name == name) {
        Some(spec) => try_synthesize(spec),
        None => Err(NetlistError::UnknownBenchmark {
            name: name.to_owned(),
        }),
    }
}

/// The benchmark names the paper's tables iterate over, smallest first.
pub fn names() -> Vec<&'static str> {
    let mut v = vec!["c17"];
    v.extend(SPECS.iter().map(|s| s.name));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c17_truth_sample() {
        let c = c17();
        // Evaluate through the structural path: all-zero inputs.
        let mut values = vec![false; c.nets().len()];
        for &pi in c.primary_inputs() {
            values[pi.index()] = false;
        }
        for &gid in c.topo_order() {
            let g = c.gate(gid);
            let ins: Vec<bool> = g.inputs().iter().map(|n| values[n.index()]).collect();
            values[g.output().index()] = c.library().cell(g.cell()).eval(&ins);
        }
        // NAND trees on all-zero inputs: every first-level NAND is 1,
        // 16 = NAND(0, 1) = 1, 22 = NAND(1,1) = 0, 23 = NAND(1,1) = 0.
        let po: Vec<bool> = c
            .primary_outputs()
            .iter()
            .map(|p| values[p.index()])
            .collect();
        assert_eq!(po, vec![false, false]);
    }

    #[test]
    fn synthetic_matches_spec_exactly_where_promised() {
        for spec in &SPECS[..4] {
            let c = synthesize(spec);
            let (pi, po, gates, depth) = c.stats();
            assert_eq!(pi, spec.inputs, "{}", spec.name);
            assert_eq!(gates, spec.gates, "{}", spec.name);
            assert_eq!(depth, spec.depth, "{}", spec.name);
            // PO count is at least the spec (unconsumed nets also escape).
            assert!(
                po >= spec.outputs,
                "{}: po {po} < {}",
                spec.name,
                spec.outputs
            );
            assert!(
                po <= spec.outputs + spec.gates / 4,
                "{}: po {po} inflated",
                spec.name
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        // FNV-1a of every builtin's `.bench` text. A changed generator or
        // seed re-draws the circuits, and with them every committed result
        // and benchmark workload built on them.
        let pinned: [(&str, u64); 11] = [
            ("c17", 0x2e2d_59ea_796d_78a0),
            ("c432", 0x7e76_fbf0_06d2_4f57),
            ("c499", 0xe922_1731_e221_5db2),
            ("c880", 0x55a5_f7eb_6784_ecea),
            ("c1355", 0x1e3b_11b6_5f68_454e),
            ("c1908", 0xb556_44c5_dc8b_06ed),
            ("c2670", 0x85bc_ee2e_bf66_bc87),
            ("c3540", 0x4fc5_5634_4ec7_17a5),
            ("c5315", 0x0cca_c208_c100_e616),
            ("c6288", 0x4207_fe15_30c1_bfd8),
            ("c7552", 0xfd56_8a5e_502e_40e3),
        ];
        assert_eq!(names(), pinned.map(|(name, _)| name));
        for (name, hash) in pinned {
            let text = crate::bench::write(&circuit(name).unwrap());
            assert_eq!(fnv1a(text.as_bytes()), hash, "{name}");
        }
    }

    #[test]
    fn different_benchmarks_differ() {
        let a = circuit("c432").unwrap();
        let b = circuit("c499").unwrap();
        assert_ne!(a.gates().len(), b.gates().len());
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(circuit("c9000").is_none());
        match try_circuit("c9000") {
            Err(NetlistError::UnknownBenchmark { name }) => assert_eq!(name, "c9000"),
            other => panic!("expected UnknownBenchmark, got {other:?}"),
        }
        assert!(try_circuit("c9000")
            .unwrap_err()
            .to_string()
            .contains("c432"));
    }

    #[test]
    fn names_cover_suite() {
        assert_eq!(names().len(), 11);
        assert_eq!(names()[0], "c17");
    }
}
