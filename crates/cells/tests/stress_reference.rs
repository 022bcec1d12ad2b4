//! Cross-validation of the PMOS stress extractor against an independent
//! graph-based switch-level solver.
//!
//! The production extractor ([`relia_cells::Cell::stressed_pmos`]) walks
//! the series/parallel tree with forward/backward driven flags. This test
//! builds the *explicit electrical graph* of the pull-up network instead —
//! real junction nodes, ON devices as edges — floods V_dd through
//! conducting devices with union-find, and declares a PMOS stressed when
//! its gate is low and either terminal sits in the V_dd component. The two
//! implementations must agree on every network and vector.

use proptest::prelude::*;
use relia_cells::{Library, MosType, Network, Vector};

/// Union-find over node ids.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }
    fn find(&mut self, a: usize) -> usize {
        if self.parent[a] != a {
            let root = self.find(self.parent[a]);
            self.parent[a] = root;
        }
        self.parent[a]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Flattens the tree into explicit devices `(pin, top_node, bottom_node)`.
fn build_graph(
    net: &Network,
    top: usize,
    bottom: usize,
    next_node: &mut usize,
    devices: &mut Vec<(usize, usize, usize)>,
) {
    match net {
        Network::Device(pin) => devices.push((*pin, top, bottom)),
        Network::Parallel(children) => {
            for c in children {
                build_graph(c, top, bottom, next_node, devices);
            }
        }
        Network::Series(children) => {
            let mut upper = top;
            for (i, c) in children.iter().enumerate() {
                let lower = if i == children.len() - 1 {
                    bottom
                } else {
                    let n = *next_node;
                    *next_node += 1;
                    n
                };
                build_graph(c, upper, lower, next_node, devices);
                upper = lower;
            }
        }
    }
}

/// Reference stress computation: explicit graph + rail flooding.
fn reference_stress(net: &Network, inputs: &[bool]) -> Vec<bool> {
    // Node 0 = Vdd rail, node 1 = output.
    let mut next_node = 2usize;
    let mut devices = Vec::new();
    build_graph(net, 0, 1, &mut next_node, &mut devices);

    let mut dsu = Dsu::new(next_node);
    for &(pin, a, b) in &devices {
        if MosType::Pmos.conducts(inputs[pin]) {
            dsu.union(a, b);
        }
    }
    // The output node is at Vdd exactly when the pull-up conducts, which
    // with ideal switches is "output connected to the rail".
    let vdd_root = dsu.find(0);
    devices
        .iter()
        .map(|&(pin, a, b)| {
            let gate_low = !inputs[pin];
            let touches_vdd = dsu.find(a) == vdd_root || dsu.find(b) == vdd_root;
            gate_low && touches_vdd
        })
        .collect()
}

/// Random series/parallel networks over `width` inputs.
fn network(width: usize) -> impl Strategy<Value = Network> {
    let leaf = (0..width).prop_map(Network::Device);
    leaf.prop_recursive(4, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Network::Series),
            prop::collection::vec(inner, 2..4).prop_map(Network::Parallel),
        ]
    })
}

proptest! {
    /// The tree-walking extractor agrees with the graph-flooding reference
    /// on arbitrary networks and input vectors.
    #[test]
    fn extractor_matches_graph_reference(net in network(5), bits in 0u32..32) {
        let inputs = Vector::new(bits, 5).to_bools();
        let out_high = net.conducts(MosType::Pmos, &inputs);
        let mut tree = Vec::new();
        net.collect_pmos_stress(&inputs, true, out_high, &mut tree);
        let reference = reference_stress(&net, &inputs);
        prop_assert_eq!(tree, reference, "net {:?} inputs {:?}", net, inputs);
    }
}

#[test]
fn catalog_single_stage_cells_match_reference() {
    let lib = Library::ptm90();
    for (_, cell) in lib.iter() {
        if cell.stages().len() != 1 {
            continue; // multi-stage cells compose the same primitive
        }
        let pu = cell.stages()[0].pull_up();
        for v in Vector::all(cell.num_pins()) {
            let inputs = v.to_bools();
            let got = cell.stressed_pmos(&inputs);
            let want = reference_stress(pu, &inputs);
            assert_eq!(got, want, "{} under {v}", cell.name());
        }
    }
}
