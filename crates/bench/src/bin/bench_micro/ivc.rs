//! Ivc: a short probability-based MLV search on c432 (Table 3's engine),
//! two restarts of four 32-vector rounds. Every candidate vector costs one
//! standby-leakage evaluation of the circuit, which dominates the search.

use std::hint::black_box;

use relia_flow::{AgingAnalysis, FlowConfig};
use relia_ivc::{search_mlv_set, MlvSearchConfig};
use relia_netlist::iscas;

use crate::record::{Gate, Record, Value};
use crate::{ns_per_call, Section};

/// Searches per repetition.
const SEARCHES: usize = 4;

pub(crate) const SECTION: Section = Section {
    name: "ivc",
    gates: &[Gate::Drift("us_per_search")],
    measure,
};

fn measure() -> Record {
    let circuit = iscas::circuit("c432").expect("c432 is a builtin");
    let config = FlowConfig::paper_defaults().expect("paper defaults are valid");
    let analysis = AgingAnalysis::new(&config, &circuit).expect("c432 prepares");
    let search = MlvSearchConfig {
        vectors_per_round: 32,
        max_rounds: 4,
        restarts: 2,
        ..MlvSearchConfig::default()
    };
    let set = search_mlv_set(&analysis, &search).expect("the short search runs");

    let ns = ns_per_call(SEARCHES, |_| {
        for _ in 0..SEARCHES {
            black_box(
                search_mlv_set(&analysis, black_box(&search)).expect("the short search runs"),
            );
        }
    });

    Record::new(&[
        ("set_size", Value::Count(set.vectors().len() as u64)),
        ("rounds", Value::Count(set.rounds_used() as u64)),
        ("us_per_search", Value::Fixed(ns / 1e3)),
    ])
}
