//! The keyed ΔV_th evaluator against the exact per-PMOS model.
//!
//! `AgingAnalysis::gate_delta_vth` quantizes every PMOS stress point to a
//! `StressKey` (probabilities to 1e-9, temperatures to 1 mK, mode times to
//! 1 ms) and evaluates the key's canonical point. The reference here
//! rebuilds the exact evaluator from public API: the propagated signal
//! probabilities, each cell's PMOS stress probabilities, the policy's
//! standby probabilities and one `NbtiModel::delta_vth` per PMOS at the
//! unquantized point, keeping each gate's worst. Every gate's keyed value
//! must lie within the bound DESIGN.md states.

#![allow(clippy::unwrap_used)]
use std::sync::OnceLock;

use proptest::prelude::*;
use relia_core::{Kelvin, PmosStress, Ras, Seconds};
use relia_flow::{AgingAnalysis, AnalysisPrep, FlowConfig, FlowError, StandbyPolicy};
use relia_netlist::{iscas, Circuit};

/// Relative part of the keyed-vs-exact bound.
const REL_BOUND: f64 = 1e-5;
/// Absolute part of the bound, in volts (a PMOS that never sees stress
/// shifts by 0 on both paths).
const ABS_BOUND: f64 = 1e-12;

/// c17 and c432 with their schedule-independent preparation, built once.
fn circuits() -> &'static [(Circuit, AnalysisPrep)] {
    static CIRCUITS: OnceLock<Vec<(Circuit, AnalysisPrep)>> = OnceLock::new();
    CIRCUITS.get_or_init(|| {
        let config = FlowConfig::paper_defaults().unwrap();
        ["c17", "c432"]
            .iter()
            .map(|name| {
                let circuit = iscas::circuit(name).unwrap();
                let prep = AgingAnalysis::prep(&config, &circuit).unwrap();
                (circuit, prep)
            })
            .collect()
    })
}

/// Each PMOS's standby stress probability under `policy`, per gate: 1 or
/// 0 for the bounds and a vector, k/n for a rotation of n vectors of which
/// k stress the device.
fn standby_probs(analysis: &AgingAnalysis<'_>, policy: &StandbyPolicy) -> Vec<Vec<f64>> {
    let uniform = |p: f64| -> Vec<Vec<f64>> {
        let lib = analysis.circuit().library();
        let gates = analysis.circuit().gates();
        gates
            .iter()
            .map(|gate| vec![p; lib.cell(gate.cell()).pmos_count()])
            .collect()
    };
    let vectors = match policy {
        StandbyPolicy::AllInternalZero => return uniform(1.0),
        StandbyPolicy::AllInternalOne => return uniform(0.0),
        StandbyPolicy::InputVector(vector) => std::slice::from_ref(vector),
        StandbyPolicy::Rotation(vectors) => vectors.as_slice(),
        other => panic!("no reference for {other:?}"),
    };
    let mut probs = uniform(0.0);
    for vector in vectors {
        let flags = analysis.standby_stress_of_vector(vector).unwrap();
        for (gate, flags) in probs.iter_mut().zip(flags) {
            for (p, stressed) in gate.iter_mut().zip(flags) {
                *p += if stressed { 1.0 } else { 0.0 };
            }
        }
    }
    let n = vectors.len() as f64;
    for p in probs.iter_mut().flatten() {
        *p /= n;
    }
    probs
}

/// The exact evaluator: one `NbtiModel::delta_vth` per PMOS at the
/// unquantized (schedule, stress, lifetime) point, each gate's worst.
fn exact_gate_delta_vth(
    analysis: &AgingAnalysis<'_>,
    policy: &StandbyPolicy,
    lifetime: Seconds,
) -> Result<Vec<f64>, FlowError> {
    let (config, circuit) = (analysis.config(), analysis.circuit());
    let standby = standby_probs(analysis, policy);
    circuit
        .gates()
        .iter()
        .zip(&standby)
        .map(|(gate, standby)| {
            let pins: Vec<f64> = gate
                .inputs()
                .iter()
                .map(|&net| analysis.signal_probs().of(net))
                .collect();
            let active = circuit
                .library()
                .cell(gate.cell())
                .stress_probabilities(&pins);
            active
                .iter()
                .zip(standby)
                .try_fold(0.0f64, |worst, (&p_active, &p_standby)| {
                    let stress = PmosStress::new(p_active, p_standby)?;
                    let dv = config.nbti.delta_vth(lifetime, &config.schedule, &stress)?;
                    Ok(worst.max(dv))
                })
        })
        .collect()
}

/// Worst, best, the first vector, or a rotation of all of them, each cut
/// to the circuit's input width.
fn policy(kind: u32, vectors: &[Vec<bool>], inputs: usize) -> StandbyPolicy {
    let cut = |v: &Vec<bool>| v[..inputs].to_vec();
    match kind {
        0 => StandbyPolicy::AllInternalZero,
        1 => StandbyPolicy::AllInternalOne,
        2 => StandbyPolicy::InputVector(cut(&vectors[0])),
        _ => StandbyPolicy::Rotation(vectors.iter().map(cut).collect()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Gate by gate, the keyed ΔV_th stays within
    /// `REL_BOUND·|exact| + ABS_BOUND` of the exact one, over RAS
    /// fractions 0.05–0.95, standby temperatures 300–400 K at least
    /// 0.05 mK off the 1 mK lattice, and lifetimes 1e6–1e9 s.
    #[test]
    fn keyed_gate_delta_vth_tracks_the_exact_model(
        circuit in 0usize..2,
        active_share in 0.05f64..0.95,
        standby_mk in 300_000u32..400_000,
        off_lattice in 0.05f64..0.95,
        log_lifetime in 6.0f64..9.0,
        kind in 0u32..4,
        vectors in prop::collection::vec(prop::collection::vec(any::<bool>(), 36), 2..5),
    ) {
        let (circuit, prep) = &circuits()[circuit];
        let t_standby = (f64::from(standby_mk) + off_lattice) / 1e3;
        let ras = Ras::new(active_share, 1.0 - active_share).unwrap();
        let config = FlowConfig::with_schedule(ras, Kelvin(t_standby)).unwrap();
        let analysis = AgingAnalysis::from_prep(&config, circuit, prep.clone());
        let policy = policy(kind, &vectors, circuit.primary_inputs().len());
        let lifetime = Seconds(10f64.powf(log_lifetime));

        let keyed = analysis.gate_delta_vth(&policy, lifetime).unwrap();
        let exact = exact_gate_delta_vth(&analysis, &policy, lifetime).unwrap();
        prop_assert_eq!(keyed.len(), exact.len());
        for (gate, (k, e)) in keyed.iter().zip(&exact).enumerate() {
            prop_assert!(
                (k - e).abs() <= REL_BOUND * e.abs() + ABS_BOUND,
                "gate {gate}: keyed {k:e} vs exact {e:e} under {policy:?}, \
                 RAS share {active_share}, {t_standby} K, {lifetime:?}"
            );
        }
    }
}

#[test]
fn both_evaluators_refuse_the_same_lifetimes() {
    let (circuit, prep) = &circuits()[0];
    let config = FlowConfig::paper_defaults().unwrap();
    let analysis = AgingAnalysis::from_prep(&config, circuit, prep.clone());
    let vectors = vec![vec![true, false, true, false, true]; 2];
    for kind in 0..4 {
        let policy = policy(kind, &vectors, 5);
        for t in [-1.0, f64::NAN, f64::INFINITY] {
            let keyed = analysis.gate_delta_vth(&policy, Seconds(t)).unwrap_err();
            let exact = exact_gate_delta_vth(&analysis, &policy, Seconds(t)).unwrap_err();
            assert_eq!(keyed.to_string(), exact.to_string(), "{t}");
            assert!(keyed.to_string().contains("total_time"), "{keyed}");
        }
    }
}
