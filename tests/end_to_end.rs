//! End-to-end integration tests across the full crate stack: netlist →
//! simulation → NBTI model → STA → leakage → IVC/ST techniques.

#![allow(clippy::expect_used)]
use relia::core::{Kelvin, Ras, Seconds};
use relia::flow::{AgingAnalysis, FlowConfig, StandbyPolicy};
use relia::ivc::{
    co_optimize, exhaustive_mlv, internal_node_potential, search_mlv_set, MlvSearchConfig,
};
use relia::netlist::iscas;
use relia::sleep::{SleepTransistorKind, StInsertion, StSizing};

fn paper_analysis(circuit: &relia::netlist::Circuit) -> (FlowConfig, ()) {
    let config = FlowConfig::paper_defaults().expect("built-in");
    let _ = circuit;
    (config, ())
}

#[test]
fn full_flow_on_c17_reproduces_ordering() {
    let circuit = iscas::c17();
    let (config, ()) = paper_analysis(&circuit);
    let analysis = AgingAnalysis::new(&config, &circuit).expect("analysis");

    let worst = analysis.run(&StandbyPolicy::AllInternalZero).expect("run");
    let best = analysis.run(&StandbyPolicy::AllInternalOne).expect("run");
    let footer = analysis.run(&StandbyPolicy::PowerGatedFooter).expect("run");

    // Ordering: worst >= any vector >= best == footer.
    assert!(worst.degradation_fraction() > best.degradation_fraction());
    assert!(
        (footer.degradation_fraction() - best.degradation_fraction()).abs() < 1e-12,
        "footer gating equals the all-'1' bound"
    );
    for bits in 0..32u32 {
        let v: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
        let r = analysis
            .run(&StandbyPolicy::InputVector(v))
            .expect("vector run");
        assert!(r.degradation_fraction() <= worst.degradation_fraction() + 1e-12);
        assert!(r.degradation_fraction() >= best.degradation_fraction() - 1e-12);
    }
}

#[test]
fn heuristic_mlv_matches_exhaustive_on_c17() {
    let circuit = iscas::c17();
    let config = FlowConfig::paper_defaults().expect("built-in");
    let analysis = AgingAnalysis::new(&config, &circuit).expect("analysis");
    let (_, exact_leak) = exhaustive_mlv(&analysis).expect("exhaustive");
    let set = search_mlv_set(&analysis, &MlvSearchConfig::default()).expect("search");
    assert!(
        (set.min_leakage() - exact_leak).abs() / exact_leak < 1e-9,
        "heuristic {} vs exhaustive {}",
        set.min_leakage(),
        exact_leak
    );
}

#[test]
fn mlv_cooptimization_stays_within_leakage_band() {
    let circuit = iscas::circuit("c432").expect("benchmark");
    let config = FlowConfig::with_schedule(Ras::new(1.0, 5.0).expect("ratio"), Kelvin(330.0))
        .expect("schedule");
    let analysis = AgingAnalysis::new(&config, &circuit).expect("analysis");
    let set = search_mlv_set(
        &analysis,
        &MlvSearchConfig {
            vectors_per_round: 48,
            max_rounds: 6,
            ..MlvSearchConfig::default()
        },
    )
    .expect("search");
    let co = co_optimize(&analysis, &set).expect("co-optimize");
    let min_leak = set.min_leakage();
    for e in &co.evaluations {
        assert!(e.leakage <= min_leak * 1.04 + 1e-18, "outside the 4% band");
    }
    // The selected vector's degradation is minimal within the set.
    for e in &co.evaluations {
        assert!(e.degradation + 1e-15 >= co.best().degradation);
    }
}

#[test]
fn inc_potential_grows_with_standby_temperature_across_suite() {
    for name in ["c17", "c432", "c499"] {
        let circuit = iscas::circuit(name).expect("benchmark");
        let mut previous = -1.0;
        for temp in [330.0, 370.0, 400.0] {
            let config =
                FlowConfig::with_schedule(Ras::new(1.0, 9.0).expect("ratio"), Kelvin(temp))
                    .expect("schedule");
            let analysis = AgingAnalysis::new(&config, &circuit).expect("analysis");
            let p = internal_node_potential(&analysis).expect("potential");
            assert!(
                p.potential() > previous,
                "{name}: potential not monotone at {temp} K"
            );
            previous = p.potential();
        }
    }
}

#[test]
fn sleep_transistor_beats_hot_ungated_circuit_at_end_of_life() {
    let circuit = iscas::circuit("c432").expect("benchmark");
    let hot = FlowConfig::with_schedule(Ras::new(1.0, 9.0).expect("ratio"), Kelvin(400.0))
        .expect("schedule");
    let analysis = AgingAnalysis::new(&hot, &circuit).expect("analysis");
    let ungated = analysis
        .run(&StandbyPolicy::AllInternalZero)
        .expect("ungated");
    let gated = StInsertion {
        kind: SleepTransistorKind::Footer,
        sizing: StSizing::paper_defaults(0.01, 0.30).expect("sizing"),
    };
    let pts = gated
        .delay_over_time(&analysis, &[Seconds(1.0e8)])
        .expect("trajectory");
    assert!(
        pts[0].increase_vs_nominal < ungated.degradation_fraction(),
        "Fig. 11's crossover: gated {} vs ungated {}",
        pts[0].increase_vs_nominal,
        ungated.degradation_fraction()
    );
}

#[test]
fn bench_format_circuits_run_through_the_full_flow() {
    let text = "
INPUT(x)
INPUT(y)
INPUT(z)
OUTPUT(q)
n1 = NAND(x, y)
n2 = NOR(y, z)
q  = XOR(n1, n2)
";
    let circuit = relia::netlist::bench::parse(text, relia::cells::Library::ptm90())
        .expect("valid bench text");
    let config = FlowConfig::paper_defaults().expect("built-in");
    let analysis = AgingAnalysis::new(&config, &circuit).expect("analysis");
    let report = analysis
        .run(&StandbyPolicy::InputVector(vec![true, false, true]))
        .expect("run");
    assert!(report.degradation_fraction() > 0.0);
    assert!(report.standby_leakage.expect("vector policy") > 0.0);
}

#[test]
fn degradation_is_deterministic_across_runs() {
    let circuit = iscas::circuit("c880").expect("benchmark");
    let config = FlowConfig::paper_defaults().expect("built-in");
    let a = AgingAnalysis::new(&config, &circuit)
        .expect("analysis")
        .run(&StandbyPolicy::AllInternalZero)
        .expect("run");
    let b = AgingAnalysis::new(&config, &circuit)
        .expect("analysis")
        .run(&StandbyPolicy::AllInternalZero)
        .expect("run");
    assert_eq!(a.degraded.max_delay_ps(), b.degraded.max_delay_ps());
    assert_eq!(a.gate_delta_vth, b.gate_delta_vth);
}
