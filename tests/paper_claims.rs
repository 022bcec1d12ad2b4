//! Integration tests pinning the paper's quantitative claims (shape, not
//! absolute numbers — see EXPERIMENTS.md for the side-by-side).

#![allow(clippy::expect_used)]
use relia::core::{Kelvin, ModeSchedule, NbtiModel, PmosStress, Ras, Seconds};
use relia::flow::{AgingAnalysis, FlowConfig, StandbyPolicy, VariationConfig, VariationStudy};
use relia::netlist::iscas;
use relia::sleep::StSizing;

fn schedule(a: f64, s: f64, temp_s: f64) -> ModeSchedule {
    ModeSchedule::new(
        Ras::new(a, s).expect("ratio"),
        Seconds(1000.0),
        Kelvin(400.0),
        Kelvin(temp_s),
    )
    .expect("schedule")
}

/// Table 1's three regimes: growth at hot standby, shrinkage at cool
/// standby, near-neutrality at 370 K.
#[test]
fn table1_regimes() {
    let model = NbtiModel::ptm90().expect("built-in");
    let life = Seconds(1.0e8);
    let stress = PmosStress::worst_case();
    let dv = |a: f64, s: f64, t: f64| {
        model
            .delta_vth(life, &schedule(a, s, t), &stress)
            .expect("valid")
    };
    assert!(
        dv(1.0, 9.0, 400.0) > dv(1.0, 1.0, 400.0),
        "hot standby grows"
    );
    assert!(
        dv(1.0, 9.0, 330.0) < dv(1.0, 1.0, 330.0),
        "cool standby shrinks"
    );
    let neutral_spread = (dv(1.0, 9.0, 370.0) - dv(1.0, 1.0, 370.0)).abs() / dv(1.0, 1.0, 370.0);
    assert!(
        neutral_spread < 0.06,
        "370 K is RAS-neutral (got {neutral_spread})"
    );
    // The 1:9 gap between hot and cool standby is of order 10 mV.
    let gap_mv = (dv(1.0, 9.0, 400.0) - dv(1.0, 9.0, 330.0)) * 1e3;
    assert!((6.0..18.0).contains(&gap_mv), "gap {gap_mv} mV");
}

/// Table 4's shape: best case flat, worst case and potential grow with
/// the standby temperature, potential of order tens of percent.
#[test]
fn table4_shape_on_c432() {
    let circuit = iscas::circuit("c432").expect("benchmark");
    let mut worsts = Vec::new();
    let mut bests = Vec::new();
    for temp in [330.0, 400.0] {
        let config = FlowConfig::with_schedule(Ras::new(1.0, 9.0).expect("ratio"), Kelvin(temp))
            .expect("schedule");
        let analysis = AgingAnalysis::new(&config, &circuit).expect("analysis");
        worsts.push(
            analysis
                .run(&StandbyPolicy::AllInternalZero)
                .expect("run")
                .degradation_fraction(),
        );
        bests.push(
            analysis
                .run(&StandbyPolicy::AllInternalOne)
                .expect("run")
                .degradation_fraction(),
        );
    }
    assert!(worsts[1] > worsts[0], "worst case grows with T_standby");
    assert!(
        (bests[1] - bests[0]).abs() / bests[0] < 1e-9,
        "best case flat"
    );
    let pot_cool = (worsts[0] - bests[0]) / worsts[0];
    let pot_hot = (worsts[1] - bests[1]) / worsts[1];
    assert!(pot_hot > pot_cool);
    assert!((0.1..0.8).contains(&pot_cool), "cool potential {pot_cool}");
    assert!((0.3..0.8).contains(&pot_hot), "hot potential {pot_hot}");
    // Magnitudes in the paper's few-percent band.
    assert!(
        (0.02..0.10).contains(&worsts[1]),
        "hot worst {:.4}",
        worsts[1]
    );
    assert!((0.01..0.06).contains(&bests[0]), "best {:.4}", bests[0]);
}

/// Figs. 8–9 corners: ST shift 7–36 mV, size margin 1–5%.
#[test]
fn st_corner_ranges() {
    let model = NbtiModel::ptm90().expect("built-in");
    let life = Seconds(1.0e8);
    let hi_sizing = StSizing::paper_defaults(0.05, 0.20).expect("sizing");
    let hi = hi_sizing
        .st_delta_vth(&model, &schedule(9.0, 1.0, 330.0), life)
        .expect("valid");
    let lo_sizing = StSizing::paper_defaults(0.05, 0.40).expect("sizing");
    let lo = lo_sizing
        .st_delta_vth(&model, &schedule(1.0, 9.0, 330.0), life)
        .expect("valid");
    assert!((0.004..0.012).contains(&lo), "low corner {lo}");
    assert!((0.024..0.042).contains(&hi), "high corner {hi}");
    let m_lo = lo_sizing.nbti_size_margin(lo).expect("margin");
    let m_hi = hi_sizing.nbti_size_margin(hi).expect("margin");
    assert!(m_lo < m_hi);
    assert!((0.008..0.06).contains(&m_lo), "margin {m_lo}");
    assert!((0.02..0.08).contains(&m_hi), "margin {m_hi}");
}

/// Fig. 12's marker: the aged −3σ exceeds the fresh +3σ, and sigma
/// compresses.
#[test]
fn fig12_crossover_on_c880() {
    let circuit = iscas::circuit("c880").expect("benchmark");
    let config = FlowConfig::paper_defaults().expect("built-in");
    let analysis = AgingAnalysis::new(&config, &circuit).expect("analysis");
    let var = VariationConfig {
        samples: 150,
        ..VariationConfig::paper_defaults().expect("built-in")
    };
    let times = [Seconds(0.0), Seconds::from_years(3.0)];
    let pts = VariationStudy::run(&analysis, &StandbyPolicy::AllInternalZero, &var, &times)
        .expect("study");
    assert!(
        pts[1].delay.lower(3.0) > pts[0].delay.upper(3.0),
        "aged lower bound {} must exceed fresh upper bound {}",
        pts[1].delay.lower(3.0),
        pts[0].delay.upper(3.0)
    );
    assert!(pts[1].delay.std_dev < pts[0].delay.std_dev);
}

/// The gate-family asymmetry driving the co-optimization (Table 2): the
/// NOR2 minimum-leakage vector removes all PMOS stress, while the NAND2 and
/// INV minimum-leakage vectors stress every PMOS.
#[test]
fn table2_family_asymmetry() {
    use relia::cells::{Library, Vector};
    use relia::leakage::{cell_leakage, DeviceModels};

    let lib = Library::ptm90();
    let models = DeviceModels::ptm90();
    let mlv_of = |name: &str| {
        let cell = lib.cell(lib.find(name).expect("catalog"));
        Vector::all(cell.num_pins())
            .min_by(|a, b| {
                cell_leakage(cell, &a.to_bools(), &models, Kelvin(400.0))
                    .total()
                    .partial_cmp(&cell_leakage(cell, &b.to_bools(), &models, Kelvin(400.0)).total())
                    .expect("finite")
            })
            .expect("nonempty")
    };
    let stressed = |name: &str, v: Vector| {
        let cell = lib.cell(lib.find(name).expect("catalog"));
        cell.stressed_pmos(&v.to_bools())
            .iter()
            .filter(|&&s| s)
            .count()
    };
    // NOR2: MLV = 11, no stress.
    let nor_mlv = mlv_of("NOR2");
    assert_eq!(nor_mlv.bits(), 0b11);
    assert_eq!(stressed("NOR2", nor_mlv), 0);
    // NAND2: MLV = 00, all stressed.
    let nand_mlv = mlv_of("NAND2");
    assert_eq!(nand_mlv.bits(), 0b00);
    assert_eq!(stressed("NAND2", nand_mlv), 2);
    // INV: MLV = 0, stressed.
    let inv_mlv = mlv_of("INV");
    assert_eq!(inv_mlv.bits(), 0b0);
    assert_eq!(stressed("INV", inv_mlv), 1);
}

/// Fig. 2's thermal behaviour: the 10–130 W range maps to roughly the
/// paper's 45–110 °C window with millisecond convergence.
#[test]
fn fig2_thermal_window() {
    use relia::thermal::{RcThermalModel, TaskSet};
    let model = RcThermalModel::air_cooled();
    let trace = model.simulate(TaskSet::random(20, 99).profile(), 1e-3);
    let min = trace
        .iter()
        .map(|p| p.temp.to_celsius())
        .fold(f64::MAX, f64::min);
    let max = trace
        .iter()
        .map(|p| p.temp.to_celsius())
        .fold(f64::MIN, f64::max);
    assert!(min > 40.0 && min < 70.0, "min {min}");
    assert!(max > 95.0 && max < 120.0, "max {max}");
    assert!(model.time_constant() < 0.05);
}
