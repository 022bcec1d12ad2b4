//! Fleet: the scalar temperature-aware model against the hoisted batch
//! kernel, per sample — the speedup `relia-fleet` exists to deliver.

use std::hint::black_box;

use relia_core::{NbtiModel, Volts};
use relia_fleet::{ChunkAccum, FleetEvaluator, FleetSpec, SplitMix64};

use crate::record::{Gate, Record, Value};
use crate::{ns_per_call, Section};

/// Fleet size both paths are timed over (the acceptance point).
const SAMPLES: usize = 10_000;

pub(crate) const SECTION: Section = Section {
    name: "fleet",
    gates: &[
        Gate::Floor("speedup", 5.0),
        Gate::Drift("scalar_ns_per_sample"),
        Gate::Drift("batch_ns_per_sample"),
    ],
    measure,
};

fn measure() -> Record {
    let spec = {
        let mut s = FleetSpec::paper_defaults().expect("paper defaults are valid");
        s.samples = SAMPLES;
        s
    };
    let model = NbtiModel::ptm90().expect("ptm90 calibration is valid");
    let schedule = spec.schedule().expect("paper schedule is valid");
    let stress = spec.stress().expect("paper stress is valid");
    let eval = FleetEvaluator::prepare(&spec).expect("paper spec prepares");

    // Scalar path: every sample re-derives the full temperature-aware
    // model (Arrhenius terms, AC-recursion setup, equivalent stress time)
    // for each evaluation time.
    let scalar_ns = ns_per_call(SAMPLES, |rep| {
        let mut rng = SplitMix64::stream(1, rep as u64);
        let mut sum = 0.0;
        for _ in 0..SAMPLES {
            let vth0 = spec
                .dist
                .sample_box_muller(rng.next_f64(), rng.next_f64())
                .0;
            for &t in &spec.times {
                sum += model
                    .delta_vth_with_vth0(t, &schedule, &stress, Volts(vth0))
                    .expect("in-range stress point");
            }
        }
        black_box(sum);
    });

    // Batch path: the engine's own per-sample tail behind hoisted terms
    // (drawing the same variates plus the accumulator updates).
    let batch_ns = ns_per_call(SAMPLES, |rep| {
        let mut rng = SplitMix64::stream(1, rep as u64);
        let mut acc = ChunkAccum::new(spec.times.len());
        for _ in 0..SAMPLES {
            eval.sample_into(&mut rng, &mut acc);
        }
        black_box(&acc);
    });

    Record::new(&[
        ("samples", Value::Count(SAMPLES as u64)),
        ("times", Value::Count(spec.times.len() as u64)),
        ("scalar_ns_per_sample", Value::Fixed(scalar_ns)),
        ("batch_ns_per_sample", Value::Fixed(batch_ns)),
        ("speedup", Value::Fixed(scalar_ns / batch_ns)),
    ])
}
