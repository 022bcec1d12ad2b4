//! Surface: an interpolated response-surface lookup against the exact
//! model evaluation it replaces on a surface hit.

use std::hint::black_box;

use relia_core::{Kelvin, NbtiModel};
use relia_jobs::SWEEP_TEMP_ACTIVE_K;
use relia_surface::{
    build, evaluate_exact, kelvin_spaced, lin_spaced, log_spaced, BuildSpec, Surface, SurfaceQuery,
};

use crate::record::{Gate, Record, Value};
use crate::{ns_per_call, Section};

/// Distinct in-domain query points both paths are timed over.
const QUERIES: usize = 256;
/// Lookups per repetition for the interpolated path (cheap, so many).
const LOOKUP_ITERS: usize = 200_000;
/// Exact evaluations per repetition (micro-seconds each, so fewer).
const EXACT_ITERS: usize = 2_000;

pub(crate) const SECTION: Section = Section {
    name: "surface",
    gates: &[
        Gate::Floor("speedup", 100.0),
        Gate::Drift("exact_ns_per_eval"),
        Gate::Drift("surface_ns_per_lookup"),
    ],
    measure,
};

/// Deterministic in-domain query points: a low-discrepancy walk over the
/// standby-temperature, RAS and lifetime axes at the artifact's stress
/// pair, so both paths price the same workload.
fn queries() -> Vec<SurfaceQuery> {
    (0..QUERIES)
        .map(|i| {
            let f = |k: usize| ((i * k + 1) % QUERIES) as f64 / QUERIES as f64;
            SurfaceQuery {
                t_active_k: Kelvin(SWEEP_TEMP_ACTIVE_K),
                t_standby_k: Kelvin(322.0 + 76.0 * f(7)),
                ras_fraction: 0.12 + 0.76 * f(11),
                lifetime_s: 10f64.powf(6.1 + 2.8 * f(13)),
                p_active: 0.5,
                p_standby: 1.0,
            }
        })
        .collect()
}

fn measure() -> Record {
    let model = NbtiModel::ptm90().expect("ptm90 calibration is valid");
    let spec = BuildSpec {
        t_standby_k: kelvin_spaced(320.0, 400.0, 9),
        ras_fraction: lin_spaced(0.1, 0.9, 9),
        lifetime_s: log_spaced(1e6, 1e9, 13),
        workers: 0,
        ..BuildSpec::paper_defaults()
    };
    let artifact = build(&model, &spec).expect("bench grid builds");
    let grid_values = (artifact.pairs.len() * artifact.grid.len()) as u64;
    let sup_error = artifact.sup_error;
    let surface = Surface::from_artifact(artifact).expect("bench grid holds the bound");
    let points = queries();

    // Exact path: the full Ras -> ModeSchedule -> PmosStress -> hoist
    // pipeline the server runs on a surface miss.
    let exact_ns = ns_per_call(EXACT_ITERS, |_| {
        let mut sum = 0.0;
        for i in 0..EXACT_ITERS {
            let q = &points[i % points.len()];
            sum += evaluate_exact(&model, surface.artifact().period_s, q)
                .expect("in-domain point evaluates");
        }
        black_box(sum);
    });

    // Surface path: bracket + 16-corner blend, nothing else.
    let surface_ns = ns_per_call(LOOKUP_ITERS, |_| {
        let mut sum = 0.0;
        for i in 0..LOOKUP_ITERS {
            let q = &points[i % points.len()];
            sum += surface.lookup(q).expect("known pair").delta_vth_v;
        }
        black_box(sum);
    });

    Record::new(&[
        ("grid_values", Value::Count(grid_values)),
        ("sup_error", Value::Exp(sup_error)),
        ("exact_ns_per_eval", Value::Fixed(exact_ns)),
        ("surface_ns_per_lookup", Value::Fixed(surface_ns)),
        ("speedup", Value::Fixed(exact_ns / surface_ns)),
    ])
}
