//! Satellite guarantee: a fleet summary is a pure function of
//! `(spec, seed, chunk size)` — the worker count must not perturb a bit.

#![allow(clippy::expect_used)]

use proptest::prelude::*;
use relia_fleet::{run_fleet, FleetOptions, FleetSpec, FleetSummary};

fn spec_with(seed: u64, samples: usize, correlation: f64, rate_sigma: f64) -> FleetSpec {
    let mut spec = FleetSpec::paper_defaults().expect("defaults build");
    spec.seed = seed;
    spec.samples = samples;
    spec.correlation = correlation;
    spec.rate_sigma = rate_sigma;
    spec
}

/// Every float in the summary, as IEEE-754 bit patterns — "equal" below
/// means *identical bytes*, not approximately equal.
fn summary_bits(s: &FleetSummary) -> Vec<u64> {
    let mut bits = vec![s.samples, s.seed, s.guardband.to_bits()];
    for p in &s.points {
        bits.extend([
            p.time.0.to_bits(),
            p.mean.to_bits(),
            p.std_dev.to_bits(),
            p.p50.to_bits(),
            p.p90.to_bits(),
            p.p99.to_bits(),
            p.yield_fraction.to_bits(),
        ]);
    }
    bits.extend([
        s.lifetime.p01.to_bits(),
        s.lifetime.p10.to_bits(),
        s.lifetime.p50.to_bits(),
    ]);
    bits
}

fn run_with_workers(spec: &FleetSpec, workers: usize, chunk: usize) -> FleetSummary {
    run_fleet(
        spec,
        &FleetOptions {
            workers,
            chunk,
            ..FleetOptions::default()
        },
    )
    .expect("fleet run")
    .summary
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Identical seeds give bit-identical summaries on 1, 3, and 8 workers.
    #[test]
    fn summaries_are_bit_identical_across_thread_counts(
        seed in 0u64..u64::MAX,
        samples in 1usize..1500,
        correlation in -1.0f64..1.0,
        rate_sigma in 0.0f64..0.5,
    ) {
        let spec = spec_with(seed, samples, correlation, rate_sigma);
        let serial = run_with_workers(&spec, 1, 256);
        let mid = run_with_workers(&spec, 3, 256);
        let wide = run_with_workers(&spec, 8, 256);
        prop_assert_eq!(summary_bits(&serial), summary_bits(&mid));
        prop_assert_eq!(summary_bits(&serial), summary_bits(&wide));
    }

    /// Different seeds actually change the drawn fleet (the determinism
    /// above is not vacuous).
    #[test]
    fn different_seeds_change_the_summary(seed in 0u64..u64::MAX) {
        let a = run_with_workers(&spec_with(seed, 600, -0.4, 0.2), 2, 128);
        let b = run_with_workers(&spec_with(seed ^ 0x9E37_79B9, 600, -0.4, 0.2), 2, 128);
        prop_assert_ne!(summary_bits(&a), summary_bits(&b));
    }
}

#[test]
fn repeated_runs_are_bit_identical_even_with_default_worker_count() {
    let spec = spec_with(0xF1EE7, 5_000, -0.4, 0.08);
    let a = run_with_workers(&spec, 0, 0);
    let b = run_with_workers(&spec, 0, 0);
    assert_eq!(summary_bits(&a), summary_bits(&b));
}
