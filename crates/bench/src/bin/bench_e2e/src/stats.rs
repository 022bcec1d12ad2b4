//! Metric vocabulary, exact quantiles, and the result line.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` at the repository
//! root; a test below keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a caller of `relia` sees.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports both. Only metrics that repeat within a tenth
/// under `--repeat 3` are gated; the timings do not on a shared host and
/// are per-layer metrics (see [`TIMINGS`]).
pub const END_TO_END: [MetricDef; 2] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricDef {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
    },
];

/// One per-layer metric (no bound; printed by `--trace 1`).
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn ratio(name: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit: "ratio",
        better: Better::Higher,
    }
}

/// Client-side timings of every workload, each for its own unit of work:
/// one `/v1/degrade` round trip (serve-*), one `relia fleet` run
/// (fleet-cli), one `relia sweep` run (circuit-sweep). Every run measures
/// them; they are per-layer metrics because they do not repeat within a
/// tenth.
pub const TIMINGS: [LayerDef; 3] = [
    layer("latency_p50_us", "us"),
    layer("latency_p99_us", "us"),
    LayerDef {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
    },
];

/// Rows measured in-process by `bench_layers`, followed by the `ledger.*`
/// rows of the traced end-to-end replay and the [`TIMINGS`] of its
/// untraced pass.
pub const PER_LAYER: [LayerDef; 42] = [
    layer("http.read_request_ns", "ns"),
    layer("json.parse_degrade_ns", "ns"),
    layer("service.stress_key_ns", "ns"),
    layer("json.degrade_body_ns", "ns"),
    layer("http.write_response_ns", "ns"),
    layer("service.handle_ns", "ns"),
    layer("cache.peek_ns", "ns"),
    layer("cache.miss_insert_ns", "ns"),
    ratio("cache.hit_ratio"),
    layer("core.equivalent_cycle_ns", "ns"),
    layer("core.ac_recursion_ns", "ns"),
    layer("core.kv_ns", "ns"),
    layer("core.delta_vth_ns", "ns"),
    layer("core.delay_linear_ns", "ns"),
    layer("core.hoist_ns", "ns"),
    layer("core.delta_vth_at_ns", "ns"),
    layer("surface.lookup_ns", "ns"),
    layer("surface.build_s", "s"),
    layer("surface.load_ms", "ms"),
    layer("fleet.hoist_us", "us"),
    layer("fleet.chunk_ns_per_sample", "ns"),
    layer("fleet.merge_us", "us"),
    ratio("fleet.parallel_efficiency"),
    layer("fleet.checkpoint_us_per_chunk", "us"),
    layer("fleet.residual_ms", "ms"),
    layer("jobs.prepare_ms", "ms"),
    layer("jobs.execute_ms", "ms"),
    layer("jobs.residual_ms", "ms"),
    layer("netlist.resolve_ms", "ms"),
    layer("flow.prep_ms", "ms"),
    layer("flow.gate_dvth_ms", "ms"),
    layer("sim.logic_us", "us"),
    layer("sta.nominal_ms", "ms"),
    layer("sta.degraded_ms", "ms"),
    layer("leakage.circuit_us", "us"),
    layer("ledger.e2e_mean_us", "us"),
    layer("ledger.explained_us", "us"),
    layer("ledger.residual_us", "us"),
    layer("ledger.trace_overhead_pct", "%"),
    TIMINGS[0],
    TIMINGS[1],
    TIMINGS[2],
];

/// Linear interpolation between the two ranks nearest `q` of `len`
/// ascending values read through `at`. `None` when empty.
fn interpolate(len: usize, q: f64, at: impl Fn(usize) -> f64) -> Option<f64> {
    let last = len.checked_sub(1)?;
    let rank = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(at(lo) + (at(hi) - at(lo)) * (rank - lo as f64))
}

/// The `q`-quantile of ascending `sorted` samples, linearly interpolated
/// between the two nearest ranks (exact: no bucketing). `None` when empty.
pub fn quantile(sorted: &[u64], q: f64) -> Option<f64> {
    interpolate(sorted.len(), q, |i| sorted[i] as f64)
}

/// The `q`-quantile of a small set of measurements (sorted in place).
pub fn quantile_of(values: &mut [f64], q: f64) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    interpolate(values.len(), q, |i| values[i])
}

/// Median of a small set of measurements (sorted in place).
pub fn median(values: &mut [f64]) -> Option<f64> {
    quantile_of(values, 0.5)
}

/// Metric names: a letter or digit first, then at most 63 more letters,
/// digits, `_`, `.` or `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The benchmark's last stdout line. Values print with every digit Rust's
/// shortest round-trip formatting gives them.
///
/// # Errors
///
/// A metric whose value is not finite (JSON cannot carry it) or whose name
/// breaks [`valid_metric_name`].
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for &(name, value, unit) in metrics {
        if !valid_metric_name(name) {
            return Err(format!("invalid metric name {name:?}"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7], 0.99), Some(7.0));
        let xs = [10, 20, 30, 40];
        assert_eq!(quantile(&xs, 0.0), Some(10.0));
        assert_eq!(quantile(&xs, 1.0), Some(40.0));
        assert_eq!(quantile(&xs, 0.5), Some(25.0));
        // rank 0.99 * 3 = 2.97: 30 + 0.97 * 10.
        assert!((quantile(&xs, 0.99).unwrap() - 39.7).abs() < 1e-9);
        let hundred: Vec<u64> = (1..=100).collect();
        assert!((quantile(&hundred, 0.99).unwrap() - 99.01).abs() < 1e-9);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(quantile_of(&mut [5.0, 1.0, 4.0, 2.0, 3.0], 0.25), Some(2.0));
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in ["setup_s", "fleet.chunk_ns_per_sample", "9lives", "a-b.c_d"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            "pct%",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        let all = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|l| l.name));
        let mut seen = std::collections::BTreeSet::new();
        for name in all {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(name), "duplicate metric {name}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[("latency_p50_us", 1.5, "us")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 1.5, \"unit\": \"us\"}}}"
        );
        assert!(result_line(true, 1, 0, &[("x", f64::NAN, "s")]).is_err());
        assert!(result_line(true, 1, 0, &[("bad name", 1.0, "s")]).is_err());
    }

    /// `BENCHMARK.json` at the repository root lists exactly these metrics,
    /// one object per line in this rendering.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for m in END_TO_END {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            );
            assert!(text.contains(&line), "BENCHMARK.json lacks {line}");
        }
        for l in PER_LAYER {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                l.name,
                l.unit,
                l.better.label()
            );
            assert!(text.contains(&line), "BENCHMARK.json lacks {line}");
        }
        let listed = text.matches("\"name\": ").count();
        let workloads = crate::inputs::Workload::ALL.len();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
    }
}
