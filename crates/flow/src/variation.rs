//! Statistical aging under process variation (the paper's Fig. 12 study).
//!
//! Each Monte-Carlo sample draws a per-gate initial threshold
//! `V_th0 ~ N(mean, σ²)`. A low-threshold gate is faster at time zero but
//! degrades faster (eq. 23's overdrive dependence), so over the lifetime the
//! delay distribution's mean grows while its variance *shrinks* — the
//! variance-compression effect reported by Wang et al. (CICC'08) that the
//! paper cites.

use relia_core::seal::Xoshiro256;
use relia_core::variation::SampleStats;
use relia_core::{Seconds, VariationKernel, Volts, VthDistribution};
use relia_sta::TimingAnalysis;

use crate::analysis::AgingAnalysis;
use crate::error::FlowError;
use crate::policy::StandbyPolicy;

/// Configuration of the Monte-Carlo variation study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationConfig {
    /// The per-gate initial-threshold distribution.
    pub dist: VthDistribution,
    /// Monte-Carlo sample count.
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl VariationConfig {
    /// The paper's Fig. 12 setup: `V_th0 ~ N(220 mV, (10 mV)²)`.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in constants.
    pub fn paper_defaults() -> Result<Self, relia_core::ModelError> {
        Ok(VariationConfig {
            dist: VthDistribution::new(Volts(0.22), Volts(0.010))?,
            samples: 500,
            seed: 0x00F1_612A,
        })
    }
}

/// Delay statistics at one evaluation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationPoint {
    /// Operating time at which the circuit was evaluated.
    pub time: Seconds,
    /// Distribution of the circuit's maximum delay across samples, in ps.
    pub delay: SampleStats,
}

/// The Monte-Carlo variation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VariationStudy;

impl VariationStudy {
    /// Runs the study: for each time point, samples per-gate thresholds and
    /// reports the distribution of the aged critical-path delay.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] on malformed policies or model failures.
    pub fn run(
        analysis: &AgingAnalysis<'_>,
        policy: &StandbyPolicy,
        var: &VariationConfig,
        times: &[Seconds],
    ) -> Result<Vec<VariationPoint>, FlowError> {
        let circuit = analysis.circuit();
        let kernel = VariationKernel::new(analysis.config().nbti.params());
        let num_gates = circuit.gates().len();

        // Policy-dependent base shifts at each time, for the nominal
        // threshold; per-sample shifts are the base scaled by eq. 23.
        let base_shifts: Vec<Vec<f64>> = times
            .iter()
            .map(|&t| analysis.gate_delta_vth_at(policy, t))
            .collect::<Result<_, _>>()?;
        let nominal_delays = relia_sta::nominal_gate_delays(circuit);

        // Structure-of-arrays sample buffers, reused across samples; the
        // batch kernel evaluates whole gate vectors at once.
        let mut vth0 = vec![0.0; num_gates];
        let mut fresh = vec![0.0; num_gates];
        let mut aged = vec![0.0; num_gates];

        let mut rng = Xoshiro256::new(var.seed);
        let mut per_time: Vec<Vec<f64>> = vec![Vec::with_capacity(var.samples); times.len()];
        for _ in 0..var.samples {
            // Draw per-gate thresholds (sample-major, gate-minor — the
            // variate order every earlier release used).
            for v in vth0.iter_mut() {
                *v = var.dist.sample_box_muller(rng.next_f64(), rng.next_f64()).0;
            }
            // Time-zero delays scale with the overdrive (alpha-power law).
            kernel.fresh_delays_into(&nominal_delays, &vth0, &mut fresh);
            for (ti, base) in base_shifts.iter().enumerate() {
                kernel.aged_delays_into(&fresh, base, &vth0, &mut aged);
                let report = TimingAnalysis::with_delays(circuit, aged.clone())?;
                per_time[ti].push(report.max_delay_ps());
            }
        }

        times
            .iter()
            .zip(per_time)
            .map(|(&time, delays)| {
                let delay =
                    SampleStats::from_values(&delays).ok_or(FlowError::InvalidParameter {
                        name: "variation.samples",
                        value: 0.0,
                    })?;
                Ok(VariationPoint { time, delay })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConfig;
    use relia_netlist::iscas;

    #[test]
    fn mean_grows_and_variance_compresses() {
        let config = FlowConfig::paper_defaults().unwrap();
        let circuit = iscas::circuit("c432").unwrap();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        let var = VariationConfig {
            samples: 120,
            ..VariationConfig::paper_defaults().unwrap()
        };
        let times = [Seconds(0.0), Seconds(1.0e8)];
        let pts =
            VariationStudy::run(&analysis, &StandbyPolicy::AllInternalZero, &var, &times).unwrap();
        assert_eq!(pts.len(), 2);
        assert!(pts[1].delay.mean > pts[0].delay.mean, "mean must grow");
        assert!(
            pts[1].delay.std_dev < pts[0].delay.std_dev,
            "variance must compress: {} vs {}",
            pts[1].delay.std_dev,
            pts[0].delay.std_dev
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let config = FlowConfig::paper_defaults().unwrap();
        let circuit = iscas::c17();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        let var = VariationConfig {
            samples: 50,
            ..VariationConfig::paper_defaults().unwrap()
        };
        let times = [Seconds(1.0e7)];
        let a =
            VariationStudy::run(&analysis, &StandbyPolicy::AllInternalZero, &var, &times).unwrap();
        let b =
            VariationStudy::run(&analysis, &StandbyPolicy::AllInternalZero, &var, &times).unwrap();
        assert_eq!(a, b);
    }
}
