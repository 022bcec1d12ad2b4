//! Monte-Carlo estimation of signal probabilities and switching activity.
//!
//! This is the statistical route the paper's flow describes: simulate a
//! large number of random input vectors and count per-net 1-frequencies
//! (signal probability) and toggle frequencies (activity factor). Seeded
//! for reproducibility.

use relia_core::seal::Xoshiro256;
use relia_netlist::{Circuit, NetId};

use crate::error::SimError;
use crate::logic;
use crate::prob::SignalProbs;

/// Monte-Carlo estimates: per-net signal probability and toggle activity.
#[derive(Debug, Clone, PartialEq)]
pub struct McEstimate {
    probs: SignalProbs,
    activity: Vec<f64>,
    samples: usize,
}

impl McEstimate {
    /// Estimated signal probabilities.
    pub fn probs(&self) -> &SignalProbs {
        &self.probs
    }

    /// Estimated toggle activity of `net`: the fraction of consecutive
    /// vector pairs on which the net changed value.
    pub fn activity_of(&self, net: NetId) -> f64 {
        self.activity[net.index()]
    }

    /// Number of vectors simulated.
    pub fn samples(&self) -> usize {
        self.samples
    }
}

/// Estimates signal probabilities and activity by simulating `samples`
/// random vectors drawn with independent per-input probabilities
/// `pi_probs`, using the seeded generator for reproducibility.
///
/// # Errors
///
/// Returns [`SimError`] for width mismatches, invalid probabilities, or
/// `samples == 0`.
///
/// ```
/// use relia_netlist::iscas;
/// use relia_sim::monte_carlo;
///
/// let c = iscas::c17();
/// let est = monte_carlo::estimate(&c, &[0.5; 5], 2000, 42)?;
/// let first_nand = c.gates()[0].output();
/// // NAND of two fair inputs is 1 three quarters of the time.
/// assert!((est.probs().of(first_nand) - 0.75).abs() < 0.05);
/// # Ok::<(), relia_sim::SimError>(())
/// ```
pub fn estimate(
    circuit: &Circuit,
    pi_probs: &[f64],
    samples: usize,
    seed: u64,
) -> Result<McEstimate, SimError> {
    let pis = circuit.primary_inputs();
    if pi_probs.len() != pis.len() {
        return Err(SimError::StimulusWidthMismatch {
            expected: pis.len(),
            got: pi_probs.len(),
        });
    }
    for (i, &p) in pi_probs.iter().enumerate() {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(SimError::InvalidProbability { index: i, value: p });
        }
    }
    if samples == 0 {
        return Err(SimError::NoSamples);
    }

    let mut rng = Xoshiro256::new(seed);
    let num_nets = circuit.nets().len();
    let mut ones = vec![0u64; num_nets];
    let mut toggles = vec![0u64; num_nets];
    let mut prev: Option<Vec<bool>> = None;

    for _ in 0..samples {
        let stim: Vec<bool> = pi_probs.iter().map(|&p| rng.chance(p)).collect();
        let values = logic::simulate(circuit, &stim)?;
        let slice = values.as_slice();
        for (i, &v) in slice.iter().enumerate() {
            if v {
                ones[i] += 1;
            }
            if let Some(ref p) = prev {
                if p[i] != v {
                    toggles[i] += 1;
                }
            }
        }
        prev = Some(slice.to_vec());
    }

    let n = samples as f64;
    let pairs = (samples.saturating_sub(1)).max(1) as f64;
    Ok(McEstimate {
        probs: SignalProbs::from_vec(ones.iter().map(|&c| c as f64 / n).collect()),
        activity: toggles.iter().map(|&c| c as f64 / pairs).collect(),
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prob;

    #[test]
    fn estimates_converge_to_propagated_probabilities_on_trees() {
        // c17 has reconvergence, but shallow; MC and propagation should
        // agree within a few percent at 0.5 inputs.
        let c = relia_netlist::iscas::c17();
        let est = estimate(&c, &[0.5; 5], 4000, 7).unwrap();
        let sp = prob::propagate(&c, &[0.5; 5]).unwrap();
        for (i, net) in c.nets().iter().enumerate() {
            let _ = net;
            let d = (est.probs().as_slice()[i] - sp.as_slice()[i]).abs();
            assert!(
                d < 0.06,
                "net {i}: mc={} prop={}",
                est.probs().as_slice()[i],
                sp.as_slice()[i]
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let c = relia_netlist::iscas::c17();
        let a = estimate(&c, &[0.5; 5], 500, 99).unwrap();
        let b = estimate(&c, &[0.5; 5], 500, 99).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let c = relia_netlist::iscas::c17();
        let a = estimate(&c, &[0.5; 5], 500, 1).unwrap();
        let b = estimate(&c, &[0.5; 5], 500, 2).unwrap();
        assert_ne!(a.probs().as_slice(), b.probs().as_slice());
    }

    #[test]
    fn activity_of_constant_input_is_zero() {
        let c = relia_netlist::iscas::c17();
        let est = estimate(&c, &[1.0, 0.5, 0.5, 0.5, 0.5], 300, 3).unwrap();
        let pi0 = c.primary_inputs()[0];
        assert_eq!(est.activity_of(pi0), 0.0);
        assert!((est.probs().of(pi0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_samples_is_error() {
        let c = relia_netlist::iscas::c17();
        assert!(matches!(
            estimate(&c, &[0.5; 5], 0, 1),
            Err(SimError::NoSamples)
        ));
    }
}
