//! The probability-based MLV-set search (the paper's Fig. 7 pseudocode).
//!
//! The algorithm evolves a population of input vectors:
//!
//! 1. generate `vectors_per_round` random vectors;
//! 2. keep the *MLV set*: every distinct vector whose standby leakage is
//!    within `epsilon` (relative) of the set minimum;
//! 3. estimate each primary input's probability of being 1 from its
//!    frequency in the set;
//! 4. sample the next round from those probabilities;
//! 5. stop when every probability has converged to 0 or 1 (no new vectors
//!    can appear) or the round budget is exhausted.

use relia_core::seal::Xoshiro256;
use relia_flow::{AgingAnalysis, FlowError};

/// Parameters of the MLV search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlvSearchConfig {
    /// Vectors sampled per round.
    pub vectors_per_round: usize,
    /// Relative leakage band around the set minimum that keeps a vector in
    /// the MLV set (the paper uses 4%).
    pub epsilon: f64,
    /// Maximum number of evolution rounds.
    pub max_rounds: usize,
    /// A probability within this distance of 0 or 1 counts as converged.
    pub convergence: f64,
    /// Cap on the returned set size (lowest-leakage vectors win).
    pub max_set_size: usize,
    /// Independent evolution restarts whose candidate sets are merged —
    /// each restart can converge to a different low-leakage basin, which
    /// keeps the final set diverse.
    pub restarts: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MlvSearchConfig {
    fn default() -> Self {
        MlvSearchConfig {
            vectors_per_round: 128,
            epsilon: 0.04,
            max_rounds: 24,
            convergence: 0.02,
            max_set_size: 16,
            restarts: 4,
            seed: 0x17C,
        }
    }
}

/// The resulting MLV set: distinct vectors within the leakage band, sorted
/// by leakage (lowest first).
#[derive(Debug, Clone, PartialEq)]
pub struct MlvSet {
    vectors: Vec<(Vec<bool>, f64)>,
    rounds_used: usize,
}

impl MlvSet {
    /// `(vector, leakage)` pairs, lowest leakage first.
    pub fn vectors(&self) -> &[(Vec<bool>, f64)] {
        &self.vectors
    }

    /// The minimum leakage found, in amperes.
    pub fn min_leakage(&self) -> f64 {
        self.vectors.first().map(|(_, l)| *l).unwrap_or(f64::NAN)
    }

    /// The spread of leakage across the set, relative to the minimum.
    pub fn relative_spread(&self) -> f64 {
        match (self.vectors.first(), self.vectors.last()) {
            (Some((_, lo)), Some((_, hi))) => (hi - lo) / lo,
            _ => 0.0,
        }
    }

    /// Rounds the search ran before converging.
    pub fn rounds_used(&self) -> usize {
        self.rounds_used
    }
}

/// Runs the probability-based MLV-set search over the prepared analysis.
///
/// # Errors
///
/// Returns [`FlowError::InvalidParameter`] when `vectors_per_round` or
/// `max_rounds` is zero, which leaves nothing to search, and
/// [`FlowError`] if leakage evaluation fails (malformed circuit state).
pub fn search_mlv_set(
    analysis: &AgingAnalysis<'_>,
    config: &MlvSearchConfig,
) -> Result<MlvSet, FlowError> {
    for (name, value) in [
        ("vectors_per_round", config.vectors_per_round),
        ("max_rounds", config.max_rounds),
    ] {
        if value == 0 {
            return Err(FlowError::InvalidParameter { name, value: 0.0 });
        }
    }
    let mut merged: Vec<(Vec<bool>, f64)> = Vec::new();
    let mut rounds_total = 0;
    for r in 0..config.restarts.max(1) {
        let one = search_once(analysis, config, config.seed.wrapping_add(r as u64))?;
        rounds_total += one.rounds_used;
        for (v, l) in one.vectors {
            if !merged.iter().any(|(mv, _)| *mv == v) {
                merged.push((v, l));
            }
        }
    }
    merged.sort_by(|a, b| a.1.total_cmp(&b.1));
    let min = merged[0].1;
    merged.retain(|(_, l)| *l <= min * (1.0 + config.epsilon));
    let vectors = diversify(merged, min, config.max_set_size.max(1));
    Ok(MlvSet {
        vectors,
        rounds_used: rounds_total,
    })
}

/// Keeps the set diverse within the leakage band: converged populations
/// emit many twins of the best vector (differing only in don't-care
/// inputs), which would crowd out genuinely different candidates. Each
/// leakage micro-bucket keeps at most two representatives.
fn diversify(sorted: Vec<(Vec<bool>, f64)>, min: f64, cap: usize) -> Vec<(Vec<bool>, f64)> {
    let mut kept: Vec<(Vec<bool>, f64)> = Vec::with_capacity(cap);
    let mut bucket_counts: Vec<(i64, usize)> = Vec::new();
    for (v, l) in sorted {
        let bucket = ((l / min - 1.0) / 1e-4).round() as i64;
        let count = bucket_counts
            .iter_mut()
            .find(|(b, _)| *b == bucket)
            .map(|(_, c)| {
                *c += 1;
                *c
            })
            .unwrap_or_else(|| {
                bucket_counts.push((bucket, 1));
                1
            });
        if count <= 2 {
            kept.push((v, l));
        }
        if kept.len() >= cap {
            break;
        }
    }
    kept
}

/// One evolution run from a single seed.
fn search_once(
    analysis: &AgingAnalysis<'_>,
    config: &MlvSearchConfig,
    seed: u64,
) -> Result<MlvSet, FlowError> {
    let n = analysis.circuit().primary_inputs().len();
    let mut rng = Xoshiro256::new(seed);
    // The first restart starts unbiased; later restarts start from random
    // biases so they can converge to different low-leakage basins.
    let mut probs: Vec<f64> = if seed == config.seed {
        vec![0.5; n]
    } else {
        (0..n).map(|_| rng.uniform(0.15, 0.85)).collect()
    };
    // The evolving MLV set, keyed by vector; (vector, leakage).
    let mut set: Vec<(Vec<bool>, f64)> = Vec::new();
    let mut rounds_used = config.max_rounds;

    for round in 0..config.max_rounds {
        for _ in 0..config.vectors_per_round {
            let v: Vec<bool> = probs.iter().map(|&p| rng.chance(p)).collect();
            if set.iter().any(|(sv, _)| *sv == v) {
                continue;
            }
            let leakage = analysis.standby_leakage(&v)?;
            set.push((v, leakage));
        }
        set.sort_by(|a, b| a.1.total_cmp(&b.1));
        let min = set[0].1;
        set.retain(|(_, l)| *l <= min * (1.0 + config.epsilon));
        set = diversify(set, min, config.max_set_size.max(1));

        // Re-estimate per-input probabilities from the surviving set.
        for (i, p) in probs.iter_mut().enumerate() {
            let ones = set.iter().filter(|(v, _)| v[i]).count();
            *p = ones as f64 / set.len() as f64;
            // Keep a sliver of exploration until convergence.
            *p = p.clamp(0.02, 0.98);
        }
        let converged = probs
            .iter()
            .all(|&p| p <= 0.02 + config.convergence || p >= 0.98 - config.convergence);
        if converged {
            rounds_used = round + 1;
            break;
        }
    }

    Ok(MlvSet {
        vectors: set,
        rounds_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relia_flow::FlowConfig;
    use relia_netlist::iscas;

    fn search_c17(config: MlvSearchConfig) -> Result<MlvSet, FlowError> {
        let circuit = iscas::c17();
        let flow = FlowConfig::paper_defaults().unwrap();
        let analysis = AgingAnalysis::new(&flow, &circuit).unwrap();
        search_mlv_set(&analysis, &config)
    }

    fn run(seed: u64) -> MlvSet {
        search_c17(MlvSearchConfig {
            seed,
            ..MlvSearchConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn finds_the_true_minimum_on_c17() {
        // c17 has 5 inputs: exhaustive ground truth is cheap.
        let circuit = iscas::c17();
        let config = FlowConfig::paper_defaults().unwrap();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        let mut best = f64::MAX;
        for bits in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            best = best.min(analysis.standby_leakage(&v).unwrap());
        }
        let set = run(1);
        assert!(
            (set.min_leakage() - best).abs() / best < 1e-9,
            "heuristic {} vs exhaustive {}",
            set.min_leakage(),
            best
        );
    }

    #[test]
    fn set_respects_the_band() {
        let set = run(2);
        assert!(set.relative_spread() <= 0.04 + 1e-12);
        for w in set.vectors().windows(2) {
            assert!(w[0].1 <= w[1].1, "set must be sorted");
        }
    }

    #[test]
    fn vectors_are_distinct() {
        let set = run(3);
        let mut vs: Vec<&Vec<bool>> = set.vectors().iter().map(|(v, _)| v).collect();
        let before = vs.len();
        vs.sort();
        vs.dedup();
        assert_eq!(vs.len(), before);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(run(7).vectors(), run(7).vectors());
    }

    #[test]
    fn zero_vectors_per_round_is_an_invalid_parameter() {
        let err = search_c17(MlvSearchConfig {
            vectors_per_round: 0,
            ..MlvSearchConfig::default()
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                FlowError::InvalidParameter {
                    name: "vectors_per_round",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn zero_max_rounds_is_an_invalid_parameter() {
        let err = search_c17(MlvSearchConfig {
            max_rounds: 0,
            ..MlvSearchConfig::default()
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                FlowError::InvalidParameter {
                    name: "max_rounds",
                    ..
                }
            ),
            "{err}"
        );
    }
}
