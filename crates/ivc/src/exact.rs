//! Exhaustive minimum-leakage-vector search (ground truth for the
//! heuristic, feasible for small input counts).

use relia_flow::{AgingAnalysis, FlowError};

/// Upper bound on the input count accepted by [`exhaustive_mlv`].
pub const MAX_EXHAUSTIVE_INPUTS: usize = 16;

/// Finds the true minimum-leakage vector by enumerating all `2^n` inputs.
///
/// Returns `(vector, leakage)`.
///
/// # Errors
///
/// Returns [`FlowError`] when leakage evaluation fails.
///
/// # Panics
///
/// Panics when the circuit has more than [`MAX_EXHAUSTIVE_INPUTS`] primary
/// inputs (use the probability-based search instead).
pub fn exhaustive_mlv(analysis: &AgingAnalysis<'_>) -> Result<(Vec<bool>, f64), FlowError> {
    let n = analysis.circuit().primary_inputs().len();
    assert!(
        n <= MAX_EXHAUSTIVE_INPUTS,
        "exhaustive search over {n} inputs would enumerate 2^{n} vectors"
    );
    let mut best: Option<(Vec<bool>, f64)> = None;
    for bits in 0..(1u64 << n) {
        let v: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        let leakage = analysis.standby_leakage(&v)?;
        if best.as_ref().map(|(_, l)| leakage < *l).unwrap_or(true) {
            best = Some((v, leakage));
        }
    }
    #[expect(clippy::expect_used, reason = "bits = 0 always sets `best`")]
    Ok(best.expect("n >= 0 always yields at least one vector"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relia_flow::FlowConfig;
    use relia_netlist::iscas;

    #[test]
    fn exhaustive_is_truly_minimal_on_c17() {
        let circuit = iscas::c17();
        let config = FlowConfig::paper_defaults().unwrap();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        let (v, l) = exhaustive_mlv(&analysis).unwrap();
        assert_eq!(v.len(), 5);
        for bits in 0..32u32 {
            let w: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            assert!(analysis.standby_leakage(&w).unwrap() >= l - 1e-18);
        }
    }
}
