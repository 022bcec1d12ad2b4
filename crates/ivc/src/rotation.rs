//! Alternating input vector control (the Penelope-style rotation of
//! Abella et al., the paper's ref.\[23\]).
//!
//! Any *single* standby vector always stresses the same PMOS devices, so
//! over the lifetime those devices take the full standby damage. Rotating
//! among several vectors that stress *different* devices spreads the
//! damage: each PMOS's standby stress probability becomes the fraction of
//! rotation slots that stress it, and because damage grows sublinearly
//! (`t^(1/4)` with recovery in between), the worst device ages less than
//! under any fixed member of the rotation.

use relia_flow::{AgingAnalysis, FlowError, StandbyPolicy};

/// Evaluation of a rotation schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct RotationEvaluation {
    /// The rotated vectors.
    pub vectors: Vec<Vec<bool>>,
    /// Relative delay degradation over the configured lifetime under the
    /// rotation.
    pub degradation: f64,
    /// Average standby leakage across the rotation (each vector gets an
    /// equal share of the standby time).
    pub mean_leakage: f64,
}

/// Evaluates an equal-share rotation among `vectors`
/// ([`StandbyPolicy::Rotation`]): each standby period parks the circuit on
/// the next vector in turn, so each PMOS's standby stress probability is
/// its stress frequency across the set.
///
/// # Errors
///
/// Returns [`FlowError`] for an empty set or malformed vectors.
pub fn evaluate_rotation(
    analysis: &AgingAnalysis<'_>,
    vectors: &[Vec<bool>],
) -> Result<RotationEvaluation, FlowError> {
    let report = analysis.run(&StandbyPolicy::Rotation(vectors.to_vec()))?;
    #[expect(clippy::expect_used, reason = "rotations report leakage")]
    let mean_leakage = report.standby_leakage.expect("rotations report leakage");
    Ok(RotationEvaluation {
        vectors: vectors.to_vec(),
        degradation: report.degraded.max_delay_ps() / report.nominal.max_delay_ps() - 1.0,
        mean_leakage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlv::{search_mlv_set, MlvSearchConfig};
    use relia_flow::FlowConfig;
    use relia_netlist::iscas;

    #[test]
    fn rotation_never_beats_zero_but_beats_worst_member() {
        let circuit = iscas::c17();
        let config = FlowConfig::paper_defaults().unwrap();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        // Two complementary vectors stress disjoint PMOS sets.
        let a = vec![false; 5];
        let b = vec![true; 5];
        let rot = evaluate_rotation(&analysis, &[a.clone(), b.clone()]).unwrap();
        let da = analysis
            .run(&StandbyPolicy::InputVector(a))
            .unwrap()
            .degradation_fraction();
        let db = analysis
            .run(&StandbyPolicy::InputVector(b))
            .unwrap()
            .degradation_fraction();
        let worst_member = da.max(db);
        assert!(
            rot.degradation <= worst_member + 1e-12,
            "rotation {} vs worst member {}",
            rot.degradation,
            worst_member
        );
        assert!(rot.degradation > 0.0);
    }

    #[test]
    fn rotating_the_mlv_set_spreads_damage() {
        let circuit = iscas::circuit("c432").unwrap();
        let config = FlowConfig::paper_defaults().unwrap();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        let set = search_mlv_set(
            &analysis,
            &MlvSearchConfig {
                vectors_per_round: 48,
                max_rounds: 6,
                ..MlvSearchConfig::default()
            },
        )
        .unwrap();
        let vectors: Vec<Vec<bool>> = set.vectors().iter().map(|(v, _)| v.clone()).collect();
        let rot = evaluate_rotation(&analysis, &vectors).unwrap();
        // The rotation's leakage stays within the MLV band.
        assert!(rot.mean_leakage <= set.min_leakage() * 1.04 + 1e-18);
        // And its degradation is no worse than the worst single member.
        let worst_member = vectors
            .iter()
            .map(|v| {
                analysis
                    .run(&StandbyPolicy::InputVector(v.clone()))
                    .unwrap()
                    .degradation_fraction()
            })
            .fold(0.0f64, f64::max);
        assert!(rot.degradation <= worst_member + 1e-12);
    }

    #[test]
    fn empty_rotation_is_error() {
        let circuit = iscas::c17();
        let config = FlowConfig::paper_defaults().unwrap();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        let err = evaluate_rotation(&analysis, &[]).unwrap_err();
        assert!(err.to_string().contains("rotation vector count"), "{err}");
    }
}
