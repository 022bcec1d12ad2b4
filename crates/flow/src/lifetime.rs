//! Inverse analysis: how long until the circuit eats its aging guardband?
//!
//! Designers budget a timing margin (say 5%) for aging; the question is
//! whether the circuit survives its mission time within that budget. This
//! module bisects the monotone degradation-vs-time curve to find the
//! crossing.

use relia_core::Seconds;
use relia_sta::TimingAnalysis;

use crate::analysis::AgingAnalysis;
use crate::error::FlowError;
use crate::policy::StandbyPolicy;

/// Result of the lifetime solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LifetimeBudget {
    /// The degradation crosses the budget at this operating time.
    ExhaustedAt(Seconds),
    /// The budget survives the whole search horizon.
    SurvivesBeyond(Seconds),
}

/// Finds the operating time at which the relative delay degradation under
/// `policy` first reaches `budget` (e.g. `0.05` for a 5% guardband),
/// searching up to `horizon`.
///
/// The degradation is monotone in time, so bisection converges; the answer
/// is accurate to ~0.5% of the crossing time.
///
/// # Errors
///
/// Returns [`FlowError`] for an invalid policy or a non-positive budget or
/// horizon.
///
/// ```
/// use relia_core::Seconds;
/// use relia_flow::{lifetime_to_budget, AgingAnalysis, FlowConfig, LifetimeBudget, StandbyPolicy};
/// use relia_netlist::iscas;
///
/// # fn main() -> Result<(), relia_flow::FlowError> {
/// let circuit = iscas::c17();
/// let config = FlowConfig::paper_defaults()?;
/// let analysis = AgingAnalysis::new(&config, &circuit)?;
/// // A generous 10% budget survives the 10-year horizon...
/// let b = lifetime_to_budget(&analysis, &StandbyPolicy::AllInternalZero, 0.10, Seconds(1.0e8))?;
/// assert!(matches!(b, LifetimeBudget::SurvivesBeyond(_)));
/// // ...a 2% budget does not.
/// let b = lifetime_to_budget(&analysis, &StandbyPolicy::AllInternalZero, 0.02, Seconds(1.0e8))?;
/// assert!(matches!(b, LifetimeBudget::ExhaustedAt(_)));
/// # Ok(())
/// # }
/// ```
pub fn lifetime_to_budget(
    analysis: &AgingAnalysis<'_>,
    policy: &StandbyPolicy,
    budget: f64,
    horizon: Seconds,
) -> Result<LifetimeBudget, FlowError> {
    if budget <= 0.0 || !budget.is_finite() {
        return Err(FlowError::InvalidParameter {
            name: "budget",
            value: budget,
        });
    }
    if horizon.0 <= 0.0 || !horizon.0.is_finite() {
        return Err(FlowError::InvalidParameter {
            name: "horizon",
            value: horizon.0,
        });
    }
    let circuit = analysis.circuit();
    let params = analysis.config().nbti.params();
    let nominal = TimingAnalysis::nominal(circuit).max_delay_ps();
    let degradation_at = |t: Seconds| -> Result<f64, FlowError> {
        let shifts = analysis.gate_delta_vth(policy, t)?;
        let aged = TimingAnalysis::degraded(circuit, &shifts, params)?;
        Ok(aged.max_delay_ps() / nominal - 1.0)
    };

    if degradation_at(horizon)? < budget {
        return Ok(LifetimeBudget::SurvivesBeyond(horizon));
    }
    // Bisect on log-time (geometric midpoint): degradation is smooth and
    // monotone in t^(1/4).
    let mut lo = (horizon.0 * 1e-8).max(1.0);
    let mut hi = horizon.0;
    for _ in 0..40 {
        let mid = (lo * hi).sqrt();
        if degradation_at(Seconds(mid))? < budget {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi / lo < 1.005 {
            break;
        }
    }
    Ok(LifetimeBudget::ExhaustedAt(Seconds(hi)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConfig;
    use relia_netlist::iscas;

    #[test]
    fn crossing_time_matches_forward_evaluation() {
        let circuit = iscas::circuit("c432").unwrap();
        let config = FlowConfig::paper_defaults().unwrap();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        let policy = StandbyPolicy::AllInternalZero;
        let budget = 0.03;
        match lifetime_to_budget(&analysis, &policy, budget, Seconds(1.0e8)).unwrap() {
            LifetimeBudget::ExhaustedAt(t) => {
                // Just before the crossing the degradation is below budget;
                // just after, above.
                let before = {
                    let s = analysis
                        .gate_delta_vth(&policy, Seconds(t.0 * 0.8))
                        .unwrap();
                    let aged =
                        TimingAnalysis::degraded(&circuit, &s, analysis.config().nbti.params())
                            .unwrap();
                    aged.max_delay_ps() / TimingAnalysis::nominal(&circuit).max_delay_ps() - 1.0
                };
                assert!(before < budget, "before crossing: {before}");
                assert!(t.0 > 1.0e5 && t.0 < 1.0e8, "crossing at {t}");
            }
            other => panic!("expected a crossing, got {other:?}"),
        }
    }

    #[test]
    fn tighter_budgets_exhaust_sooner() {
        let circuit = iscas::c17();
        let config = FlowConfig::paper_defaults().unwrap();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        let policy = StandbyPolicy::AllInternalZero;
        let t2 = match lifetime_to_budget(&analysis, &policy, 0.02, Seconds(1.0e8)).unwrap() {
            LifetimeBudget::ExhaustedAt(t) => t.0,
            other => panic!("{other:?}"),
        };
        let t3 = match lifetime_to_budget(&analysis, &policy, 0.03, Seconds(1.0e8)).unwrap() {
            LifetimeBudget::ExhaustedAt(t) => t.0,
            other => panic!("{other:?}"),
        };
        assert!(t2 < t3);
    }

    #[test]
    fn bad_budget_is_error() {
        let circuit = iscas::c17();
        let config = FlowConfig::paper_defaults().unwrap();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        assert!(lifetime_to_budget(
            &analysis,
            &StandbyPolicy::AllInternalZero,
            -0.1,
            Seconds(1.0e8)
        )
        .is_err());
    }
}
