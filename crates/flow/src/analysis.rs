//! The aging analysis proper: per-PMOS stress → ΔV_th → degraded timing +
//! leakage.

use relia_cells::Vector;
use relia_core::{CancelToken, PmosStress};
use relia_leakage::{circuit_leakage, expected_circuit_leakage, LeakageTable};
use relia_netlist::Circuit;
use relia_sim::{logic, prob, SignalProbs};
use relia_sta::{TimingAnalysis, TimingReport};

use crate::cache::DeltaVthCache;
#[cfg(doc)]
use crate::cache::NoCache;
use crate::config::{FlowConfig, SpEstimator};
use crate::error::FlowError;
use crate::policy::StandbyPolicy;

/// The schedule-independent half of an aging analysis: signal
/// probabilities, per-PMOS active-mode stress duty cycles, and the leakage
/// table.
///
/// These quantities depend on the circuit and on the probability/leakage
/// configuration (`input_probs`, `sp_estimator`, `devices`,
/// `leakage_temp`) but **not** on the operating schedule or lifetime, so a
/// batch sweep that varies only RAS, standby temperature, or lifetime can
/// compute one `AnalysisPrep` per circuit and share it — cloning is cheap
/// relative to rebuilding — across every job via
/// [`AgingAnalysis::from_prep`].
#[derive(Debug, Clone)]
pub struct AnalysisPrep {
    probs: SignalProbs,
    /// Active-mode stress probability of every PMOS, grouped per gate.
    active_stress: Vec<Vec<f64>>,
    table: LeakageTable,
}

/// A prepared analysis over one circuit: signal probabilities and leakage
/// tables are computed once and reused across standby policies (the
/// expensive, policy-independent half of the flow).
#[derive(Debug, Clone)]
pub struct AgingAnalysis<'a> {
    config: &'a FlowConfig,
    circuit: &'a Circuit,
    prep: AnalysisPrep,
}

impl<'a> AgingAnalysis<'a> {
    /// Prepares the analysis: propagates signal probabilities, derives each
    /// PMOS device's active-mode stress duty cycle, and builds the leakage
    /// table.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] for invalid input probabilities.
    pub fn new(config: &'a FlowConfig, circuit: &'a Circuit) -> Result<Self, FlowError> {
        let prep = AgingAnalysis::prep(config, circuit)?;
        Ok(AgingAnalysis::from_prep(config, circuit, prep))
    }

    /// Computes the schedule-independent preparation alone, for reuse
    /// across configs that differ only in schedule and/or lifetime.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] for invalid input probabilities.
    pub fn prep(config: &FlowConfig, circuit: &Circuit) -> Result<AnalysisPrep, FlowError> {
        let n = circuit.primary_inputs().len();
        if let Some(p) = &config.input_probs {
            if p.len() != n {
                return Err(FlowError::StandbyVectorWidth {
                    expected: n,
                    got: p.len(),
                });
            }
        }
        let pi_probs = config.resolved_input_probs(n);
        let probs = match config.sp_estimator {
            SpEstimator::Propagation => prob::propagate(circuit, &pi_probs)?,
            SpEstimator::MonteCarlo { samples, seed } => {
                relia_sim::monte_carlo::estimate(circuit, &pi_probs, samples, seed)?
                    .probs()
                    .clone()
            }
        };
        let active_stress = circuit
            .gates()
            .iter()
            .map(|gate| {
                let pin_probs: Vec<f64> = gate.inputs().iter().map(|&net| probs.of(net)).collect();
                circuit
                    .library()
                    .cell(gate.cell())
                    .stress_probabilities(&pin_probs)
            })
            .collect();
        let table = LeakageTable::build(circuit.library(), &config.devices, config.leakage_temp);
        Ok(AnalysisPrep {
            probs,
            active_stress,
            table,
        })
    }

    /// Assembles an analysis from a precomputed [`AnalysisPrep`].
    ///
    /// The prep must have been built for the same `circuit` and for a
    /// config agreeing with this one on `input_probs`, `sp_estimator`,
    /// `devices`, and `leakage_temp`; schedule and lifetime are free to
    /// differ (they are exactly what batch sweeps vary per job).
    pub fn from_prep(config: &'a FlowConfig, circuit: &'a Circuit, prep: AnalysisPrep) -> Self {
        AgingAnalysis {
            config,
            circuit,
            prep,
        }
    }

    /// The propagated active-mode signal probabilities.
    pub fn signal_probs(&self) -> &SignalProbs {
        &self.prep.probs
    }

    /// The leakage lookup table in use.
    pub fn leakage_table(&self) -> &LeakageTable {
        &self.prep.table
    }

    /// Per-gate worst-case PMOS ΔV_th (volts) after the configured lifetime
    /// under `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] for a malformed standby vector.
    pub fn gate_delta_vth(&self, policy: &StandbyPolicy) -> Result<Vec<f64>, FlowError> {
        self.gate_delta_vth_at(policy, self.config.lifetime)
    }

    /// Per-gate worst-case PMOS ΔV_th after an explicit operating time
    /// (used by time sweeps and the variation study).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] for a malformed standby vector.
    pub fn gate_delta_vth_at(
        &self,
        policy: &StandbyPolicy,
        lifetime: relia_core::Seconds,
    ) -> Result<Vec<f64>, FlowError> {
        let standby_flags = self.standby_stress_flags(policy)?;
        let mut out = Vec::with_capacity(self.circuit.gates().len());
        for (gi, active) in self.prep.active_stress.iter().enumerate() {
            let standby = &standby_flags[gi];
            let mut worst: f64 = 0.0;
            for (pi, &p_active) in active.iter().enumerate() {
                let p_standby = if standby[pi] { 1.0 } else { 0.0 };
                let stress = PmosStress::new(p_active, p_standby)?;
                let dv = self
                    .config
                    .nbti
                    .delta_vth(lifetime, &self.config.schedule, &stress)?;
                worst = worst.max(dv);
            }
            out.push(worst);
        }
        Ok(out)
    }

    /// Like [`AgingAnalysis::gate_delta_vth_at`], but consulting a
    /// [`DeltaVthCache`] so repeated stress points are evaluated once.
    ///
    /// Model evaluations go through [`relia_core::StressKey`]: each
    /// (schedule, stress, lifetime) point is quantized and evaluated at the
    /// key's canonical point, so results are a pure function of the key and
    /// identical whether the cache is shared across threads, private, or
    /// [`NoCache`]. The quantization perturbs ΔV_th by parts in 1e10
    /// relative to the direct [`AgingAnalysis::gate_delta_vth_at`] path.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] for a malformed standby vector, and the
    /// model's error for a lifetime the key lattice cannot hold
    /// ([`relia_core::StressKey::lifetime_ms`]).
    pub fn gate_delta_vth_at_cached<C: DeltaVthCache>(
        &self,
        policy: &StandbyPolicy,
        lifetime: relia_core::Seconds,
        cache: &C,
    ) -> Result<Vec<f64>, FlowError> {
        self.gate_delta_vth_at_cached_cancellable(policy, lifetime, cache, &CancelToken::new())
    }

    /// Like [`AgingAnalysis::gate_delta_vth_at_cached`], but polling a
    /// cooperative [`CancelToken`] at every gate boundary: when a watchdog
    /// sets the token, the loop abandons the remaining gates and returns
    /// [`FlowError::Cancelled`] instead of running to completion. Partial
    /// results are discarded, so cancellation can never leak a truncated
    /// ΔV_th vector into a report.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Cancelled`] once `cancel` is set, or the usual
    /// [`FlowError`]s for malformed standby vectors.
    pub fn gate_delta_vth_at_cached_cancellable<C: DeltaVthCache>(
        &self,
        policy: &StandbyPolicy,
        lifetime: relia_core::Seconds,
        cache: &C,
        cancel: &CancelToken,
    ) -> Result<Vec<f64>, FlowError> {
        let standby_flags = self.standby_stress_flags(policy)?;
        let mut out = Vec::with_capacity(self.circuit.gates().len());
        for (gi, active) in self.prep.active_stress.iter().enumerate() {
            if cancel.is_cancelled() {
                return Err(FlowError::Cancelled);
            }
            let standby = &standby_flags[gi];
            let mut worst: f64 = 0.0;
            for (pi, &p_active) in active.iter().enumerate() {
                let p_standby = if standby[pi] { 1.0 } else { 0.0 };
                let stress = PmosStress::new(p_active, p_standby)?;
                let key = self.config.stress_key(&stress, lifetime)?;
                let dv = cache.delta_vth(key, &self.config.nbti)?;
                worst = worst.max(dv);
            }
            out.push(worst);
        }
        Ok(out)
    }

    /// Per-gate worst-case PMOS ΔV_th when each PMOS has a *fractional*
    /// standby stress probability (e.g. an alternating-IVC rotation that
    /// parks the circuit on different vectors over time).
    /// `standby_probs[g][p]` is the probability that PMOS `p` of gate `g`
    /// is stressed during standby.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::GateVectorWidth`] for a malformed probability
    /// array, or model errors for probabilities outside `[0, 1]`.
    pub fn gate_delta_vth_with_standby_probs(
        &self,
        standby_probs: &[Vec<f64>],
    ) -> Result<Vec<f64>, FlowError> {
        if standby_probs.len() != self.circuit.gates().len() {
            return Err(FlowError::GateVectorWidth {
                expected: self.circuit.gates().len(),
                got: standby_probs.len(),
            });
        }
        let mut out = Vec::with_capacity(self.circuit.gates().len());
        for (gi, active) in self.prep.active_stress.iter().enumerate() {
            if standby_probs[gi].len() != active.len() {
                return Err(FlowError::GateVectorWidth {
                    expected: active.len(),
                    got: standby_probs[gi].len(),
                });
            }
            let mut worst: f64 = 0.0;
            for (pi, &p_active) in active.iter().enumerate() {
                let stress = PmosStress::new(p_active, standby_probs[gi][pi])?;
                let dv = self.config.nbti.delta_vth(
                    self.config.lifetime,
                    &self.config.schedule,
                    &stress,
                )?;
                worst = worst.max(dv);
            }
            out.push(worst);
        }
        Ok(out)
    }

    /// Standby stress flags (one `bool` per PMOS, grouped per gate) for the
    /// circuit frozen at the primary-input vector `vector` — the raw
    /// switch-level result the policies build on.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] for a malformed vector.
    pub fn standby_stress_of_vector(&self, vector: &[bool]) -> Result<Vec<Vec<bool>>, FlowError> {
        self.standby_stress_flags(&StandbyPolicy::InputVector(vector.to_vec()))
    }

    /// Runs the full analysis under `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] for malformed vectors or model failures.
    pub fn run(&self, policy: &StandbyPolicy) -> Result<AgingReport, FlowError> {
        let gate_delta_vth = self.gate_delta_vth(policy)?;
        self.finish_report(policy, gate_delta_vth)
    }

    /// Runs the full analysis under `policy` with memoized model
    /// evaluations (see [`AgingAnalysis::gate_delta_vth_at_cached`]).
    /// `run_with_cache(policy, &NoCache)` is numerically identical to a
    /// cached run with any other conforming cache.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] for malformed vectors or model failures.
    pub fn run_with_cache<C: DeltaVthCache>(
        &self,
        policy: &StandbyPolicy,
        cache: &C,
    ) -> Result<AgingReport, FlowError> {
        self.run_with_cache_cancellable(policy, cache, &CancelToken::new())
    }

    /// Runs the full cached analysis under a cooperative [`CancelToken`]:
    /// the ΔV_th loop — the expensive half of the flow — polls the token at
    /// every gate, so a sweep watchdog can turn a straggling job into
    /// [`FlowError::Cancelled`] instead of a pool-stalling hang.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Cancelled`] once `cancel` is set, or the usual
    /// [`FlowError`]s for malformed vectors and model failures.
    pub fn run_with_cache_cancellable<C: DeltaVthCache>(
        &self,
        policy: &StandbyPolicy,
        cache: &C,
        cancel: &CancelToken,
    ) -> Result<AgingReport, FlowError> {
        let gate_delta_vth =
            self.gate_delta_vth_at_cached_cancellable(policy, self.config.lifetime, cache, cancel)?;
        self.finish_report(policy, gate_delta_vth)
    }

    /// Timing + leakage from a per-gate ΔV_th vector (shared tail of the
    /// cached and uncached run paths).
    fn finish_report(
        &self,
        policy: &StandbyPolicy,
        gate_delta_vth: Vec<f64>,
    ) -> Result<AgingReport, FlowError> {
        let nominal = TimingAnalysis::nominal(self.circuit);
        let degraded =
            TimingAnalysis::degraded(self.circuit, &gate_delta_vth, self.config.nbti.params())?;
        let standby_leakage = match policy {
            StandbyPolicy::InputVector(v) => {
                Some(circuit_leakage(self.circuit, v, &self.prep.table)?)
            }
            // Control points perturb the leakage of the forced gates only;
            // report the base vector's leakage as the (close) estimate.
            StandbyPolicy::ControlPoints { vector, .. } => {
                Some(circuit_leakage(self.circuit, vector, &self.prep.table)?)
            }
            _ => None,
        };
        let active_leakage =
            expected_circuit_leakage(self.circuit, &self.prep.probs, &self.prep.table);
        Ok(AgingReport {
            nominal,
            degraded,
            gate_delta_vth,
            standby_leakage,
            active_leakage,
        })
    }

    /// Standby stress flags per gate per PMOS under `policy`.
    fn standby_stress_flags(&self, policy: &StandbyPolicy) -> Result<Vec<Vec<bool>>, FlowError> {
        let lib = self.circuit.library();
        match policy {
            StandbyPolicy::InputVector(v) => {
                let n = self.circuit.primary_inputs().len();
                if v.len() != n {
                    return Err(FlowError::StandbyVectorWidth {
                        expected: n,
                        got: v.len(),
                    });
                }
                let values = logic::simulate(self.circuit, v)?;
                Ok(self
                    .circuit
                    .gates()
                    .iter()
                    .map(|gate| {
                        let pins: Vec<bool> =
                            gate.inputs().iter().map(|&net| values.of(net)).collect();
                        lib.cell(gate.cell()).stressed_pmos(&pins)
                    })
                    .collect())
            }
            StandbyPolicy::ControlPoints { vector, forced } => {
                let mut flags =
                    self.standby_stress_flags(&StandbyPolicy::InputVector(vector.clone()))?;
                for gid in forced {
                    if gid.index() >= flags.len() {
                        return Err(FlowError::GateVectorWidth {
                            expected: flags.len(),
                            got: gid.index() + 1,
                        });
                    }
                    // A control point drives the gate's inputs high during
                    // standby: no PMOS in the gate is negatively biased.
                    for f in &mut flags[gid.index()] {
                        *f = false;
                    }
                }
                Ok(flags)
            }
            // The idealized bounds force every PMOS gate terminal,
            // regardless of logical consistency — exactly the paper's
            // "this assumption is only used to calculate the maximum
            // possible degradation" caveat.
            StandbyPolicy::AllInternalZero => Ok(self
                .circuit
                .gates()
                .iter()
                .map(|gate| vec![true; lib.cell(gate.cell()).pmos_count()])
                .collect()),
            StandbyPolicy::AllInternalOne => Ok(self
                .circuit
                .gates()
                .iter()
                .map(|gate| vec![false; lib.cell(gate.cell()).pmos_count()])
                .collect()),
            StandbyPolicy::PowerGatedFooter => Ok(self
                .circuit
                .gates()
                .iter()
                .map(|gate| vec![false; lib.cell(gate.cell()).pmos_count()])
                .collect()),
        }
    }

    /// Standby leakage for an explicit input vector (convenience used by
    /// the IVC search loop, bypassing the timing analysis).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] for a malformed vector.
    pub fn standby_leakage(&self, vector: &[bool]) -> Result<f64, FlowError> {
        Ok(circuit_leakage(self.circuit, vector, &self.prep.table)?)
    }

    /// The circuit under analysis.
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// The configuration in use.
    pub fn config(&self) -> &FlowConfig {
        self.config
    }
}

/// The result of one aging analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingReport {
    /// Timing at time zero.
    pub nominal: TimingReport,
    /// Timing after the configured lifetime.
    pub degraded: TimingReport,
    /// Worst PMOS threshold shift of each gate, in volts.
    pub gate_delta_vth: Vec<f64>,
    /// Standby leakage in amperes (only for realizable input-vector
    /// policies).
    pub standby_leakage: Option<f64>,
    /// Expected active-mode leakage in amperes.
    pub active_leakage: f64,
}

impl AgingReport {
    /// Relative critical-path delay increase
    /// `(degraded − nominal)/nominal`.
    pub fn degradation_fraction(&self) -> f64 {
        let d0 = self.nominal.max_delay_ps();
        (self.degraded.max_delay_ps() - d0) / d0
    }

    /// The largest per-gate threshold shift, in volts.
    pub fn worst_delta_vth(&self) -> f64 {
        self.gate_delta_vth.iter().cloned().fold(0.0, f64::max)
    }
}

/// Expands a [`Vector`] standby vector helper: freeze the circuit at `v`.
pub fn input_vector_policy(v: Vector) -> StandbyPolicy {
    StandbyPolicy::InputVector(v.to_bools())
}

#[cfg(test)]
mod tests {
    use super::*;
    use relia_netlist::iscas;

    fn setup() -> (FlowConfig, Circuit) {
        (FlowConfig::paper_defaults().unwrap(), iscas::c17())
    }

    #[test]
    fn worst_case_beats_best_case() {
        let (config, circuit) = setup();
        let a = AgingAnalysis::new(&config, &circuit).unwrap();
        let worst = a.run(&StandbyPolicy::AllInternalZero).unwrap();
        let best = a.run(&StandbyPolicy::AllInternalOne).unwrap();
        assert!(worst.degradation_fraction() > best.degradation_fraction());
        assert!(best.degradation_fraction() > 0.0, "active stress remains");
    }

    #[test]
    fn power_gating_matches_best_case_closely() {
        // The paper: with a footer no PMOS is stressed in standby, so the
        // degradation equals the internal-node-control best case.
        let (config, circuit) = setup();
        let a = AgingAnalysis::new(&config, &circuit).unwrap();
        let footer = a.run(&StandbyPolicy::PowerGatedFooter).unwrap();
        let best = a.run(&StandbyPolicy::AllInternalOne).unwrap();
        let rel = (footer.degradation_fraction() - best.degradation_fraction()).abs()
            / best.degradation_fraction();
        assert!(
            rel < 1e-9,
            "footer {} best {}",
            footer.degradation_fraction(),
            best.degradation_fraction()
        );
    }

    #[test]
    fn input_vector_policy_is_between_bounds() {
        let (config, circuit) = setup();
        let a = AgingAnalysis::new(&config, &circuit).unwrap();
        let worst = a.run(&StandbyPolicy::AllInternalZero).unwrap();
        let best = a.run(&StandbyPolicy::AllInternalOne).unwrap();
        for bits in [0u32, 7, 21, 31] {
            let v: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            let r = a.run(&StandbyPolicy::InputVector(v)).unwrap();
            assert!(r.degradation_fraction() <= worst.degradation_fraction() + 1e-12);
            assert!(r.degradation_fraction() >= best.degradation_fraction() - 1e-12);
            assert!(r.standby_leakage.unwrap() > 0.0);
        }
    }

    #[test]
    fn degradation_magnitude_is_paperlike() {
        // The paper's Table 4 ballpark: a few percent delay degradation
        // over ~10 years.
        let (config, circuit) = setup();
        let a = AgingAnalysis::new(&config, &circuit).unwrap();
        let worst = a.run(&StandbyPolicy::AllInternalZero).unwrap();
        let f = worst.degradation_fraction();
        assert!(f > 0.01 && f < 0.12, "degradation {f}");
    }

    #[test]
    fn wrong_vector_width_is_error() {
        let (config, circuit) = setup();
        let a = AgingAnalysis::new(&config, &circuit).unwrap();
        assert!(matches!(
            a.run(&StandbyPolicy::InputVector(vec![true; 3])),
            Err(FlowError::StandbyVectorWidth { .. })
        ));
    }

    #[test]
    fn pre_cancelled_token_aborts_the_cached_run() {
        let (config, circuit) = setup();
        let a = AgingAnalysis::new(&config, &circuit).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = a
            .run_with_cache_cancellable(
                &StandbyPolicy::AllInternalZero,
                &crate::cache::NoCache,
                &token,
            )
            .unwrap_err();
        assert!(matches!(err, FlowError::Cancelled));
        // An uncancelled token changes nothing.
        let ok = a
            .run_with_cache_cancellable(
                &StandbyPolicy::AllInternalZero,
                &crate::cache::NoCache,
                &CancelToken::new(),
            )
            .unwrap();
        let plain = a.run(&StandbyPolicy::AllInternalZero).unwrap();
        assert!((ok.degradation_fraction() - plain.degradation_fraction()).abs() < 1e-12);
    }

    #[test]
    fn delta_vth_is_per_gate_and_bounded() {
        let (config, circuit) = setup();
        let a = AgingAnalysis::new(&config, &circuit).unwrap();
        let dv = a.gate_delta_vth(&StandbyPolicy::AllInternalZero).unwrap();
        assert_eq!(dv.len(), circuit.gates().len());
        for v in dv {
            assert!((0.0..0.1).contains(&v));
        }
    }
}
