//! The aging analysis proper: per-PMOS stress → ΔV_th → degraded timing +
//! leakage.

use std::fmt;

use relia_core::{CancelToken, PmosStress, Seconds};
use relia_leakage::{circuit_leakage, expected_circuit_leakage, LeakageTable};
use relia_netlist::Circuit;
use relia_sim::{logic, prob, SignalProbs};
use relia_sta::{TimingAnalysis, TimingReport};

use crate::cache::{DeltaVthCache, NoCache};
use crate::config::{FlowConfig, SpEstimator};
use crate::error::FlowError;
use crate::policy::StandbyPolicy;

/// Gates whose PMOS stresses the per-gate loop evaluates in one call:
/// enough stress points to fill several lane groups of the AC walk
/// ([`relia_core::ac::LANES`]), few enough that its buffers stay small.
const GATE_CHUNK: usize = 32;

/// The schedule-independent half of an aging analysis: signal
/// probabilities, per-PMOS active-mode stress duty cycles, and the leakage
/// table of the circuit's cells.
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
///
/// Every ΔV_th goes through one memo table, [`NoCache`] unless
/// [`AgingAnalysis::with_cache`] sets another.
#[derive(Clone)]
pub struct AgingAnalysis<'a> {
    config: &'a FlowConfig,
    circuit: &'a Circuit,
    prep: AnalysisPrep,
    cache: &'a (dyn DeltaVthCache + Sync),
    cancel: Option<&'a CancelToken>,
}

impl<'a> AgingAnalysis<'a> {
    /// Prepares the analysis: propagates signal probabilities, derives each
    /// PMOS device's active-mode stress duty cycle, and characterizes the
    /// leakage table of the circuit's cells on every available core.
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
        let table = LeakageTable::for_circuit(circuit, &config.devices, config.leakage_temp);
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
            cache: &NoCache,
            cancel: None,
        }
    }

    /// The propagated active-mode signal probabilities.
    pub fn signal_probs(&self) -> &SignalProbs {
        &self.prep.probs
    }

    /// The leakage lookup table in use. It covers the cells the analysed
    /// circuit instantiates ([`LeakageTable::for_circuit`]); a lookup of
    /// any other library cell panics.
    pub fn leakage_table(&self) -> &LeakageTable {
        &self.prep.table
    }

    /// Sets the memo table every ΔV_th evaluation consults and the
    /// cooperative [`CancelToken`] the per-gate loop polls before every
    /// chunk of 32 gates. Once a watchdog sets the token,
    /// [`AgingAnalysis::gate_delta_vth`] and [`AgingAnalysis::run`] abandon
    /// the remaining gates and return [`FlowError::Cancelled`]; partial
    /// results are discarded.
    ///
    /// The table changes no value: an evaluation is a pure function of its
    /// [`relia_core::StressKey`], so a shared table, a private one and the
    /// default [`NoCache`] give the same bits.
    pub fn with_cache(
        self,
        cache: &'a (dyn DeltaVthCache + Sync),
        cancel: &'a CancelToken,
    ) -> Self {
        AgingAnalysis {
            cache,
            cancel: Some(cancel),
            ..self
        }
    }

    /// Per-gate worst-case PMOS ΔV_th (volts) after `lifetime` under
    /// `policy`.
    ///
    /// Each PMOS's (schedule, stress, lifetime) point is quantized to a
    /// [`relia_core::StressKey`] and evaluated at the key's canonical
    /// point, so a value is a pure function of its key. Against one
    /// [`relia_core::NbtiModel::delta_vth`] call at the unquantized point
    /// it differs by at most `1e-5·|ΔV_th| + 1e-12 V`, which
    /// `tests/oracle.rs` asserts. Each chunk of 32 gates' keys goes to the
    /// cache in one [`DeltaVthCache::delta_vth_many`] call, which leaves
    /// the table as a per-key loop would; on an error, the rest of that
    /// chunk's keys have been looked up too.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] for a malformed policy, the model's error for
    /// a lifetime the key lattice cannot hold
    /// ([`relia_core::StressKey::lifetime_ms`]), and
    /// [`FlowError::Cancelled`] once the token given to
    /// [`AgingAnalysis::with_cache`] is set.
    pub fn gate_delta_vth(
        &self,
        policy: &StandbyPolicy,
        lifetime: Seconds,
    ) -> Result<Vec<f64>, FlowError> {
        self.worst_per_gate(policy, lifetime, self.cache)
    }

    /// [`AgingAnalysis::gate_delta_vth`] through `cache` instead of the
    /// table set by [`AgingAnalysis::with_cache`].
    ///
    /// # Errors
    ///
    /// As [`AgingAnalysis::gate_delta_vth`].
    pub fn gate_delta_vth_at_cached(
        &self,
        policy: &StandbyPolicy,
        lifetime: Seconds,
        cache: &dyn DeltaVthCache,
    ) -> Result<Vec<f64>, FlowError> {
        self.worst_per_gate(policy, lifetime, cache)
    }

    /// The per-gate loop behind both entry points: each gate's worst PMOS
    /// shift. Per chunk of [`GATE_CHUNK`] gates it quantizes every PMOS
    /// stress to a key, evaluates the keys in one `cache` call and keeps
    /// each gate's largest value. The cancel token is polled before every
    /// chunk.
    ///
    /// The error returned is the one a per-PMOS loop meets first: an
    /// evaluation error among the keys gathered ahead of a stress or
    /// lifetime error outranks it.
    fn worst_per_gate(
        &self,
        policy: &StandbyPolicy,
        lifetime: Seconds,
        cache: &dyn DeltaVthCache,
    ) -> Result<Vec<f64>, FlowError> {
        let standby = self.standby_stress(policy)?;
        let mut standby = standby.iter();
        let gates = &self.prep.active_stress;
        let mut out = Vec::with_capacity(gates.len());
        let (mut keys, mut shifts) = (Vec::new(), Vec::new());
        for chunk in gates.chunks(GATE_CHUNK) {
            if self.cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(FlowError::Cancelled);
            }
            keys.clear();
            let quantized = chunk.iter().flatten().zip(standby.by_ref()).try_for_each(
                |(&p_active, &p_standby)| {
                    let stress = PmosStress::new(p_active, p_standby)?;
                    keys.push(self.config.stress_key(&stress, lifetime)?);
                    Ok::<(), FlowError>(())
                },
            );
            shifts.clear();
            for dv in cache.delta_vth_many(&keys, &self.config.nbti) {
                shifts.push(dv?);
            }
            quantized?;
            let mut rest = shifts.as_slice();
            for active in chunk {
                let (gate, tail) = rest.split_at(active.len());
                out.push(gate.iter().fold(0.0f64, |worst, &dv| worst.max(dv)));
                rest = tail;
            }
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
        let n = self.circuit.primary_inputs().len();
        if vector.len() != n {
            return Err(FlowError::StandbyVectorWidth {
                expected: n,
                got: vector.len(),
            });
        }
        let values = logic::simulate(self.circuit, vector)?;
        let lib = self.circuit.library();
        Ok(self
            .circuit
            .gates()
            .iter()
            .map(|gate| {
                let pins: Vec<bool> = gate.inputs().iter().map(|&net| values.of(net)).collect();
                lib.cell(gate.cell()).stressed_pmos(&pins)
            })
            .collect())
    }

    /// Each PMOS's standby stress probability under `policy`, gate after
    /// gate in [`Circuit::gates`] order.
    fn standby_stress(&self, policy: &StandbyPolicy) -> Result<Vec<f64>, FlowError> {
        let pmos = self.prep.active_stress.iter().map(Vec::len).sum();
        let flags = match policy {
            StandbyPolicy::InputVector(vector) => self.standby_stress_of_vector(vector)?,
            StandbyPolicy::ControlPoints { vector, forced } => {
                let mut flags = self.standby_stress_of_vector(vector)?;
                let gates = flags.len();
                for gid in forced {
                    // A control point drives the gate's inputs high during
                    // standby: no PMOS in the gate is negatively biased.
                    flags
                        .get_mut(gid.index())
                        .ok_or(FlowError::GateVectorWidth {
                            expected: gates,
                            got: gid.index() + 1,
                        })?
                        .fill(false);
                }
                flags
            }
            // The idealized bounds force every PMOS gate terminal,
            // regardless of logical consistency — exactly the paper's
            // "this assumption is only used to calculate the maximum
            // possible degradation" caveat.
            StandbyPolicy::AllInternalZero => return Ok(vec![1.0; pmos]),
            StandbyPolicy::AllInternalOne | StandbyPolicy::PowerGatedFooter => {
                return Ok(vec![0.0; pmos])
            }
            StandbyPolicy::Rotation(vectors) => {
                if vectors.is_empty() {
                    return Err(FlowError::InvalidParameter {
                        name: "rotation vector count",
                        value: 0.0,
                    });
                }
                // Each vector holds the circuit for an equal share of
                // standby, so a PMOS is stressed for the share of vectors
                // that stress it.
                let mut share = vec![0.0; pmos];
                for vector in vectors {
                    let flags = self.standby_stress_of_vector(vector)?;
                    for (share, &stressed) in share.iter_mut().zip(flags.iter().flatten()) {
                        if stressed {
                            *share += 1.0;
                        }
                    }
                }
                let n = vectors.len() as f64;
                return Ok(share.into_iter().map(|k| k / n).collect());
            }
        };
        Ok(flags
            .iter()
            .flatten()
            .map(|&stressed| if stressed { 1.0 } else { 0.0 })
            .collect())
    }

    /// Runs the full analysis under `policy` at the configured lifetime:
    /// per-gate ΔV_th ([`AgingAnalysis::gate_delta_vth`]), nominal and
    /// degraded timing, and leakage.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] for malformed policies or model failures, and
    /// [`FlowError::Cancelled`] once the token given to
    /// [`AgingAnalysis::with_cache`] is set.
    pub fn run(&self, policy: &StandbyPolicy) -> Result<AgingReport, FlowError> {
        let gate_delta_vth = self.gate_delta_vth(policy, self.config.lifetime)?;
        let nominal = TimingAnalysis::nominal(self.circuit);
        let degraded =
            TimingAnalysis::degraded(self.circuit, &gate_delta_vth, self.config.nbti.params())?;
        let standby_leakage = match policy {
            // Control points perturb the leakage of the forced gates only;
            // report the base vector's leakage as the (close) estimate.
            StandbyPolicy::InputVector(vector) | StandbyPolicy::ControlPoints { vector, .. } => {
                Some(self.standby_leakage(vector)?)
            }
            // The mean over the rotation's equal shares, summed in order.
            StandbyPolicy::Rotation(vectors) => {
                let total = vectors.iter().try_fold(0.0, |total, vector| {
                    Ok::<f64, FlowError>(total + self.standby_leakage(vector)?)
                })?;
                Some(total / vectors.len() as f64)
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

impl fmt::Debug for AgingAnalysis<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AgingAnalysis")
            .field("config", self.config)
            .field("circuit", self.circuit)
            .field("prep", &self.prep)
            .field("cancel", &self.cancel)
            .finish_non_exhaustive()
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
    /// Standby leakage in amperes (only for the policies that park the
    /// circuit on input vectors: a rotation reports its mean).
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
            .clone()
            .with_cache(&NoCache, &token)
            .run(&StandbyPolicy::AllInternalZero)
            .unwrap_err();
        assert!(matches!(err, FlowError::Cancelled));
        // An uncancelled token changes nothing.
        let fresh = CancelToken::new();
        let ok = a
            .clone()
            .with_cache(&NoCache, &fresh)
            .run(&StandbyPolicy::AllInternalZero)
            .unwrap();
        assert_eq!(ok, a.run(&StandbyPolicy::AllInternalZero).unwrap());
    }

    #[test]
    fn a_rotation_repeating_one_vector_is_that_vector() {
        let (config, circuit) = setup();
        let a = AgingAnalysis::new(&config, &circuit).unwrap();
        let v = vec![true, false, false, true, false];
        let fixed = a.run(&StandbyPolicy::InputVector(v.clone())).unwrap();
        for n in 1..=3 {
            let rotation = StandbyPolicy::Rotation(vec![v.clone(); n]);
            assert_eq!(a.run(&rotation).unwrap(), fixed, "{n} copies");
        }
        let err = a.run(&StandbyPolicy::Rotation(vec![])).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid parameter rotation vector count = 0"
        );
        assert!(matches!(
            a.run(&StandbyPolicy::Rotation(vec![v, vec![true; 3]])),
            Err(FlowError::StandbyVectorWidth {
                expected: 5,
                got: 3
            })
        ));
    }

    #[test]
    fn delta_vth_is_per_gate_and_bounded() {
        let (config, circuit) = setup();
        let a = AgingAnalysis::new(&config, &circuit).unwrap();
        let dv = a
            .gate_delta_vth(&StandbyPolicy::AllInternalZero, config.lifetime)
            .unwrap();
        assert_eq!(dv.len(), circuit.gates().len());
        for v in dv {
            assert!((0.0..0.1).contains(&v));
        }
    }
}
