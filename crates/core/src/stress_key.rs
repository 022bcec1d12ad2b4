//! Quantized stress-point keys for degradation memoization.
//!
//! A batch sweep evaluates [`NbtiModel::delta_vth`] for many (schedule,
//! stress, lifetime) combinations, and distinct jobs frequently land on the
//! same physical point (e.g. every gate whose PMOS sees signal probability
//! 0.5 under the same schedule). [`StressKey`] collapses such points onto an
//! integer key that is `Eq + Hash`, so a cache can memoize the model
//! evaluation.
//!
//! Two requirements shape the design:
//!
//! * **Determinism under concurrency.** If two *slightly* different floating
//!   point inputs quantize to the same key, a naive "first writer wins" cache
//!   would make results depend on thread scheduling. Instead,
//!   [`StressKey::evaluate`] recomputes the model at the *canonical
//!   dequantized point* of the key itself, so the cached value is a pure
//!   function of the key and sweep results are byte-identical for any worker
//!   count.
//! * **Bounded quantization error.** Probabilities are kept to 1e-9,
//!   temperatures to 1 mK, and times to 1 ms. A point on that lattice (RAS
//!   1:1 or 1:9 of a 1,000 s period, whole-kelvin temperatures,
//!   probabilities k/100) evaluates bit-equal to [`NbtiModel::delta_vth`].
//!   Off it, the canonical point moves ΔV_th by up to ~2.6e-6 relative
//!   over RAS fractions 0.05–0.95 (1:5's 166.67 s active time is off the
//!   1 ms lattice), ~3.2e-6 for a standby temperature off the 1 mK
//!   lattice, ~1.5e-8 for probabilities off theirs, and nothing
//!   measurable from lifetimes. relia-flow's `tests/oracle.rs` holds every
//!   per-gate ΔV_th within `1e-5·|ΔV_th| + 1e-12 V` of the direct model:
//!   ~0.3 µV on a 28 mV shift, 36× below the 0.01 mV the reports print,
//!   and ~4e-5 points on a 4 % delay degradation, 250× below the 0.01
//!   points they print.

use crate::batch::StressColumn;
use crate::equivalent::{ModeSchedule, PmosStress, Ras};
use crate::error::{check_temp, ModelError};
use crate::model::{check_total_time, NbtiModel};
use crate::seal::Fnv1a;
use crate::units::{Kelvin, Seconds, Volts};

/// Probability quantum: 1e-9 (keys store `round(p * 1e9)`).
const PROB_SCALE: f64 = 1.0e9;
/// Temperature quantum: 1 mK (keys store millikelvin).
const TEMP_SCALE: f64 = 1.0e3;
/// Time quantum: 1 ms (keys store milliseconds).
const TIME_SCALE: f64 = 1.0e3;
/// `2^64` (`u64::MAX` rounds up to it): a lifetime of this many
/// milliseconds or more would saturate the key's `u64`.
const LIFETIME_MS_LIMIT: f64 = u64::MAX as f64;
/// Threshold-voltage quantum: 1 nV (keys store `round(v * 1e9)`).
const VTH_SCALE: f64 = 1.0e9;
/// Sentinel marking "nominal V_th0" (no per-device threshold override).
const VTH_NOMINAL: u32 = u32::MAX;

/// A stress evaluation point quantized onto an integer lattice.
///
/// Construct with [`StressKey::quantize`] (nominal threshold) or
/// [`StressKey::quantize_with_vth0`]; evaluate the NBTI model at the key's
/// canonical point with [`StressKey::evaluate`], or at many keys' points
/// with [`StressKey::evaluate_many`].
///
/// ```
/// use relia_core::{Kelvin, ModeSchedule, NbtiModel, PmosStress, Ras, Seconds, StressKey};
///
/// # fn main() -> Result<(), relia_core::ModelError> {
/// let schedule = ModeSchedule::new(
///     Ras::new(1.0, 9.0)?,
///     Seconds(1000.0),
///     Kelvin(400.0),
///     Kelvin(330.0),
/// )?;
/// let stress = PmosStress::worst_case();
/// let key = StressKey::quantize(&schedule, &stress, Seconds(1.0e8))?;
///
/// // Sub-quantum jitter maps to the same key...
/// let jittered = PmosStress::new(0.5 + 1e-12, 1.0)?;
/// assert_eq!(key, StressKey::quantize(&schedule, &jittered, Seconds(1.0e8))?);
///
/// // ...and the canonical evaluation matches the direct model closely.
/// let model = NbtiModel::ptm90()?;
/// let direct = model.delta_vth(Seconds(1.0e8), &schedule, &stress)?;
/// let cached = key.evaluate(&model)?;
/// assert!((direct - cached).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StressKey {
    /// Active-mode stress probability, in units of 1e-9.
    p_active: u32,
    /// Standby-mode stress probability, in units of 1e-9.
    p_standby: u32,
    /// Active-mode temperature in millikelvin.
    temp_active_mk: u32,
    /// Standby-mode temperature in millikelvin.
    temp_standby_mk: u32,
    /// Active time per mode cycle in milliseconds.
    t_active_ms: u64,
    /// Standby time per mode cycle in milliseconds.
    t_standby_ms: u64,
    /// Total stress lifetime in milliseconds.
    lifetime_ms: u64,
    /// Initial threshold voltage in nanovolts, or [`VTH_NOMINAL`] for the
    /// calibration's nominal device.
    vth0_nv: u32,
}

impl StressKey {
    /// Quantizes a (schedule, stress, lifetime) point at the nominal
    /// threshold voltage.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for a temperature or a
    /// lifetime the lattice cannot hold (see [`StressKey::temp_mk`] and
    /// [`StressKey::lifetime_ms`]).
    pub fn quantize(
        schedule: &ModeSchedule,
        stress: &PmosStress,
        lifetime: Seconds,
    ) -> Result<Self, ModelError> {
        let temp_active_mk = StressKey::temp_mk("temp_active", schedule.temp_active())?;
        let temp_standby_mk = StressKey::temp_mk("temp_standby", schedule.temp_standby())?;
        let lifetime_ms = StressKey::lifetime_ms(lifetime)?;
        Ok(StressKey {
            p_active: (stress.active_stress_prob() * PROB_SCALE).round() as u32,
            p_standby: (stress.standby_stress_prob() * PROB_SCALE).round() as u32,
            temp_active_mk,
            temp_standby_mk,
            t_active_ms: (schedule.t_active().0 * TIME_SCALE).round() as u64,
            t_standby_ms: (schedule.t_standby().0 * TIME_SCALE).round() as u64,
            lifetime_ms,
            vth0_nv: VTH_NOMINAL,
        })
    }

    /// The lattice coordinate of `lifetime`: whole milliseconds. The
    /// lattice holds the lifetimes the model accepts (finite and
    /// non-negative) below `2^64` ms, about 5.8e8 years.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] on `total_time`: the
    /// model's own error for a negative or non-finite lifetime, and an
    /// out-of-lattice error past `2^64` ms.
    pub fn lifetime_ms(lifetime: Seconds) -> Result<u64, ModelError> {
        let ms = (check_total_time(lifetime)? * TIME_SCALE).round();
        if ms < LIFETIME_MS_LIMIT {
            Ok(ms as u64)
        } else {
            Err(ModelError::InvalidParameter {
                name: "total_time",
                value: lifetime.0,
                expected: "seconds below 2^64 ms (the 1 ms key lattice)",
            })
        }
    }

    /// The lattice coordinate of temperature `temp`, named `name` in
    /// errors: whole millikelvin. The lattice holds the temperatures that
    /// round to 1 through `u32::MAX` mK, 0.0005 K up to about 4.29e6 K.
    ///
    /// # Errors
    ///
    /// The model's own [`ModelError::InvalidTemperature`] for a
    /// non-positive or non-finite temperature, and
    /// [`ModelError::InvalidParameter`] for a positive one off the lattice.
    pub fn temp_mk(name: &'static str, temp: Kelvin) -> Result<u32, ModelError> {
        let mk = (check_temp(name, temp)?.0 * TEMP_SCALE).round();
        if (1.0..=f64::from(u32::MAX)).contains(&mk) {
            Ok(mk as u32)
        } else {
            Err(ModelError::InvalidParameter {
                name,
                value: temp.0,
                expected: "kelvin from 0.0005 to 4294967.295 (the 1 mK key lattice)",
            })
        }
    }

    /// Quantizes a point for a device with an explicit initial threshold
    /// (dual-V_th cells, process variation).
    ///
    /// # Errors
    ///
    /// As [`StressKey::quantize`].
    pub fn quantize_with_vth0(
        schedule: &ModeSchedule,
        stress: &PmosStress,
        lifetime: Seconds,
        vth0: Volts,
    ) -> Result<Self, ModelError> {
        let mut key = StressKey::quantize(schedule, stress, lifetime)?;
        // Clamp into the representable lattice; VTH_NOMINAL stays reserved.
        let nv = (vth0.0 * VTH_SCALE)
            .round()
            .clamp(0.0, (VTH_NOMINAL - 1) as f64);
        key.vth0_nv = nv as u32;
        Ok(key)
    }

    /// True when the key carries an explicit (non-nominal) initial threshold.
    pub fn has_vth0(&self) -> bool {
        self.vth0_nv != VTH_NOMINAL
    }

    /// FNV-1a fingerprint of the key, for shard selection and stable
    /// spec/checkpoint identification.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::default();
        h.u64(self.p_active as u64);
        h.u64(self.p_standby as u64);
        h.u64(self.temp_active_mk as u64);
        h.u64(self.temp_standby_mk as u64);
        h.u64(self.t_active_ms);
        h.u64(self.t_standby_ms);
        h.u64(self.lifetime_ms);
        h.u64(self.vth0_nv as u64);
        h.finish()
    }

    /// Evaluates the NBTI model at the key's canonical dequantized point.
    ///
    /// The result is a pure function of `(self, model)` — independent of the
    /// floating-point inputs that produced the key — which is what makes a
    /// concurrent memo cache scheduling-deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when the dequantized point is degenerate
    /// (e.g. both mode times quantized to zero).
    pub fn evaluate(&self, model: &NbtiModel) -> Result<f64, ModelError> {
        let (schedule, stress) = self.canonical_point()?;
        let base = model.delta_vth(self.lifetime(), &schedule, &stress);
        self.at_vth0(model, base)
    }

    /// [`StressKey::evaluate`] for every key of `keys`: entry `i` is
    /// bit-equal to `keys[i].evaluate(model)`, error or not.
    ///
    /// Consecutive keys that differ only in lifetime and threshold — one
    /// `(schedule, stress)` row, as a sweep over lifetimes produces — form
    /// one column, and every column goes through one
    /// [`NbtiModel::delta_vth_columns`] call: a row pays for one
    /// equivalent cycle, and the rows' AC recursions run
    /// [`crate::ac::LANES`] at a time. A row the model rejects falls back
    /// to per-key evaluation, which yields each key's own error.
    pub fn evaluate_many(keys: &[StressKey], model: &NbtiModel) -> Vec<Result<f64, ModelError>> {
        let mut out = Vec::with_capacity(keys.len());
        let mut columns = Vec::new();
        let mut lifetimes = Vec::with_capacity(keys.len());
        let mut starts = Vec::new();
        for row in keys.chunk_by(|a, b| a.row() == b.row()) {
            match row[0].canonical_point() {
                Ok((schedule, stress)) => {
                    columns.push(StressColumn {
                        schedule,
                        stress,
                        len: row.len(),
                    });
                    starts.push(out.len());
                    lifetimes.extend(row.iter().map(StressKey::lifetime));
                    out.extend(row.iter().map(|_| Ok(0.0)));
                }
                Err(_) => out.extend(row.iter().map(|key| key.evaluate(model))),
            }
        }
        let mut bases = vec![0.0; lifetimes.len()];
        let status = model.delta_vth_columns(&columns, &lifetimes, &mut bases);
        let mut base = bases.iter();
        for ((column, &start), status) in columns.iter().zip(&starts).zip(status) {
            let row = &keys[start..start + column.len];
            let slots = &mut out[start..start + column.len];
            for ((slot, key), &value) in slots.iter_mut().zip(row).zip(base.by_ref()) {
                *slot = match status {
                    Ok(()) => key.at_vth0(model, Ok(value)),
                    Err(_) => key.evaluate(model),
                };
            }
        }
        out
    }

    /// The key with its lifetime and threshold erased: keys with equal rows
    /// share a schedule and stress vector.
    fn row(&self) -> StressKey {
        StressKey {
            lifetime_ms: 0,
            vth0_nv: VTH_NOMINAL,
            ..*self
        }
    }

    /// The canonical dequantized schedule and stress vector.
    fn canonical_point(&self) -> Result<(ModeSchedule, PmosStress), ModelError> {
        let t_active = self.t_active_ms as f64 / TIME_SCALE;
        let t_standby = self.t_standby_ms as f64 / TIME_SCALE;
        let schedule = ModeSchedule::new(
            Ras::new(t_active, t_standby)?,
            Seconds(t_active + t_standby),
            Kelvin(self.temp_active_mk as f64 / TEMP_SCALE),
            Kelvin(self.temp_standby_mk as f64 / TEMP_SCALE),
        )?;
        let stress = PmosStress::new(
            (self.p_active as f64 / PROB_SCALE).min(1.0),
            (self.p_standby as f64 / PROB_SCALE).min(1.0),
        )?;
        Ok((schedule, stress))
    }

    /// The canonical dequantized lifetime.
    fn lifetime(&self) -> Seconds {
        Seconds(self.lifetime_ms as f64 / TIME_SCALE)
    }

    /// Carries a nominal-threshold result to the key's threshold, if it has
    /// one.
    fn at_vth0(&self, model: &NbtiModel, base: Result<f64, ModelError>) -> Result<f64, ModelError> {
        if self.vth0_nv == VTH_NOMINAL {
            base
        } else {
            model.rescale_to_vth0(base, Volts(self.vth0_nv as f64 / VTH_SCALE))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule() -> ModeSchedule {
        ModeSchedule::new(
            Ras::new(1.0, 9.0).unwrap(),
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(330.0),
        )
        .unwrap()
    }

    #[test]
    fn equal_inputs_equal_keys() {
        let a =
            StressKey::quantize(&schedule(), &PmosStress::worst_case(), Seconds(1.0e8)).unwrap();
        let b =
            StressKey::quantize(&schedule(), &PmosStress::worst_case(), Seconds(1.0e8)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Pinned: the fingerprint picks the memo-cache shard.
        assert_eq!(a.fingerprint(), 0x7522_fd74_aa8b_33e9);
    }

    #[test]
    fn sub_quantum_jitter_shares_a_key() {
        let base =
            StressKey::quantize(&schedule(), &PmosStress::worst_case(), Seconds(1.0e8)).unwrap();
        let jittered = PmosStress::new(0.5 + 1e-11, 1.0 - 1e-11).unwrap();
        let near = StressKey::quantize(&schedule(), &jittered, Seconds(1.0e8)).unwrap();
        assert_eq!(base, near);
    }

    #[test]
    fn super_quantum_changes_split_keys() {
        let base =
            StressKey::quantize(&schedule(), &PmosStress::worst_case(), Seconds(1.0e8)).unwrap();
        let shifted = PmosStress::new(0.5 + 1e-8, 1.0).unwrap();
        assert_ne!(
            base,
            StressKey::quantize(&schedule(), &shifted, Seconds(1.0e8)).unwrap()
        );
        assert_ne!(
            base,
            StressKey::quantize(&schedule(), &PmosStress::worst_case(), Seconds(1.0e8 + 1.0))
                .unwrap()
        );
        let warmer = ModeSchedule::new(
            Ras::new(1.0, 9.0).unwrap(),
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(330.01),
        )
        .unwrap();
        assert_ne!(
            base,
            StressKey::quantize(&warmer, &PmosStress::worst_case(), Seconds(1.0e8)).unwrap()
        );
    }

    #[test]
    fn vth0_distinguishes_keys_and_round_trips() {
        let s = schedule();
        let nominal = StressKey::quantize(&s, &PmosStress::worst_case(), Seconds(1.0e8)).unwrap();
        let dual = StressKey::quantize_with_vth0(
            &s,
            &PmosStress::worst_case(),
            Seconds(1.0e8),
            Volts(0.3),
        )
        .unwrap();
        assert!(!nominal.has_vth0());
        assert!(dual.has_vth0());
        assert_ne!(nominal, dual);

        let model = NbtiModel::ptm90().unwrap();
        let direct = model
            .delta_vth_with_vth0(Seconds(1.0e8), &s, &PmosStress::worst_case(), Volts(0.3))
            .unwrap();
        let via_key = dual.evaluate(&model).unwrap();
        assert!((direct - via_key).abs() < 1e-9, "{direct} vs {via_key}");
    }

    #[test]
    fn evaluate_matches_direct_model() {
        let model = NbtiModel::ptm90().unwrap();
        let s = schedule();
        for (p_a, p_s) in [(0.5, 1.0), (0.5, 0.0), (0.3, 0.7), (0.0, 0.0)] {
            let stress = PmosStress::new(p_a, p_s).unwrap();
            for lifetime in [1.0e4, 3.2e6, 1.0e8] {
                let direct = model.delta_vth(Seconds(lifetime), &s, &stress).unwrap();
                let key = StressKey::quantize(&s, &stress, Seconds(lifetime)).unwrap();
                let cached = key.evaluate(&model).unwrap();
                let tol = 1e-9 * direct.abs().max(1e-12);
                assert!(
                    (direct - cached).abs() <= tol.max(1e-15),
                    "p=({p_a},{p_s}) t={lifetime}: {direct} vs {cached}"
                );
            }
        }
    }

    #[test]
    fn evaluate_many_falls_back_to_per_key_errors() {
        // Both mode times quantize to 0 ms: the canonical point is
        // degenerate, and every key of the row reports its own error.
        let tiny = ModeSchedule::new(
            Ras::new(1.0, 9.0).unwrap(),
            Seconds(1e-4),
            Kelvin(400.0),
            Kelvin(330.0),
        )
        .unwrap();
        let keys: Vec<StressKey> = [0.0, 1.0e8]
            .iter()
            .map(|&t| StressKey::quantize(&tiny, &PmosStress::worst_case(), Seconds(t)).unwrap())
            .chain([
                StressKey::quantize(&schedule(), &PmosStress::worst_case(), Seconds(1.0e8))
                    .unwrap(),
            ])
            .collect();
        let model = NbtiModel::ptm90().unwrap();
        let many = StressKey::evaluate_many(&keys, &model);
        assert!(many[0].is_err() && many[1].is_err() && many[2].is_ok());
        for (key, got) in keys.iter().zip(many) {
            assert_eq!(got, key.evaluate(&model));
        }
    }

    #[test]
    fn lifetimes_outside_the_lattice_are_refused() {
        let (s, stress) = (schedule(), PmosStress::worst_case());
        let model = NbtiModel::ptm90().unwrap();
        for t in [-1.0, f64::NAN, f64::INFINITY] {
            let key = StressKey::quantize(&s, &stress, Seconds(t)).unwrap_err();
            let direct = model.delta_vth(Seconds(t), &s, &stress).unwrap_err();
            assert_eq!(key.to_string(), direct.to_string(), "{t}");
        }
        // Either side of 2^64 ms, about 1.845e16 s.
        assert_eq!(
            StressKey::lifetime_ms(Seconds(1.8e16)),
            Ok(18_000_000_000_000_000_000)
        );
        for t in [1.85e16, 1e17] {
            let err = StressKey::lifetime_ms(Seconds(t)).unwrap_err();
            assert!(err.to_string().contains("total_time"), "{err}");
        }
    }

    #[test]
    fn temperatures_outside_the_lattice_are_refused() {
        let standby = |t| {
            let ras = Ras::new(1.0, 9.0)?;
            let schedule = ModeSchedule::new(ras, Seconds(1000.0), Kelvin(400.0), Kelvin(t))?;
            StressKey::quantize(&schedule, &PmosStress::worst_case(), Seconds(1.0e8))
        };
        // The lattice's two ends: 0.0005 K rounds to 1 mK, and
        // 4,294,967.295 K is u32::MAX mK.
        for t in [0.0005, 4_294_967.295] {
            assert!(standby(t).is_ok(), "{t}");
        }
        // Positive temperatures the model accepts but no u32 of
        // millikelvin holds: refused rather than keyed to 0 mK or
        // saturated onto one key.
        for t in [0.0004, 4_294_967.296, 1e7, 1e300] {
            let err = standby(t).unwrap_err().to_string();
            assert!(
                err.starts_with("invalid parameter temp_standby"),
                "{t}: {err}"
            );
        }
        let active = StressKey::temp_mk("temp_active", Kelvin(1e7)).unwrap_err();
        assert!(active
            .to_string()
            .starts_with("invalid parameter temp_active"));
        assert_eq!(
            StressKey::temp_mk("temp_active", Kelvin(400.0)),
            Ok(400_000)
        );
        // Temperatures the model refuses keep the model's own error.
        for t in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = StressKey::temp_mk("temp_standby", Kelvin(t)).unwrap_err();
            assert!(
                matches!(err, ModelError::InvalidTemperature { .. }),
                "{t}: {err}"
            );
        }
    }

    #[test]
    fn fingerprints_spread() {
        // Different keys should land on different fingerprints (not a
        // collision-freeness proof, just a sanity check on the mixing).
        let s = schedule();
        let mut seen = std::collections::HashSet::new();
        for i in 0..100u32 {
            let stress = PmosStress::new(0.001 * i as f64, 1.0 - 0.001 * i as f64).unwrap();
            let key = StressKey::quantize(&s, &stress, Seconds(1.0e8)).unwrap();
            assert!(seen.insert(key.fingerprint()), "collision at i={i}");
        }
    }
}
