//! Batch-friendly model entry points for fleet-scale statistical aging.
//!
//! [`NbtiModel::delta_vth_with_vth0`] is the right API for *one* device,
//! but a Monte-Carlo fleet query evaluates the same stress point for
//! thousands of devices that differ only in their initial threshold. The
//! expensive terms — the Arrhenius exponentials inside the equivalent-cycle
//! transform, the AC trap-factor recursion (up to 4096 exact steps), and
//! `K_v(T)` — depend on the `(schedule, stress, time)` point alone, so a
//! [`HoistedStress`] computes them **once** and reduces each device to a
//! square root and an exponential over its overdrive.
//!
//! The per-device arithmetic is kept expression-for-expression identical to
//! the scalar path, so a hoisted evaluation is bit-equal to
//! [`NbtiModel::delta_vth_with_vth0`] — the parity tests below and the
//! fig12 golden pin hold this to zero ulps. A hoist's base *is* a
//! [`NbtiModel::delta_vth`] call, so the two cannot drift.
//!
//! [`NbtiModel::delta_vth_columns`] is the column entry point: many
//! `(schedule, stress)` columns, each evaluated at its own lifetimes, as
//! the response-surface builder, `/v1/sweep` grids, memo-cache fills and
//! per-gate circuit loops need. Only the cycle count varies along a
//! column, so each column builds its equivalent cycle and `K_v` once and
//! owns one row of [`crate::ac::s_n_rows`], which walks the exact
//! recursion prefix (up to 4096 dependent steps) of
//! [`crate::ac::LANES`] columns in one loop and reads every lifetime's
//! `S_n` off it. [`NbtiModel::delta_vth_lifetimes`] is its one-column
//! call, and [`NbtiModel::hoist_lifetimes`] hoists a fleet's evaluation
//! times from one such column. Each entry is bit-equal to the scalar
//! call — the differential proptests in `tests/proptests.rs` compare them
//! by `to_bits()`.
//!
//! [`VariationKernel`] is the circuit-level sibling: the structure-of-arrays
//! per-gate fresh/aged delay math that `relia-flow`'s `VariationStudy` runs
//! per Monte-Carlo sample, hoisted here so the flow crate, the fleet engine,
//! and the benches all share one implementation.

use crate::ac::s_n_rows;
use crate::equivalent::{EquivalentCycle, ModeSchedule, PmosStress};
use crate::error::{check_finite, check_range, ModelError};
use crate::model::{check_total_time, mode_cycles, NbtiModel};
use crate::units::{Seconds, Volts};

/// One `(schedule, stress, time)` point with every device-independent term
/// precomputed: evaluating a device costs one `sqrt` and one `exp` instead
/// of an equivalent-cycle rebuild and a trap-factor recursion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoistedStress {
    /// `K_v(T_active) · S_n · τ^(1/4)` at the nominal threshold — exactly
    /// what [`NbtiModel::delta_vth`] returns for this point.
    base: f64,
    /// Supply voltage, for the per-device overdrive.
    vdd: f64,
    /// Nominal overdrive `V_dd − V_th0,nom`.
    od_nom: f64,
    /// Oxide-field scale `E_0`-equivalent in volts (eq. 23's exponential).
    field_scale: f64,
}

impl HoistedStress {
    /// The base shift at the nominal threshold (a plain
    /// [`NbtiModel::delta_vth`] value).
    pub fn base(&self) -> f64 {
        self.base
    }

    /// The nominal overdrive the scaling is referenced to.
    pub fn od_nom(&self) -> f64 {
        self.od_nom
    }

    /// ΔV_th for a device with initial threshold `vth0` volts.
    ///
    /// Same expression shape as [`NbtiModel::delta_vth_with_vth0`] — the
    /// result is bit-identical to the scalar call. `vth0` is **not**
    /// range-checked here (the hot loop); callers validate once per batch
    /// via [`HoistedStress::check_vth0`].
    #[inline]
    pub fn delta_vth_at(&self, vth0: f64) -> f64 {
        let overdrive = self.vdd - vth0;
        let scale =
            (overdrive / self.od_nom).sqrt() * ((overdrive - self.od_nom) / self.field_scale).exp();
        self.base * scale
    }

    /// Validates a threshold the way the scalar entry point does.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for a threshold outside `[0, vdd)`.
    pub fn check_vth0(&self, vth0: Volts) -> Result<(), ModelError> {
        check_range("vth0", vth0.0, 0.0, self.vdd - 1e-6, "[0, vdd)")?;
        Ok(())
    }

    /// Evaluates a whole structure-of-arrays batch: `out[i]` becomes the
    /// shift for `vth0[i]`. Only the slice lengths are checked; thresholds
    /// are assumed pre-validated.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] on a length mismatch.
    pub fn delta_vth_into(&self, vth0: &[f64], out: &mut [f64]) -> Result<(), ModelError> {
        if vth0.len() != out.len() {
            return Err(ModelError::InvalidParameter {
                name: "batch lengths",
                value: out.len() as f64,
                expected: "vth0 and out slices of equal length",
            });
        }
        for (o, &v) in out.iter_mut().zip(vth0) {
            *o = self.delta_vth_at(v);
        }
        Ok(())
    }
}

/// One `(schedule, stress)` column of [`NbtiModel::delta_vth_columns`]: it
/// owns the next `len` lifetimes of the call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressColumn {
    /// The operating schedule.
    pub schedule: ModeSchedule,
    /// The PMOS stress vector.
    pub stress: PmosStress,
    /// How many consecutive lifetimes the column owns.
    pub len: usize,
}

impl NbtiModel {
    /// Hoists every device-independent term of one
    /// `(schedule, stress, total_time)` point: the equivalent-cycle
    /// transform, the trap-factor recursion, and `K_v(T)` are evaluated
    /// once, and the returned [`HoistedStress`] serves per-device queries
    /// at a few flops each.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for invalid times — the same failures as
    /// [`NbtiModel::delta_vth`].
    pub fn hoist(
        &self,
        total_time: Seconds,
        schedule: &ModeSchedule,
        stress: &PmosStress,
    ) -> Result<HoistedStress, ModelError> {
        Ok(self.hoisted(self.delta_vth(total_time, schedule, stress)?))
    }

    /// [`NbtiModel::hoist`] at every time of `times`, which share one
    /// schedule and stress: entry `i` equals `hoist(times[i], ..)`, and all
    /// bases come from one [`NbtiModel::delta_vth_lifetimes`] column.
    ///
    /// # Errors
    ///
    /// The error the first failing time's `hoist` call would return.
    pub fn hoist_lifetimes(
        &self,
        times: &[Seconds],
        schedule: &ModeSchedule,
        stress: &PmosStress,
    ) -> Result<Vec<HoistedStress>, ModelError> {
        let bases = self.delta_vth_lifetimes(times, schedule, stress)?;
        Ok(bases.into_iter().map(|base| self.hoisted(base)).collect())
    }

    fn hoisted(&self, base: f64) -> HoistedStress {
        let params = self.params();
        HoistedStress {
            base,
            vdd: params.vdd.0,
            od_nom: params.overdrive(),
            field_scale: params.field_scale.0,
        }
    }

    /// [`NbtiModel::delta_vth`] at every lifetime of one
    /// `(schedule, stress)` column: entry `i` is bit-equal to
    /// `delta_vth(lifetimes[i], schedule, stress)`. The one-column call of
    /// [`NbtiModel::delta_vth_columns`].
    ///
    /// # Errors
    ///
    /// The error the first failing lifetime's `delta_vth` call would
    /// return — the same `Err` a per-lifetime loop collected into a
    /// `Result<Vec<_>, _>` gives.
    pub fn delta_vth_lifetimes(
        &self,
        lifetimes: &[Seconds],
        schedule: &ModeSchedule,
        stress: &PmosStress,
    ) -> Result<Vec<f64>, ModelError> {
        let column = StressColumn {
            schedule: *schedule,
            stress: *stress,
            len: lifetimes.len(),
        };
        let mut out = vec![0.0; lifetimes.len()];
        let mut status = self.delta_vth_columns(&[column], lifetimes, &mut out);
        status.pop().unwrap_or(Ok(())).map(|()| out)
    }

    /// [`NbtiModel::delta_vth_lifetimes`] for many columns in one call.
    /// Column `j` owns the next `columns[j].len` entries of `lifetimes` and
    /// of `out`, and entry `j` of the result is the `Ok(())` or the error
    /// `delta_vth_lifetimes` returns for that column alone. Where it is
    /// `Ok`, each of the column's entries of `out` is bit-equal to one
    /// `delta_vth` call; a failed column leaves its entries unspecified.
    ///
    /// Each column builds its equivalent cycle and `K_v(T_active)` once,
    /// and one [`crate::ac::s_n_rows`] walk serves every column's AC
    /// recursion, [`crate::ac::LANES`] columns per loop.
    ///
    /// # Panics
    ///
    /// When `out` and `lifetimes` differ in length, or the column lengths
    /// do not sum to `lifetimes.len()`.
    pub fn delta_vth_columns(
        &self,
        columns: &[StressColumn],
        lifetimes: &[Seconds],
        out: &mut [f64],
    ) -> Vec<Result<(), ModelError>> {
        // A column's cycle counts; 0 marks an entry the walk leaves at 0
        // (a zero lifetime, zero duty, or past the first invalid lifetime).
        let mut cycles = vec![0u64; lifetimes.len()];
        let mut rows = Vec::with_capacity(columns.len());
        // Per column: (K_v, τ^(1/4)) when its recursion runs, or its error.
        let mut scales = Vec::with_capacity(columns.len());
        let mut start = 0;
        for column in columns {
            let end = start + column.len;
            let row = &lifetimes[start..end];
            // A per-lifetime loop stops at the first invalid lifetime, but
            // the lifetimes before it are evaluated first and may fail first.
            let valid = row
                .iter()
                .position(|&t| check_total_time(t).is_err())
                .unwrap_or(row.len());
            let mut duty = 0.0;
            let mut scale = Ok(None);
            if row[..valid].iter().any(|t| t.0 != 0.0) {
                match EquivalentCycle::build(self.params(), &column.schedule, &column.stress) {
                    Ok(eq) if eq.stress.duty_cycle() != 0.0 => {
                        duty = eq.stress.duty_cycle();
                        for (n, &t) in cycles[start..start + valid].iter_mut().zip(row) {
                            if t.0 != 0.0 {
                                *n = mode_cycles(t, &column.schedule);
                            }
                        }
                        scale = Ok(Some((
                            self.kv(column.schedule.temp_active()),
                            eq.stress.period().0.powf(0.25),
                        )));
                    }
                    Ok(_) => {}
                    Err(e) => scale = Err(e),
                }
            }
            rows.push((duty, column.len));
            scales.push((scale, start + valid, end));
            start = end;
        }
        s_n_rows(&rows, &cycles, out);

        let mut start = 0;
        scales
            .into_iter()
            .map(|(scale, valid, end)| {
                let stressed = start..valid;
                start = end;
                if let Some((kv, tau)) = scale? {
                    for i in stressed.filter(|&i| cycles[i] > 0) {
                        out[i] = check_finite("delta_vth", kv * (out[i] * tau))?;
                    }
                }
                if valid < end {
                    check_total_time(lifetimes[valid])?;
                }
                Ok(())
            })
            .collect()
    }
}

/// The structure-of-arrays per-gate variation kernel: the exact arithmetic
/// of the Fig. 12 Monte-Carlo inner loop, shared by `relia-flow`'s
/// `VariationStudy` and the fleet benches.
///
/// All three methods keep the original expression shapes, so a study ported
/// onto this kernel reproduces the scalar path byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationKernel {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Alpha-power delay exponent.
    pub alpha: f64,
    /// Nominal overdrive `V_dd − V_th0,nom`.
    pub od_nom: f64,
    /// Oxide-field scale in volts.
    pub field_scale: f64,
}

impl VariationKernel {
    /// A kernel over the model's calibration.
    pub fn new(params: &crate::params::NbtiParams) -> Self {
        VariationKernel {
            vdd: params.vdd.0,
            alpha: params.alpha,
            od_nom: params.overdrive(),
            field_scale: params.field_scale.0,
        }
    }

    /// Time-zero delays: `fresh[i] = nominal[i] · (od_nom / (vdd − vth0[i]))^α`
    /// (the alpha-power law).
    pub fn fresh_delays_into(&self, nominal: &[f64], vth0: &[f64], fresh: &mut [f64]) {
        for ((f, &d), &v) in fresh.iter_mut().zip(nominal).zip(vth0) {
            *f = d * (self.od_nom / (self.vdd - v)).powf(self.alpha);
        }
    }

    /// Aged delays: eq. 23 scales each gate's base shift by its overdrive,
    /// then the linearized alpha-power sensitivity turns ΔV_th into delay.
    pub fn aged_delays_into(
        &self,
        fresh: &[f64],
        base_shift: &[f64],
        vth0: &[f64],
        aged: &mut [f64],
    ) {
        for ((a, &d), (&dv_base, &v)) in aged.iter_mut().zip(fresh).zip(base_shift.iter().zip(vth0))
        {
            let od = self.vdd - v;
            // eq. 23 overdrive scaling of the degradation rate.
            let dv =
                dv_base * (od / self.od_nom).sqrt() * ((od - self.od_nom) / self.field_scale).exp();
            *a = d * (1.0 + self.alpha * dv / od);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalent::Ras;
    use crate::units::Kelvin;

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
    fn hoisted_matches_scalar_bit_for_bit() {
        let m = NbtiModel::ptm90().unwrap();
        let s = schedule();
        let stress = PmosStress::worst_case();
        for t in [1.0e4, 1.0e6, 1.0e8, 3.0e8] {
            let hoisted = m.hoist(Seconds(t), &s, &stress).unwrap();
            for i in 0..200 {
                let vth0 = 0.15 + 0.10 * (i as f64) / 200.0;
                let scalar = m
                    .delta_vth_with_vth0(Seconds(t), &s, &stress, Volts(vth0))
                    .unwrap();
                let batched = hoisted.delta_vth_at(vth0);
                assert_eq!(
                    scalar.to_bits(),
                    batched.to_bits(),
                    "t={t} vth0={vth0}: {scalar} vs {batched}"
                );
            }
        }
    }

    #[test]
    fn hoisted_base_equals_plain_delta_vth() {
        let m = NbtiModel::ptm90().unwrap();
        let s = schedule();
        let stress = PmosStress::new(0.5, 1.0).unwrap();
        let hoisted = m.hoist(Seconds(1.0e8), &s, &stress).unwrap();
        let plain = m.delta_vth(Seconds(1.0e8), &s, &stress).unwrap();
        assert_eq!(hoisted.base().to_bits(), plain.to_bits());
    }

    #[test]
    fn zero_time_and_zero_duty_hoist_to_zero_base() {
        let m = NbtiModel::ptm90().unwrap();
        let s = schedule();
        let h = m
            .hoist(Seconds(0.0), &s, &PmosStress::worst_case())
            .unwrap();
        assert_eq!(h.base(), 0.0);
        assert_eq!(h.delta_vth_at(0.22), 0.0);
        let h = m
            .hoist(Seconds(1.0e8), &s, &PmosStress::new(0.0, 0.0).unwrap())
            .unwrap();
        assert_eq!(h.base(), 0.0);
    }

    #[test]
    fn batch_into_matches_pointwise_and_checks_lengths() {
        let m = NbtiModel::ptm90().unwrap();
        let s = schedule();
        let h = m
            .hoist(Seconds(1.0e8), &s, &PmosStress::worst_case())
            .unwrap();
        let vth0: Vec<f64> = (0..64).map(|i| 0.18 + 1e-3 * i as f64).collect();
        let mut out = vec![0.0; 64];
        h.delta_vth_into(&vth0, &mut out).unwrap();
        for (&v, &o) in vth0.iter().zip(&out) {
            assert_eq!(o.to_bits(), h.delta_vth_at(v).to_bits());
        }
        let mut short = vec![0.0; 3];
        assert!(h.delta_vth_into(&vth0, &mut short).is_err());
    }

    #[test]
    fn hoisted_validation_mirrors_scalar() {
        let m = NbtiModel::ptm90().unwrap();
        let s = schedule();
        assert!(m
            .hoist(Seconds(f64::NAN), &s, &PmosStress::worst_case())
            .is_err());
        let h = m
            .hoist(Seconds(1.0), &s, &PmosStress::worst_case())
            .unwrap();
        assert!(h.check_vth0(Volts(1.5)).is_err());
        assert!(h.check_vth0(Volts(0.22)).is_ok());
    }

    #[test]
    fn kernel_matches_handwritten_loop() {
        let params = crate::params::NbtiParams::ptm90().unwrap();
        let k = VariationKernel::new(&params);
        let nominal = [50.0, 75.0, 100.0];
        let vth0 = [0.21, 0.22, 0.24];
        let base = [0.02, 0.03, 0.01];
        let mut fresh = [0.0; 3];
        k.fresh_delays_into(&nominal, &vth0, &mut fresh);
        let mut aged = [0.0; 3];
        k.aged_delays_into(&fresh, &base, &vth0, &mut aged);
        for i in 0..3 {
            let expect_fresh = nominal[i] * (k.od_nom / (k.vdd - vth0[i])).powf(k.alpha);
            assert_eq!(fresh[i].to_bits(), expect_fresh.to_bits());
            let od = k.vdd - vth0[i];
            let dv = base[i] * (od / k.od_nom).sqrt() * ((od - k.od_nom) / k.field_scale).exp();
            let expect_aged = expect_fresh * (1.0 + k.alpha * dv / od);
            assert_eq!(aged[i].to_bits(), expect_aged.to_bits());
        }
    }
}
