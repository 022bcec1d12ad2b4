//! Property-based tests for the NBTI model invariants.

#![allow(clippy::unwrap_used)]
use proptest::prelude::*;
use relia_core::ac::{ac_to_dc_ratio, s_n, s_n_exact, s_n_many, s_n_rows, LANES};
use relia_core::arrhenius::diffusion_ratio;
use relia_core::rd::recovery_fraction;
use relia_core::units::{ElectronVolts, Kelvin, Seconds, Volts};
use relia_core::{
    DelayDegradation, EquivalentCycle, ModeSchedule, NbtiModel, NbtiParams, PmosStress, Ras,
    StressColumn, StressKey, VthDistribution,
};

/// Cycle counts on and around the exact-prefix boundary, plus the
/// degenerate 0 and 1 and a deep closed-form tail.
const EDGE_CYCLES: [u64; 6] = [0, 1, 4095, 4096, 4097, 10_000_000];

fn paper_schedule(standby_weight: f64, temp_s: f64) -> ModeSchedule {
    ModeSchedule::new(
        Ras::new(1.0, standby_weight).unwrap(),
        Seconds(1000.0),
        Kelvin(400.0),
        Kelvin(temp_s),
    )
    .unwrap()
}

proptest! {
    /// The hybrid S_n evaluator tracks the exact recursion everywhere.
    #[test]
    fn s_n_matches_exact(c in 0.01f64..1.0, n in 1u64..20_000) {
        let e = s_n_exact(c, n);
        let h = s_n(c, n);
        prop_assert!((e - h).abs() / e.max(1e-30) < 2e-3, "c={c} n={n} e={e} h={h}");
    }

    /// Damage is monotone in the number of cycles.
    #[test]
    fn s_n_monotone_in_cycles(c in 0.01f64..1.0, n in 1u64..10_000) {
        prop_assert!(s_n(c, n + 1) >= s_n(c, n));
    }

    /// Damage is monotone in the duty cycle.
    #[test]
    fn s_n_monotone_in_duty(c in 0.01f64..0.99, n in 1u64..10_000) {
        prop_assert!(s_n(c + 0.01, n) >= s_n(c, n));
    }

    /// AC damage never exceeds DC damage at the same elapsed time.
    #[test]
    fn ac_never_exceeds_dc(c in 0.0f64..1.0) {
        prop_assert!(ac_to_dc_ratio(c) <= 1.0 + 1e-12);
    }

    /// Recovery fraction stays within (0, 1].
    #[test]
    fn recovery_fraction_bounded(t in 0.0f64..1e12, ts in 1e-6f64..1e12) {
        let f = recovery_fraction(t, ts).unwrap();
        prop_assert!(f > 0.0 && f <= 1.0);
    }

    /// Diffusion slows monotonically as the temperature drops.
    #[test]
    fn diffusion_ratio_monotone(t in 250.0f64..399.0) {
        let lo = diffusion_ratio(ElectronVolts(0.295), Kelvin(t), Kelvin(400.0));
        let hi = diffusion_ratio(ElectronVolts(0.295), Kelvin(t + 1.0), Kelvin(400.0));
        prop_assert!(lo < hi && hi <= 1.0 + 1e-12);
    }

    /// ΔV_th is monotone in total stress time for any schedule.
    #[test]
    fn delta_vth_monotone_in_time(
        standby_weight in 0.0f64..20.0,
        temp_s in 300.0f64..400.0,
        p_a in 0.0f64..1.0,
        p_s in 0.0f64..1.0,
        t in 1.0e4f64..1.0e8,
    ) {
        let m = NbtiModel::ptm90().unwrap();
        let s = ModeSchedule::new(
            Ras::new(1.0, standby_weight).unwrap(),
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(temp_s),
        ).unwrap();
        let stress = PmosStress::new(p_a, p_s).unwrap();
        let d1 = m.delta_vth(Seconds(t), &s, &stress).unwrap();
        let d2 = m.delta_vth(Seconds(2.0 * t), &s, &stress).unwrap();
        prop_assert!(d2 >= d1);
    }

    /// ΔV_th is monotone in the standby temperature when standby stresses.
    #[test]
    fn delta_vth_monotone_in_standby_temp(temp_s in 300.0f64..395.0) {
        let m = NbtiModel::ptm90().unwrap();
        let mk = |temp: f64| ModeSchedule::new(
            Ras::new(1.0, 9.0).unwrap(),
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(temp),
        ).unwrap();
        let cool = m.delta_vth(Seconds(1.0e8), &mk(temp_s), &PmosStress::worst_case()).unwrap();
        let warm = m.delta_vth(Seconds(1.0e8), &mk(temp_s + 5.0), &PmosStress::worst_case()).unwrap();
        prop_assert!(warm >= cool);
    }

    /// A degraded delay is never negative, and exact >= linear.
    #[test]
    fn delay_degradation_ordering(dvth in 0.0f64..0.2) {
        let dd = DelayDegradation::new(&NbtiParams::ptm90().unwrap());
        let lin = dd.linear(dvth).unwrap();
        let ex = dd.exact(dvth).unwrap();
        prop_assert!(lin >= 0.0);
        prop_assert!(ex + 1e-15 >= lin);
    }

    /// Celsius↔kelvin conversion round-trips across the full practical
    /// range (cryogenic to die-melting), so the `Kelvin` newtype boundary
    /// never drifts a temperature.
    #[test]
    fn kelvin_celsius_round_trip(c in -273.0f64..1000.0) {
        let k = Kelvin::from_celsius(c);
        prop_assert!((k.to_celsius() - c).abs() < 1e-9, "c={c} k={}", k.0);
        prop_assert!((Kelvin(k.0).to_celsius() - c).abs() < 1e-9);
    }

    /// At a fixed RAS split, the equivalent stress time per mode cycle is
    /// monotone in the standby temperature: a hotter standby mode diffuses
    /// hydrogen faster, so its seconds count for more (eq. 17).
    #[test]
    fn equivalent_stress_monotone_in_standby_temp(
        temp_s in 280.0f64..395.0,
        standby_weight in 0.1f64..20.0,
        p_s in 0.05f64..1.0,
    ) {
        let params = NbtiParams::ptm90().unwrap();
        let ras = Ras::new(1.0, standby_weight).unwrap();
        let stress = PmosStress::new(0.5, p_s).unwrap();
        let mk = |t: f64| ModeSchedule::new(
            ras,
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(t),
        ).unwrap();
        let cool = EquivalentCycle::build(&params, &mk(temp_s), &stress).unwrap();
        let warm = EquivalentCycle::build(&params, &mk(temp_s + 5.0), &stress).unwrap();
        prop_assert!(
            warm.t_eq_stress > cool.t_eq_stress,
            "t_s={temp_s} w={standby_weight} p_s={p_s}: {} !> {}",
            warm.t_eq_stress,
            cool.t_eq_stress
        );
        prop_assert!(warm.diffusion_ratio > cool.diffusion_ratio);
    }

    /// Box–Muller samples respect the 3.5-sigma clamp.
    #[test]
    fn variation_samples_bounded(u1 in 0.0f64..1.0, u2 in 0.0f64..1.0) {
        let d = VthDistribution::new(Volts(0.22), Volts(0.01)).unwrap();
        let v = d.sample_box_muller(u1, u2).0;
        prop_assert!((0.22 - 0.036..=0.22 + 0.036).contains(&v));
    }

    /// The hoisted batch evaluator matches the scalar per-device entry
    /// point sample-for-sample — not "close", the same bits (≤ 0 ulp) —
    /// over random schedules, stress vectors, times, and thresholds.
    #[test]
    fn hoisted_batch_matches_scalar_bit_for_bit(
        standby_weight in 0.0f64..20.0,
        temp_s in 300.0f64..400.0,
        p_a in 0.0f64..1.0,
        p_s in 0.0f64..1.0,
        t in 1.0f64..3.2e8,
        vth0 in 0.16f64..0.30,
    ) {
        let model = NbtiModel::ptm90().unwrap();
        let schedule = ModeSchedule::new(
            Ras::new(1.0, standby_weight).unwrap(),
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(temp_s),
        ).unwrap();
        let stress = PmosStress::new(p_a, p_s).unwrap();
        let hoisted = model.hoist(Seconds(t), &schedule, &stress).unwrap();
        let scalar = model
            .delta_vth_with_vth0(Seconds(t), &schedule, &stress, Volts(vth0))
            .unwrap();
        prop_assert_eq!(hoisted.delta_vth_at(vth0).to_bits(), scalar.to_bits());
    }

    /// The batched slice entry point equals the per-element call for every
    /// lane, so chunked SoA evaluation cannot drift from pointwise.
    #[test]
    fn batch_slices_equal_pointwise(
        t in 1.0f64..3.2e8,
        vals in prop::collection::vec(0.16f64..0.30, 1..64),
    ) {
        let model = NbtiModel::ptm90().unwrap();
        let schedule = ModeSchedule::new(
            Ras::new(1.0, 9.0).unwrap(),
            Seconds(1000.0),
            Kelvin(400.0),
            Kelvin(330.0),
        ).unwrap();
        let stress = PmosStress::new(0.5, 1.0).unwrap();
        let hoisted = model.hoist(Seconds(t), &schedule, &stress).unwrap();
        let mut out = vec![0.0; vals.len()];
        hoisted.delta_vth_into(&vals, &mut out).unwrap();
        for (v, o) in vals.iter().zip(&out) {
            prop_assert_eq!(hoisted.delta_vth_at(*v).to_bits(), o.to_bits());
        }
    }

    /// The row recursion reads each entry's S_n off one walk, bit-equal to
    /// a scalar call per entry — in any order, with repeats, across the
    /// exact-prefix boundary and into the closed-form tail. Many rows walk
    /// LANES at a time: ragged rows, empty rows, row counts on either side
    /// of a multiple of LANES, and duty cycles pinned to 0, 1e-6 and 1.
    #[test]
    fn s_n_many_matches_s_n_bit_for_bit(
        c in 0.0f64..1.0,
        random in prop::collection::vec(0u64..20_000, 0..24),
        edge in prop::collection::vec(0usize..6, 1..12),
        rows in prop::collection::vec(
            (
                0.0f64..1.0,
                0u32..6,
                prop::collection::vec(0u64..20_000, 0..5),
                prop::collection::vec(0usize..6, 0..4),
            ),
            0..3 * LANES + 2,
        ),
    ) {
        let mut table = Vec::with_capacity(rows.len());
        let (mut duty, mut flat) = (Vec::new(), Vec::new());
        for (c, pin, random, edge) in &rows {
            let c = match pin {
                0 => 0.0,
                1 => 1.0,
                2 => 1e-6,
                _ => *c,
            };
            let row: Vec<u64> = random
                .iter()
                .copied()
                .chain(edge.iter().map(|&i| EDGE_CYCLES[i]))
                .collect();
            table.push((c, row.len()));
            duty.extend(std::iter::repeat_n(c, row.len()));
            flat.extend(row);
        }
        let mut out = vec![f64::NAN; flat.len()];
        s_n_rows(&table, &flat, &mut out);
        for ((&c, &n), s) in duty.iter().zip(&flat).zip(&out) {
            prop_assert_eq!(s.to_bits(), s_n(c, n).to_bits(), "c={} n={}", c, n);
        }

        let mut ns: Vec<u64> = random;
        ns.extend(edge.iter().map(|&i| EDGE_CYCLES[i]));
        ns.extend_from_slice(&EDGE_CYCLES);
        ns.extend_from_slice(&EDGE_CYCLES);
        ns.reverse();
        let many = s_n_many(c, &ns);
        prop_assert_eq!(many.len(), ns.len());
        for (&n, s) in ns.iter().zip(&many) {
            prop_assert_eq!(s.to_bits(), s_n(c, n).to_bits(), "c={} n={}", c, n);
        }
        for (&n, s) in ns.iter().zip(s_n_many(1.0, &ns)) {
            prop_assert_eq!(s.to_bits(), s_n(1.0, n).to_bits());
        }
        for s in s_n_many(0.0, &ns) {
            prop_assert_eq!(s.to_bits(), 0.0f64.to_bits());
        }
    }

    /// One column of lifetimes equals one `delta_vth` call per lifetime,
    /// bit for bit, including the zero lifetime and zero-duty vectors.
    #[test]
    fn delta_vth_lifetimes_matches_delta_vth(
        standby_weight in 0.0f64..20.0,
        temp_s in 300.0f64..400.0,
        p_a in 0.0f64..1.0,
        p_s in 0.0f64..1.0,
        zero_duty in 0u32..4,
        times in prop::collection::vec(0.0f64..3.2e8, 0..20),
    ) {
        let model = NbtiModel::ptm90().unwrap();
        let schedule = paper_schedule(standby_weight, temp_s);
        // One case in four has no stress at all (duty cycle zero).
        let stress = if zero_duty == 0 {
            PmosStress::new(0.0, 0.0).unwrap()
        } else {
            PmosStress::new(p_a, p_s).unwrap()
        };
        let mut lifetimes: Vec<Seconds> = times.into_iter().map(Seconds).collect();
        lifetimes.extend([Seconds(0.0), Seconds(1.0), Seconds(4.096e6), Seconds(1.0e10)]);
        let row = model.delta_vth_lifetimes(&lifetimes, &schedule, &stress).unwrap();
        prop_assert_eq!(row.len(), lifetimes.len());
        for (&t, v) in lifetimes.iter().zip(&row) {
            let scalar = model.delta_vth(t, &schedule, &stress).unwrap();
            prop_assert_eq!(v.to_bits(), scalar.to_bits(), "t={}", t.0);
        }
    }

    /// An invalid lifetime fails the row with the error the first failing
    /// per-lifetime call gives. Over more than LANES columns, with columns
    /// repeated at non-adjacent positions, each column reports its own
    /// first failure, and every column without one is bit-equal to the
    /// scalar calls.
    #[test]
    fn delta_vth_lifetimes_reports_the_first_failure(
        times in prop::collection::vec(0.0f64..3.2e8, 0..8),
        bad in prop::collection::vec(0u32..3, 1..3),
        stresses in prop::collection::vec((0.0f64..20.0, 300.0f64..400.0, 0.0f64..1.0, 0.0f64..1.0), 1..5),
        columns in prop::collection::vec(
            (0usize..5, prop::collection::vec(0.0f64..3.2e8, 0..4), 0u32..6),
            LANES + 1..3 * LANES,
        ),
    ) {
        let model = NbtiModel::ptm90().unwrap();
        let invalid = |b: u32| match b {
            0 => Seconds(-1.0),
            1 => Seconds(f64::NAN),
            _ => Seconds(f64::INFINITY),
        };
        let schedule = paper_schedule(9.0, 330.0);
        let stress = PmosStress::worst_case();
        let mut lifetimes: Vec<Seconds> = times.into_iter().map(Seconds).collect();
        lifetimes.extend(bad.iter().map(|&b| invalid(b)));
        lifetimes.push(Seconds(1.0e8));
        let expected = lifetimes
            .iter()
            .map(|&t| model.delta_vth(t, &schedule, &stress))
            .collect::<Result<Vec<f64>, _>>()
            .unwrap_err();
        let got = model.delta_vth_lifetimes(&lifetimes, &schedule, &stress).unwrap_err();
        prop_assert_eq!(format!("{got:?}"), format!("{expected:?}"));

        // Columns pick from a few (schedule, stress) points, so points
        // repeat; half the columns carry an invalid lifetime somewhere.
        let (mut table, mut flat) = (Vec::new(), Vec::new());
        for (pick, times, bad) in &columns {
            let (weight, temp_s, p_a, p_s) = stresses[pick % stresses.len()];
            let mut row: Vec<Seconds> = times.iter().map(|&t| Seconds(t)).collect();
            if *bad < 3 {
                row.insert(row.len() / 2, invalid(*bad));
            }
            row.push(Seconds(1.0e8));
            table.push(StressColumn {
                schedule: paper_schedule(weight, temp_s),
                stress: PmosStress::new(p_a, p_s).unwrap(),
                len: row.len(),
            });
            flat.extend(row);
        }
        let mut out = vec![f64::NAN; flat.len()];
        let status = model.delta_vth_columns(&table, &flat, &mut out);
        prop_assert_eq!(status.len(), table.len());
        let mut start = 0;
        for (column, status) in table.iter().zip(&status) {
            let row = start..start + column.len;
            start = row.end;
            let scalar = flat[row.clone()]
                .iter()
                .map(|&t| model.delta_vth(t, &column.schedule, &column.stress))
                .collect::<Result<Vec<f64>, _>>();
            match (status, scalar) {
                (Ok(()), Ok(values)) => {
                    for (got, want) in out[row].iter().zip(&values) {
                        prop_assert_eq!(got.to_bits(), want.to_bits());
                    }
                }
                (got, want) => prop_assert_eq!(format!("{got:?}"), format!("{:?}", want.map(|_| ()))),
            }
        }
    }

    /// Batched key evaluation equals per-key evaluation bit for bit: one
    /// row of lifetimes, interleaved rows, per-device thresholds, and key
    /// sets spanning more than LANES rows whose repeats are not adjacent.
    #[test]
    fn evaluate_many_matches_evaluate(
        rows in prop::collection::vec(
            (0.5f64..20.0, 300.0f64..400.0, 0.0f64..1.0, 0.0f64..1.0),
            1..3 * LANES,
        ),
        picks in prop::collection::vec(
            (0usize..3 * LANES, 0.0f64..3.2e8, 0u32..3, 0.16f64..0.30),
            1..6 * LANES,
        ),
    ) {
        let model = NbtiModel::ptm90().unwrap();
        let keys: Vec<StressKey> = picks
            .iter()
            .map(|&(row, t, kind, vth0)| {
                let (weight, temp_s, p_a, p_s) = rows[row % rows.len()];
                let schedule = paper_schedule(weight, temp_s);
                let stress = PmosStress::new(p_a, p_s).unwrap();
                match kind {
                    0 => StressKey::quantize(&schedule, &stress, Seconds(t)).unwrap(),
                    1 => StressKey::quantize_with_vth0(&schedule, &stress, Seconds(t), Volts(vth0)).unwrap(),
                    // Past V_dd: every path must report the same error.
                    _ => StressKey::quantize_with_vth0(&schedule, &stress, Seconds(t), Volts(2.0)).unwrap(),
                }
            })
            .collect();
        // The whole mixed list, and the first key's row on its own.
        let row0: Vec<StressKey> = picks
            .iter()
            .zip(&keys)
            .filter(|((row, ..), _)| row % rows.len() == picks[0].0 % rows.len())
            .map(|(_, key)| *key)
            .collect();
        for batch in [&keys, &row0] {
            let many = StressKey::evaluate_many(batch, &model);
            prop_assert_eq!(many.len(), batch.len());
            for (key, got) in batch.iter().zip(&many) {
                match (got, key.evaluate(&model)) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a.to_bits(), b.to_bits()),
                    (a, b) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
                }
            }
        }
    }
}
