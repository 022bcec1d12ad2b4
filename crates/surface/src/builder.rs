//! The offline surface builder: evaluates the full grid on the relia-jobs
//! pool, [`LANES`] lifetime columns per job through `relia-core::batch`'s
//! column entry point, then sweeps every cell midpoint the same way to
//! *measure* the interpolation sup-error that gets sealed into the
//! artifact header — the accuracy contract ships with the data.

use relia_core::ac::LANES;
use relia_core::{
    Kelvin, ModeSchedule, ModelError, NbtiModel, PmosStress, Ras, Seconds, StressColumn,
};
use relia_jobs::{default_workers, run_ordered, SWEEP_PERIOD_S, SWEEP_TEMP_ACTIVE_K};

use crate::artifact::{Artifact, SurfaceError};
use crate::grid::{blend, bracket, Bracket, SurfaceGrid};
use crate::surface::{model_fingerprint, rel_error, SurfaceQuery};

/// What to build: the four axes, the stress-probability pairs, the
/// mode-cycle period, and the worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildSpec {
    /// Active-temperature axis. Usually the single engine baseline point.
    pub t_active_k: Vec<Kelvin>,
    /// Standby-temperature axis.
    pub t_standby_k: Vec<Kelvin>,
    /// RAS active-fraction axis, `a/(a+s)` in `[0, 1]`.
    pub ras_fraction: Vec<f64>,
    /// Lifetime axis (seconds, ascending; log-spaced is the idiom).
    pub lifetime_s: Vec<f64>,
    /// `(p_active, p_standby)` pairs, one value block each.
    pub pairs: Vec<(f64, f64)>,
    /// Mode-cycle period in seconds.
    pub period_s: f64,
    /// Worker threads for the grid fill and the error sweep
    /// (`0` → [`default_workers`]).
    pub workers: usize,
}

/// `n` linearly spaced points over `[lo, hi]` (`n == 1` → `[lo]`).
pub fn lin_spaced(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    if n <= 1 {
        return vec![lo];
    }
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

/// [`lin_spaced`], wrapped in [`Kelvin`] — the temperature-axis idiom.
pub fn kelvin_spaced(lo: f64, hi: f64, n: usize) -> Vec<Kelvin> {
    lin_spaced(lo, hi, n).into_iter().map(Kelvin).collect()
}

/// `n` log-spaced points over `[lo, hi]` (`n == 1` → `[lo]`); endpoints
/// are pinned exactly so the domain edges are representable.
pub fn log_spaced(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    if n <= 1 {
        return vec![lo];
    }
    let (llo, lhi) = (lo.log10(), hi.log10());
    (0..n)
        .map(|i| {
            if i == 0 {
                lo
            } else if i == n - 1 {
                hi
            } else {
                10f64.powf(llo + (lhi - llo) * i as f64 / (n - 1) as f64)
            }
        })
        .collect()
}

impl BuildSpec {
    /// The default production grid: the engine's fixed active temperature,
    /// standby temperatures spanning the paper's 310–410 K operating
    /// range, RAS fractions across `[0.05, 0.95]`, lifetimes log-spaced
    /// over 10⁶–10¹⁰ s, and the paper's baseline stress pair.
    pub fn paper_defaults() -> BuildSpec {
        BuildSpec {
            t_active_k: vec![Kelvin(SWEEP_TEMP_ACTIVE_K)],
            t_standby_k: kelvin_spaced(310.0, 410.0, 21),
            ras_fraction: lin_spaced(0.05, 0.95, 37),
            lifetime_s: log_spaced(1e6, 1e10, 41),
            pairs: vec![(0.5, 1.0)],
            period_s: SWEEP_PERIOD_S,
            workers: 0,
        }
    }

    fn validate(&self) -> Result<(), SurfaceError> {
        if self.pairs.is_empty() {
            return Err(SurfaceError::Invalid("no stress pairs".to_owned()));
        }
        for &(pa, ps) in &self.pairs {
            for (name, p) in [("p_active", pa), ("p_standby", ps)] {
                if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                    return Err(SurfaceError::Invalid(format!("{name} {p} outside [0, 1]")));
                }
            }
        }
        if !self.period_s.is_finite() || self.period_s <= 0.0 {
            return Err(SurfaceError::Invalid(format!(
                "period_s {} must be positive",
                self.period_s
            )));
        }
        Ok(())
    }
}

/// One exact model evaluation at a surface coordinate: the same
/// `Ras → ModeSchedule → PmosStress → hoist` path the sweep engine
/// canonicalizes, with the hoisted base being a plain `delta_vth` value.
/// The builder evaluates whole columns instead, bit-equal to this.
///
/// # Errors
///
/// [`SurfaceError::Build`] wrapping the model's validation message.
pub fn evaluate_exact(
    model: &NbtiModel,
    period_s: f64,
    query: &SurfaceQuery,
) -> Result<f64, SurfaceError> {
    let (schedule, stress) = operating_point(
        period_s,
        query.t_active_k,
        query.t_standby_k,
        query.ras_fraction,
        (query.p_active, query.p_standby),
    )?;
    Ok(model
        .hoist(Seconds(query.lifetime_s), &schedule, &stress)
        .map_err(build_error)?
        .base())
}

fn build_error(e: ModelError) -> SurfaceError {
    SurfaceError::Build(e.to_string())
}

/// The schedule and stress vector of one `(T_a, T_s, ras, pair)` point.
fn operating_point(
    period_s: f64,
    t_active_k: Kelvin,
    t_standby_k: Kelvin,
    ras_fraction: f64,
    (p_active, p_standby): (f64, f64),
) -> Result<(ModeSchedule, PmosStress), SurfaceError> {
    let ras = Ras::new(ras_fraction, 1.0 - ras_fraction).map_err(build_error)?;
    let schedule =
        ModeSchedule::new(ras, Seconds(period_s), t_active_k, t_standby_k).map_err(build_error)?;
    let stress = PmosStress::new(p_active, p_standby).map_err(build_error)?;
    Ok((schedule, stress))
}

/// Exact ΔV_th at `points`, each a `(T_a, T_s, ras, pair)` operating
/// point owning the next `len` entries of `lifetimes`, each bit-equal to
/// one [`evaluate_exact`] call. Every point builds one equivalent cycle,
/// and the points' AC recursions share one lane-parallel walk
/// ([`NbtiModel::delta_vth_columns`]).
pub(crate) fn exact_points(
    model: &NbtiModel,
    period_s: f64,
    points: impl IntoIterator<Item = (Kelvin, Kelvin, f64, (f64, f64))>,
    len: usize,
    lifetimes: &[Seconds],
) -> Result<Vec<f64>, SurfaceError> {
    let columns = points
        .into_iter()
        .map(|(t_active_k, t_standby_k, ras_fraction, pair)| {
            let (schedule, stress) =
                operating_point(period_s, t_active_k, t_standby_k, ras_fraction, pair)?;
            Ok(StressColumn {
                schedule,
                stress,
                len,
            })
        })
        .collect::<Result<Vec<_>, SurfaceError>>()?;
    let mut values = vec![0.0; lifetimes.len()];
    for status in model.delta_vth_columns(&columns, lifetimes, &mut values) {
        status.map_err(build_error)?;
    }
    Ok(values)
}

/// One column: every lifetime at a fixed pair and position `at` on the
/// `(T_a, T_s, ras)` axes.
struct Column {
    pair: usize,
    at: [usize; 3],
}

impl Column {
    /// Every column over `pairs` pairs and axes of `lens` points,
    /// pair-major and RAS fastest — for grid axes, the order of
    /// [`SurfaceGrid::index`].
    fn all(pairs: usize, [n_ta, n_ts, n_rf]: [usize; 3]) -> Vec<Column> {
        let mut columns = Vec::with_capacity(pairs * n_ta * n_ts * n_rf);
        for pair in 0..pairs {
            for i_ta in 0..n_ta {
                for i_ts in 0..n_ts {
                    for i_rf in 0..n_rf {
                        columns.push(Column {
                            pair,
                            at: [i_ta, i_ts, i_rf],
                        });
                    }
                }
            }
        }
        columns
    }
}

/// Exact values of `columns`, their positions read on the `(T_a, T_s,
/// ras)` axes given, at every lifetime of `lifetimes_s`, laid out column
/// after column ([`exact_points`]).
fn exact_columns(
    model: &NbtiModel,
    spec: &BuildSpec,
    [ta, ts, rf]: [&[f64]; 3],
    columns: &[Column],
    lifetimes_s: &[f64],
) -> Result<Vec<f64>, SurfaceError> {
    let points = columns.iter().map(|col| {
        let [a, s, r] = col.at;
        (Kelvin(ta[a]), Kelvin(ts[s]), rf[r], spec.pairs[col.pair])
    });
    let lifetimes: Vec<Seconds> = columns
        .iter()
        .flat_map(|_| lifetimes_s.iter().map(|&t| Seconds(t)))
        .collect();
    exact_points(model, spec.period_s, points, lifetimes_s.len(), &lifetimes)
}

/// Cell midpoints along one axis (`log` → geometric midpoints); a
/// single-point axis contributes its one point.
fn midpoints(axis: &[f64], log: bool) -> Vec<f64> {
    if axis.len() == 1 {
        return vec![axis[0]];
    }
    axis.windows(2)
        .map(|w| {
            if log {
                10f64.powf((w[0].log10() + w[1].log10()) / 2.0)
            } else {
                (w[0] + w[1]) / 2.0
            }
        })
        .collect()
}

/// The error sweep's samples: the cell midpoints of each grid axis, in
/// axis order, and each midpoint's [`Bracket`] on its axis. A sample is
/// one midpoint per axis, so a midpoint value recurs across thousands of
/// samples but is bracketed once, here.
struct Midpoints {
    values: [Vec<f64>; 4],
    brackets: [Vec<Bracket>; 4],
}

impl Midpoints {
    fn new(grid: &SurfaceGrid) -> Midpoints {
        let axes = [
            (grid.t_active_k(), false),
            (grid.t_standby_k(), false),
            (grid.ras_fraction(), false),
            (grid.lifetime_s(), true),
        ];
        let values = axes.map(|(axis, log)| midpoints(axis, log));
        let brackets = std::array::from_fn(|i| {
            let (axis, log) = axes[i];
            values[i].iter().map(|&x| bracket(axis, x, log)).collect()
        });
        Midpoints { values, brackets }
    }

    /// The brackets of the sample at midpoint `at[i]` of each axis `i`.
    fn brackets(&self, at: [usize; 4]) -> [Bracket; 4] {
        std::array::from_fn(|i| self.brackets[i][at[i]])
    }
}

/// Builds the full artifact: parallel grid fill, then the midpoint
/// error sweep whose measured sup-error is embedded in the header.
///
/// # Errors
///
/// [`SurfaceError::Invalid`] for a bad spec, [`SurfaceError::Build`] if
/// any model evaluation or pool job fails.
pub fn build(model: &NbtiModel, spec: &BuildSpec) -> Result<Artifact, SurfaceError> {
    spec.validate()?;
    let grid = SurfaceGrid::new(
        spec.t_active_k.iter().map(|k| k.0).collect(),
        spec.t_standby_k.iter().map(|k| k.0).collect(),
        spec.ras_fraction.clone(),
        spec.lifetime_s.clone(),
    )?;
    let workers = if spec.workers == 0 {
        default_workers()
    } else {
        spec.workers
    };

    // Phase 1: fill the grid, one job per LANES (pair, T_a, T_s, ras)
    // columns, one AC recursion per column and LANES per loop. Columns
    // come in flat-index order, so each pair's value block is its columns'
    // lifetime rows laid end to end.
    let axes = [grid.t_active_k(), grid.t_standby_k(), grid.ras_fraction()];
    let columns = Column::all(spec.pairs.len(), axes.map(<[f64]>::len));
    let jobs: Vec<&[Column]> = columns.chunks(LANES).collect();
    let outcomes = run_ordered(&jobs, workers, |_, cols| {
        exact_columns(model, spec, axes, cols, grid.lifetime_s())
    });
    let mut values: Vec<Vec<f64>> = (0..spec.pairs.len())
        .map(|_| Vec::with_capacity(grid.len()))
        .collect();
    for (cols, outcome) in jobs.iter().zip(outcomes) {
        let exact = outcome.into_result().map_err(SurfaceError::Build)??;
        for (col, row) in cols.iter().zip(exact.chunks(grid.lifetime_s().len())) {
            values[col.pair].extend_from_slice(row);
        }
    }

    // Phase 2: measure the sup of the relative interpolation error at
    // every cell midpoint — where multilinear interpolation of a smooth
    // function peaks — so the header carries evidence, not hope. Jobs of
    // LANES midpoint columns again, one AC recursion per column, and each
    // sample blended from its cached brackets.
    let mid = Midpoints::new(&grid);
    let [mid_ta, mid_ts, mid_rf, mid_lt] = &mid.values;
    let mid_axes = [mid_ta.as_slice(), mid_ts, mid_rf];
    let sweep_cols = Column::all(spec.pairs.len(), mid_axes.map(<[f64]>::len));
    let sweep_jobs: Vec<&[Column]> = sweep_cols.chunks(LANES).collect();
    let sweeps = run_ordered(&sweep_jobs, workers, |_, cols| {
        let exact = exact_columns(model, spec, mid_axes, cols, mid_lt)?;
        let mut worst = 0.0f64;
        for (col, row) in cols.iter().zip(exact.chunks(mid_lt.len())) {
            let [a, s, r] = col.at;
            for (l, &exact) in row.iter().enumerate() {
                let approx = blend(&grid, &values[col.pair], &mid.brackets([a, s, r, l]));
                worst = worst.max(rel_error(approx, exact));
            }
        }
        Ok(worst)
    });
    let mut sup_error = 0.0f64;
    for outcome in sweeps {
        sup_error = sup_error.max(outcome.into_result().map_err(SurfaceError::Build)??);
    }
    let error_samples = (sweep_cols.len() * mid_lt.len()) as u64;

    Ok(Artifact {
        period_s: spec.period_s,
        model_fingerprint: model_fingerprint(model)?,
        sup_error,
        error_samples,
        grid,
        pairs: spec.pairs.clone(),
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::interpolate;

    /// A small but representative spec: dense enough to hold the error
    /// bound, small enough for test time.
    pub(crate) fn test_spec() -> BuildSpec {
        BuildSpec {
            t_active_k: vec![Kelvin(SWEEP_TEMP_ACTIVE_K)],
            t_standby_k: kelvin_spaced(320.0, 400.0, 9),
            ras_fraction: lin_spaced(0.1, 0.9, 17),
            lifetime_s: log_spaced(1e6, 1e9, 31),
            pairs: vec![(0.5, 1.0)],
            period_s: SWEEP_PERIOD_S,
            workers: 2,
        }
    }

    /// The builder as a per-point loop: every node from [`evaluate_exact`],
    /// and the sup-error from one [`evaluate_exact`] per midpoint sample.
    fn reference_build(model: &NbtiModel, spec: &BuildSpec) -> Artifact {
        let query = |pair: usize, ta: f64, ts: f64, rf: f64, t: f64| SurfaceQuery {
            t_active_k: Kelvin(ta),
            t_standby_k: Kelvin(ts),
            ras_fraction: rf,
            lifetime_s: t,
            p_active: spec.pairs[pair].0,
            p_standby: spec.pairs[pair].1,
        };
        let grid = SurfaceGrid::new(
            spec.t_active_k.iter().map(|k| k.0).collect(),
            spec.t_standby_k.iter().map(|k| k.0).collect(),
            spec.ras_fraction.clone(),
            spec.lifetime_s.clone(),
        )
        .unwrap();
        let mut values = vec![vec![0.0; grid.len()]; spec.pairs.len()];
        for (pair, block) in values.iter_mut().enumerate() {
            for (i_ta, &ta) in grid.t_active_k().iter().enumerate() {
                for (i_ts, &ts) in grid.t_standby_k().iter().enumerate() {
                    for (i_rf, &rf) in grid.ras_fraction().iter().enumerate() {
                        for (i_lt, &t) in grid.lifetime_s().iter().enumerate() {
                            block[grid.index(i_ta, i_ts, i_rf, i_lt)] =
                                evaluate_exact(model, spec.period_s, &query(pair, ta, ts, rf, t))
                                    .unwrap();
                        }
                    }
                }
            }
        }
        let mid_lt = midpoints(grid.lifetime_s(), true);
        let (mut sup_error, mut error_samples) = (0.0f64, 0u64);
        for (pair, block) in values.iter().enumerate() {
            for &ta in &midpoints(grid.t_active_k(), false) {
                for &ts in &midpoints(grid.t_standby_k(), false) {
                    for &rf in &midpoints(grid.ras_fraction(), false) {
                        for &t in &mid_lt {
                            let exact =
                                evaluate_exact(model, spec.period_s, &query(pair, ta, ts, rf, t))
                                    .unwrap();
                            let (approx, _) = interpolate(&grid, block, ta, ts, rf, t);
                            sup_error = sup_error.max(rel_error(approx, exact));
                            error_samples += 1;
                        }
                    }
                }
            }
        }
        Artifact {
            period_s: spec.period_s,
            model_fingerprint: model_fingerprint(model).unwrap(),
            sup_error,
            error_samples,
            grid,
            pairs: spec.pairs.clone(),
            values,
        }
    }

    #[test]
    fn column_build_is_byte_identical_to_the_per_point_reference() {
        let model = NbtiModel::ptm90().unwrap();
        let spec = BuildSpec {
            pairs: vec![(0.5, 1.0), (0.3, 0.0)],
            ..test_spec()
        };
        let reference = reference_build(&model, &spec).to_bytes();
        for workers in [1, 4] {
            let built = build(
                &model,
                &BuildSpec {
                    workers,
                    ..spec.clone()
                },
            )
            .unwrap();
            assert!(
                built.to_bytes() == reference,
                "build at {workers} worker(s) differs from the per-point reference"
            );
        }
    }

    #[test]
    fn cached_brackets_blend_bit_for_bit_as_interpolate_does() {
        for t_active_k in [vec![400.0], vec![380.0, 400.0]] {
            let grid = SurfaceGrid::new(
                t_active_k,
                vec![320.0, 350.0, 400.0],
                vec![0.1, 0.4, 0.9],
                log_spaced(1e6, 1e9, 5),
            )
            .unwrap();
            let values: Vec<f64> = (0..grid.len()).map(|i| (i as f64).sin() + 2.0).collect();
            let mid = Midpoints::new(&grid);
            let [ta, ts, rf, lt] = &mid.values;
            for (a, &x_ta) in ta.iter().enumerate() {
                for (s, &x_ts) in ts.iter().enumerate() {
                    for (r, &x_rf) in rf.iter().enumerate() {
                        for (l, &x_lt) in lt.iter().enumerate() {
                            let (want, clamped) =
                                interpolate(&grid, &values, x_ta, x_ts, x_rf, x_lt);
                            assert!(!clamped);
                            let got = blend(&grid, &values, &mid.brackets([a, s, r, l]));
                            assert_eq!(got.to_bits(), want.to_bits(), "sample {:?}", [a, s, r, l]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn grid_values_match_exact_evaluation_at_nodes() {
        let model = NbtiModel::ptm90().unwrap();
        let spec = BuildSpec {
            t_standby_k: kelvin_spaced(320.0, 400.0, 3),
            ras_fraction: lin_spaced(0.1, 0.9, 3),
            lifetime_s: log_spaced(1e6, 1e9, 4),
            ..test_spec()
        };
        let artifact = build(&model, &spec).unwrap();
        let g = &artifact.grid;
        for (i_ts, &ts) in g.t_standby_k().iter().enumerate() {
            for (i_rf, &rf) in g.ras_fraction().iter().enumerate() {
                for (i_lt, &t) in g.lifetime_s().iter().enumerate() {
                    let exact = evaluate_exact(
                        &model,
                        spec.period_s,
                        &SurfaceQuery {
                            t_active_k: Kelvin(SWEEP_TEMP_ACTIVE_K),
                            t_standby_k: Kelvin(ts),
                            ras_fraction: rf,
                            lifetime_s: t,
                            p_active: 0.5,
                            p_standby: 1.0,
                        },
                    )
                    .unwrap();
                    let got = artifact.values[0][g.index(0, i_ts, i_rf, i_lt)];
                    assert_eq!(got.to_bits(), exact.to_bits(), "node ({ts}, {rf}, {t})");
                }
            }
        }
    }

    #[test]
    fn measured_sup_error_is_within_the_documented_bound() {
        let model = NbtiModel::ptm90().unwrap();
        let artifact = build(&model, &test_spec()).unwrap();
        assert!(artifact.error_samples > 0);
        assert!(
            artifact.sup_error < crate::DOCUMENTED_ERROR_BOUND,
            "measured sup-error {:e} must stay under the bound {:e}",
            artifact.sup_error,
            crate::DOCUMENTED_ERROR_BOUND
        );
        // And it is a real measurement, not a zero placeholder.
        assert!(artifact.sup_error > 0.0);
    }

    #[test]
    fn build_is_deterministic_across_worker_counts() {
        let model = NbtiModel::ptm90().unwrap();
        let small = BuildSpec {
            t_standby_k: kelvin_spaced(320.0, 400.0, 3),
            ras_fraction: lin_spaced(0.1, 0.9, 3),
            lifetime_s: log_spaced(1e6, 1e9, 4),
            ..test_spec()
        };
        let one = build(
            &model,
            &BuildSpec {
                workers: 1,
                ..small.clone()
            },
        )
        .unwrap();
        let four = build(
            &model,
            &BuildSpec {
                workers: 4,
                ..small
            },
        )
        .unwrap();
        assert_eq!(one.to_bytes(), four.to_bytes());
    }

    #[test]
    fn rejects_bad_specs() {
        let model = NbtiModel::ptm90().unwrap();
        let mut spec = test_spec();
        spec.pairs.clear();
        assert!(build(&model, &spec).is_err());
        let mut spec = test_spec();
        spec.pairs = vec![(1.5, 0.5)];
        assert!(build(&model, &spec).is_err());
        let mut spec = test_spec();
        spec.period_s = 0.0;
        assert!(build(&model, &spec).is_err());
        let mut spec = test_spec();
        spec.t_standby_k = vec![Kelvin(400.0), Kelvin(320.0)];
        assert!(build(&model, &spec).is_err());
    }

    #[test]
    fn spaced_helpers_pin_endpoints() {
        assert_eq!(lin_spaced(1.0, 3.0, 3), vec![1.0, 2.0, 3.0]);
        assert_eq!(lin_spaced(5.0, 9.0, 1), vec![5.0]);
        let lg = log_spaced(1e2, 1e6, 5);
        assert_eq!(lg.first().copied(), Some(1e2));
        assert_eq!(lg.last().copied(), Some(1e6));
        assert!((lg[2] - 1e4).abs() < 1e-6);
    }
}
