//! The 4-D response-surface grid: axis storage, validation, flat
//! indexing, and multilinear interpolation with explicit clamp reporting.
//!
//! Axes follow the paper's two-mode operating space: active temperature,
//! standby temperature, the RAS active fraction `a/(a+s)`, and lifetime.
//! The lifetime axis is stored in seconds but interpolated in `log10`
//! coordinates — ΔV_th grows like a power of time, so equal-ratio spacing
//! gives near-uniform interpolation error across decades where linear
//! spacing would waste points on the tail.

use crate::artifact::SurfaceError;

/// The four grid axes, each finite and strictly increasing. Value blocks
/// are flat `f64` arrays in row-major order with lifetime fastest (see
/// [`SurfaceGrid::index`]).
///
/// Axes are stored as the raw `f64` blocks of the sealed artifact codec;
/// the `Kelvin`-typed boundary is `SurfaceQuery`/`BuildSpec` one level up.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceGrid {
    t_active_k: Vec<f64>,  // relia-lint: allow(unit-leak)
    t_standby_k: Vec<f64>, // relia-lint: allow(unit-leak)
    ras_fraction: Vec<f64>,
    lifetime_s: Vec<f64>,
}

fn check_axis(name: &str, axis: &[f64], min: f64, max: f64) -> Result<(), SurfaceError> {
    if axis.is_empty() {
        return Err(SurfaceError::Invalid(format!("axis {name} is empty")));
    }
    for &v in axis {
        if !v.is_finite() || v < min || v > max {
            return Err(SurfaceError::Invalid(format!(
                "axis {name} value {v} outside [{min}, {max}]"
            )));
        }
    }
    if !axis.windows(2).all(|w| w[0] < w[1]) {
        return Err(SurfaceError::Invalid(format!(
            "axis {name} is not strictly increasing"
        )));
    }
    Ok(())
}

impl SurfaceGrid {
    /// Builds a validated grid.
    ///
    /// # Errors
    ///
    /// [`SurfaceError::Invalid`] if any axis is empty, non-finite, out of
    /// its physical range, or not strictly increasing.
    pub fn new(
        t_active_k: Vec<f64>,  // relia-lint: allow(unit-leak)
        t_standby_k: Vec<f64>, // relia-lint: allow(unit-leak)
        ras_fraction: Vec<f64>,
        lifetime_s: Vec<f64>,
    ) -> Result<Self, SurfaceError> {
        check_axis("t_active_k", &t_active_k, 1.0, 2000.0)?;
        check_axis("t_standby_k", &t_standby_k, 1.0, 2000.0)?;
        check_axis("ras_fraction", &ras_fraction, 0.0, 1.0)?;
        check_axis("lifetime_s", &lifetime_s, 1e-3, 1e12)?;
        Ok(SurfaceGrid {
            t_active_k,
            t_standby_k,
            ras_fraction,
            lifetime_s,
        })
    }

    /// Active-temperature axis (kelvin).
    pub fn t_active_k(&self) -> &[f64] {
        &self.t_active_k
    }

    /// Standby-temperature axis (kelvin).
    pub fn t_standby_k(&self) -> &[f64] {
        &self.t_standby_k
    }

    /// RAS active-fraction axis, `a/(a+s)` in `[0, 1]`.
    pub fn ras_fraction(&self) -> &[f64] {
        &self.ras_fraction
    }

    /// Lifetime axis (seconds, interpolated in `log10`).
    pub fn lifetime_s(&self) -> &[f64] {
        &self.lifetime_s
    }

    /// Number of grid points (the length of one value block).
    pub fn len(&self) -> usize {
        self.t_active_k.len()
            * self.t_standby_k.len()
            * self.ras_fraction.len()
            * self.lifetime_s.len()
    }

    /// True for a degenerate grid (cannot happen post-validation).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat index of grid point `(i_ta, i_ts, i_rf, i_lt)` — row-major,
    /// lifetime fastest.
    pub fn index(&self, i_ta: usize, i_ts: usize, i_rf: usize, i_lt: usize) -> usize {
        ((i_ta * self.t_standby_k.len() + i_ts) * self.ras_fraction.len() + i_rf)
            * self.lifetime_s.len()
            + i_lt
    }
}

/// One bracketed axis coordinate: the lower corner index, the fractional
/// position inside the cell, and whether the query fell outside the axis
/// and was clamped to an edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bracket {
    /// Index of the cell's lower corner (always a valid axis index).
    pub lo: usize,
    /// Fraction in `[0, 1]` toward the upper corner.
    pub frac: f64,
    /// True if the query point was outside the axis domain.
    pub clamped: bool,
}

/// Brackets `x` on `axis`; `log` interpolates the fraction in `log10`
/// coordinates (the lifetime axis). Out-of-domain points clamp to the
/// nearest edge and report it.
pub fn bracket(axis: &[f64], x: f64, log: bool) -> Bracket {
    let last = axis.len() - 1;
    if x <= axis[0] {
        return Bracket {
            lo: 0,
            frac: 0.0,
            clamped: x < axis[0],
        };
    }
    if x >= axis[last] {
        return Bracket {
            lo: last.saturating_sub(1),
            frac: if last == 0 { 0.0 } else { 1.0 },
            clamped: x > axis[last],
        };
    }
    // Strictly inside: axis[0] < x < axis[last], so len >= 2 and the
    // partition point is in 1..=last.
    let hi = axis.partition_point(|&v| v <= x).min(last);
    let lo = hi - 1;
    let frac = if log {
        (x.log10() - axis[lo].log10()) / (axis[hi].log10() - axis[lo].log10())
    } else {
        (x - axis[lo]) / (axis[hi] - axis[lo])
    };
    Bracket {
        lo,
        frac: frac.clamp(0.0, 1.0),
        clamped: false,
    }
}

/// Multilinear interpolation of one value block at
/// `(t_active_k, t_standby_k, ras_fraction, lifetime_s)`: a weighted sum
/// over the 2⁴ cell corners, with the lifetime axis blended in `log10`
/// coordinates. Returns the value and whether **any** axis clamped.
///
/// `values` must have length [`SurfaceGrid::len`] (the builder and the
/// artifact reader both guarantee it).
pub fn interpolate(
    grid: &SurfaceGrid,
    values: &[f64],
    t_active_k: f64,  // relia-lint: allow(unit-leak)
    t_standby_k: f64, // relia-lint: allow(unit-leak)
    ras_fraction: f64,
    lifetime_s: f64,
) -> (f64, bool) {
    let brackets = [
        bracket(&grid.t_active_k, t_active_k, false),
        bracket(&grid.t_standby_k, t_standby_k, false),
        bracket(&grid.ras_fraction, ras_fraction, false),
        bracket(&grid.lifetime_s, lifetime_s, true),
    ];
    let clamped = brackets.iter().any(|b| b.clamped);
    (blend(grid, values, &brackets), clamped)
}

/// The multilinear blend of [`interpolate`] from the point's brackets on
/// the four axes, in axis order. A caller that meets the same axis value
/// many times (the builder's error sweep) brackets it once and blends
/// from the cached bracket, bit-equal to [`interpolate`].
pub(crate) fn blend(grid: &SurfaceGrid, values: &[f64], brackets: &[Bracket; 4]) -> f64 {
    let lens = [
        grid.t_active_k.len(),
        grid.t_standby_k.len(),
        grid.ras_fraction.len(),
        grid.lifetime_s.len(),
    ];
    // Each axis's lower and upper corner as (index, weight). `hi` stays in
    // range on single-point axes; its weight is then zero.
    let [ta, ts, rf, lt] = std::array::from_fn(|axis| {
        let b = brackets[axis];
        [
            (b.lo, 1.0 - b.frac),
            ((b.lo + 1).min(lens[axis] - 1), b.frac),
        ]
    });
    let mut acc = 0.0;
    for corner in 0..16usize {
        let (ia, wa) = ta[corner & 1];
        let (is, ws) = ts[(corner >> 1) & 1];
        let (ir, wr) = rf[(corner >> 2) & 1];
        let (it, wt) = lt[(corner >> 3) & 1];
        let w = wa * ws * wr * wt;
        if w > 0.0 {
            acc += w * values[grid.index(ia, is, ir, it)];
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> SurfaceGrid {
        SurfaceGrid::new(
            vec![400.0],
            vec![320.0, 340.0, 360.0],
            vec![0.1, 0.5, 0.9],
            vec![1e6, 1e7, 1e8],
        )
        .unwrap()
    }

    #[test]
    fn rejects_malformed_axes() {
        for (ts, rf) in [
            (vec![], vec![0.5]),
            (vec![340.0, 320.0], vec![0.5]),
            (vec![330.0, 330.0], vec![0.5]),
            (vec![330.0], vec![1.5]),
            (vec![f64::NAN], vec![0.5]),
        ] {
            assert!(
                SurfaceGrid::new(vec![400.0], ts.clone(), rf.clone(), vec![1e6]).is_err(),
                "{ts:?} {rf:?}"
            );
        }
    }

    #[test]
    fn index_is_row_major_lifetime_fastest() {
        let g = grid();
        assert_eq!(g.len(), 27);
        assert_eq!(g.index(0, 0, 0, 0), 0);
        assert_eq!(g.index(0, 0, 0, 2), 2);
        assert_eq!(g.index(0, 0, 1, 0), 3);
        assert_eq!(g.index(0, 1, 0, 0), 9);
        assert_eq!(g.index(0, 2, 2, 2), 26);
    }

    #[test]
    fn interpolation_is_exact_at_grid_nodes() {
        let g = grid();
        let values: Vec<f64> = (0..g.len()).map(|i| i as f64 * 0.25 + 1.0).collect();
        for (is, &ts) in g.t_standby_k().iter().enumerate() {
            for (ir, &rf) in g.ras_fraction().iter().enumerate() {
                for (it, &t) in g.lifetime_s().iter().enumerate() {
                    let (v, clamped) = interpolate(&g, &values, 400.0, ts, rf, t);
                    assert!(!clamped);
                    let want = values[g.index(0, is, ir, it)];
                    assert!((v - want).abs() < 1e-12, "{v} vs {want}");
                }
            }
        }
    }

    #[test]
    fn interpolation_is_linear_between_nodes() {
        let g = grid();
        // Values linear in the standby axis: interpolation reproduces them.
        let mut values = vec![0.0; g.len()];
        for is in 0..3 {
            for ir in 0..3 {
                for it in 0..3 {
                    values[g.index(0, is, ir, it)] = g.t_standby_k()[is];
                }
            }
        }
        let (v, clamped) = interpolate(&g, &values, 400.0, 333.0, 0.5, 1e7);
        assert!(!clamped);
        assert!((v - 333.0).abs() < 1e-9, "{v}");
    }

    #[test]
    fn out_of_domain_clamps_to_edges_and_reports_it() {
        let g = grid();
        let values: Vec<f64> = (0..g.len()).map(|i| i as f64).collect();
        let (lo, clamped) = interpolate(&g, &values, 400.0, 200.0, 0.5, 1e7);
        assert!(clamped);
        let (edge, edge_clamped) = interpolate(&g, &values, 400.0, 320.0, 0.5, 1e7);
        assert!(!edge_clamped);
        assert!((lo - edge).abs() < 1e-12);

        // Off-axis active temperature on a single-point axis clamps too.
        let (_, clamped) = interpolate(&g, &values, 390.0, 330.0, 0.5, 1e7);
        assert!(clamped);
        let (_, clamped) = interpolate(&g, &values, 400.0, 330.0, 0.5, 1e9);
        assert!(clamped);
    }

    #[test]
    fn lifetime_blends_in_log_coordinates() {
        let g = grid();
        // Values linear in log10(t): the geometric midpoint interpolates
        // to the arithmetic mean of the node values.
        let mut values = vec![0.0; g.len()];
        for is in 0..3 {
            for ir in 0..3 {
                for it in 0..3 {
                    values[g.index(0, is, ir, it)] = g.lifetime_s()[it].log10();
                }
            }
        }
        let mid = (1e6f64 * 1e7f64).sqrt();
        let (v, clamped) = interpolate(&g, &values, 400.0, 340.0, 0.5, mid);
        assert!(!clamped);
        assert!((v - 6.5).abs() < 1e-9, "{v}");
    }
}
