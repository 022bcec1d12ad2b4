//! Multi-cycle AC-stress model (eqs. 7–11 of the paper, after Kumar et al.).
//!
//! Under periodic stress/recovery with duty cycle `c` and period `τ`, the
//! interface-trap density after `n` cycles is `N_it(n) = S_n · A·τ^(1/4)`,
//! where the dimensionless sequence `S_n` obeys
//!
//! ```text
//! S_1     = c^(1/4) / (1 + β)
//! S_{n+1} = S_n + c / (4 (1 + β) S_n^3)
//! β       = sqrt((1 − c) / 2)
//! ```
//!
//! For large `n` the recursion admits the closed form
//! `S_n = (S_1^4 + (n−1)·c/(1+β))^(1/4)`, which this module uses as its fast
//! path; the exact recursion remains available for validation. All three
//! evaluators share one recursion step and one closed-form tail, and
//! [`s_n_many`] reads a whole row of cycle counts off a single walk of the
//! exact prefix.

use crate::error::{check_range, ModelError};
use crate::units::Seconds;

/// A periodic stress pattern: fraction `duty_cycle` of each `period` is
/// spent under stress.
///
/// ```
/// use relia_core::ac::AcStress;
/// use relia_core::units::Seconds;
///
/// let ac = AcStress::new(0.5, Seconds(1e-3)).unwrap();
/// assert_eq!(ac.duty_cycle(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcStress {
    duty_cycle: f64,
    period: Seconds,
}

impl AcStress {
    /// Creates a stress pattern with stress-phase duty cycle
    /// `duty_cycle ∈ [0, 1]` and a positive period.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for a duty cycle outside
    /// `[0, 1]` or a non-positive period.
    pub fn new(duty_cycle: f64, period: Seconds) -> Result<Self, ModelError> {
        check_range("duty_cycle", duty_cycle, 0.0, 1.0, "[0, 1]")?;
        check_range(
            "period",
            period.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            "positive seconds",
        )?;
        Ok(AcStress { duty_cycle, period })
    }

    /// Stress-phase duty cycle `c`.
    pub fn duty_cycle(&self) -> f64 {
        self.duty_cycle
    }

    /// Cycle period `τ`.
    pub fn period(&self) -> Seconds {
        self.period
    }

    /// Number of whole cycles in `total_time` (at least 1 when
    /// `total_time ≥ period`, clamped to 1 below that).
    pub fn cycles_in(&self, total_time: Seconds) -> u64 {
        ((total_time.0 / self.period.0).floor() as u64).max(1)
    }

    /// The dimensionless trap factor `S_n · τ^(1/4)` after `n` cycles, i.e.
    /// `N_it / A`. Multiplying by `K_v` instead of `A` yields `ΔV_th`.
    pub fn trap_factor(&self, n: u64) -> f64 {
        s_n(self.duty_cycle, n) * self.period.0.powf(0.25)
    }

    /// [`AcStress::trap_factor`] at every entry of `ns`, bit-equal to one
    /// call per entry, from a single walk of the recursion ([`s_n_many`]).
    pub fn trap_factors(&self, ns: &[u64]) -> Vec<f64> {
        let scale = self.period.0.powf(0.25);
        let mut out = s_n_many(self.duty_cycle, ns);
        for s in &mut out {
            *s *= scale;
        }
        out
    }
}

/// The `β = sqrt((1 − c)/2)` term of the recursion.
pub fn beta(duty_cycle: f64) -> f64 {
    ((1.0 - duty_cycle) / 2.0).sqrt()
}

/// First-cycle value `S_1 = c^(1/4) / (1 + β)` (eq. 9).
pub fn s1(duty_cycle: f64) -> f64 {
    duty_cycle.powf(0.25) / (1.0 + beta(duty_cycle))
}

/// Exact evaluation of the recursion (eq. 10) by iterating `n − 1` steps.
///
/// Intended for validation and small `n`; use [`s_n_closed`] in production
/// paths. Returns 0 for `c = 0` (no stress at all).
///
/// ```
/// use relia_core::ac::{s_n_closed, s_n_exact};
///
/// let exact = s_n_exact(0.5, 10_000);
/// let fast = s_n_closed(0.5, 10_000);
/// assert!((exact - fast).abs() / exact < 1e-3);
/// ```
pub fn s_n_exact(duty_cycle: f64, n: u64) -> f64 {
    if duty_cycle == 0.0 || n == 0 {
        return 0.0;
    }
    let b = beta(duty_cycle);
    let mut s = s1(duty_cycle);
    for _ in 1..n {
        s = step(duty_cycle, b, s);
    }
    s
}

/// One step of the recursion (eq. 10): `S_n → S_{n+1}`.
#[inline]
fn step(duty_cycle: f64, b: f64, s: f64) -> f64 {
    s + duty_cycle / (4.0 * (1.0 + b) * s * s * s)
}

/// The continuum closed form carried `cycles` further from `anchor`:
/// `(anchor^4 + cycles·c/(1+β))^(1/4)`.
#[inline]
fn tail(duty_cycle: f64, b: f64, anchor: f64, cycles: u64) -> f64 {
    (anchor.powi(4) + cycles as f64 * duty_cycle / (1.0 + b)).powf(0.25)
}

/// Closed-form evaluation `S_n = (S_1^4 + (n−1)·c/(1+β))^(1/4)`.
///
/// This is the continuum limit of the recursion. It undershoots
/// [`s_n_exact`] for small `n` at low duty cycles (the first few recursion
/// steps are not infinitesimal); use [`s_n`] for an evaluator that is
/// accurate everywhere. Returns 0 for `c = 0`.
pub fn s_n_closed(duty_cycle: f64, n: u64) -> f64 {
    if duty_cycle == 0.0 || n == 0 {
        return 0.0;
    }
    tail(duty_cycle, beta(duty_cycle), s1(duty_cycle), n - 1)
}

/// Number of recursion steps [`s_n`] runs exactly before switching to the
/// continuum closed form.
const EXACT_PREFIX: u64 = 4096;

/// Accurate fast evaluator: exact recursion for the first 4096 cycles,
/// then the continuum closed form anchored at the last exact value.
/// Relative error versus [`s_n_exact`] stays below 0.1% across the full
/// `(c, n)` range.
///
/// ```
/// use relia_core::ac::{s_n, s_n_exact};
///
/// for &c in &[0.05, 0.5, 0.95] {
///     for &n in &[1u64, 2, 100, 100_000] {
///         let rel = (s_n(c, n) - s_n_exact(c, n)).abs() / s_n_exact(c, n).max(1e-30);
///         assert!(rel < 1e-3);
///     }
/// }
/// ```
pub fn s_n(duty_cycle: f64, n: u64) -> f64 {
    if duty_cycle == 0.0 || n == 0 {
        return 0.0;
    }
    if n <= EXACT_PREFIX {
        return s_n_exact(duty_cycle, n);
    }
    let anchor = s_n_exact(duty_cycle, EXACT_PREFIX);
    tail(duty_cycle, beta(duty_cycle), anchor, n - EXACT_PREFIX)
}

/// [`s_n`] at every entry of `ns` from one walk of the exact prefix:
/// entry `i` of the result is bit-equal to `s_n(duty_cycle, ns[i])`, for
/// `ns` in any order and with repeats. A lifetime row costs one recursion
/// of at most 4096 steps plus one closed-form tail per entry, instead of
/// one recursion per entry.
///
/// ```
/// use relia_core::ac::{s_n, s_n_many};
///
/// let ns = [100_000u64, 1, 4096, 0, 1];
/// let many = s_n_many(0.5, &ns);
/// for (&n, s) in ns.iter().zip(&many) {
///     assert_eq!(s.to_bits(), s_n(0.5, n).to_bits());
/// }
/// ```
pub fn s_n_many(duty_cycle: f64, ns: &[u64]) -> Vec<f64> {
    let mut out = vec![0.0; ns.len()];
    if duty_cycle == 0.0 {
        return out;
    }
    // Visit the entries in ascending `n` so one walk serves them all.
    let mut order: Vec<usize> = (0..ns.len()).filter(|&i| ns[i] > 0).collect();
    order.sort_unstable_by_key(|&i| ns[i]);
    let b = beta(duty_cycle);
    let (mut s, mut at) = (s1(duty_cycle), 1);
    for i in order {
        let n = ns[i];
        while at < n.min(EXACT_PREFIX) {
            s = step(duty_cycle, b, s);
            at += 1;
        }
        out[i] = if n <= EXACT_PREFIX {
            s
        } else {
            tail(duty_cycle, b, s, n - EXACT_PREFIX)
        };
    }
    out
}

/// Ratio of AC-stress to DC-stress degradation at the same elapsed time, in
/// the long-cycle-count limit: `(c / (1 + β))^(1/4)`.
///
/// ```
/// use relia_core::ac::ac_to_dc_ratio;
///
/// // A 50% duty cycle costs only ~76% of the DC degradation.
/// let r = ac_to_dc_ratio(0.5);
/// assert!((r - 0.7598).abs() < 1e-3);
/// ```
pub fn ac_to_dc_ratio(duty_cycle: f64) -> f64 {
    if duty_cycle == 0.0 {
        return 0.0;
    }
    (duty_cycle / (1.0 + beta(duty_cycle))).powf(0.25)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_limit_recovers_power_law() {
        // c = 1: β = 0, S_n = n^(1/4); N_it grows as (n τ)^(1/4) = t^(1/4).
        for n in [1u64, 10, 100, 1000] {
            let s = s_n_closed(1.0, n);
            assert!((s - (n as f64).powf(0.25)).abs() < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn exact_and_hybrid_agree_everywhere() {
        for &c in &[0.05, 0.25, 0.5, 0.75, 0.95] {
            for &n in &[1u64, 2, 10, 100, 5_000, 50_000] {
                let e = s_n_exact(c, n);
                let f = s_n(c, n);
                let rel = (e - f).abs() / e.max(1e-30);
                assert!(rel < 1e-3, "c={c} n={n}: exact={e} hybrid={f}");
            }
        }
    }

    #[test]
    fn closed_form_matches_exact_for_large_n() {
        for &c in &[0.25, 0.5, 0.95] {
            let n = 100_000;
            let e = s_n_exact(c, n);
            let f = s_n_closed(c, n);
            let rel = (e - f).abs() / e;
            assert!(rel < 5e-3, "c={c}: exact={e} closed={f}");
        }
    }

    #[test]
    fn first_cycle_matches_s1() {
        for &c in &[0.1, 0.5, 0.9] {
            assert!((s_n_exact(c, 1) - s1(c)).abs() < 1e-15);
            assert!((s_n_closed(c, 1) - s1(c)).abs() < 1e-15);
        }
    }

    #[test]
    fn s_n_monotone_in_duty_cycle() {
        let n = 1000;
        let mut prev = 0.0;
        for k in 0..=10 {
            let c = k as f64 / 10.0;
            let s = s_n_closed(c, n);
            assert!(s >= prev, "c={c}");
            prev = s;
        }
    }

    #[test]
    fn s_n_monotone_in_n() {
        for &c in &[0.2, 0.8] {
            let mut prev = 0.0;
            for n in [1u64, 5, 50, 500, 50_000] {
                let s = s_n_closed(c, n);
                assert!(s > prev);
                prev = s;
            }
        }
    }

    #[test]
    fn zero_duty_cycle_means_no_damage() {
        assert_eq!(s_n_exact(0.0, 100), 0.0);
        assert_eq!(s_n_closed(0.0, 100), 0.0);
        assert_eq!(ac_to_dc_ratio(0.0), 0.0);
    }

    #[test]
    fn trap_factor_is_period_insensitive_at_fixed_total_time() {
        // The long-time limit N_it ≈ A (c t / (1+β))^(1/4) does not depend
        // on how the same total time is chopped into cycles.
        let total = Seconds(1.0e8);
        let a = AcStress::new(0.5, Seconds(100.0)).unwrap();
        let b = AcStress::new(0.5, Seconds(10_000.0)).unwrap();
        let fa = a.trap_factor(a.cycles_in(total));
        let fb = b.trap_factor(b.cycles_in(total));
        assert!((fa - fb).abs() / fa < 1e-2, "fa={fa} fb={fb}");
    }

    #[test]
    fn ac_stress_validation() {
        assert!(AcStress::new(1.5, Seconds(1.0)).is_err());
        assert!(AcStress::new(0.5, Seconds(0.0)).is_err());
        assert!(AcStress::new(0.5, Seconds(-1.0)).is_err());
    }

    #[test]
    fn cycles_in_clamps_to_one() {
        let a = AcStress::new(0.5, Seconds(100.0)).unwrap();
        assert_eq!(a.cycles_in(Seconds(5.0)), 1);
        assert_eq!(a.cycles_in(Seconds(250.0)), 2);
    }

    #[test]
    fn ac_dc_ratio_limits() {
        assert!((ac_to_dc_ratio(1.0) - 1.0).abs() < 1e-12);
        assert!(ac_to_dc_ratio(0.5) < 1.0);
    }
}
