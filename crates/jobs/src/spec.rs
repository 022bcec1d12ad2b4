//! Sweep specifications: the cartesian grid of evaluation points.
//!
//! A [`SweepSpec`] describes a batch as the product of shared axes (RAS
//! ratios × standby temperatures × lifetimes) with a [`Workload`] — either
//! full circuit aging analyses under standby policies, or bare model ΔV_th
//! evaluations. [`SweepSpec::points`] enumerates the grid in a fixed
//! row-major order, so a job index identifies the same point on every run
//! of the same spec; that invariant is what checkpoint/resume and the
//! determinism guarantees build on.

use relia_core::seal::fnv1a;
use relia_core::units::{Kelvin, Seconds};
use relia_flow::StandbyPolicy;

/// A standby policy named in a sweep grid (the realizable subset of
/// [`StandbyPolicy`] plus the idealized bounds, in a form that can be
/// printed and parsed for checkpoints and CLI flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicySpec {
    /// Idealized worst case: every PMOS stressed throughout standby.
    Worst,
    /// Idealized best case: no PMOS stressed during standby.
    Best,
    /// Power gating with a footer device.
    Footer,
    /// A concrete standby input vector.
    Vector(Vec<bool>),
}

impl PolicySpec {
    /// The flow-layer policy this spec names.
    pub fn to_policy(&self) -> StandbyPolicy {
        match self {
            PolicySpec::Worst => StandbyPolicy::AllInternalZero,
            PolicySpec::Best => StandbyPolicy::AllInternalOne,
            PolicySpec::Footer => StandbyPolicy::PowerGatedFooter,
            PolicySpec::Vector(v) => StandbyPolicy::InputVector(v.clone()),
        }
    }

    /// Stable textual form (`worst`, `best`, `footer`, or the bit string).
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Worst => "worst".to_owned(),
            PolicySpec::Best => "best".to_owned(),
            PolicySpec::Footer => "footer".to_owned(),
            PolicySpec::Vector(v) => v.iter().map(|&b| if b { '1' } else { '0' }).collect(),
        }
    }

    /// Parses the textual form produced by [`PolicySpec::label`].
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "worst" => Ok(PolicySpec::Worst),
            "best" => Ok(PolicySpec::Best),
            "footer" => Ok(PolicySpec::Footer),
            bits if !bits.is_empty() && bits.bytes().all(|b| b == b'0' || b == b'1') => Ok(
                PolicySpec::Vector(bits.bytes().map(|b| b == b'1').collect()),
            ),
            other => Err(format!(
                "unknown standby policy {other:?} (want worst|best|footer|BITS)"
            )),
        }
    }
}

/// What each grid point computes.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Full aging analyses: `circuits × policies` per schedule point.
    CircuitAging {
        /// Circuit names, resolved by the engine's circuit resolver
        /// (builtin benchmark names or netlist paths).
        circuits: Vec<String>,
        /// Standby policies to evaluate for every circuit.
        policies: Vec<PolicySpec>,
    },
    /// Bare NBTI model evaluation of one device stress point per schedule
    /// point (the workload behind the paper's Fig. 3 / Fig. 4 sweeps).
    ModelDeltaVth {
        /// Active-mode stress probability.
        p_active: f64,
        /// Standby-mode stress probability.
        p_standby: f64,
    },
}

/// A batch sweep: shared schedule axes × workload.
///
/// Every axis must be non-empty for the grid to contain any points. The
/// active temperature and mode-cycle period are fixed at the paper's
/// baseline (400 K, 1000 s) by the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// What to compute at each point.
    pub workload: Workload,
    /// `(active, standby)` RAS weights, e.g. `(1.0, 9.0)` for 1:9.
    pub ras: Vec<(f64, f64)>,
    /// Standby temperatures.
    pub t_standby: Vec<Kelvin>,
    /// Total operating lifetimes.
    pub lifetimes: Vec<Seconds>,
}

/// One enumerated grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct JobPoint {
    /// `(active, standby)` RAS weights.
    pub ras: (f64, f64),
    /// Standby temperature.
    pub t_standby: Kelvin,
    /// Lifetime.
    pub lifetime: Seconds,
    /// The workload-specific part of the point.
    pub task: JobTask,
}

/// The workload-specific half of a [`JobPoint`].
#[derive(Debug, Clone, PartialEq)]
pub enum JobTask {
    /// Aging analysis of `circuit` under `policy`.
    Aging {
        /// Circuit name (resolver key).
        circuit: String,
        /// Standby policy.
        policy: PolicySpec,
    },
    /// Bare model evaluation at this stress probability pair.
    Model {
        /// Active-mode stress probability.
        p_active: f64,
        /// Standby-mode stress probability.
        p_standby: f64,
    },
}

/// The numbers one completed job produces.
#[derive(Debug, Clone, PartialEq)]
pub enum JobResult {
    /// Output of a [`JobTask::Aging`] job.
    Aging {
        /// Largest per-gate ΔV_th in volts.
        worst_delta_vth: f64,
        /// Relative critical-path delay increase.
        degradation: f64,
        /// Time-zero critical-path delay in picoseconds.
        nominal_delay_ps: f64,
        /// End-of-life critical-path delay in picoseconds.
        degraded_delay_ps: f64,
        /// Standby leakage in amperes (realizable vector policies only).
        standby_leakage: Option<f64>,
        /// Expected active-mode leakage in amperes.
        active_leakage: f64,
    },
    /// Output of a [`JobTask::Model`] job: ΔV_th in volts.
    Model {
        /// Threshold-voltage shift in volts.
        delta_vth: f64,
    },
}

impl SweepSpec {
    /// Number of grid points.
    pub fn len(&self) -> usize {
        let tasks = match &self.workload {
            Workload::CircuitAging { circuits, policies } => circuits.len() * policies.len(),
            Workload::ModelDeltaVth { .. } => 1,
        };
        tasks * self.ras.len() * self.t_standby.len() * self.lifetimes.len()
    }

    /// True when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates the grid in its canonical order.
    ///
    /// For [`Workload::CircuitAging`] the nesting is
    /// `circuit → policy → ras → t_standby → lifetime` (lifetime fastest);
    /// for [`Workload::ModelDeltaVth`] it is `ras → t_standby → lifetime`.
    /// Job index `i` is position `i` of this vector, on every run.
    pub fn points(&self) -> Vec<JobPoint> {
        let mut out = Vec::with_capacity(self.len());
        let tasks: Vec<JobTask> = match &self.workload {
            Workload::CircuitAging { circuits, policies } => circuits
                .iter()
                .flat_map(|c| {
                    policies.iter().map(move |p| JobTask::Aging {
                        circuit: c.clone(),
                        policy: p.clone(),
                    })
                })
                .collect(),
            Workload::ModelDeltaVth {
                p_active,
                p_standby,
            } => vec![JobTask::Model {
                p_active: *p_active,
                p_standby: *p_standby,
            }],
        };
        for task in &tasks {
            for (r, t, l) in self.grid() {
                out.push(JobPoint {
                    ras: self.ras[r],
                    t_standby: self.t_standby[t],
                    lifetime: self.lifetimes[l],
                    task: task.clone(),
                });
            }
        }
        out
    }

    /// The `(ras, t_standby, lifetime)` axis indices of one task's points,
    /// in [`SweepSpec::points`] order: RAS outermost, lifetime fastest.
    pub fn grid(&self) -> impl Iterator<Item = (usize, usize, usize)> {
        let (t_count, l_count) = (self.t_standby.len(), self.lifetimes.len());
        (0..self.ras.len() * t_count * l_count)
            .map(move |i| (i / (t_count * l_count), i / l_count % t_count, i % l_count))
    }

    /// FNV-1a fingerprint of the spec's canonical text form. Stored in
    /// checkpoint headers so a resume against a *different* spec is
    /// rejected instead of silently mixing grids.
    pub fn fingerprint(&self) -> u64 {
        let mut text = String::new();
        match &self.workload {
            Workload::CircuitAging { circuits, policies } => {
                text.push_str("aging;");
                for c in circuits {
                    text.push_str(c);
                    text.push(',');
                }
                text.push(';');
                for p in policies {
                    text.push_str(&p.label());
                    text.push(',');
                }
            }
            Workload::ModelDeltaVth {
                p_active,
                p_standby,
            } => {
                text.push_str(&format!("model;{p_active};{p_standby}"));
            }
        }
        text.push(';');
        for (a, s) in &self.ras {
            text.push_str(&format!("{a}:{s},"));
        }
        text.push(';');
        for t in &self.t_standby {
            text.push_str(&format!("{},", t.0));
        }
        text.push(';');
        for l in &self.lifetimes {
            text.push_str(&format!("{},", l.0));
        }
        fnv1a(text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        SweepSpec {
            workload: Workload::CircuitAging {
                circuits: vec!["c17".into(), "c432".into()],
                policies: vec![PolicySpec::Worst, PolicySpec::Best],
            },
            ras: vec![(1.0, 1.0), (1.0, 9.0)],
            t_standby: vec![Kelvin(330.0), Kelvin(400.0)],
            lifetimes: vec![Seconds(1.0e8)],
        }
    }

    #[test]
    fn grid_size_is_product_of_axes() {
        assert_eq!(spec().len(), 2 * 2 * 2 * 2);
        assert_eq!(spec().points().len(), 16);
    }

    #[test]
    fn enumeration_is_stable_and_lifetime_fastest() {
        let a = spec().points();
        let b = spec().points();
        assert_eq!(a, b);
        // First block: first circuit, first policy, first ras, sweeping
        // t_standby then lifetime.
        assert_eq!(a[0].t_standby, Kelvin(330.0));
        assert_eq!(a[1].t_standby, Kelvin(400.0));
        match (&a[0].task, &a[4].task) {
            (
                JobTask::Aging {
                    circuit: c0,
                    policy: p0,
                },
                JobTask::Aging {
                    circuit: c4,
                    policy: p4,
                },
            ) => {
                assert_eq!(c0, "c17");
                assert_eq!(c4, "c17");
                assert_eq!(p0, &PolicySpec::Worst);
                assert_eq!(p4, &PolicySpec::Best);
            }
            other => panic!("unexpected tasks {other:?}"),
        }
    }

    #[test]
    fn fingerprint_distinguishes_specs() {
        let base = spec();
        let mut other = spec();
        other.t_standby.push(Kelvin(370.0));
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut reordered = spec();
        reordered.ras.reverse();
        assert_ne!(base.fingerprint(), reordered.fingerprint());
        assert_eq!(base.fingerprint(), spec().fingerprint());
        // Pinned: checkpoint headers written by earlier builds carry it.
        assert_eq!(base.fingerprint(), 0x701f_735d_8496_ea0f);
    }

    #[test]
    fn policy_labels_round_trip() {
        for p in [
            PolicySpec::Worst,
            PolicySpec::Best,
            PolicySpec::Footer,
            PolicySpec::Vector(vec![true, false, true]),
        ] {
            assert_eq!(PolicySpec::parse(&p.label()).unwrap(), p);
        }
        assert!(PolicySpec::parse("101x").is_err());
        assert!(PolicySpec::parse("").is_err());
    }

    #[test]
    fn empty_axis_empties_the_grid() {
        let mut s = spec();
        s.lifetimes.clear();
        assert!(s.is_empty());
        assert!(s.points().is_empty());
    }
}
