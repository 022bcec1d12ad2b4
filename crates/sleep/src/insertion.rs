//! Sleep-transistor topologies and the aged delay of a gated circuit
//! (the paper's Fig. 10 and Fig. 11).

use relia_core::Seconds;
use relia_flow::{AgingAnalysis, FlowError, StandbyPolicy};

use crate::sizing::StSizing;

/// Where the sleep transistor sits (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SleepTransistorKind {
    /// NMOS footer between the logic and ground. Internal nodes float up
    /// toward `V_dd` in standby — no PMOS stress, and the footer itself is
    /// NBTI-immune.
    Footer,
    /// PMOS header between `V_dd` and the logic. Internal nodes discharge
    /// toward ground in standby (`V_gs ≈ 0` on the logic PMOS — no stress),
    /// but the header itself ages whenever the circuit is active.
    Header,
    /// Both footer and header: maximal leakage savings; the header still
    /// ages.
    FooterAndHeader,
}

impl SleepTransistorKind {
    /// The standby state the topology imposes on the gated logic: in all
    /// three cases no internal PMOS is negatively biased during standby.
    pub fn standby_policy(&self) -> StandbyPolicy {
        StandbyPolicy::PowerGatedFooter
    }

    /// Whether the topology includes an aging PMOS header.
    pub fn header_ages(&self) -> bool {
        matches!(
            self,
            SleepTransistorKind::Header | SleepTransistorKind::FooterAndHeader
        )
    }
}

/// One point of the gated circuit's delay trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatedDelayPoint {
    /// Operating time.
    pub time: Seconds,
    /// Absolute critical-path delay including the ST penalty, in ps.
    pub delay_ps: f64,
    /// Delay relative to the un-gated, un-aged circuit
    /// (`delay/nominal − 1`).
    pub increase_vs_nominal: f64,
}

/// Sleep-transistor insertion analysis over a prepared aging analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StInsertion {
    /// Topology.
    pub kind: SleepTransistorKind,
    /// ST sizing (penalty budget, threshold).
    pub sizing: StSizing,
}

impl StInsertion {
    /// Delay trajectory of the gated circuit at the given times.
    ///
    /// The internal logic ages only through active-mode stress (the ST
    /// removes all standby stress); on top of that the virtual-rail drop
    /// costs `β` at time zero, and for header topologies the drop widens as
    /// the header's threshold shifts (eq. 29 rearranged).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] for model failures.
    pub fn delay_over_time(
        &self,
        analysis: &AgingAnalysis<'_>,
        times: &[Seconds],
    ) -> Result<Vec<GatedDelayPoint>, FlowError> {
        let policy = self.kind.standby_policy();
        let params = analysis.config().nbti.params();
        let nominal = relia_sta::TimingAnalysis::nominal(analysis.circuit()).max_delay_ps();
        let mut out = Vec::with_capacity(times.len());
        for &t in times {
            // Internal (logic) aging at time t.
            let dv = analysis.gate_delta_vth(&policy, t)?;
            let degraded = relia_sta::TimingAnalysis::degraded(analysis.circuit(), &dv, params)?;
            // Virtual-rail penalty at time t.
            let v_st = if self.kind.header_ages() {
                let st_dv = self.sizing.st_delta_vth(
                    &analysis.config().nbti,
                    &analysis.config().schedule,
                    t,
                )?;
                self.sizing.aged_rail_drop(st_dv)
            } else {
                self.sizing.v_st_max()
            };
            let penalty = 1.0 + self.sizing.delay_penalty(v_st);
            let delay_ps = degraded.max_delay_ps() * penalty;
            out.push(GatedDelayPoint {
                time: t,
                delay_ps,
                increase_vs_nominal: delay_ps / nominal - 1.0,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relia_flow::FlowConfig;
    use relia_netlist::iscas;

    fn setup() -> (FlowConfig, relia_netlist::Circuit) {
        (FlowConfig::paper_defaults().unwrap(), iscas::c17())
    }

    #[test]
    fn all_topologies_remove_standby_stress() {
        for kind in [
            SleepTransistorKind::Footer,
            SleepTransistorKind::Header,
            SleepTransistorKind::FooterAndHeader,
        ] {
            assert_eq!(kind.standby_policy(), StandbyPolicy::PowerGatedFooter);
        }
        assert!(!SleepTransistorKind::Footer.header_ages());
        assert!(SleepTransistorKind::Header.header_ages());
    }

    #[test]
    fn footer_penalty_is_constant_beta() {
        let (config, circuit) = setup();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        let ins = StInsertion {
            kind: SleepTransistorKind::Footer,
            sizing: StSizing::paper_defaults(0.05, 0.30).unwrap(),
        };
        let pts = ins
            .delay_over_time(&analysis, &[Seconds(0.0), Seconds(1.0e8)])
            .unwrap();
        // Time 0: exactly the β penalty.
        assert!((pts[0].increase_vs_nominal - 0.05).abs() < 1e-9);
        // Aging happens but only from active-mode stress.
        assert!(pts[1].increase_vs_nominal > pts[0].increase_vs_nominal);
    }

    #[test]
    fn header_ages_worse_than_footer() {
        let (config, circuit) = setup();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        let sizing = StSizing::paper_defaults(0.05, 0.25).unwrap();
        let footer = StInsertion {
            kind: SleepTransistorKind::Footer,
            sizing,
        };
        let header = StInsertion {
            kind: SleepTransistorKind::Header,
            sizing,
        };
        let t = [Seconds(1.0e8)];
        let f = footer.delay_over_time(&analysis, &t).unwrap();
        let h = header.delay_over_time(&analysis, &t).unwrap();
        assert!(h[0].delay_ps > f[0].delay_ps);
    }

    #[test]
    fn gated_circuit_can_beat_ungated_at_ten_years() {
        // The paper's Fig. 11 claim: despite the time-0 penalty, a small-β
        // ST circuit ends up *faster* at 10 years than the un-gated
        // worst-case circuit at hot standby.
        let circuit = iscas::circuit("c432").unwrap();
        let config = relia_flow::FlowConfig::with_schedule(
            relia_core::Ras::new(1.0, 9.0).unwrap(),
            relia_core::Kelvin(400.0),
        )
        .unwrap();
        let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
        let ungated = analysis.run(&StandbyPolicy::AllInternalZero).unwrap();
        let gated = StInsertion {
            kind: SleepTransistorKind::Footer,
            sizing: StSizing::paper_defaults(0.01, 0.30).unwrap(),
        };
        let pts = gated.delay_over_time(&analysis, &[Seconds(1.0e8)]).unwrap();
        assert!(
            pts[0].increase_vs_nominal < ungated.degradation_fraction(),
            "gated {} vs ungated {}",
            pts[0].increase_vs_nominal,
            ungated.degradation_fraction()
        );
    }
}
