//! Recursive series/parallel network current solver.
//!
//! Works in *normalized coordinates*: the network hangs between a high node
//! at `v` and a low node at `0`, all voltages measured relative to the rail
//! that the OFF devices' gates sit at. A PMOS pull-up network maps onto this
//! frame by mirroring (`u = V_dd − v`), so one solver serves both
//! polarities.
//!
//! * OFF device: exponential subthreshold with source-voltage suppression
//!   (the stacking effect).
//! * ON device: linear conductance (small drop).
//! * Series: the intermediate node voltage is found by bisection on current
//!   continuity — both branch currents are monotone in the node voltage.
//! * Parallel: currents add at equal terminal voltages.
//!
//! A blocking 4-deep stack nests three 40-step bisections, ~140k device
//! evaluations, and each step waits on the comparison before it while each
//! OFF device chains a divide into two `exp` calls: one solve is bound by
//! latency, not throughput. Solves of the same network under different
//! input vectors do not wait on each other, so `network_currents` steps
//! up to [`LANES`] of them in lockstep, every lane repeating
//! [`network_current`]'s operations in its order. [`network_current`] stays
//! scalar: it is the reference the lanes are tested against, and the path
//! for a lone vector.

use std::array;

use relia_cells::{MosType, Network};
use relia_core::units::Kelvin;

use crate::models::{DeviceModels, Transistor};

/// Per-evaluation context: polarity, device widths, ON/OFF states.
#[derive(Debug, Clone)]
pub struct NetworkState<'a> {
    /// Device polarity of the whole network.
    pub mos: MosType,
    /// Gate level of each stage input (true = logic 1), indexing the
    /// network's device pins.
    pub inputs: &'a [bool],
    /// Evaluation temperature.
    pub temp: Kelvin,
    /// Device-width multiplier (drive strength of the owning cell).
    pub width_scale: f64,
}

impl NetworkState<'_> {
    fn device_on(&self, pin: usize) -> bool {
        self.mos.conducts(self.inputs[pin])
    }
}

/// Current through `net` with `v_hi` volts across it (normalized frame).
///
/// For a fully conducting network this returns the (large) ON-conductance
/// current; callers interested in leakage evaluate only non-conducting
/// networks.
pub fn network_current(
    net: &Network,
    state: &NetworkState<'_>,
    models: &DeviceModels,
    v_hi: f64,
    v_lo: f64,
) -> f64 {
    match net {
        Network::Device(pin) => {
            let width = state.mos.default_width() * state.width_scale;
            if state.device_on(*pin) {
                models.on_current(width, v_hi, v_lo)
            } else {
                models.off_current(state.mos, width, v_hi, v_lo, state.temp)
            }
        }
        Network::Parallel(children) => children
            .iter()
            .map(|c| network_current(c, state, models, v_hi, v_lo))
            .sum(),
        Network::Series(children) => series_current(children, state, models, v_hi, v_lo),
    }
}

/// Current through a series chain, solving each intermediate node by
/// bisection. The chain is folded head/tail: `I(head, v_hi, v_mid) =
/// I(tail, v_mid, v_lo)`.
fn series_current(
    children: &[Network],
    state: &NetworkState<'_>,
    models: &DeviceModels,
    v_hi: f64,
    v_lo: f64,
) -> f64 {
    match children.len() {
        0 => 0.0,
        1 => network_current(&children[0], state, models, v_hi, v_lo),
        _ => {
            let head = &children[0];
            let tail = &children[1..];
            // g(v) = I_head(v_hi, v) − I_tail(v, v_lo) is monotone
            // decreasing in v, with g(v_lo) ≥ 0 ≥ g(v_hi).
            let mut lo = v_lo;
            let mut hi = v_hi;
            for _ in 0..40 {
                let mid = 0.5 * (lo + hi);
                let i_head = network_current(head, state, models, v_hi, mid);
                let i_tail = series_current(tail, state, models, mid, v_lo);
                if i_head > i_tail {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let v_mid = 0.5 * (lo + hi);
            // Return the average of the two branch currents to split the
            // residual bisection error symmetrically.
            0.5 * (network_current(head, state, models, v_hi, v_mid)
                + series_current(tail, state, models, v_mid, v_lo))
        }
    }
}

/// Input vectors `network_currents` solves in lockstep. The lanes keep
/// the divider and `exp` busy while each waits on its own previous step.
/// On a 2-vCPU Xeon, NAND4's sixteen vectors on one thread ran 1.5, 1.7
/// and 2.1 times faster than scalar at 4, 8 and 16 lanes. But a table
/// gives each core a group, and at 16 lanes NAND4's two groups each step
/// eight idle lanes: c880's table took ~18.5 ms on two cores against
/// ~15.5 ms at 8. A group steps all its lanes, so a lone vector takes the
/// scalar path.
pub const LANES: usize = 8;

/// [`network_current`] with `V_dd` across `net` under each of `inputs`
/// (one stage-input vector per entry), bit-equal to one scalar call each.
///
/// Up to [`LANES`] vectors step together through the same bisections,
/// with the device constants computed once. A group's idle lanes turn
/// every device on, which costs no `exp`. A group of one is one scalar
/// call.
pub(crate) fn network_currents(
    net: &Network,
    mos: MosType,
    inputs: &[&[bool]],
    models: &DeviceModels,
    temp: Kelvin,
    width_scale: f64,
) -> Vec<f64> {
    let device = Transistor::new(models, mos, mos.default_width() * width_scale, temp);
    let mut currents = Vec::with_capacity(inputs.len());
    for group in inputs.chunks(LANES) {
        if let [inputs] = group {
            let state = NetworkState {
                mos,
                inputs,
                temp,
                width_scale,
            };
            currents.push(network_current(net, &state, models, models.vdd, 0.0));
            continue;
        }
        // `conducts(true)` is the gate level that turns this polarity on.
        let idle = vec![mos.conducts(true); group[0].len()];
        let lanes = Lanes {
            mos,
            device,
            inputs: array::from_fn(|l| group.get(l).copied().unwrap_or(&idle)),
        };
        let lane_currents = lanes.current(net, [models.vdd; LANES], [0.0; LANES]);
        currents.extend_from_slice(&lane_currents[..group.len()]);
    }
    currents
}

/// One voltage per lane.
type Volts = [f64; LANES];

/// One network's solve for [`LANES`] input vectors at once: lane `l` is
/// [`network_current`] under `inputs[l]`.
struct Lanes<'a> {
    mos: MosType,
    device: Transistor,
    inputs: [&'a [bool]; LANES],
}

impl Lanes<'_> {
    /// [`network_current`], lane by lane (currents, one per lane).
    fn current(&self, net: &Network, v_hi: Volts, v_lo: Volts) -> [f64; LANES] {
        match net {
            Network::Device(pin) => array::from_fn(|l| {
                if self.mos.conducts(self.inputs[l][*pin]) {
                    self.device.on_current(v_hi[l], v_lo[l])
                } else {
                    self.device.off_current(v_hi[l], v_lo[l])
                }
            }),
            Network::Parallel(children) => {
                // `Iterator::sum` folds the children in order from its own
                // zero, so every lane does too.
                let mut sum = [std::iter::empty::<f64>().sum(); LANES];
                for child in children {
                    let current = self.current(child, v_hi, v_lo);
                    for (sum, current) in sum.iter_mut().zip(current) {
                        *sum += current;
                    }
                }
                sum
            }
            Network::Series(children) => self.series(children, v_hi, v_lo),
        }
    }

    /// `series_current`, lane by lane: every lane bisects its own node
    /// for the same 40 steps.
    fn series(&self, children: &[Network], v_hi: Volts, v_lo: Volts) -> [f64; LANES] {
        let [head, tail @ ..] = children else {
            return [0.0; LANES];
        };
        if tail.is_empty() {
            return self.current(head, v_hi, v_lo);
        }
        let midpoint =
            |lo: &Volts, hi: &Volts| -> Volts { array::from_fn(|l| 0.5 * (lo[l] + hi[l])) };
        let (mut lo, mut hi) = (v_lo, v_hi);
        for _ in 0..40 {
            let mid = midpoint(&lo, &hi);
            let i_head = self.current(head, v_hi, mid);
            let i_tail = self.series(tail, mid, v_lo);
            // Where the head outruns the tail, the node sits below its
            // solution.
            let below: [bool; LANES] = array::from_fn(|l| i_head[l] > i_tail[l]);
            lo = array::from_fn(|l| if below[l] { mid[l] } else { lo[l] });
            hi = array::from_fn(|l| if below[l] { hi[l] } else { mid[l] });
        }
        let v_mid = midpoint(&lo, &hi);
        let i_head = self.current(head, v_hi, v_mid);
        let i_tail = self.series(tail, v_mid, v_lo);
        array::from_fn(|l| 0.5 * (i_head[l] + i_tail[l]))
    }
}

/// Stack suppression factor: leakage of a single OFF device divided by the
/// leakage of `depth` identical OFF devices in series, at `temp`.
///
/// ```
/// use relia_cells::MosType;
/// use relia_core::Kelvin;
/// use relia_leakage::models::DeviceModels;
/// use relia_leakage::solver::stack_factor;
///
/// let f2 = stack_factor(&DeviceModels::ptm90(), MosType::Nmos, 2, Kelvin(300.0));
/// assert!(f2 > 3.0 && f2 < 50.0); // classic ~10x two-stack suppression
/// ```
pub fn stack_factor(models: &DeviceModels, mos: MosType, depth: usize, temp: Kelvin) -> f64 {
    assert!(depth >= 1, "stack depth must be at least 1");
    // All devices OFF: for NMOS that means all gates low; for PMOS all high.
    let off_level = match mos {
        MosType::Nmos => false,
        MosType::Pmos => true,
    };
    let inputs: Vec<bool> = vec![off_level; depth];
    let state = NetworkState {
        mos,
        inputs: &inputs,
        temp,
        width_scale: 1.0,
    };
    let single = network_current(&Network::Device(0), &state, models, models.vdd, 0.0);
    let chain = Network::Series((0..depth).map(Network::Device).collect());
    let stacked = network_current(&chain, &state, models, models.vdd, 0.0);
    single / stacked.max(1e-30)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models() -> DeviceModels {
        DeviceModels::ptm90()
    }

    fn state<'a>(mos: MosType, inputs: &'a [bool]) -> NetworkState<'a> {
        NetworkState {
            mos,
            inputs,
            temp: Kelvin(300.0),
            width_scale: 1.0,
        }
    }

    #[test]
    fn two_stack_suppression_is_large() {
        let f = stack_factor(&models(), MosType::Nmos, 2, Kelvin(300.0));
        assert!(f > 3.0, "factor {f}");
        let f3 = stack_factor(&models(), MosType::Nmos, 3, Kelvin(300.0));
        assert!(f3 > f, "3-stack {f3} <= 2-stack {f}");
    }

    #[test]
    fn suppression_weakens_at_high_temperature() {
        let cold = stack_factor(&models(), MosType::Nmos, 2, Kelvin(300.0));
        let hot = stack_factor(&models(), MosType::Nmos, 2, Kelvin(400.0));
        assert!(hot < cold, "hot {hot} cold {cold}");
    }

    #[test]
    fn parallel_currents_add() {
        let m = models();
        let inputs = [false, false];
        let st = state(MosType::Nmos, &inputs);
        let single = network_current(&Network::Device(0), &st, &m, 1.0, 0.0);
        let double = network_current(&Network::parallel_bank(2), &st, &m, 1.0, 0.0);
        assert!((double / single - 2.0).abs() < 1e-9);
    }

    #[test]
    fn on_device_in_series_barely_drops() {
        // Series [ON, OFF] should leak nearly as much as the OFF device
        // alone: the ON device is a near-short.
        let m = models();
        let on_off = [true, false]; // NMOS: first on, second off
        let st = state(MosType::Nmos, &on_off);
        let chain = Network::series_chain(2);
        let mixed = network_current(&chain, &st, &m, 1.0, 0.0);
        let off_only = {
            let inputs = [false];
            let st1 = state(MosType::Nmos, &inputs);
            network_current(&Network::Device(0), &st1, &m, 1.0, 0.0)
        };
        assert!(
            (mixed - off_only).abs() / off_only < 0.1,
            "mixed {mixed} vs {off_only}"
        );
    }

    #[test]
    fn current_monotone_in_applied_voltage() {
        let m = models();
        let inputs = [false, false];
        let st = state(MosType::Nmos, &inputs);
        let chain = Network::series_chain(2);
        let low = network_current(&chain, &st, &m, 0.5, 0.0);
        let high = network_current(&chain, &st, &m, 1.0, 0.0);
        assert!(high > low);
    }

    #[test]
    fn pmos_network_with_high_gates_is_off() {
        let m = models();
        let inputs = [true, true];
        let st = state(MosType::Pmos, &inputs);
        let i = network_current(&Network::series_chain(2), &st, &m, 1.0, 0.0);
        // Stacked OFF PMOS: small but positive.
        assert!(i > 0.0 && i < 1.0e-7, "I = {i}");
    }

    #[test]
    fn empty_series_conducts_nothing() {
        let m = models();
        let inputs: [bool; 0] = [];
        let st = state(MosType::Nmos, &inputs);
        assert_eq!(
            network_current(&Network::Series(vec![]), &st, &m, 1.0, 0.0),
            0.0
        );
    }
}
