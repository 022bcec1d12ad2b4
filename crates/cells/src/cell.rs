//! A library cell: one or more complementary stages plus timing data.

use crate::error::CellError;
use crate::stage::{Source, Stage};
use crate::timing::CellTiming;
use crate::vector::Vector;

/// Identity of one PMOS device within a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PmosInfo {
    /// Stage the device belongs to.
    pub stage: usize,
    /// Device position within the stage's pull-up network (DFS order).
    pub index: usize,
}

/// A standard cell: named, with validated stages and timing parameters.
///
/// ```
/// use relia_cells::Library;
///
/// let lib = Library::ptm90();
/// let nand2 = lib.cell(lib.find("NAND2").expect("in catalog"));
/// assert_eq!(nand2.num_pins(), 2);
/// assert!(nand2.eval(&[true, false]));
/// assert!(!nand2.eval(&[true, true]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    name: String,
    num_pins: usize,
    stages: Vec<Stage>,
    timing: CellTiming,
    drive_strength: f64,
}

impl Cell {
    /// Creates a cell, validating that every stage input resolves to a valid
    /// pin or an *earlier* stage and that every network device references a
    /// declared stage input.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::DanglingInput`] for invalid references.
    pub fn new(
        name: impl Into<String>,
        num_pins: usize,
        stages: Vec<Stage>,
        timing: CellTiming,
    ) -> Result<Self, CellError> {
        let name = name.into();
        if stages.is_empty() {
            return Err(CellError::DanglingInput {
                cell: name,
                index: 0,
            });
        }
        for (si, stage) in stages.iter().enumerate() {
            stage.pull_up().validate(&name, stage.sources().len())?;
            for src in stage.sources() {
                let ok = match src {
                    Source::Pin(p) => *p < num_pins,
                    Source::Stage(s) => *s < si,
                };
                if !ok {
                    return Err(CellError::DanglingInput {
                        cell: name,
                        index: match src {
                            Source::Pin(p) => *p,
                            Source::Stage(s) => *s,
                        },
                    });
                }
            }
        }
        Ok(Cell {
            name,
            num_pins,
            stages,
            timing,
            drive_strength: 1.0,
        })
    }

    /// Returns a stronger variant of this cell: device widths scaled by
    /// `strength`, delay-per-load divided by it, input capacitance and
    /// leakage multiplied by it. The name gains an `_X<n>` suffix.
    ///
    /// # Panics
    ///
    /// Panics for a non-positive or non-finite strength.
    pub fn with_drive_strength(&self, strength: f64) -> Cell {
        assert!(
            strength > 0.0 && strength.is_finite(),
            "drive strength must be positive"
        );
        let mut scaled = self.clone();
        scaled.name = format!("{}_X{}", self.name, (strength as u32).max(1));
        scaled.drive_strength = self.drive_strength * strength;
        scaled.timing = CellTiming {
            intrinsic_ps: self.timing.intrinsic_ps,
            per_load_ps: self.timing.per_load_ps / strength,
            input_cap: self.timing.input_cap * strength,
        };
        scaled
    }

    /// Device-width multiplier relative to the minimum-size cell.
    pub fn drive_strength(&self) -> f64 {
        self.drive_strength
    }

    /// Cell name (e.g. `"NAND2"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of input pins.
    pub fn num_pins(&self) -> usize {
        self.num_pins
    }

    /// The cell's stages, in evaluation order; the last stage drives the
    /// output.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Timing parameters.
    pub fn timing(&self) -> &CellTiming {
        &self.timing
    }

    /// Checks an input slice's width.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::InputWidthMismatch`] when it differs from
    /// [`Cell::num_pins`].
    pub fn check_width(&self, inputs: &[bool]) -> Result<(), CellError> {
        if inputs.len() == self.num_pins {
            Ok(())
        } else {
            Err(CellError::InputWidthMismatch {
                cell: self.name.clone(),
                expected: self.num_pins,
                got: inputs.len(),
            })
        }
    }

    /// Evaluates every stage, returning the per-stage outputs.
    ///
    /// # Panics
    ///
    /// Panics when `pins` has the wrong width; use [`Cell::check_width`]
    /// first for fallible validation.
    pub fn eval_stages(&self, pins: &[bool]) -> Vec<bool> {
        assert_eq!(
            pins.len(),
            self.num_pins,
            "cell {}: bad input width",
            self.name
        );
        let mut outs: Vec<bool> = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            let stage_inputs = stage.resolve_inputs(pins, &outs);
            outs.push(stage.eval(&stage_inputs));
        }
        outs
    }

    /// Evaluates the cell output.
    ///
    /// # Panics
    ///
    /// Panics when `pins` has the wrong width.
    pub fn eval(&self, pins: &[bool]) -> bool {
        #[expect(clippy::expect_used, reason = "Cell::new rejects stage-less cells")]
        *self
            .eval_stages(pins)
            .last()
            .expect("cells have at least one stage")
    }

    /// Total number of PMOS devices across all stages.
    pub fn pmos_count(&self) -> usize {
        self.stages.iter().map(Stage::pmos_count).sum()
    }

    /// Identity of each PMOS device, in the flat order used by
    /// [`Cell::stressed_pmos`].
    pub fn pmos_devices(&self) -> Vec<PmosInfo> {
        let mut out = Vec::with_capacity(self.pmos_count());
        for (si, stage) in self.stages.iter().enumerate() {
            for di in 0..stage.pmos_count() {
                out.push(PmosInfo {
                    stage: si,
                    index: di,
                });
            }
        }
        out
    }

    /// NBTI stress flags for every PMOS device in the cell under a static
    /// input vector (e.g. the standby state): `true` when the device sits at
    /// `V_gs = −V_dd`.
    ///
    /// # Panics
    ///
    /// Panics when `pins` has the wrong width.
    pub fn stressed_pmos(&self, pins: &[bool]) -> Vec<bool> {
        let stage_outs = self.eval_stages(pins);
        let mut flags = Vec::with_capacity(self.pmos_count());
        let mut prior_outs: Vec<bool> = Vec::new();
        for stage in &self.stages {
            let stage_inputs = stage.resolve_inputs(pins, &prior_outs);
            flags.extend(stage.stressed_pmos(&stage_inputs));
            prior_outs.push(stage.eval(&stage_inputs));
        }
        debug_assert_eq!(prior_outs, stage_outs);
        flags
    }

    /// Probability that each PMOS device is under stress, given independent
    /// per-pin probabilities of being high. Exact, by enumeration of all
    /// `2^num_pins` vectors.
    ///
    /// This is the per-device *duty cycle* of NBTI stress during active
    /// operation (the `c` of the AC model).
    ///
    /// # Panics
    ///
    /// Panics when `pin_probs` has the wrong width or the cell has more than
    /// 24 pins.
    pub fn stress_probabilities(&self, pin_probs: &[f64]) -> Vec<f64> {
        assert_eq!(
            pin_probs.len(),
            self.num_pins,
            "cell {}: bad prob width",
            self.name
        );
        let mut probs = vec![0.0; self.pmos_count()];
        for v in Vector::all(self.num_pins) {
            let p = v.probability(pin_probs);
            if p == 0.0 {
                continue;
            }
            for (i, stressed) in self.stressed_pmos(&v.to_bools()).iter().enumerate() {
                if *stressed {
                    probs[i] += p;
                }
            }
        }
        // A sum of enumerated probabilities can round to 1 + 2⁻⁵².
        for p in &mut probs {
            *p = p.clamp(0.0, 1.0);
        }
        probs
    }

    /// Probability that the output is high, given independent per-pin
    /// probabilities of being high. Exact, by enumeration.
    ///
    /// # Panics
    ///
    /// Panics when `pin_probs` has the wrong width.
    pub fn output_probability(&self, pin_probs: &[f64]) -> f64 {
        assert_eq!(
            pin_probs.len(),
            self.num_pins,
            "cell {}: bad prob width",
            self.name
        );
        Vector::all(self.num_pins)
            .filter(|v| self.eval(&v.to_bools()))
            .map(|v| v.probability(pin_probs))
            .sum::<f64>()
            // The sum can round to 1 + 2⁻⁵², and `1 − p` then to −2⁻⁵².
            .clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;

    fn inv() -> Cell {
        Cell::new(
            "INV",
            1,
            vec![Stage::new(Network::Device(0), vec![Source::Pin(0)])],
            CellTiming {
                intrinsic_ps: 8.0,
                per_load_ps: 4.0,
                input_cap: 1.0,
            },
        )
        .unwrap()
    }

    fn and2() -> Cell {
        // NAND2 stage followed by INV stage.
        Cell::new(
            "AND2",
            2,
            vec![
                Stage::new(
                    Network::parallel_bank(2),
                    vec![Source::Pin(0), Source::Pin(1)],
                ),
                Stage::new(Network::Device(0), vec![Source::Stage(0)]),
            ],
            CellTiming {
                intrinsic_ps: 16.0,
                per_load_ps: 5.0,
                input_cap: 1.2,
            },
        )
        .unwrap()
    }

    #[test]
    fn inverter_behaviour() {
        let c = inv();
        assert!(c.eval(&[false]));
        assert!(!c.eval(&[true]));
        assert_eq!(c.pmos_count(), 1);
        assert_eq!(c.stressed_pmos(&[false]), vec![true]);
    }

    #[test]
    fn and2_truth_table_and_stage_count() {
        let c = and2();
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(c.eval(&[a, b]), a && b, "({a},{b})");
        }
        assert_eq!(c.pmos_count(), 3);
    }

    #[test]
    fn and2_stress_includes_internal_stage() {
        let c = and2();
        // (1,1): NAND2 out = 0, so its PMOS are unstressed (gates high);
        // the INV stage input is 0 so its PMOS is stressed.
        assert_eq!(c.stressed_pmos(&[true, true]), vec![false, false, true]);
        // (0,0): both NAND PMOS stressed, internal node 1, INV unstressed.
        assert_eq!(c.stressed_pmos(&[false, false]), vec![true, true, false]);
    }

    #[test]
    fn stress_probabilities_match_enumeration() {
        let c = and2();
        let probs = c.stress_probabilities(&[0.5, 0.5]);
        // NAND PMOS A stressed when A=0 (source at Vdd always): p = 0.5.
        assert!((probs[0] - 0.5).abs() < 1e-12);
        assert!((probs[1] - 0.5).abs() < 1e-12);
        // INV PMOS stressed when NAND out = 0, i.e. A·B: p = 0.25.
        assert!((probs[2] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn output_probability_exact() {
        let c = and2();
        assert!((c.output_probability(&[0.5, 0.5]) - 0.25).abs() < 1e-12);
        assert!((c.output_probability(&[1.0, 0.3]) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn enumerated_probabilities_are_clamped_to_one() {
        let nand3 = Cell::new(
            "NAND3",
            3,
            vec![Stage::new(
                Network::parallel_bank(3),
                vec![Source::Pin(0), Source::Pin(1), Source::Pin(2)],
            )],
            CellTiming {
                intrinsic_ps: 10.0,
                per_load_ps: 4.0,
                input_cap: 1.0,
            },
        )
        .unwrap();
        // Pin 0 is held low, so the output is high and pin 0's PMOS is
        // stressed with probability exactly 1 — but the raw sum over the
        // enumerated vectors rounds one ulp above it.
        let pins = [0.0, 0.02, 0.46];
        let raw: f64 = Vector::all(3)
            .filter(|v| !v.bit(0))
            .map(|v| v.probability(&pins))
            .sum();
        assert!(raw > 1.0, "precondition: the raw sum {raw} overshoots");
        assert_eq!(nand3.output_probability(&pins), 1.0);
        assert_eq!(nand3.stress_probabilities(&pins)[0], 1.0);
        assert_eq!(1.0 - nand3.output_probability(&pins), 0.0);
    }

    #[test]
    fn validation_rejects_forward_stage_reference() {
        let bad = Cell::new(
            "BAD",
            1,
            vec![Stage::new(Network::Device(0), vec![Source::Stage(0)])],
            CellTiming {
                intrinsic_ps: 1.0,
                per_load_ps: 1.0,
                input_cap: 1.0,
            },
        );
        assert!(bad.is_err());
    }

    #[test]
    fn validation_rejects_dangling_pin() {
        let bad = Cell::new(
            "BAD",
            1,
            vec![Stage::new(Network::Device(0), vec![Source::Pin(3)])],
            CellTiming {
                intrinsic_ps: 1.0,
                per_load_ps: 1.0,
                input_cap: 1.0,
            },
        );
        assert!(bad.is_err());
    }

    #[test]
    fn width_check() {
        let c = inv();
        assert!(c.check_width(&[true]).is_ok());
        assert!(c.check_width(&[true, false]).is_err());
    }
}

#[cfg(test)]
mod drive_tests {
    use super::*;
    use crate::network::Network;

    fn inv() -> Cell {
        Cell::new(
            "INV",
            1,
            vec![Stage::new(Network::Device(0), vec![Source::Pin(0)])],
            CellTiming {
                intrinsic_ps: 8.0,
                per_load_ps: 4.0,
                input_cap: 1.0,
            },
        )
        .expect("valid")
    }

    #[test]
    fn x2_scales_timing_and_name() {
        let strong = inv().with_drive_strength(2.0);
        assert_eq!(strong.name(), "INV_X2");
        assert_eq!(strong.drive_strength(), 2.0);
        assert_eq!(strong.timing().per_load_ps, 2.0);
        assert_eq!(strong.timing().input_cap, 2.0);
        assert_eq!(strong.timing().intrinsic_ps, 8.0);
    }

    #[test]
    fn x2_preserves_logic_and_stress() {
        let base = inv();
        let strong = base.with_drive_strength(2.0);
        for v in [false, true] {
            assert_eq!(base.eval(&[v]), strong.eval(&[v]));
            assert_eq!(base.stressed_pmos(&[v]), strong.stressed_pmos(&[v]));
        }
    }

    #[test]
    fn strength_composes() {
        let x4 = inv().with_drive_strength(2.0).with_drive_strength(2.0);
        assert_eq!(x4.drive_strength(), 4.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_strength_panics() {
        inv().with_drive_strength(0.0);
    }
}
